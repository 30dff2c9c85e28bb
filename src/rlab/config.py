"""Experiment configuration: schema validation and canonical hashing.

Configs are JSON files.  Validation is strict: unknown keys anywhere are
rejected with the offending path in the message.  Hashing canonicalizes
(sorted keys, repr floats) before SHA-256, so identical configs hash
identically across platforms.  The machine-readable schema ships in the
repository as ``config.schema.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class ConfigError(ValueError):
    pass


DEFAULT_SEED = 1234     # the root seed of a config that names none, and the optimizer's
# the initial-metric families (an absent family is flat) and the family reading each key
FAMILIES = ("flat", "conformal", "perturbed", "product")
READ_BY = {"phi_terms": "conformal", "components": "perturbed", "diag": "product"}
_TERM = {"amp": float, "wave": [int], "kind": str, "phase": float}

SCHEMA = {
    "grid": {"kind": str, "n": int, "resolutions": [int], "extents": [float]},
    "initial_data": {
        "metric": {"family": str, "components": dict, "phi_terms": list,
                   "diag": list},
        "u_terms": list,
    },
    "flow": {"alpha1": float, "alpha2": float, "beta1": float, "beta2": float},
    "schedule": {"t_end": float, "dt": (float, type(None)), "safety": float,
                 "cadence": int, "method": str},
    "verify": {"identities": list, "resolutions": [int], "t_eval_frac": float},
    "entropy": {"tau0": float, "samples": int, "tol": float, "max_iter": int,
                "nseeds": int},
    "compare": {"scalar_pairs": list, "instances": int},
    "uniqueness": {"delta": float, "beta": float},
    "constants": {"K": float, "L": float, "P": float, "D": float, "A": float,
                  "C_user": float, "C_s": float, "Cn_user": float, "A1": float,
                  "C": float, "C0": float, "chi": float},
    "seed": int,
}


def _check(node, schema, path):
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{path or '<root>'}: expected a mapping")
        for key, val in node.items():
            if key not in schema:
                raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
            _check(val, schema[key], f"{path + '.' if path else ''}{key}")
        return
    if isinstance(schema, list):        # [t]: a list whose every entry is a t
        _check(node, list, path)
        for k, entry in enumerate(node):
            _check(entry, schema[0], f"{path}[{k}]")
        return
    types = schema if isinstance(schema, tuple) else (schema,)
    numbers = types + (int,) if float in types else types   # 2 is a float; true is no number
    if isinstance(node, bool) or not isinstance(node, numbers):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {type(node).__name__}")
    if isinstance(node, float) and not math.isfinite(node):    # JSON's NaN, Infinity
        raise ConfigError(f"{path}: must be finite, got {node!r}")


REQUIRED = ("grid",)

# a count below 1 or an empty list leaves its stage nothing to check
COUNTS = ("entropy.samples", "entropy.nseeds", "entropy.max_iter", "compare.instances")
LISTS = ("verify.identities", "verify.resolutions", "compare.scalar_pairs")


def validate(config: dict) -> dict:
    _check(config, SCHEMA, "")
    for key in REQUIRED:
        if key not in config:
            raise ConfigError(f"{key}: required section missing")
    g = config["grid"]
    for key in ("kind", "n", "resolutions", "extents"):
        if key not in g:
            raise ConfigError(f"grid.{key}: required key missing")
    for path in COUNTS + LISTS:
        section, key = path.split(".")
        val = config.get(section, {}).get(key)
        if val is not None and (len(val) if path in LISTS else val) < 1:
            raise ConfigError(f"{path}: must not be empty" if path in LISTS
                              else f"{path}: must be at least 1, got {val!r}")
    n, idata = g["n"], config.get("initial_data", {})
    mspec = idata.get("metric", {})
    family = mspec.get("family", "flat")
    if family not in FAMILIES:
        raise ConfigError(f"initial_data.metric.family: unknown family {family!r}, "
                          f"not one of {', '.join(FAMILIES)}")
    for key, reader in READ_BY.items():
        if key in mspec and reader != family:
            raise ConfigError(f"initial_data.metric.{key}: read only by the family "
                              f"{reader!r}, not by {family!r}")
    for key in (comps := mspec.get("components", {})):
        ij = key.split(",")
        if len(ij) != 2 or not all(s.strip().isdigit() and int(s) < n for s in ij):
            raise ConfigError(f"initial_data.metric.components: key {key!r} is not "
                              f"'i,j' with i, j in 0..{n - 1}")
    diag = mspec.get("diag", [1.0] * n)
    if len(diag) != n:
        raise ConfigError(f"initial_data.metric.diag: {len(diag)} entries for n={n}")
    for path, terms in [("initial_data.u_terms", idata.get("u_terms", [])),
                        ("initial_data.metric.phi_terms", mspec.get("phi_terms", [])),
                        *((f"initial_data.metric.components.{key}", terms)
                          for key, terms in comps.items()),
                        *((f"initial_data.metric.diag[{k}]", entry)
                          for k, entry in enumerate(diag)
                          if isinstance(entry, bool) or not isinstance(entry, (int, float)))]:
        _check(terms, [_TERM], path)    # each term of ``instances.trig_scalar``
        for k, term in enumerate(terms):
            where = f"{path}[{k}]"
            if "amp" not in term or len(term.get("wave", [])) != n:
                raise ConfigError(f"{where}: needs an amp and a wave of n={n} entries")
            if term.get("kind", "sin") not in ("sin", "cos"):
                raise ConfigError(f"{where}.kind: {term['kind']!r} is not 'sin' or 'cos'")
    beta = config.get("uniqueness", {}).get("beta", 0.5)
    if not 0 < beta < 1:
        raise ConfigError(f"uniqueness.beta: {beta!r} outside (0, 1)")
    sched = config.get("schedule", {})
    if "safety" in sched and sched.get("dt") is not None:
        raise ConfigError("schedule.safety: no effect next to a numeric schedule.dt; "
                          "it scales the step bound only when dt is null")
    c = config.get("constants", {})
    positive, no_k = ("C_user", "Cn_user", "C_s", "C0"), not c.get("K", 0.0) > 0
    for key, bad, why in (*((k, c.get(k, 0.0) < 0, "is below 0") for k in ("K", "D", "A")),
                          *((k, c.get(k, 1.0) <= 0, "is not positive") for k in positive),
                          *((k, no_k, "has no effect without a positive constants.K, as "
                             "lambda2 alone reads it") for k in ("L", "P"))):
        if key in c and bad:
            raise ConfigError(f"constants.{key}: {c[key]!r} {why}")
    return config


def load_config(path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return validate(cfg)


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def config_hash(config: dict) -> str:
    canon = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
