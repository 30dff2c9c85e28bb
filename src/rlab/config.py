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
from pathlib import Path


class ConfigError(ValueError):
    pass


_TERM = {"amp": float, "wave": list, "kind": str, "phase": float}

SCHEMA = {
    "grid": {"kind": str, "n": int, "resolutions": list, "extents": list},
    "initial_data": {
        "metric": {"family": str, "components": dict, "phi_terms": list,
                   "diag": list},
        "u_terms": list,
    },
    "flow": {"alpha1": float, "alpha2": float, "beta1": float, "beta2": float},
    "schedule": {"t_end": float, "dt": (float, type(None)), "safety": float,
                 "cadence": int, "method": str},
    "verify": {"identities": list, "resolutions": list, "t_eval_frac": float},
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
    types = schema if isinstance(schema, tuple) else (schema,)
    if float in types and isinstance(node, int) and not isinstance(node, bool):
        return
    if not isinstance(node, types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {type(node).__name__}")


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
                          if not isinstance(entry, (int, float)))]:
        _check(terms, list, path)       # each term of ``instances.trig_scalar``
        for k, term in enumerate(terms):
            _check(term, _TERM, where := f"{path}[{k}]")
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
