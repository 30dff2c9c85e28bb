"""Appendix A in 3-D as a gate.  The verify workload's grid is 2-D, where a
bivector has one component; the curved 3-D torus of ``perfbench/workloads.py``
at 16/24/32 exercises the bivector algebra of A.2, A.5 and A.6 as well."""

import json

import pytest

from conftest import workloads
from rlab.cli import run_experiment
from rlab.identities import APPENDIX_A_IDS

# the orders this family measured with the 4-tensor readers of Rm, to full
# precision: a change of the discrete operators moves them, rounding does not
ORDERS = {"A.2": 1.788145540882284, "A.3": 1.8959214444133172,
          "A.4": 1.9302386641968763, "A.5": 1.921313353717352,
          "A.6": 1.8149493564799075, "A.7": 1.796302811975016,
          "A.8": 1.8235060147828674, "A.9": 1.7887644201619666,
          "A.10": 4.059496436835492}


@pytest.fixture(scope="module")
def verify_3d(tmp_path_factory):
    grid, idata = workloads.curved_torus(1, 3, 16)
    cfg = {"grid": grid, "initial_data": idata, "flow": {"alpha1": 2.0},
           "schedule": {"t_end": 0.016, "dt": 2e-3, "method": "rk4", "cadence": 1},
           "verify": {"identities": list(APPENDIX_A_IDS), "resolutions": [16, 24, 32]}}
    tmp = tmp_path_factory.mktemp("verify_3d")
    (tmp / "config.json").write_text(json.dumps(cfg))
    manifest, code = run_experiment(tmp / "config.json", tmp / "out", stages=["verify"])
    return manifest, code, json.loads((tmp / "out" / "residuals.json").read_text())


def test_every_entry_converges_in_3d(verify_3d):
    manifest, code, _ = verify_3d
    assert code == 0
    assert manifest["checks"] == {**{f"verify.{i}": True for i in APPENDIX_A_IDS},
                                  "verify.completed": True}


def test_orders_in_3d_hold(verify_3d):
    reports = {r["identity"]: r for r in verify_3d[2]}
    assert sorted(reports) == sorted(ORDERS)
    for ident, order in ORDERS.items():
        assert reports[ident]["order"] == pytest.approx(order, abs=1e-6), ident
