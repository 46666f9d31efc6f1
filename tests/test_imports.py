"""scipy is loaded only by the code that calls it.

Each guard runs in a fresh interpreter with ``src`` on the path and
asserts which scipy modules end up in ``sys.modules``; none of them
measures time.  The pins check that each lazily reached scipy name is
the very object, or gives the very numbers, that a top-level import did.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special

from qpe_bounds import bounds, estimators, schedules

_ROOT = Path(__file__).resolve().parents[1]

_TABLES = {
    "spectrum": "uniform",
    "L": 4,
    "alphas": [0.4],
    "protocols": [
        {"kind": "qmegs", "T": [50], "N_t": 20},
        {"kind": "csqpe", "T": [50], "N_t": 20},
        {"kind": "qcels", "T": [64], "N_t": 20},
        {"kind": "qft", "T": [255]},
    ],
}
_BENCH_HT = {
    "spectrum": "uniform",
    "L": 4,
    "alphas": [0.4],
    "trials": 2,
    "protocols": [
        {"kind": "qmegs", "T": [50], "N_t": 50, "N_s": 2},
        {"kind": "csqpe", "T": [50], "N_t": 50, "N_s": 2, "sparsity": 2},
        {"kind": "qcels", "T": [64], "N_t": 50, "N_s": 2},
    ],
}
_BENCH_QFT = {
    "spectrum": "uniform",
    "L": 4,
    "alphas": [0.4],
    "trials": 2,
    "protocols": [{"kind": "qft", "T": [255], "N_s": 1000}],
}

# run the given commands through cli.main, then print the scipy modules loaded
_SCRIPT = """
import json, sys
import qpe_bounds, qpe_bounds.cli
for argv in json.loads(sys.argv[1]):
    assert qpe_bounds.cli.main(argv) in (0, 2), argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_loaded(tmp_path, config=None, commands=()):
    argvs = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argvs = [
            [c, "--config", str(path), "--out", str(tmp_path / f"{c}.csv"), "--seed", "3"]
            for c in commands
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path) == set()


def test_the_table_commands_load_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path, _TABLES, ("bounds", "diag", "gi")) == set()


def test_a_hadamard_test_bench_loads_special_and_fft_only(tmp_path):
    loaded = _scipy_loaded(tmp_path, _BENCH_HT, ("bench",))
    assert {"scipy.special", "scipy.fft"} <= loaded
    assert not {"scipy.linalg", "scipy.optimize"} & loaded


def test_a_qft_bench_loads_optimize(tmp_path):
    assert "scipy.optimize" in _scipy_loaded(tmp_path, _BENCH_QFT, ("bench",))


def test_truncation_constant_matches_scipy_erf_exactly():
    assert schedules._C == float(scipy.special.erf(1 / np.sqrt(2)))


def test_nnls_wrapper_returns_scipys_result_exactly():
    rng = np.random.default_rng(5)
    A, b = rng.normal(size=(12, 4)), rng.normal(size=12)
    x, rnorm = estimators.nnls(A, b)
    x_ref, rnorm_ref = scipy.optimize.nnls(A, b)
    assert np.array_equal(x, x_ref) and rnorm == rnorm_ref


def test_bounds_resolves_cho_factor_on_demand():
    assert bounds.cho_factor is scipy.linalg.cho_factor


def test_bounds_rejects_any_other_missing_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        bounds.no_such_name
