"""`tools/summary_drift.py` reports float drift and lists every other
difference, integers (counts) and stopping residuals among them."""

import importlib.util
from pathlib import Path

import pytest

SUMMARY_DRIFT = Path(__file__).resolve().parent.parent / "tools" / "summary_drift.py"


def _load():
    spec = importlib.util.spec_from_file_location("summary_drift", SUMMARY_DRIFT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_changed_integer_is_listed_but_not_measured():
    base = {"best_cost": 1.0, "converged": True,
            "starts": [{"cost": 2.0, "iterations": 15}], "design": [0.5, -0.25]}
    head = {"best_cost": 1.0 + 5e-12, "converged": True,
            "starts": [{"cost": 2.0, "iterations": 5}], "design": [0.5, -0.25]}
    diffs: list[str] = []
    worst, key = _load().drift(base, head, "", diffs)
    assert key == "best_cost" and worst == pytest.approx(5e-12, rel=1e-3)
    assert diffs == ["starts[0].iterations: 15 -> 5"]


def test_stopping_residual_is_listed_but_not_measured():
    base = {"best_cost": 1.0, "kkt_residual": 2.1e-9, "res_u": 4e-6, "res_r": 0.0,
            "mu": 0.5}
    head = {"best_cost": 1.0 + 5e-12, "kkt_residual": 3.3e-9, "res_u": 4e-6, "res_r": 1e-7,
            "mu": 0.5}
    diffs: list[str] = []
    worst, key = _load().drift(base, head, "", diffs)
    assert key == "best_cost" and worst == pytest.approx(5e-12, rel=1e-3)
    assert diffs == ["kkt_residual: 2.1e-09 -> 3.3e-09", "res_r: 0.0 -> 1e-07"]
