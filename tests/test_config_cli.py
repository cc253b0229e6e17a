import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pdeopt
from pdeopt import cli
from pdeopt.cli import main, run, sweep
from pdeopt.config import ExperimentConfig
from pdeopt.exceptions import ConfigError


SMALL_KS = {
    "model.kind": "ks", "model.lambda": 30.0,
    "grid.n": 48,
    "time.tau": 0.2, "time.nt": 100,
    "cost.q_scale": 1.0, "cost.r_scale": 1e-3,
    "sets.r1": 50.0,
    "initial_condition.kind": "bump", "initial_condition.amplitude": 2.0,
    "initial_condition.center": 0.3, "initial_condition.width": 0.07,
    "optimizer.max_iters": 400, "optimizer.tol": 1e-5,
}

SMALL_HEAT_LIN = {
    "model.kind": "heat", "model.linear": True,
    "grid.nx": 8, "grid.ny": 8,
    "time.tau": 0.5, "time.nt": 100,
    "cost.r_scale": 0.1,
    "sets.r1": 50.0,
    "initial_condition.kind": "sine", "initial_condition.amplitude": 1.0,
    "optimizer.max_iters": 600, "optimizer.tol": 1e-6,
    "optimizer.multi_start": 2,
    "optimizer.optimize_design": False,  # the Riccati cross-check fixes r
    "riccati.nt": 200,
}


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg["model.kind"] == "ks"
        assert cfg["time.nt"] == 400

    def test_round_trip_lossless(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        path = tmp_path / "exp.ini"
        cfg.to_ini(path)
        again = ExperimentConfig.from_ini(path)
        assert again.to_dict() == cfg.to_dict()
        # and a second round trip is bit-identical text
        assert again.to_ini() == cfg.to_ini()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(values={"model.flux_capacitor": 1.21})

    def test_bad_value_diagnostic_names_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[time]\nnt = soon\n")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(path)
        assert err.value.field == "time.nt"

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(values={"model.kind": "wave"})
        with pytest.raises(ConfigError):
            ExperimentConfig(values={"cost.r_scale": 0.0})
        with pytest.raises(ConfigError):
            ExperimentConfig(values={"time.nt": 1})

    def test_with_value_parses_strings(self):
        cfg = ExperimentConfig().with_value("cost.r_scale", "0.25")
        assert cfg["cost.r_scale"] == 0.25

    def test_with_value_takes_what_the_ini_file_takes(self):
        cfg = ExperimentConfig()
        assert cfg.with_value("grid.nx", 8.0)["grid.nx"] == 8
        assert cfg.with_value("grid.nx", np.int64(8))["grid.nx"] == 8
        assert cfg.with_value("model.linear", 0.0)["model.linear"] is False
        assert cfg.with_value("model.linear", np.float64(1))["model.linear"] is True
        assert cfg.with_value("actuator.r_init", np.float64(0.3))["actuator.r_init"] == (0.3,)
        for name, value in (("grid.nx", 8.7), ("grid.nx", np.float64(8.5)),
                            ("time.nt", True), ("model.linear", 0.5), ("model.linear", 2)):
            with pytest.raises(ConfigError) as err:
                cfg.with_value(name, value)
            assert err.value.field == name

    def test_builders_produce_consistent_objects(self):
        cfg = ExperimentConfig(values=dict(SMALL_HEAT_LIN))
        grid = cfg.build_grid()
        model = cfg.build_model(grid)
        assert model.is_linear
        assert grid.size == 64
        x0 = cfg.build_x0(grid)
        assert x0.shape == (64,)
        tg = cfg.build_time_grid()
        assert tg.nt == 100


class TestRunPipelines:
    def test_simulate_zero_everything(self, tmp_path):
        cfg = ExperimentConfig(values={**SMALL_KS,
                                       "initial_condition.kind": "zero"})
        summary = run("simulate", cfg, tmp_path)
        assert summary["terminal_energy"] == 0.0
        assert summary["margin"] == 0.0
        traj = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        body = np.array([[float(t) for t in line.split(",")[1:]]
                         for line in traj[1:]])
        assert np.all(body == 0.0)
        assert (tmp_path / "manifest.json").exists()

    def test_simulate_heat_nonlinear(self, tmp_path):
        cfg = ExperimentConfig(values={**SMALL_HEAT_LIN, "model.linear": False,
                                       "time.nt": 50})
        summary = run("simulate", cfg, tmp_path)
        assert summary["terminal_energy"] < summary["initial_energy"]
        assert summary["margin"] >= 0
        assert (tmp_path / "trajectory.bin").exists()

    def test_manifest_lists_all_artifacts(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        run("simulate", cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {a["name"] for a in manifest["artifacts"]}
        on_disk = {p.name for p in tmp_path.iterdir() if p.name != "manifest.json"}
        assert listed == on_disk
        import hashlib
        for a in manifest["artifacts"]:
            blob = (tmp_path / a["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == a["sha256"]
            assert len(blob) == a["size"]

    def test_optimize_deterministic_summary(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("optimize", cfg, out1)
        run("optimize", cfg, out2)
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_optimize_linear_heat_riccati_crosscheck(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_HEAT_LIN))
        summary = run("optimize", cfg, tmp_path)
        assert summary["res_u"] <= 1e-6
        assert not summary["riccati_inconclusive"]
        assert summary["riccati_discrepancy"] <= 0.02

    def test_riccati_crosscheck_keeps_its_own_stopping_rule(self, tmp_path):
        # default linear heat 8x8: the run's own optimizer stops at u = 0
        # (res_u 9.4e-6 < tol 1e-5); the cross-check must still solve to its
        # own tolerance instead of comparing the Riccati feedback with u = 0
        cfg = ExperimentConfig(values={"model.kind": "heat", "model.linear": True,
                                       "grid.nx": 8, "grid.ny": 8})
        summary = run("optimize", cfg, tmp_path)
        assert summary["iterations"] == 1
        assert not summary["riccati_inconclusive"]
        assert summary["riccati_discrepancy"] <= 0.02

    def test_gradcheck_summary(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        summary = run("gradcheck", cfg, tmp_path)
        assert summary["ok"]
        assert summary["max_rel_error"] < 1e-4
        payload = json.loads((tmp_path / "gradcheck.json").read_text())
        assert payload["ok"]

    def test_worst_ic_summary(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_HEAT_LIN))
        summary = run("worst-ic", cfg, tmp_path)
        assert summary["constraint_active"]
        assert summary["x0_h1_norm"] == pytest.approx(cfg["sets.r2"], abs=1e-9)
        assert summary["eigen_cosine"] >= 0.999

    @staticmethod
    def _last_row(path):
        lines = path.read_text().splitlines()
        return dict(zip(lines[0].split(","), lines[-1].split(",")))

    def test_last_iteration_row_matches_summary(self, tmp_path):
        # the final report row is the returned iterate: its residuals and
        # margin are the ones the summary reports, for the joint problem,
        # a fixed KS design, the linear heat model and a run stopped by the
        # iteration cap alike
        configs = {
            "ks-joint": SMALL_KS,
            "ks-fixed": {**SMALL_KS, "optimizer.optimize_design": False,
                         "actuator.r_init": (0.4,)},
            "heat-linear": SMALL_HEAT_LIN,
            "ks-capped": {**SMALL_KS, "optimizer.max_iters": 3},
        }
        for name, values in configs.items():
            summary = run("optimize", ExperimentConfig(values=dict(values)),
                          tmp_path / name)
            if name == "ks-capped":
                assert summary["stop_reason"] == "max iterations reached"
                assert summary["iterations"] == 4  # 3 steps, then the returned iterate
            else:
                assert summary["converged"], name
            row = self._last_row(tmp_path / name / "iterations.csv")
            assert float(row["res_u"]) == summary["res_u"], name
            assert float(row["res_r"]) == summary["res_r"], name
            assert summary["margin"] is not None, name
            assert row["margin"] != "" and float(row["margin"]) == summary["margin"], name

    def test_optimize_solves_adjoint_once_per_iteration(self, tmp_path, monkeypatch):
        original = pdeopt.adjoint.solve_adjoint
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        modules = [m for m in vars(pdeopt).values() if type(m) is type(pdeopt)]
        for module in [pdeopt, *modules]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        run("optimize", ExperimentConfig(values=dict(SMALL_KS)), tmp_path)
        rows = (tmp_path / "iterations.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) > 1

    def test_riccati_validate_summary(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_HEAT_LIN))
        summary = run("riccati-validate", cfg, tmp_path)
        assert summary["tanh_error"] < 1e-6
        assert summary["feedback_discrepancy"] <= 0.02
        assert (tmp_path / "pi0.csv").exists()


# the rest of the config that a case of test_exit_two_names_out_of_range_field
# needs to reach its hole
_CONTEXT = {
    ("initial_condition", "width", "1e-170"):
        {"grid.n": "31", "initial_condition.kind": "bump", "initial_condition.center": "0.5"},
    ("grid", "lx", "1e-153"): {"model.kind": "heat", "grid.nx": "8", "grid.ny": "8"},
    ("actuator", "basis_per_axis", "1000"): {"model.kind": "heat"},
    ("grid", "nx", "100000"): {"model.kind": "heat", "grid.ny": "4", "time.nt": "2",
                               "riccati.nt": "2"},
    ("initial_condition", "width", "1e-160"):
        {"grid.n": "31", "initial_condition.kind": "bump", "initial_condition.center": "0.5"},
}


class TestCliEntry:
    def test_exit_zero_simulate(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        ini = tmp_path / "exp.ini"
        cfg.to_ini(ini)
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_exit_two_on_malformed_config(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nkind = wave\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,raw", [
        ("optimizer", "backtrack", "2.0"),
        ("optimizer", "armijo_c1", "0.0"),
        ("optimizer", "step0", "-1.0"),
        ("optimizer", "multi_start", "0"),
        ("riccati", "nt", "1"),
        ("riccati", "check_every", "0"),
        ("grid", "n", "513"),
        ("grid", "nx", "2"),
        ("time", "tau", "-1.0"),
        ("sets", "r2", "-1.0"),
        ("sets", "u_box", "-1.0"),
        ("optimizer", "tol", "0.0"),
        ("optimizer", "max_iters", "0"),
        ("actuator", "omega", "0.0"),
        ("actuator", "basis_per_axis", "0"),
        ("actuator", "r_init", "5.0"),
        ("actuator", "r_init", "0.5,0.5"),
        ("cost", "q_scale", "-1.0"),
        ("grid", "lx", "0.0"),
        ("grid", "ly", "-1.0"),
        ("grid", "lx", "1e-200"),  # h^2 underflows to 0
        ("grid", "lx", "1e200"),  # h^2 overflows to inf
        ("grid", "ly", "1e-200"),
        ("grid", "dirichlet", "left,middle"),
        ("optimizer", "mode", "joint"),  # removed key: unknown field
        ("actuator", "omega", "1e-170"),  # omega^2 underflows to 0
        ("initial_condition", "width", "1e-170"),  # 0/0 at the bump's centre node
        ("grid", "lx", "1e-153"),  # 1/hx^2 is finite, 4/hx^2 + 4/hy^2 is not
        ("time", "nt", "1000000"),  # memory caps: one (10**6 + 1) x 128 array is 0.95 GiB
        ("riccati", "nt", "1000000"),
        ("actuator", "basis_per_axis", "1000"),  # 10**6 x 1024 samples are 7.6 GiB
        ("grid", "nx", "100000"),  # a dense 10**5 x 10**5 factor is 75 GiB
        ("actuator", "omega", "1e-160"),  # omega^2 is subnormal: 1/omega^2 overflows
        ("initial_condition", "width", "1e-160"),
        ("optimizer", "seed", "-1"),
        ("actuator", "kad_high", "1.5"),
        ("actuator", "kad_low", "0.95"),  # in (0, 1) but above kad_high
        ("model", "nonlinearity", "quartic"),
        ("grid", "n", "3"),
        ("grid", "ny", "3"),
        ("time", "nt", "1"),
        ("cost", "r_scale", "0.0"),
        ("sets", "r1", "-1.0"),
        ("initial_condition", "kind", "ramp"),
        ("output", "jobs", "0"),
    ])
    def test_exit_two_names_out_of_range_field(self, tmp_path, capsys, section, key, raw):
        fields = {"model.kind": "ks", **_CONTEXT.get((section, key, raw), {}),
                  f"{section}.{key}": raw}
        lines: dict[str, list[str]] = {}
        for name, text in fields.items():
            sec, field = name.split(".", 1)
            lines.setdefault(sec, []).append(f"{field} = {text}\n")
        ini = tmp_path / "bad.ini"
        ini.write_text("\n".join(f"[{sec}]\n" + "".join(rows) for sec, rows in lines.items()))
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_exit_two_on_negative_seed_override(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ExperimentConfig(values=dict(SMALL_HEAT_LIN)).to_ini(ini)
        code = main(["worst-ic", "--seed", "-1", "--config", str(ini),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "optimizer.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["riccati-validate", "optimize", "worst-ic"])
    def test_exit_two_on_grid_above_riccati_cap(self, tmp_path, capsys, monkeypatch,
                                                 subcommand):
        # 64 x 64 = 4096 nodes would need gigabytes of dense Riccati storage:
        # the refusal must come before any solve, so none of these may run
        def never(*args, **kwargs):
            pytest.fail(f"{subcommand} started solving on a grid above the cap")

        for name in ("solve_differential_riccati", "verify_feedback_consistency",
                     "minimize_joint", "worst_initial_condition"):
            monkeypatch.setattr(cli, name, never)
        ini = tmp_path / "big.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 64\nny = 64\n")
        code = main([subcommand, "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "grid.nx" in err and "grid.ny" in err

    @pytest.mark.parametrize("name,value", [
        ("actuator.omega", 1e200),
        ("initial_condition.width", 1e200),
        ("initial_condition.width", 1.3407807929942597e+154),
    ])
    def test_bump_too_wide_to_square_runs_flat(self, tmp_path, name, value):
        # width**2 overflows a Python float; the bump is flat instead of a traceback
        ini = tmp_path / "wide.ini"
        ExperimentConfig(values={**SMALL_KS, name: value}).to_ini(ini)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(ini), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["terminal_energy"])

    @pytest.mark.parametrize("subcommand", ["simulate", "optimize"])
    def test_ks_margin_null_where_discrete_operator_is_indefinite(self, tmp_path, subcommand):
        # lambda = 39.2 < 4 pi^2, but on 16 nodes the discrete -A has a negative
        # eigenvalue: the KS bound does not apply, which is a null margin
        ini = tmp_path / "ks.ini"
        ini.write_text("[model]\nkind = ks\nlambda = 39.2\n\n[grid]\nn = 16\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(ini), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["margin"] is None

    def test_exit_three_on_blowup(self, tmp_path, capsys):
        cfg = ExperimentConfig(values={**SMALL_KS,
                                       "initial_condition.amplitude": 4e3})
        ini = tmp_path / "boom.ini"
        cfg.to_ini(ini)
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_exit_one_when_riccati_sweep_fails(self, tmp_path, capsys):
        # linear KS at lambda = 60: the Riccati fixed point does not converge
        # at any step size tried, which must end in an error line, not a traceback
        ini = tmp_path / "ks60.ini"
        ini.write_text("[model]\nkind = ks\nlambda = 60\nlinear = true\n\n[grid]\nn = 64\n\n"
                       "[time]\ntau = 0.5\n\n[riccati]\nnt = 100\n")
        code = main(["riccati-validate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: Riccati sweep failed after dt refinements" in err
        assert "Traceback" not in err

    def test_seed_override_changes_summary_seed(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_KS))
        ini = tmp_path / "exp.ini"
        cfg.to_ini(ini)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(ini), "--out", str(out),
                     "--seed", "77"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 77


class TestSweep:
    def _base_cfg(self):
        return ExperimentConfig(values={**SMALL_KS,
                                        "optimizer.optimize_design": False,
                                        "optimizer.tol": 1e-4,
                                        "time.nt": 60,
                                        "grid.n": 32})

    def test_sweep_rows_and_subdirs(self, tmp_path):
        values = [0.3, 0.5, 0.7]
        results = sweep("optimize", self._base_cfg(), tmp_path,
                        "actuator.r_init", values)
        assert len(results) == 3
        assert all(summary is not None for _, summary, _ in results)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,final_cost,res_u,res_r,error"
        assert len(lines) == 4
        for v in values:
            assert (tmp_path / f"actuator_r_init={v:g}" / "summary.json").exists()

    def test_sweep_worker_pool(self, tmp_path):
        cfg = self._base_cfg().with_value("output.jobs", 2)
        results = sweep("optimize", cfg, tmp_path, "actuator.r_init", [0.4, 0.6])
        assert all(summary is not None for _, summary, _ in results)

    def test_sweep_pool_never_exceeds_cpu_count(self, tmp_path, monkeypatch):
        started = []

        class RecordingPool:  # starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [(task[3], None, "not run") for task in tasks]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg = self._base_cfg().with_value("output.jobs", 64)
        sweep("optimize", cfg, tmp_path, "actuator.r_init", [0.1 * i for i in range(1, 9)])
        assert started == [2]

    def test_sweep_preserves_partial_results(self, tmp_path):
        # second value blows up; first must still be written
        cfg = self._base_cfg()
        results = sweep("simulate", cfg, tmp_path,
                        "initial_condition.amplitude", [0.5, 4e3])
        assert results[0][1] is not None
        assert results[1][1] is None and "BlowUpError" in results[1][2]
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_cli_sweep_exit_codes(self, tmp_path):
        cfg = self._base_cfg()
        ini = tmp_path / "exp.ini"
        cfg.to_ini(ini)
        code = main(["sweep", "--config", str(ini), "--out", str(tmp_path / "s"),
                     "--param", "actuator.r_init", "--values", "0.4,0.6"])
        assert code == 0
        code = main(["sweep", "--config", str(ini), "--out", str(tmp_path / "s2")])
        assert code == 2

    def test_cli_sweep_refuses_a_fractional_int_value(self, tmp_path, capsys):
        # grid.nx = 8.5 must not run as nx = 8 in a directory named grid_nx=8.5
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "grid.nx", "--values", "8.5"])
        assert code == 2
        assert "grid.nx" in capsys.readouterr().err
        assert not (out / "grid_nx=8.5").exists()

    def test_cli_sweep_rows_match_their_summaries(self, tmp_path):
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "actuator.r_init", "--values", "0.3,0.5,0.7"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            value, final_cost, _, _, error = line.split(",")
            assert error == ""
            summary = json.loads((out / f"actuator_r_init={float(value):g}"
                                  / "summary.json").read_text())
            assert float(final_cost) == summary["final_cost"]

    def test_cli_sweep_rejects_non_numeric_values(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", str(ini), "--out", str(tmp_path / "s"),
                  "--param", "actuator.r_init", "--values", "abc"])
        assert exit_.value.code == 2
        assert "--values" in capsys.readouterr().err


SCHEMA_KEYS = sorted(ExperimentConfig().values)
FUZZ_BASE = {**SMALL_KS, "grid.n": 16, "grid.nx": 8, "grid.ny": 8, "time.nt": 10}
_WORDS = ["ks", "heat", "cubic", "none", "sine", "bump", "zero", "true", "left",
          "left,top", "0.5", "0.1,0.2", "", "%", "nan", "-inf", "1e400"]


def _raw_values():
    numbers = st.one_of(st.integers(min_value=-10, max_value=64).map(str),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr))
    strings = st.one_of(st.sampled_from(_WORDS),
                        st.text(st.characters(codec="ascii", categories=("L", "N", "P", "Zs")),
                                max_size=12))
    return st.one_of(numbers, strings)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["ks", "heat"]),
       edits=st.dictionaries(st.sampled_from(SCHEMA_KEYS), _raw_values(),
                             min_size=1, max_size=3))
@example(kind="ks", edits={"initial_condition.width": "1e200"})
@example(kind="heat", edits={"initial_condition.width": "1.3407807929942597e+154"})
def test_fuzzed_ini_builds_or_names_a_schema_field(tmp_path, kind, edits):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(ExperimentConfig(values={**FUZZ_BASE, "model.kind": kind}).to_ini())
    for name, raw in edits.items():
        section, key = name.split(".", 1)
        parser[section][key] = raw
    ini = tmp_path / "fuzz.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    try:
        cfg = ExperimentConfig.from_ini(ini)
        grid = cfg.build_grid()
        model = cfg.build_model(grid)
        cfg.build_design(model)
        cfg.build_sets(model)
        cfg.build_time_grid()
        cfg.build_weights()
        cfg.build_optimizer()
        x0 = cfg.build_x0(grid)
    except ConfigError as err:
        assert err.field in SCHEMA_KEYS
    else:
        assert np.all(np.isfinite(x0))


DEFAULTS = ExperimentConfig().values
_CHOICES = ["ks", "heat", "cubic", "none", "left,top", "sine", "bump", "zero", "out"]


def _values_for(name: str):
    """Python and numpy values of the kind of field ``name``, most of them valid."""
    default = DEFAULTS[name]
    if isinstance(default, bool):
        return st.one_of(st.booleans(), st.sampled_from([0, 1, 0.0, 1.0, np.float64(1)]))
    if isinstance(default, int):
        ints = st.integers(min_value=1, max_value=64)
        return st.one_of(ints, ints.map(float), ints.map(np.int64))
    if isinstance(default, str):
        return st.sampled_from(_CHOICES)
    floats = st.floats(min_value=1e-3, max_value=0.999)
    if default is None:
        return st.one_of(st.none(), floats)
    if isinstance(default, tuple):
        return st.one_of(floats, st.lists(floats, max_size=3).map(tuple))
    return st.one_of(floats, floats.map(np.float64), st.floats(min_value=1.0, max_value=1e3))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.sampled_from(SCHEMA_KEYS).flatmap(
    lambda name: st.tuples(st.just(name), _values_for(name))), min_size=1, max_size=4))
@example(edits=[("model.linear", 0.0)])
@example(edits=[("grid.nx", 8.0), ("actuator.r_init", 0.3)])
def test_with_value_edits_round_trip_through_ini(tmp_path, edits):
    cfg = ExperimentConfig()
    for name, value in edits:
        try:
            cfg = cfg.with_value(name, value)
        except ConfigError as err:
            assert err.field in SCHEMA_KEYS
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    assert ExperimentConfig.from_ini(path) == cfg


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from pdeopt.cli import main
out, inis = sys.argv[1], sys.argv[2:]
for sub in ("simulate", "optimize", "worst-ic", "riccati-validate", "gradcheck"):
    for i, ini in enumerate(inis):
        code = main([sub, "--config", ini, "--out", f"{out}/{sub}-{i}"])
        if code != 0:
            sys.exit(f"{sub} on {ini} exited with {code}")
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_core_pipelines_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: every pipeline must run with it blocked
    small = {"time.nt": 40, "riccati.nt": 40, "optimizer.max_iters": 30,
             "optimizer.multi_start": 2}
    inis = [tmp_path / "ks.ini", tmp_path / "heat_linear.ini"]
    ExperimentConfig(values={**SMALL_KS, "grid.n": 24, **small}).to_ini(inis[0])
    ExperimentConfig(values={**SMALL_HEAT_LIN, **small}).to_ini(inis[1])
    src = str(Path(pdeopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), "PDEOPT_LOG": "quiet"}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "out"),
                           *map(str, inis)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
