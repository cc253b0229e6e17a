import configparser
import json
import os
import re
import subprocess
import sys
import warnings
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
    def test_readme_ini_examples_parse(self, tmp_path):
        # a key removed from the schema cannot linger in a README example
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
        assert blocks
        for i, text in enumerate(blocks):
            ini = tmp_path / f"readme{i}.ini"
            ini.write_text(text)
            ExperimentConfig.from_ini(ini)

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

    def test_constructor_refuses_a_fractional_int(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(values={"time.nt": 2.5})
        assert err.value.field == "time.nt"

    def test_constructor_parses_ini_text(self):
        n = ExperimentConfig(values={"grid.n": "31"})["grid.n"]
        assert n == 31 and isinstance(n, int)

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

    @pytest.mark.parametrize("kind", ["ks", "heat"])
    def test_nonlinearity_none_builds_the_linear_model(self, kind):
        cfg = ExperimentConfig(values={"model.kind": kind, "model.nonlinearity": "none"})
        assert cfg.is_linear and not cfg["model.linear"]
        assert cfg.build_model().is_linear

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

    def test_optimize_writes_the_trajectory_as_a_checkpoint(self, tmp_path):
        run("optimize", ExperimentConfig(values=dict(SMALL_KS)), tmp_path)
        assert not (tmp_path / "trajectory.csv").exists()
        traj, grid = pdeopt.load_checkpoint(tmp_path / "trajectory.bin")
        assert traj.states.shape == (SMALL_KS["time.nt"] + 1, grid.size)
        final = np.loadtxt(tmp_path / "final_state.csv", delimiter=",", skiprows=1)
        assert np.array_equal(traj.terminal, final[:, 1])

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
        assert [s["label"] for s in summary["starts"]] == ["lanczos"]

    def test_worst_ic_without_a_state_cost(self, tmp_path):
        # q = 0 makes every product zero: Lanczos stops at once on the
        # invariant space, and the answer's KKT residual is exactly 0
        ini = tmp_path / "q0.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 8\nny = 8\n\n"
                       "[cost]\nq_scale = 0\n")
        out = tmp_path / "o"
        assert main(["worst-ic", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_cost"] == 0.0 and summary["converged"]

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

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_exit_two_when_out_names_a_file(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(["simulate", "--out", str(taken / below)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert taken.read_text() == "not a directory\n"

    def test_exit_two_on_malformed_config(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nkind = wave\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_exit_two_on_unreadable_config(self, tmp_path, capsys, case):
        ini = tmp_path / "exp.ini"
        if case == "directory":
            ini.mkdir()
        elif case == "not-utf8":
            ini.write_bytes(b"[model]\nkind = ks\n# caf\xe9\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config field '(file)'" in err and str(ini) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,field", [
        ("kind = ks\n", "(file)"),
        ("[nosuch]\nkey = 1\n", "nosuch"),
        ("[initial_condition]\namplitude = 1e300\nsecond_mode = 1e300\n",
         "initial_condition.amplitude"),
    ])
    def test_exit_two_names_the_refused_part_of_the_file(self, tmp_path, capsys, text, field):
        # no section header, an unknown section, an initial state that overflows
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("section,key,raw", [
        ("optimizer", "multi_start", "0"),
        ("riccati", "nt", "1"),
        ("riccati", "check_every", "0"),
        ("grid", "n", "513"),
        ("grid", "nx", "2"),
        ("time", "tau", "-1.0"),
        ("sets", "r2", "-1.0"),
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

    # the schema admits both values, but the KS operator (lambda 2/h^2 on
    # its diagonal) and the input weight w/rho = (1/33)/1e-310 overflow
    # float64; each run used to end in exit 1 with an "error:" line
    @pytest.mark.parametrize("text, field, subcommands", [
        ("[model]\nkind = ks\nlambda = 1e308\n", "model.lambda",
         ["simulate", "optimize", "worst-ic", "riccati-validate", "gradcheck"]),
        ("[model]\nkind = ks\nlinear = true\n\n[cost]\nr_scale = 1e-310\n", "cost.r_scale",
         ["optimize", "worst-ic", "riccati-validate"])], ids=["ks-lambda", "r-scale"])
    def test_exit_two_names_a_field_whose_model_overflows(self, tmp_path, capsys, text,
                                                          field, subcommands):
        ini = tmp_path / "big.ini"
        ini.write_text(text + "\n[grid]\nn = 32\n\n[time]\nnt = 20\n")
        for subcommand in subcommands:
            code = main([subcommand, "--config", str(ini), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1, (subcommand, err)
            assert f"config field '{field}'" in err

    # one design rule, ActuatorFamily.check, with its 1e-12 box tolerance:
    # an r_init that every solve's check accepts is accepted by the config
    def test_r_init_within_the_box_tolerance_runs(self, tmp_path):
        ini = tmp_path / "edge.ini"
        ini.write_text("[grid]\nn = 32\n\n[time]\nnt = 20\n\n"
                       f"[actuator]\nr_init = {0.9 + 1e-13!r}\n")
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0

    def test_r_init_beyond_the_box_tolerance_exits_two(self, tmp_path, capsys):
        ini = tmp_path / "out.ini"
        ini.write_text("[grid]\nn = 32\n\n[time]\nnt = 20\n\n"
                       f"[actuator]\nr_init = {0.9 + 1e-9!r}\n")
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'actuator.r_init'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,raw", [("armijo_c1", "1e-4"), ("backtrack", "0.5"),
                                         ("step0", "1.0")])
    def test_exit_two_names_removed_optimizer_key(self, tmp_path, capsys, key, raw):
        # the Armijo constants and the first step are fixed in pdeopt.optimize;
        # even their old defaults are refused, like the removed optimizer.mode
        ini = tmp_path / "old.ini"
        ini.write_text(f"[optimizer]\n{key} = {raw}\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config field 'optimizer.{key}': unknown field" in capsys.readouterr().err

    def test_exit_two_names_the_removed_amplitude_box(self, tmp_path, capsys):
        # the input set is the ball of radius sets.r1 alone
        ini = tmp_path / "old.ini"
        ini.write_text("[sets]\nu_box = -1.0\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config field 'sets.u_box': unknown field" in capsys.readouterr().err

    def test_exit_two_names_the_removed_output_dir(self, tmp_path, capsys):
        # the output directory is --out alone
        ini = tmp_path / "old.ini"
        ini.write_text("[output]\ndir = x\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config field 'output.dir': unknown field" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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

    # on 4x4 cells of the unit square w = 1/16 and K = I - Delta_h has
    # eigenvalues up to k = 1 + 4/hx^2 + 4/hy^2 = 129, so <x, Kx> stays finite
    # on the H1 ball while r2 <= sqrt(fmax w) / k**(1/4)
    _R2_MAX = float(np.sqrt(np.finfo(np.float64).max / 16.0) / 129.0 ** 0.25)

    @pytest.mark.parametrize("r2", [1e300, 1.3e154, 1.01 * _R2_MAX])
    def test_exit_two_when_the_h1_ball_overflows(self, tmp_path, capsys, r2):
        ini = tmp_path / "wide.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"
                       f"[sets]\nr2 = {r2!r}\n")
        code = main(["worst-ic", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sets.r2" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        "[cost]\nq_scale = 1e10\n\n[sets]\nr2 = 9e152\n",  # the cost overflows
        "[time]\ntau = 1e6\n\n[sets]\nr2 = 1e150\n",  # the norm of its gradient overflows
    ], ids=["q_scale", "tau"])
    def test_exit_two_when_the_worst_ic_cost_overflows(self, tmp_path, capsys, extra):
        # both radii are inside the grid's H1 bound; the cost, which grows with
        # r2 squared, leaves float64 on the ball
        ini = tmp_path / "wide.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"
                       + extra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["worst-ic", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config field 'sets.r2'" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_exit_two_when_the_optimize_cost_overflows(self, tmp_path, capsys):
        # the cost grows with the initial amplitude squared and with q_scale;
        # the suite turns a RuntimeWarning into an error, so none may escape
        ini = tmp_path / "loud.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"
                       "[cost]\nq_scale = 1e300\n\n[initial_condition]\namplitude = 1e10\n")
        code = main(["optimize", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config field 'initial_condition.amplitude'" in err
        assert "square" in err and "cost.q_scale" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_exit_two_when_the_riccati_validate_cost_overflows(self, tmp_path, capsys):
        # the input-only solve's cost grows with q_scale and with the initial
        # amplitude squared; no RuntimeWarning may escape either
        ini = tmp_path / "loud.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"
                       "[cost]\nq_scale = 1e290\n\n[initial_condition]\namplitude = 1e3\n")
        code = main(["riccati-validate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config field 'cost.q_scale'" in err
        assert "initial_condition.amplitude" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_worst_ic_just_inside_the_h1_bound_runs_without_warnings(self, tmp_path):
        ini = tmp_path / "wide.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"
                       f"[sets]\nr2 = {0.99 * self._R2_MAX!r}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["worst-ic", "--config", str(ini), "--out", str(out)])
        assert code == 0 and not caught
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] and np.isfinite(summary["best_cost"])

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

    def test_exit_three_names_the_cause(self, tmp_path, capsys):
        ini = tmp_path / "boom.ini"
        ini.write_text("[model]\nkind = heat\n\n[grid]\nnx = 8\nny = 8\n\n"
                       "[initial_condition]\namplitude = 1e110\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "nonlinearity overflowed" in capsys.readouterr().err

    def test_exit_one_when_crank_nicolson_factors_overflow(self, tmp_path, capsys):
        ini = tmp_path / "huge_dt.ini"
        ini.write_text("[model]\nkind = ks\n\n[time]\ntau = 1e300\nnt = 2\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dt=5e+299" in err

    def test_unstable_linear_ks_riccati_validate_runs(self, tmp_path, capsys):
        # linear KS at lambda = 60 has eigenvalues up to 278: the sweep keeps
        # Pi dense there, and at riccati.nt = 800 (h s b^T Pi b <= 1) the run
        # ends with exit 0 and a finite PSD Pi(0)
        ini = tmp_path / "ks60.ini"
        ini.write_text("[model]\nkind = ks\nlambda = 60\nlinear = true\n\n[grid]\nn = 64\n\n"
                       "[time]\ntau = 0.5\n\n[riccati]\nnt = 800\n")
        out = tmp_path / "o"
        assert main(["riccati-validate", "--config", str(ini), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        pi0 = np.loadtxt(out / "pi0.csv", delimiter=",")
        assert np.all(np.isfinite(pi0))
        evs = np.linalg.eigvalsh(pi0)
        assert evs[0] >= -1e-8 * evs[-1]

    def test_dense_riccati_cross_check_concludes(self, tmp_path):
        # linear KS at lambda = 40 has a top eigenvalue of 7.27, so the sweep
        # keeps Pi dense; with tau = 0.5 the input-only solve converges inside
        # the input ball, and the feedback cross-check concludes
        ini = tmp_path / "ks40.ini"
        ini.write_text("[model]\nkind = ks\nlambda = 40\nlinear = true\n\n[grid]\nn = 64\n\n"
                       "[time]\ntau = 0.5\n\n[riccati]\nnt = 800\n")
        assert ExperimentConfig.from_ini(ini).build_model().linear_op.basis.values.max() > 0
        out = tmp_path / "o"
        assert main(["riccati-validate", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["inconclusive"] is False
        assert summary["feedback_discrepancy"] <= 0.02

    # linear 8x8 heat with a cheap input: the optimum inside a ball of radius
    # 0.1 has ||u|| = 0.0915 and satisfies the feedback law, while a ball of
    # radius 1e-2 binds there and the check says so instead of comparing
    @pytest.mark.parametrize("r1, inconclusive", [("1e-2", True), ("0.1", False)])
    def test_riccati_validate_is_inconclusive_where_the_input_ball_binds(
            self, tmp_path, r1, inconclusive):
        ini = tmp_path / "heat.ini"
        ini.write_text("[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 8\nny = 8\n\n"
                       "[time]\nnt = 100\n\n[riccati]\nnt = 100\n\n[cost]\nr_scale = 1e-4\n\n"
                       f"[sets]\nr1 = {r1}\n")
        out = tmp_path / "o"
        assert main(["riccati-validate", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["inconclusive"] is inconclusive
        if inconclusive:
            assert summary["parts"] == {"reason": "input constraint active at optimum"}
        else:
            assert summary["parts"]["u_norm"] == pytest.approx(0.0915, abs=1e-4)
            assert summary["feedback_discrepancy"] <= 0.05

    # linear KS at lambda = 1e200 has lambda_max h near 1e201, where the
    # dense sweep's e^{lambda h/2} overflows float64: the step is refused by
    # the field that sets it, with a step count, as a step with a > 1 is;
    # at lambda = 1e300 and tau = 1e5 even that count overflows
    @pytest.mark.parametrize("subcommand, field, lam, tau", [
        ("riccati-validate", "riccati.nt", "1e200", "1.0"),
        ("optimize", "riccati.nt", "1e200", "1.0"), ("worst-ic", "time.nt", "1e200", "1.0"),
        ("riccati-validate", "riccati.nt", "1e300", "1e5")])
    def test_exit_two_names_a_riccati_step_that_overflows(self, tmp_path, capsys,
                                                          subcommand, field, lam, tau):
        ini = tmp_path / "lam.ini"
        ini.write_text(f"[model]\nkind = ks\nlambda = {lam}\nlinear = true\n\n"
                       f"[grid]\nn = 32\n\n[time]\ntau = {tau}\nnt = 20\n")
        code = main([subcommand, "--config", str(ini), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, err
        assert f"config field '{field}'" in err and "overflows float64" in err
        assert re.search(r"take at least about \S+ steps", err)

    # a Riccati step with h s b^T Pi b > 1 exits 2 naming the field that sets
    # it; 4x4 linear heat (zero initial state, so the optimizer stops at once)
    # at the default nt = 400 reaches 0.46 at q_scale 1e7 and 2.2 at 1e8, and
    # linear KS at lambda = 60 and riccati.nt = 100 reaches 1.48, where the
    # sweep is 35 % off a 12800-step reference
    _HEAT_4X4 = "[model]\nkind = heat\nlinear = true\n\n[grid]\nnx = 4\nny = 4\n\n"

    @pytest.mark.parametrize("subcommand, text, field", [
        ("riccati-validate", _HEAT_4X4 + "[cost]\nq_scale = 1e7\n\n"
         "[initial_condition]\namplitude = 0\n", None),
        ("riccati-validate", _HEAT_4X4 + "[cost]\nq_scale = 1e8\n\n"
         "[initial_condition]\namplitude = 0\n", "riccati.nt"),
        ("optimize", _HEAT_4X4 + "[cost]\nq_scale = 1e8\n\n"
         "[initial_condition]\namplitude = 0\n", "riccati.nt"),
        ("worst-ic", _HEAT_4X4 + "[cost]\nq_scale = 1e8\n", "time.nt"),
        ("riccati-validate", "[model]\nkind = ks\nlambda = 60\nlinear = true\n\n"
         "[grid]\nn = 64\n\n[time]\ntau = 0.5\n\n[riccati]\nnt = 100\n", "riccati.nt")],
        ids=["heat-q1e7", "heat-q1e8", "optimize-heat-q1e8", "worst-ic-heat-q1e8",
             "ks60-nt100"])
    def test_exit_two_names_a_too_coarse_riccati_step(self, tmp_path, capsys, subcommand,
                                                      text, field):
        ini = tmp_path / "step.ini"
        ini.write_text(text)
        code = main([subcommand, "--config", str(ini), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if field is None:
            assert code == 0
        else:
            assert code == 2 and err.count("\n") == 1
            assert f"config field '{field}'" in err and "> 1" in err

    # the refusal names a step count: nt a for a stable operator (4x4 heat at
    # q_scale 1e8 reads a = 2.2 at nt = 400), and for linear KS at lambda = 60
    # (top eigenvalue 278, tau = 0.5) the split sweep's fixed point
    # a = e^{2 lam h} - 1 asks for 2 lam tau / ln 2 = 402 where riccati.nt = 100
    # reads a = 1.48 at its refused step; 401 is still refused
    @pytest.mark.parametrize("text, refused, low, high", [
        (_HEAT_4X4 + "[cost]\nq_scale = 1e8\n\n[initial_condition]\namplitude = 0\n\n"
         "[riccati]\nnt = {nt}\n", 400, 860, 900),
        ("[model]\nkind = ks\nlambda = 60\nlinear = true\n\n[grid]\nn = 64\n\n"
         "[time]\ntau = 0.5\n\n[riccati]\nnt = {nt}\n", 100, 400, 440)],
        ids=["heat-q1e8", "ks60"])
    def test_refused_riccati_step_names_enough_steps(self, tmp_path, capsys, text,
                                                     refused, low, high):
        ini = tmp_path / "step.ini"
        ini.write_text(text.format(nt=refused))
        assert main(["riccati-validate", "--config", str(ini), "--out",
                     str(tmp_path / "o")]) == 2
        need = int(re.search(r"take at least about (\d+) steps",
                             capsys.readouterr().err).group(1))
        assert low <= need <= high
        ini.write_text(text.format(nt=need))
        assert main(["riccati-validate", "--config", str(ini), "--out",
                     str(tmp_path / "o")]) == 0

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
        results = sweep(self._base_cfg(), tmp_path, "actuator.r_init", values)
        assert len(results) == 3
        assert all(summary is not None for _, summary, _ in results)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,final_cost,res_u,res_r,error"
        assert len(lines) == 4
        for v in values:
            assert (tmp_path / f"actuator_r_init={v:g}" / "summary.json").exists()

    def test_sweep_worker_pool(self, tmp_path):
        cfg = self._base_cfg().with_value("output.jobs", 2)
        results = sweep(cfg, tmp_path, "actuator.r_init", [0.4, 0.6])
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
                return [(task[2], None, "not run") for task in tasks]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg = self._base_cfg().with_value("output.jobs", 64)
        sweep(cfg, tmp_path, "actuator.r_init", [0.1 * i for i in range(1, 9)])
        assert started == [2]

    def test_sweep_preserves_partial_results(self, tmp_path):
        # second value blows up; first must still be written
        cfg = self._base_cfg()
        results = sweep(cfg, tmp_path, "initial_condition.amplitude", [0.5, 4e3])
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

    def test_cli_sweep_exit_three_when_a_run_blows_up(self, tmp_path, caplog):
        # the 4e3 bump blows up in the first forward solve of optimize; the
        # 0.5 row is still written, and the failure is logged by its value
        ini = tmp_path / "exp.ini"
        ini.write_text("[model]\nkind = ks\n\n[grid]\nn = 32\n\n[time]\ntau = 0.1\nnt = 20\n")
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "initial_condition.amplitude", "--values", "0.5,4e3"])
        assert code == 3
        ok, failed = (line.split(",") for line in
                      (out / "sweep.csv").read_text().splitlines()[1:])
        assert ok[-1] == "" and float(ok[1]) > 0
        assert failed[1:] == ["", "", "", "BlowUpError: non-finite state at time step 8"]
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "sweep value 4000 failed: BlowUpError: non-finite state at time step 8"]

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

    def test_cli_sweep_gives_close_values_their_own_directories(self, tmp_path):
        # both values print as 0.5 under %g; each run needs its own directory
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "actuator.r_init", "--values", "0.5000001,0.5000002"])
        assert code == 0
        for value in ("0.5000001", "0.5000002"):
            summary = json.loads((out / f"actuator_r_init={value}"
                                  / "summary.json").read_text())
            assert summary["design"] == [float(value)]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "actuator_r_init=0.5000001", "actuator_r_init=0.5000002"]

    def test_cli_sweep_refuses_a_value_given_twice(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "actuator.r_init", "--values", "0.4,0.6,0.4"])
        assert code == 2
        assert "--values" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_sweep_checks_every_value_before_any_run(self, tmp_path, capsys):
        # inf is out of range: 0.5 must not run and leave an error row behind
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(ini), "--out", str(out),
                     "--param", "actuator.r_init", "--values", "0.5,inf"])
        assert code == 2
        assert "actuator.r_init" in capsys.readouterr().err
        assert not out.exists()

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


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only a sweep with output.jobs > 1 starts a pool; importing it costs time and memory
    src = str(Path(pdeopt.__file__).resolve().parents[1])
    code = ("import sys, pdeopt.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
