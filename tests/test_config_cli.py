import json

import numpy as np
import pytest
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

    def test_riccati_validate_summary(self, tmp_path):
        cfg = ExperimentConfig(values=dict(SMALL_HEAT_LIN))
        summary = run("riccati-validate", cfg, tmp_path)
        assert summary["tanh_error"] < 1e-6
        assert summary["feedback_discrepancy"] <= 0.02
        assert (tmp_path / "pi0.csv").exists()


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
    ])
    def test_exit_two_names_out_of_range_field(self, tmp_path, capsys, section, key, raw):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[model]\nkind = ks\n\n[{section}]\n{key} = {raw}\n")
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_exit_three_on_blowup(self, tmp_path, capsys):
        cfg = ExperimentConfig(values={**SMALL_KS,
                                       "initial_condition.amplitude": 4e3})
        ini = tmp_path / "boom.ini"
        cfg.to_ini(ini)
        code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "step" in capsys.readouterr().err

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

    def test_cli_sweep_rejects_non_numeric_values(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        self._base_cfg().to_ini(ini)
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", str(ini), "--out", str(tmp_path / "s"),
                  "--param", "actuator.r_init", "--values", "abc"])
        assert exit_.value.code == 2
        assert "--values" in capsys.readouterr().err
