"""Batch front end: simulate | optimize | worst-ic | riccati-validate |
gradcheck | sweep.

Every run writes into its ``--out`` directory a ``summary.json`` with the
pipeline's metrics (deterministic for a fixed config and seed), the data
artifacts (CSV / binary checkpoints), and a ``manifest.json`` listing each
artifact with size and SHA-256 plus the config echo and wall time.

Exit codes: 0 success, 1 any other PdeoptError (one ``error:`` line on
stderr) or a sweep value that failed without a blow-up, 2 malformed
configuration (field diagnostic on stderr), 3 runtime blow-up (step index
on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .adjoint import CostWeights, gradient_check
from .config import ExperimentConfig
from .exceptions import BlowUpError, ConfigError, PdeoptError, StepSizeError
from .forward import (ControlSignal, TimeGrid, energy_margin, energy_trace,
                      save_checkpoint, solve_forward, trajectory_to_csv)
from .grids import LinearOperator
from .optimize import minimize_joint, worst_initial_condition
from .riccati import (solve_differential_riccati, verify_feedback_consistency,
                      worst_ic_eigen_check)

log = logging.getLogger("pdeopt")


def _setup_logging() -> None:
    level = os.environ.get("PDEOPT_LOG", "info").lower()
    numeric = {"quiet": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.INFO)
    logging.basicConfig(level=numeric, format="%(levelname)s %(name)s: %(message)s")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, cfg: ExperimentConfig, subcommand: str,
                    wall_time: float) -> None:
    artifacts = []
    for p in sorted(out.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        artifacts.append({"name": p.name, "size": p.stat().st_size,
                          "sha256": _sha256(p)})
    content = hashlib.sha256(
        "".join(a["sha256"] for a in artifacts).encode()).hexdigest()
    _write_json(out / "manifest.json", {
        "subcommand": subcommand,
        "config": cfg.to_dict(),
        "wall_time_s": wall_time,
        "artifacts": artifacts,
        "content_hash": content,
    })


def _state_csv(path: Path, vec: np.ndarray, label: str) -> None:
    np.savetxt(path, np.column_stack((np.arange(vec.size), vec)), fmt=("%d", "%.16e"),
               delimiter=",", header=f"node,{label}", comments="")


# --- pipelines ---------------------------------------------------------

# The low-rank Riccati sweep holds O(n r), but Pi(0) is n x n where it is read
# as a matrix: riccati-validate holds Pi-tilde(0) and, for pi0.csv, two n x n
# arrays (worst-ic's eigen check forms none); this cap keeps them, and optimize
# on a linear model, under 1 GiB (the README gives the peaks at the cap).
RICCATI_MAX_NODES = 3072


def _check_riccati_grid(model) -> None:
    if model.is_linear and model.grid.size > RICCATI_MAX_NODES:
        raise ConfigError("grid.nx", f"grid.nx * grid.ny = {model.grid.size} exceeds "
                          f"the {RICCATI_MAX_NODES} nodes of the n x n Riccati arrays")


# a Riccati step too coarse for the splitting's accuracy bound is refused by
# the field that sets the step
@contextmanager
def _step_names(field: str):
    try:
        yield
    except StepSizeError as err:
        raise ConfigError(field, str(err)) from None


# an optimizer run whose cost or gradient leaves float64 (a numpy overflow, or
# GradientBundle's finiteness check, a ValueError) is refused by the input named
@contextmanager
def _overflow_names(field: str, value, grows: str):
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, ValueError) as err:
        raise ConfigError(field, f"{value!r} makes the cost, which grows {grows}, "
                          f"overflow float64 ({err})") from None


def run_simulate(cfg: ExperimentConfig, out: Path) -> dict:
    grid = cfg.build_grid()
    model = cfg.build_model(grid)
    tg = cfg.build_time_grid()
    design = cfg.build_design(model)
    x0 = cfg.build_x0(grid)
    u = ControlSignal.zero(tg)
    traj = solve_forward(model, u, design, x0, tg)
    trajectory_to_csv(traj, out / "trajectory.csv")
    save_checkpoint(traj, out / "trajectory.bin", grid)
    energies = energy_trace(traj, grid)
    return {
        "pipeline": "simulate",
        "initial_energy": float(energies[0]),
        "terminal_energy": float(energies[-1]),
        "margin": energy_margin(model, traj, u, design),
        "blowup_step": None,
    }


def run_optimize(cfg: ExperimentConfig, out: Path) -> dict:
    grid = cfg.build_grid()
    model = cfg.build_model(grid)
    _check_riccati_grid(model)
    tg = cfg.build_time_grid()
    weights = cfg.build_weights()
    sets = cfg.build_sets(model)
    opt_cfg = cfg.build_optimizer()
    x0 = cfg.build_x0(grid)

    with _overflow_names("initial_condition.amplitude", cfg["initial_condition.amplitude"],
                         "with its square and with cost.q_scale"):
        u, design, report = minimize_joint(model, sets, weights, x0, tg, opt_cfg,
                                           optimize_design=cfg["optimizer.optimize_design"],
                                           initial_design=cfg.build_design(model))
    report.to_csv(out / "iterations.csv")
    traj = report.traj
    save_checkpoint(traj, out / "trajectory.bin", grid)
    _state_csv(out / "final_state.csv", traj.terminal, "x_tau")
    np.savetxt(out / "control.csv", np.column_stack((tg.times, u.values)), fmt="%.16e",
               delimiter=",", header="t,u", comments="")

    res = report.residuals
    summary = {
        "pipeline": "optimize",
        "final_cost": report.final["cost"],
        "iterations": len(report.iterations),
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "res_u": res.res_u,
        "res_r": res.res_r,
        "u_ball_active": res.u_active,
        "design_active": res.r_active.tolist(),
        "design": design.params.tolist(),
        "margin": report.final["margin"],
    }
    if model.is_linear:
        with _step_names("riccati.nt"):
            chk = verify_feedback_consistency(model, sets, weights, x0,
                                              TimeGrid(tau=tg.tau, nt=cfg["riccati.nt"]),
                                              design, check_every=cfg["riccati.check_every"])
        summary["riccati_discrepancy"] = None if chk.inconclusive else chk.discrepancy
        summary["riccati_inconclusive"] = chk.inconclusive
    return summary


def run_worst_ic(cfg: ExperimentConfig, out: Path) -> dict:
    grid = cfg.build_grid()
    model = cfg.build_model(grid)
    _check_riccati_grid(model)
    tg = cfg.build_time_grid()
    weights = cfg.build_weights()
    sets = cfg.build_sets(model)
    opt_cfg = cfg.build_optimizer()
    design = cfg.build_design(model)
    u0 = ControlSignal.zero(tg)
    with _overflow_names("sets.r2", sets.r2, "with its square"):
        x0_star, mu, report = worst_initial_condition(model, u0, design, sets, weights,
                                                      tg, opt_cfg)
    _state_csv(out / "worst_x0.csv", x0_star, "x0")
    best = report.best
    summary = {
        "pipeline": "worst-ic",
        "best_cost": best["cost"],
        "mu": mu,
        "kkt_residual": best["kkt_residual"],
        "x0_h1_norm": best["x0_h1_norm"],
        "constraint_active": best["active"],
        "starts": [{k: s[k] for k in ("label", "cost", "iterations", "stop")}
                   for s in report.starts],
        "converged": report.converged,
    }
    if model.is_linear:
        b = model.actuator_family.evaluate(design, grid)
        with _step_names("time.nt"):
            ric = solve_differential_riccati(model.linear_op, b, weights, tg,
                                             state_weight=grid.weight,
                                             check_every=cfg["riccati.check_every"])
        cosine, rayleigh = worst_ic_eigen_check(ric, x0_star, grid)
        summary["eigen_cosine"] = cosine
        summary["rayleigh_mu"] = rayleigh
    return summary


def run_riccati_validate(cfg: ExperimentConfig, out: Path) -> dict:
    lin_cfg = cfg if cfg.is_linear else cfg.with_value("model.linear", True)
    grid = lin_cfg.build_grid()
    model = lin_cfg.build_model(grid)
    _check_riccati_grid(model)
    # scalar closed-form oracle: a=0, b=1, q=rho=1, tau=1 -> pi(t) = tanh(1-t)
    scalar_op = LinearOperator(factors=(np.zeros((1, 1)),))
    tg_scalar = TimeGrid(tau=1.0, nt=1000)
    ric_scalar = solve_differential_riccati(scalar_op, np.ones(1),
                                            CostWeights(1.0, 1.0), tg_scalar)
    tanh_err = float(abs(ric_scalar.pi0[0, 0] - np.tanh(1.0)))

    tg = TimeGrid(tau=lin_cfg["time.tau"], nt=lin_cfg["riccati.nt"])
    weights = lin_cfg.build_weights()
    sets = lin_cfg.build_sets(model)
    design = lin_cfg.build_design(model)
    x0 = lin_cfg.build_x0(grid)
    with _step_names("riccati.nt"), \
            _overflow_names("cost.q_scale", lin_cfg["cost.q_scale"],
                            "with it and with the square of initial_condition.amplitude"):
        chk = verify_feedback_consistency(model, sets, weights, x0, tg, design,
                                          check_every=lin_cfg["riccati.check_every"])
    chk.riccati.pi0_to_csv(out / "pi0.csv")
    return {
        "pipeline": "riccati-validate",
        "tanh_error": tanh_err,
        "feedback_discrepancy": None if chk.inconclusive else chk.discrepancy,
        "inconclusive": chk.inconclusive,
        "parts": chk.parts,
    }


def run_gradcheck(cfg: ExperimentConfig, out: Path) -> dict:
    grid = cfg.build_grid()
    model = cfg.build_model(grid)
    tg = cfg.build_time_grid()
    weights = cfg.build_weights()
    design = cfg.build_design(model)
    x0 = cfg.build_x0(grid)
    rng = np.random.default_rng(cfg["optimizer.seed"])
    u = ControlSignal(tg, 0.1 * np.sin(2 * np.pi * tg.times / tg.tau)
                      + 0.01 * rng.standard_normal(tg.nt + 1))
    report = gradient_check(model, u, design, x0, weights, tg,
                            seed=cfg["optimizer.seed"])
    payload = report.to_dict()
    _write_json(out / "gradcheck.json", payload)
    return {"pipeline": "gradcheck", "max_rel_error": report.max_rel_error,
            "ok": report.ok, "best_errors": report.best_errors}


_PIPELINES = {
    "simulate": run_simulate,
    "optimize": run_optimize,
    "worst-ic": run_worst_ic,
    "riccati-validate": run_riccati_validate,
    "gradcheck": run_gradcheck,
}


def run(subcommand: str, cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one pipeline, writing summary + manifest into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    summary = _PIPELINES[subcommand](cfg, out)
    summary["seed"] = cfg["optimizer.seed"]
    _write_json(out / "summary.json", summary)
    _write_manifest(out, cfg, subcommand, wall_time=time.perf_counter() - t0)
    return summary


def _sweep_worker(args: tuple) -> tuple[float, dict | None, str]:
    cfg_values, param, value, out_dir = args
    try:
        cfg = ExperimentConfig(values=cfg_values).with_value(param, value)
        summary = run("optimize", cfg, out_dir)
        return value, summary, ""
    except Exception as err:  # partial sweeps are preserved
        return value, None, f"{type(err).__name__}: {err}"


def sweep(cfg: ExperimentConfig, out_dir, param: str,
          values: list[float]) -> list[tuple[float, dict | None, str]]:
    """Run ``optimize`` once per parameter value; aggregate results to CSV."""
    for v in values:  # a bad name or value fails before any run
        cfg.with_value(param, v)
    # one directory per value, named by its shortest round-trip text
    names = [f"{param.replace('.', '_')}={repr(float(v)).removesuffix('.0')}"
             for v in values]
    twice = [v for i, v in enumerate(values) if names[i] in names[:i]]
    if twice:
        raise ConfigError("--values", f"{twice[0]!r} is given twice")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = min(cfg["output.jobs"], len(values), os.cpu_count() or 1)
    tasks = [(dict(cfg.values), param, v, str(out / name))
             for v, name in zip(values, names)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("value,final_cost,res_u,res_r,error\n")
        for value, summary, err in results:
            if summary is None:
                fh.write(f"{value:.16e},,,,{err}\n")
            else:
                fh.write(f"{value:.16e},{summary['final_cost']:.16e},"
                         f"{summary['res_u']:.16e},{summary['res_r']:.16e},\n")
    return results


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="pdeopt",
        description="Optimal control and actuator design pipelines for "
                    "semilinear parabolic models.")
    parser.add_argument("subcommand",
                        choices=sorted(_PIPELINES) + ["sweep"])
    parser.add_argument("--config", required=False, help="INI experiment config")
    parser.add_argument("--out", default="out", help="directory for the artifacts (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--param", default=None, help="config field to sweep")
    parser.add_argument("--values", default=None, type=_float_list,
                        help="comma-separated sweep values")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_ini(args.config) if args.config \
            else ExperimentConfig()
        if args.seed is not None:
            cfg = cfg.with_value("optimizer.seed", args.seed)
        for path in (Path(args.out), *Path(args.out).parents):
            if path.exists() and not path.is_dir():
                raise ConfigError("--out", f"{path} exists and is not a directory")
        if args.subcommand == "sweep":
            if not args.param or not args.values:
                print("sweep requires --param and --values", file=sys.stderr)
                return 2
            results = sweep(cfg, args.out, args.param, args.values)
            failures = [r for r in results if r[1] is None]
            for value, _, err in failures:
                log.error("sweep value %g failed: %s", value, err)
            if any("BlowUpError" in r[2] for r in failures):
                return 3
            return 0 if not failures else 1
        summary = run(args.subcommand, cfg, args.out)
        log.info("%s finished: %s", args.subcommand,
                 {k: v for k, v in summary.items() if not isinstance(v, (list, dict))})
        return 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except BlowUpError as err:
        print(f"trajectory blow-up: {err}", file=sys.stderr)
        return 3
    except PdeoptError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
