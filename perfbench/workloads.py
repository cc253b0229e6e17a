"""Seeded workload configs, their correctness checks, and the Riccati
memory pre-flight.

Each workload is one `pdeopt` pipeline on configs derived from the
benchmark seed.  Seed 0 gives the one reference config listed below.
Every other seed draws INPUTS_PER_SEED configs, one from each equal
stratum of the varied ranges, and the benchmark cycles through them: the
iteration count, and so the run time, depends on the drawn input, and
pooling several inputs keeps that dependence from dominating the spread
between seeds.  The program only ever sees the generated INI files.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

# Share of physical memory a workload's Riccati storage may claim.
MEMORY_SHARE = 0.25
INPUTS_PER_SEED = 8

_KS_OPTIMIZE = {
    # README KS `optimize` example (acceptance criterion 7's problem)
    "model.kind": "ks", "model.lambda": 30.0, "grid.n": 128,
    "time.tau": 0.2, "time.nt": 200,
    "cost.q_scale": 1.0, "cost.r_scale": 1e-4,
    "initial_condition.kind": "bump", "initial_condition.amplitude": 3.0,
    "initial_condition.center": 0.3, "initial_condition.width": 0.07,
    "optimizer.tol": 1e-5, "optimizer.max_iters": 3000,
    "optimizer.optimize_design": True, "output.jobs": 1,
}

_HEAT_OPTIMIZE = {
    "model.kind": "heat", "model.nonlinearity": "cubic", "model.linear": False,
    "grid.nx": 32, "grid.ny": 32, "grid.dirichlet": "left,right,bottom,top",
    "time.tau": 1.0, "time.nt": 200,
    "cost.r_scale": 1e-2,
    "initial_condition.kind": "sine", "initial_condition.amplitude": 3.0,
    "actuator.basis_per_axis": 3,
    "optimizer.optimize_design": True, "output.jobs": 1,
}

_HEAT_LINEAR_WORST_IC = {
    # acceptance criterion 6's problem, run through the CLI
    "model.kind": "heat", "model.linear": True,
    "grid.nx": 16, "grid.ny": 16, "grid.dirichlet": "left,right,bottom,top",
    "time.tau": 1.0, "time.nt": 200,
    "cost.q_scale": 1.0, "cost.r_scale": 1.0, "sets.r2": 1.0,
    "optimizer.multi_start": 5, "optimizer.max_iters": 400,
    "optimizer.seed": 106, "riccati.check_every": 50, "output.jobs": 1,
}


def _strata(rng: random.Random, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of INPUTS_PER_SEED equal strata of
    [lo, hi], in random order."""
    width = (hi - lo) / INPUTS_PER_SEED
    draws = [round(lo + (i + rng.random()) * width, 4) for i in range(INPUTS_PER_SEED)]
    rng.shuffle(draws)
    return draws


def _draw_ks(seed: int) -> list[dict]:
    rng = random.Random(f"ks-optimize/{seed}")
    return [{"initial_condition.center": c, "initial_condition.amplitude": a}
            for c, a in zip(_strata(rng, 0.25, 0.35), _strata(rng, 2.5, 3.5))]


def _draw_heat(seed: int) -> list[dict]:
    rng = random.Random(f"heat-optimize/{seed}")
    return [{"initial_condition.amplitude": a} for a in _strata(rng, 2.5, 3.5)]


def _draw_worst_ic(seed: int) -> list[dict]:
    return [{"optimizer.seed": 106 + INPUTS_PER_SEED * seed + i}
            for i in range(INPUTS_PER_SEED)]


def _costs_monotone(out: Path) -> bool:
    lines = (out / "iterations.csv").read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("cost")
    costs = [float(line.split(",")[col]) for line in lines[1:]]
    return len(costs) > 1 and all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def _check_ks_optimize(s: dict, out: Path) -> list[str]:
    problems = []
    if not s["converged"]:
        problems.append(f"not converged: {s['stop_reason']}")
    if s["res_u"] > 1e-5 and not s["u_ball_active"]:
        problems.append(f"res_u {s['res_u']:.3e} > 1e-5 with the input ball inactive")
    if s["res_r"] > 1e-5 and not all(s["design_active"]):
        problems.append(f"res_r {s['res_r']:.3e} > 1e-5 with the design inactive")
    if s["margin"] is None or s["margin"] < 0:
        problems.append(f"energy-bound margin {s['margin']} is not >= 0")
    if not _costs_monotone(out):
        problems.append("iterations.csv costs are not monotone")
    return problems


def _check_heat_optimize(s: dict, out: Path) -> list[str]:
    problems = []
    if not s["converged"]:
        problems.append(f"not converged: {s['stop_reason']}")
    if s["margin"] is None or s["margin"] < 0:
        problems.append(f"ISS margin {s['margin']} is not >= 0")
    if not _costs_monotone(out):
        problems.append("iterations.csv costs are not monotone")
    return problems


def _check_worst_ic(s: dict, out: Path) -> list[str]:
    problems = []
    if not s["converged"]:
        problems.append("worst-IC ascent not converged")
    if s.get("eigen_cosine") is None or s["eigen_cosine"] < 0.999:
        problems.append(f"eigen cosine {s.get('eigen_cosine')} < 0.999")
    if abs(s["x0_h1_norm"] - 1.0) > 1e-6:
        problems.append(f"|x0_h1_norm - 1| = {abs(s['x0_h1_norm'] - 1.0):.2e} > 1e-6")
    return problems


# name -> (subcommand, reference config, draw(seed) -> varied values, check)
WORKLOADS = {
    "ks-optimize": ("optimize", _KS_OPTIMIZE, _draw_ks, _check_ks_optimize),
    "heat-optimize": ("optimize", _HEAT_OPTIMIZE, _draw_heat, _check_heat_optimize),
    "heat-linear-worst-ic": (
        "worst-ic", _HEAT_LINEAR_WORST_IC, _draw_worst_ic, _check_worst_ic),
}


def make_inputs(name: str, seed: int) -> tuple[str, list[dict], list[dict]]:
    """(subcommand, config values, drawn values) of a workload's inputs."""
    subcommand, base, draw, _ = WORKLOADS[name]
    drawn = draw(seed)
    if seed == 0:
        drawn = [{k: base[k] for k in drawn[0]}]
    return subcommand, [{**base, **d} for d in drawn], drawn


def check_run(name: str, out: Path) -> list[str]:
    """Problems found in one run's artifacts; empty when the run passes."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return WORKLOADS[name][3](summary, out)


def riccati_bytes(subcommand: str, cfg) -> int:
    """Peak modal Riccati storage, (4 nt_R + 1) n^2 doubles, counting the
    dt/4 retry; 0 when the pipeline runs no Riccati sweep."""
    linear = cfg["model.linear"] or (not cfg.is_ks and cfg["model.nonlinearity"] == "none")
    if subcommand == "worst-ic" and linear:
        nt_r = cfg["time.nt"]
    elif (subcommand == "optimize" and linear) or subcommand == "riccati-validate":
        nt_r = cfg["riccati.nt"]
    else:
        return 0
    n = cfg["grid.n"] if cfg.is_ks else cfg["grid.nx"] * cfg["grid.ny"]
    return (4 * nt_r + 1) * n * n * 8


def memory_limit_bytes() -> int:
    return int(MEMORY_SHARE * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
