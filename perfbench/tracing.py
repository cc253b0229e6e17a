"""Span tracing of `pdeopt` from outside the package.

`Tracer.install` wraps each module's public entry points and rebinds the
wrapper under every name that held the original: the defining module, each
module that imported it with `from ... import`, and dict tables such as the
CLI's pipeline registry.  Spans stay in memory; `per_layer` turns the spans
of one pipeline run into the per-layer metrics, and `self_check` tests that
the span tree is consistent with the optimizer's own report.

Small per-element helpers (inner products, norms, projections) are not
wrapped: a span costs about a microsecond, and their time is charged to
the caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("config", "grids", "models", "forward", "adjoint", "optimize",
          "riccati", "cli")
OPTIMIZERS = ("optimize.minimize_joint", "optimize.worst_initial_condition")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the calling span in Tracer.spans, -1 at the root
    run_id: int
    error: str | None
    info: object = None  # what `inspect` read from the call's result

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _steps(result, args, kwargs):
    return result.states.shape[0] - 1


def _optimizer_steps(result, args, kwargs):
    """(iterations, accepted steps, starts) from the optimizer's own report.

    Every iteration but the last is followed by an accepted step; the last
    one is too when the iteration cap, not the stopping test, ended the loop.
    """
    report = result[-1]
    if hasattr(report, "starts"):  # worst-IC: one ascent per start
        runs = [(s["iterations"], s["stop"]) for s in report.starts]
    else:
        runs = [(len(report.iterations), report.stop_reason)]
    iterations = sum(n for n, _ in runs)
    accepted = sum(n - 1 + (stop == "max iterations reached") for n, stop in runs)
    return iterations, accepted, len(runs)


def _retained_mib(result, args, kwargs):
    n = result.basis.shape[0]
    return len(result.modal) * n * n * 8 / 2**20


def _file_bytes(result, args, kwargs):
    return os.path.getsize(args[1])


def _dir_bytes(result, args, kwargs):
    return sum(p.stat().st_size for p in Path(args[2]).iterdir() if p.is_file())


def _targets(pdeopt, factor_hit):
    """(span name, owner, attribute, inspect) for every wrapped callable."""
    cfg, grids, models = pdeopt.config, pdeopt.grids, pdeopt.models
    fwd, adj, opt, ric, cli = (pdeopt.forward, pdeopt.adjoint, pdeopt.optimize,
                               pdeopt.riccati, pdeopt.cli)
    conf = cfg.ExperimentConfig
    out = [("config." + a, conf, a, None) for a in (
        "from_ini", "build_grid", "build_model", "build_design", "build_x0",
        "build_time_grid", "build_weights", "build_sets", "build_optimizer")]
    out += [
        ("grids.build_grid", grids, "build_grid_1d", None),
        ("grids.build_grid", grids, "build_grid_2d", None),
        ("grids.operator", grids, "ks_operator", None),
        ("grids.operator", grids, "heat_operator", None),
        ("grids.h1_operator", grids, "h1_operator", None),
        ("grids.h1_riesz_map", grids, "h1_riesz_map", None),
        ("grids.smallest_eigenvalue", grids, "smallest_eigenvalue", None),
        ("models.make_model", models, "make_ks_model", None),
        ("models.make_model", models, "make_heat_model", None),
        ("models.nonlinearity", models, "ks_nonlinearity", None),
        ("models.nonlinearity", models, "heat_nonlinearity", None),
        ("models.jacobian", models, "ks_jacobian_apply", None),
        ("models.jacobian", models, "ks_jacobian_adjoint_apply", None),
        ("models.jacobian", models, "heat_jacobian_apply", None),
        ("models.jacobian", models, "heat_jacobian_adjoint_apply", None),
        ("models.actuator_evaluate", models.KsGaussianActuator, "evaluate", None),
        ("models.actuator_evaluate", models.HeatShapeActuator, "evaluate", None),
        ("models.actuator_derivative", models, "actuator_design_derivative_adjoint", None),
        ("forward.factorize", fwd, "crank_nicolson_factors", factor_hit),
        ("forward.solve_forward", fwd, "solve_forward", _steps),
        ("forward.bound_check", fwd, "verify_ks_bound", None),
        ("forward.bound_check", fwd, "verify_heat_iss_bound", None),
        ("forward.energy_trace", fwd, "energy_trace", None),
        ("forward.trajectory_to_csv", fwd, "trajectory_to_csv", _file_bytes),
        ("forward.save_checkpoint", fwd, "save_checkpoint", _file_bytes),
        ("adjoint.compute_bundle", adj, "compute_bundle", None),
        ("adjoint.solve_adjoint", adj, "solve_adjoint", _steps),
        ("adjoint.assemble_gradients", adj, "assemble_gradients", None),
        ("adjoint.evaluate_cost", adj, "evaluate_cost", None),
        ("adjoint.linearized_forward", adj, "linearized_forward", None),
        ("adjoint.gradient_check", adj, "gradient_check", None),
        ("optimize.minimize_joint", opt, "minimize_joint", _optimizer_steps),
        ("optimize.worst_initial_condition", opt, "worst_initial_condition",
         _optimizer_steps),
        ("optimize.residuals", opt, "optimality_residuals", None),
        ("optimize.golden_section_r", opt, "golden_section_r", None),
        ("riccati.sweep", ric, "solve_differential_riccati", _retained_mib),
        ("riccati.eigen_check", ric, "worst_ic_eigen_check", None),
        ("riccati.feedback_check", ric, "verify_feedback_consistency", None),
        ("riccati.closed_loop", ric, "closed_loop_simulate", None),
        ("cli.run", cli, "run", _dir_bytes),
    ]
    out += [("cli.pipeline", cli, a, None) for a in (
        "run_simulate", "run_optimize", "run_worst_ic", "run_riccati_validate",
        "run_gradcheck")]
    return out


class Tracer:
    """Records nested spans of the wrapped `pdeopt` calls, in memory."""

    def __init__(self, pdeopt):
        self.pdeopt = pdeopt
        self.spans: list[Span] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []  # (namespace or class, name, original)
        self._factors_seen: dict[int, object] = {}

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self._factors_seen.clear()

    def _factor_hit(self, result, args, kwargs) -> bool:
        """A factorization call hit the cache if it returned an object this
        run has already seen (kept alive here, so ids are not reused)."""
        hit = id(result) in self._factors_seen
        self._factors_seen[id(result)] = result
        return hit

    def _wrap(self, name: str, fn, inspect):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run_id, error)
            if inspect is not None:
                spans[idx].info = inspect(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under every name in `pdeopt` that holds it."""
        namespaces = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pdeopt" or mod_name.startswith("pdeopt."):
                ns = vars(mod)
                namespaces.append(ns)
                namespaces += [v for v in ns.values() if isinstance(v, dict)]
        for name, owner, attr, inspect in _targets(self.pdeopt, self._factor_hit):
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn, inspect)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr,
                        staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            wrapped = self._wrap(name, raw, inspect)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is raw:
                        self._undo.append((ns, key, raw))
                        ns[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = raw
            else:
                setattr(owner, key, raw)
        self._undo.clear()

    def run_spans(self, run_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: index, parent, run, name, start,
        end, error, info."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\trun_id\tname\tstart\tend\terror\tinfo\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.parent}\t{s.run_id}\t{s.name}\t{s.start!r}\t"
                         f"{s.end!r}\t{s.error or ''}\t"
                         f"{'' if s.info is None else s.info}\n")


def _children(spans: list[tuple[int, Span]]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for _, s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def _descendants(root: int, spans: list[tuple[int, Span]]) -> list[Span]:
    """Spans below `root`; indices grow with start time, so one pass works."""
    inside = {root}
    out = []
    for i, s in spans:
        if s.parent in inside:
            inside.add(i)
            out.append(s)
    return out


def per_layer(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    by_name: dict[str, list[Span]] = {}
    for _, s in spans:
        by_name.setdefault(s.name, []).append(s)
    index = dict(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def step_us(name):
        done = [s for s in by_name.get(name, ()) if s.error is None]
        steps = sum(s.info for s in done)
        return 1e6 * sum(s.seconds for s in done) / steps if steps else 0.0

    kids = _children(spans)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in spans:
        covered = sum(c.seconds for c in kids.get(i, ()))
        self_time[s.name.split(".", 1)[0]] += s.seconds - covered

    def is_config(i):
        return i in index and index[i].name.startswith("config.")

    factor = by_name.get("forward.factorize", [])
    optimizers = [s for name in OPTIMIZERS for s in by_name.get(name, ())]
    trials = sum(1 for s in by_name.get("forward.solve_forward", ())
                 if s.parent in index and index[s.parent].name in OPTIMIZERS)
    accepted = sum(s.info[1] for s in optimizers if s.info is not None)
    metrics = {
        "config.build_s": sum(s.seconds for _, s in spans
                              if s.name.startswith("config.") and not is_config(s.parent)),
        "forward.factorize.calls": calls("forward.factorize"),
        "forward.factorize.s": total("forward.factorize"),
        "forward.factorize.hit_ratio":
            sum(bool(s.info) for s in factor) / len(factor) if factor else 0.0,
        "forward.solve_forward.calls": calls("forward.solve_forward"),
        "forward.solve_forward.s": total("forward.solve_forward"),
        "forward.solve_forward.step_us": step_us("forward.solve_forward"),
        "forward.blowups": sum(1 for s in by_name.get("forward.solve_forward", ())
                               if s.error == "BlowUpError"),
        "forward.bound_check.s": total("forward.bound_check"),
        "forward.trajectory_to_csv.s": total("forward.trajectory_to_csv"),
        "forward.trajectory_to_csv.bytes":
            sum(s.info or 0 for s in by_name.get("forward.trajectory_to_csv", ())),
        "adjoint.solve_adjoint.calls": calls("adjoint.solve_adjoint"),
        "adjoint.solve_adjoint.s": total("adjoint.solve_adjoint"),
        "adjoint.solve_adjoint.step_us": step_us("adjoint.solve_adjoint"),
        "adjoint.assemble_gradients.s": total("adjoint.assemble_gradients"),
        "adjoint.evaluate_cost.calls": calls("adjoint.evaluate_cost"),
        "adjoint.evaluate_cost.s": total("adjoint.evaluate_cost"),
        "grids.h1_riesz_map.calls": calls("grids.h1_riesz_map"),
        "grids.h1_riesz_map.s": total("grids.h1_riesz_map"),
        "grids.h1_operator.calls": calls("grids.h1_operator"),
        "grids.h1_operator.s": total("grids.h1_operator"),
        "grids.smallest_eigenvalue.s": total("grids.smallest_eigenvalue"),
        "models.nonlinearity.calls": calls("models.nonlinearity"),
        "models.nonlinearity.s": total("models.nonlinearity"),
        "models.jacobian.calls": calls("models.jacobian"),
        "models.jacobian.s": total("models.jacobian"),
        "models.actuator_evaluate.calls": calls("models.actuator_evaluate"),
        "models.actuator_evaluate.s": total("models.actuator_evaluate"),
        "optimize.iterations": sum(s.info[0] for s in optimizers if s.info is not None),
        "optimize.armijo_trials": trials,
        "optimize.accept_ratio": accepted / trials if trials else 0.0,
        "optimize.residuals.s": total("optimize.residuals"),
        "riccati.sweep.s": total("riccati.sweep"),
        "riccati.eigen_check.s": total("riccati.eigen_check"),
        "riccati.retained_mb": max((s.info for s in by_name.get("riccati.sweep", ())
                                    if s.info is not None), default=0.0),
        "cli.pipeline.s": total("cli.pipeline"),
        "cli.overhead.s": total("cli.run") - total("cli.pipeline"),
        "cli.artifact_bytes": sum(s.info or 0 for s in by_name.get("cli.run", ())),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


def self_check(spans: list[tuple[int, Span]], iteration_rows: int | None) -> list[str]:
    """Consistency of one run's span tree; empty when it holds.

    Under each optimizer call, one forward + adjoint gradient evaluation
    starts each ascent or descent and follows each accepted step, as the
    optimizer's report counts them; every other forward solve is an Armijo
    trial, so forward solves = adjoint solves + trials.  For
    `minimize_joint`, a gradient evaluation precedes each row of
    `iterations.csv`, so adjoint solves = rows.  A name that escaped
    wrapping breaks one of these equalities.
    """
    problems = []
    roots = [(i, s) for i, s in spans if s.name in OPTIMIZERS]
    if not roots:
        problems.append("no optimizer span recorded")
    for i, s in roots:
        below = _descendants(i, spans)
        forward = sum(1 for d in below if d.name == "forward.solve_forward")
        adjoint = sum(1 for d in below if d.name == "adjoint.solve_adjoint")
        trials = sum(1 for d in below
                     if d.name == "forward.solve_forward" and d.parent == i)
        _, accepted, starts = s.info
        if adjoint != starts + accepted:
            problems.append(f"{s.name}: {adjoint} adjoint solves != {starts} starts "
                            f"+ {accepted} accepted steps in its report")
        if forward != adjoint + trials:
            problems.append(f"{s.name}: {forward} forward solves != "
                            f"{adjoint} adjoint solves + {trials} Armijo trials")
        if s.name == "optimize.minimize_joint" and iteration_rows is not None \
                and adjoint != iteration_rows:
            problems.append(f"{s.name}: {adjoint} adjoint solves != "
                            f"{iteration_rows} rows of iterations.csv")
    return problems
