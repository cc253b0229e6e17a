"""The benchmark's span tracer (perfbench/tracing.py) wraps `pdeopt` functions
by module and name, so a renamed or moved entry point must fail here, in the
test suite, and not only in a traced benchmark run."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import pdeopt
import pdeopt.cli  # noqa: F401  (the tracer wraps the CLI pipelines)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a `pdeopt` module, and in the dicts those modules
    hold, keyed by (module, dict key or None, name)."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pdeopt" or mod_name.startswith("pdeopt."):
            for key, value in vars(mod).items():
                out[mod_name, None, key] = value
                if isinstance(value, dict):
                    out.update(((mod_name, key, k), v) for k, v in list(value.items()))
    return out


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    targets = [(owner, attr, vars(owner)[attr])
               for _, owner, attr, _ in tracing._targets(pdeopt, None)]
    before = _bindings()
    tracer = tracing.Tracer(pdeopt)
    try:
        tracer.install()  # a target name that is gone raises KeyError here
        for owner, attr, raw in targets:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, raw in targets:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} not restored"
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_each_step_calls_the_model_once_through_its_spec():
    # A sweep that inlined the model's nonlinearity or Jacobian would read 0
    # in the traced per-layer counts instead of one call per step.
    tracing = _load_tracing()
    grid = pdeopt.build_grid_2d(6, 5)
    model = pdeopt.make_heat_model(grid)
    tg = pdeopt.TimeGrid(tau=0.1, nt=12)
    x0 = np.random.default_rng(3).standard_normal(grid.size)
    tracer = tracing.Tracer(pdeopt)
    try:
        tracer.install()
        traj = pdeopt.solve_forward(model, None, model.actuator_family.initial_design(),
                                    x0, tg)
        forward = Counter(s.name for s in tracer.spans)
        del tracer.spans[:]
        pdeopt.solve_adjoint(model, traj, pdeopt.CostWeights(), tg)
        backward = Counter(s.name for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert (forward["models.nonlinearity"], forward["models.jacobian"]) == (tg.nt, 0)
    assert (backward["models.nonlinearity"], backward["models.jacobian"]) == (0, tg.nt)


def test_optimizer_spans_pass_the_self_check():
    # Every Armijo trial must solve through a name the tracer wraps: a trial
    # solve bound at import time would leave no span, and the trial counts
    # would read 0 while the evaluations of its cost still show.  rho = 1/60
    # makes the joint descent's first step min(1/(2 rho), 1e6) = 30.  The
    # linear model under u = 0 takes the Lanczos path: one start, each
    # product a gradient bundle, and no Armijo trial.
    tracing = _load_tracing()
    grid = pdeopt.build_grid_2d(6, 5)
    model = pdeopt.make_heat_model(grid)
    linear = pdeopt.make_heat_model(grid, f_scalar=None)
    tg = pdeopt.TimeGrid(tau=0.3, nt=30)
    x0 = np.random.default_rng(5).standard_normal(grid.size)
    sets = pdeopt.AdmissibleSets(family=model.actuator_family, r1=50.0, r2=1.0)
    cfg = pdeopt.OptimizerConfig(tol=1e-5, max_iters=200, multi_start=2)
    weights = pdeopt.CostWeights(1.0, 1.0 / 60.0)
    tracer = tracing.Tracer(pdeopt)
    try:
        tracer.install()
        u, design, rep = pdeopt.minimize_joint(model, sets, weights, x0, tg, cfg)
        _, _, worst = pdeopt.worst_initial_condition(model, u, design, sets, weights,
                                                     tg, cfg)
        _, _, eigen = pdeopt.worst_initial_condition(linear, pdeopt.ControlSignal.zero(tg),
                                                     design, sets, weights, tg, cfg)
    finally:
        tracer.uninstall()
    assert rep.converged
    assert all(s["stop"] == "kkt residual below tolerance" for s in worst.starts)
    assert [s["label"] for s in eigen.starts] == ["lanczos"] and eigen.converged
    spans = list(enumerate(tracer.spans))
    assert tracing.self_check(spans, len(rep.iterations)) == []
    optimizers = {i for i, s in spans if s.name in tracing.OPTIMIZERS}
    below = Counter(s.name for _, s in spans if s.parent in optimizers)
    assert below["forward.solve_forward"] == below["adjoint.evaluate_cost"] > 0
    last = max(optimizers)  # the Lanczos call: its solves are all in bundles
    assert not any(s.parent == last and s.name == "forward.solve_forward" for _, s in spans)
