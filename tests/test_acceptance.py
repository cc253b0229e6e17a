"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

import pdeopt as po
from pdeopt.adjoint import adjoint_sweep, linearized_forward
from pdeopt.config import ExperimentConfig
from pdeopt.riccati import solve_differential_riccati, verify_feedback_consistency, \
    worst_ic_eigen_check

from conftest import first_mode_2d, l2_norm, smooth_clamped


def _report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {verdict} ({detail}; {time.time() - t0:.1f}s)")


def _identity_error(model, traj, tg, rng):
    w = model.grid.weight
    g = rng.standard_normal(traj.states.shape)
    phi = rng.standard_normal(traj.states.shape)
    h = linearized_forward(model, traj, tg, g)
    lam = adjoint_sweep(model, traj, tg, phi.copy())
    lhs = tg.dt * w * float(np.sum(h[1:] * phi[1:]))
    rhs = tg.dt * w * float(np.sum(g[:-1] * lam[1:]))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def test_criterion_1_discrete_adjoint_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    errors = []

    grid = po.build_grid_1d(64)
    model = po.make_ks_model(grid, lam=30.0)
    tg = po.TimeGrid(tau=1.0, nt=100)
    for _ in range(10):
        x0 = smooth_clamped(grid, 0.2 * rng.uniform(0.5, 1.5))
        u = po.ControlSignal(tg, 0.3 * rng.standard_normal(tg.nt + 1))
        design = po.ActuatorDesign.of(rng.uniform(0.1, 0.9))
        traj = po.solve_forward(model, u, design, x0, tg)
        errors.append(_identity_error(model, traj, tg, rng))

    grid2 = po.build_grid_2d(32, 32)
    model2 = po.make_heat_model(grid2)
    fam2 = model2.actuator_family
    for _ in range(10):
        x0 = first_mode_2d(grid2, rng.uniform(0.3, 1.0))
        u = po.ControlSignal(tg, 0.3 * rng.standard_normal(tg.nt + 1))
        design = po.ActuatorDesign(fam2.project(rng.standard_normal(fam2.design_dim)))
        traj = po.solve_forward(model2, u, design, x0, tg)
        errors.append(_identity_error(model2, traj, tg, rng))

    worst = max(errors)
    ok = worst <= 1e-11 and len(errors) == 20
    _report(1, "discrete adjoint identity", ok, f"max rel err {worst:.2e} over 20", t0)
    assert ok


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    details = []
    ok = True

    # default KS config
    cfg = ExperimentConfig()
    model = cfg.build_model()
    tg = cfg.build_time_grid()
    rng = np.random.default_rng(cfg["optimizer.seed"])
    u = po.ControlSignal(tg, 0.1 * np.sin(2 * np.pi * tg.times / tg.tau)
                         + 0.01 * rng.standard_normal(tg.nt + 1))
    rep = po.gradient_check(model, u, cfg.build_design(model),
                            cfg.build_x0(model.grid), cfg.build_weights(), tg)
    ok &= rep.max_rel_error <= 1e-4
    details.append(f"ks {rep.max_rel_error:.2e}")

    # default nonlinear heat config
    cfg_h = ExperimentConfig(values={"model.kind": "heat"})
    model_h = cfg_h.build_model()
    tg_h = cfg_h.build_time_grid()
    u_h = po.ControlSignal(tg_h, 0.1 * np.sin(2 * np.pi * tg_h.times / tg_h.tau)
                           + 0.01 * rng.standard_normal(tg_h.nt + 1))
    rep_h = po.gradient_check(model_h, u_h, cfg_h.build_design(model_h),
                              cfg_h.build_x0(model_h.grid), cfg_h.build_weights(), tg_h)
    ok &= rep_h.max_rel_error <= 1e-4
    details.append(f"heat {rep_h.max_rel_error:.2e}")

    # linear heat at the sharper tolerance
    cfg_l = cfg_h.with_value("model.linear", True)
    model_l = cfg_l.build_model()
    rep_l = po.gradient_check(model_l, u_h, cfg_l.build_design(model_l),
                              cfg_l.build_x0(model_l.grid), cfg_l.build_weights(), tg_h)
    ok &= rep_l.max_rel_error <= 1e-7
    details.append(f"heat-lin {rep_l.max_rel_error:.2e}")

    _report(2, "gradient fidelity vs finite differences", ok, ", ".join(details), t0)
    assert ok


def test_criterion_3_ks_energy_bound():
    t0 = time.time()
    rng = np.random.default_rng(103)
    grid = po.build_grid_1d(128)
    model = po.make_ks_model(grid, lam=30.0)
    tg = po.TimeGrid(tau=1.0, nt=400)
    sets = po.AdmissibleSets(family=model.actuator_family, r1=5.0, r2=1.0)
    margins = []
    for _ in range(20):
        coef = rng.standard_normal(4)
        x0 = 0.3 * sum(c * np.sin((k + 1) * np.pi * grid.nodes)
                       for k, c in enumerate(coef))
        u = po.project_U(po.ControlSignal(tg, rng.standard_normal(tg.nt + 1)), sets)
        design = po.ActuatorDesign.of(rng.uniform(0.1, 0.9))
        traj = po.solve_forward(model, u, design, x0, tg)
        margins.append(po.verify_ks_bound(traj, u, design, model))
    ok = all(m >= 0 for m in margins)
    _report(3, "KS energy bound margins", ok, f"min margin {min(margins):.3e}", t0)
    assert ok


def test_criterion_4_heat_iss_bound():
    t0 = time.time()
    rng = np.random.default_rng(104)
    grid = po.build_grid_2d(32, 32)
    model = po.make_heat_model(grid)  # cubic sink
    fam = model.actuator_family
    tg = po.TimeGrid(tau=1.0, nt=200)
    sets = po.AdmissibleSets(family=fam, r1=5.0, r2=1.0)
    xx, yy = grid.meshgrid()
    margins = []
    for _ in range(20):
        x0 = 0.5 * (rng.standard_normal() * np.sin(np.pi * xx) * np.sin(np.pi * yy)
                    + rng.standard_normal() * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy)
                    ).ravel()
        u = po.project_U(po.ControlSignal(tg, rng.standard_normal(tg.nt + 1)), sets)
        design = po.ActuatorDesign(fam.project(rng.standard_normal(fam.design_dim)))
        traj = po.solve_forward(model, u, design, x0, tg)
        margins.append(po.verify_heat_iss_bound(traj, u, design, model))
    ok = all(m >= 0 for m in margins)
    _report(4, "heat ISS bound margins", ok, f"min margin {min(margins):.3e}", t0)
    assert ok


def test_criterion_5_riccati_equivalence():
    t0 = time.time()
    from pdeopt.grids import LinearOperator

    # scalar integrator against the closed form
    scalar = LinearOperator(factors=(np.zeros((1, 1)),))
    tgs = po.TimeGrid(tau=1.0, nt=1000)
    ric_s = solve_differential_riccati(scalar, np.ones(1), po.CostWeights(1.0, 1.0),
                                       tgs)
    tanh_err = abs(float(ric_s.pi0[0, 0]) - np.tanh(1.0))

    weights = po.CostWeights(1.0, 1.0)

    # linear heat
    gh = po.build_grid_2d(16, 16)
    mh = po.make_heat_model(gh, f_scalar=None)
    dh = mh.actuator_family.initial_design()
    sh = po.AdmissibleSets(family=mh.actuator_family, r1=100.0, r2=1.0)
    tgh = po.TimeGrid(tau=1.0, nt=400)
    chk_h = verify_feedback_consistency(mh, sh, weights, first_mode_2d(gh, 1.0), tgh,
                                        dh, check_every=20)

    # linearized KS
    gk = po.build_grid_1d(64)
    mk = po.make_ks_model(gk, lam=30.0, linear=True)
    dk = po.ActuatorDesign.of(0.5)
    sk = po.AdmissibleSets(family=mk.actuator_family, r1=100.0, r2=1.0)
    tgk = po.TimeGrid(tau=0.2, nt=400)
    chk_k = verify_feedback_consistency(mk, sk, weights, smooth_clamped(gk, 0.5), tgk,
                                        dk, check_every=20)

    ok = (tanh_err <= 1e-6 and not chk_h.inconclusive and not chk_k.inconclusive
          and chk_h.discrepancy <= 0.02 and chk_k.discrepancy <= 0.02)
    _report(5, "Riccati feedback equivalence", ok,
            f"tanh {tanh_err:.1e}, heat {chk_h.discrepancy:.4f}, "
            f"ks-lin {chk_k.discrepancy:.4f}", t0)
    assert ok


def test_criterion_6_worst_ic_eigen_alignment():
    t0 = time.time()
    grid = po.build_grid_2d(16, 16)
    model = po.make_heat_model(grid, f_scalar=None)
    fam = model.actuator_family
    design = fam.initial_design()
    b = fam.evaluate(design, grid)
    weights = po.CostWeights(1.0, 1.0)
    sets = po.AdmissibleSets(family=fam, r1=10.0, r2=1.0)
    tg = po.TimeGrid(tau=1.0, nt=200)
    cfg = po.OptimizerConfig(seed=106, multi_start=5, max_iters=400)
    u0 = po.ControlSignal.zero(tg)
    x0_star, mu, report = po.worst_initial_condition(model, u0, design, sets,
                                                     weights, tg, cfg)
    ric = solve_differential_riccati(model.linear_op, b, weights, tg,
                                     state_weight=grid.weight, check_every=50)
    cosine, rayleigh = worst_ic_eigen_check(ric, x0_star, grid)
    norm_gap = abs(report.best["x0_h1_norm"] - sets.r2)
    ok = cosine >= 0.999 and norm_gap <= 1e-6 and report.converged
    _report(6, "worst-IC eigen alignment", ok,
            f"cosine {cosine:.6f}, |norm-R2| {norm_gap:.1e}, mu {mu:.3e}, "
            f"rayleigh {rayleigh:.3e}", t0)
    assert ok


def test_criterion_7_ks_joint_optimality_residuals():
    t0 = time.time()
    grid = po.build_grid_1d(128)
    model = po.make_ks_model(grid, lam=30.0)
    tg = po.TimeGrid(tau=0.2, nt=200)
    x0 = 3.0 * np.exp(-((grid.nodes - 0.3) ** 2) / (2 * 0.07**2))
    weights = po.CostWeights(1.0, 1e-4)
    sets = po.AdmissibleSets(family=model.actuator_family, r1=200.0, r2=1.0)
    cfg = po.OptimizerConfig(tol=1e-5, max_iters=3000)
    u, design, report = po.minimize_joint(model, sets, weights, x0, tg, cfg)

    traj = po.solve_forward(model, u, design, x0, tg)
    p = po.solve_adjoint(model, traj, weights, tg)
    res = po.optimality_residuals(po.assemble_gradients(model, traj, p, u, design, weights),
                                  u, design, sets)
    costs = [row["cost"] for row in report.iterations]
    monotone = all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))
    res_u_ok = res.res_u <= 1e-5 or res.u_active
    res_r_ok = res.res_r <= 1e-5 or bool(np.all(res.r_active))
    ok = report.converged and res_u_ok and res_r_ok and monotone and len(costs) > 3
    _report(7, "KS joint optimality residuals", ok,
            f"res_u {res.res_u:.2e}, res_r {res.res_r:.2e}, iters {len(costs)}, "
            f"monotone {monotone}", t0)
    assert ok


def test_criterion_8_convergence_orders():
    t0 = time.time()
    lam = 30.0

    spat_ks = []
    for n in (63, 127, 255):
        g = po.build_grid_1d(n)
        w = 0.5 * (1 - np.cos(2 * np.pi * g.nodes))
        w4 = -(2 * np.pi) ** 4 * np.cos(2 * np.pi * g.nodes) / 2
        w2 = (2 * np.pi) ** 2 * np.cos(2 * np.pi * g.nodes) / 2
        spat_ks.append(l2_norm(po.ks_operator(g, lam).apply(w) - (-w4 - lam * w2), g))
    order_ks = min(np.log2(spat_ks[i] / spat_ks[i + 1]) for i in range(2))

    spat_h = []
    for n in (16, 32, 64):
        g = po.build_grid_2d(n, n)
        xx, yy = g.meshgrid()
        w = (np.sin(np.pi * xx) * np.sin(np.pi * yy)).ravel()
        spat_h.append(l2_norm(po.heat_operator(g).apply(w) + 2 * np.pi**2 * w, g))
    order_h = min(np.log2(spat_h[i] / spat_h[i + 1]) for i in range(2))

    g = po.build_grid_1d(64)
    model = po.make_ks_model(g, lam=lam)
    x0 = smooth_clamped(g, 0.5)
    sols = []
    for nt in (100, 200, 400):
        tg = po.TimeGrid(tau=0.2, nt=nt)
        u = po.ControlSignal(tg, np.sin(2 * np.pi * tg.times / 0.2))
        sols.append(po.solve_forward(model, u, po.ActuatorDesign.of(0.4), x0,
                                     tg).terminal)
    order_t_ks = np.log2(l2_norm(sols[0] - sols[1], g)
                         / l2_norm(sols[1] - sols[2], g))

    g2 = po.build_grid_2d(16, 16)
    model2 = po.make_heat_model(g2)
    x02 = first_mode_2d(g2, 1.0)
    d2 = model2.actuator_family.initial_design()
    sols2 = []
    for nt in (100, 200, 400):
        tg = po.TimeGrid(tau=0.5, nt=nt)
        u = po.ControlSignal(tg, np.cos(2 * np.pi * tg.times))
        sols2.append(po.solve_forward(model2, u, d2, x02, tg).terminal)
    order_t_h = np.log2(l2_norm(sols2[0] - sols2[1], g2)
                        / l2_norm(sols2[1] - sols2[2], g2))

    orders = {"ks-op": order_ks, "heat-op": order_h,
              "ks-time": order_t_ks, "heat-time": order_t_h}
    ok = all(v >= 1.8 for v in orders.values())
    _report(8, "convergence orders", ok,
            ", ".join(f"{k} {v:.2f}" for k, v in orders.items()), t0)
    assert ok


def test_criterion_9_sweep_vs_joint():
    t0 = time.time()
    grid = po.build_grid_1d(128)
    model = po.make_ks_model(grid, lam=30.0)
    tg = po.TimeGrid(tau=0.2, nt=200)
    x0 = 3.0 * np.exp(-((grid.nodes - 0.3) ** 2) / (2 * 0.07**2))
    weights = po.CostWeights(1.0, 1e-4)
    sets = po.AdmissibleSets(family=model.actuator_family, r1=200.0, r2=1.0)
    cfg = po.OptimizerConfig(tol=1e-5, max_iters=3000)

    _, d_joint, rep_joint = po.minimize_joint(model, sets, weights, x0, tg, cfg)

    sweep_values = np.linspace(0.1, 0.9, 9)
    sweep_costs = []
    for r in sweep_values:
        _, _, rep = po.minimize_joint(model, sets, weights, x0, tg, cfg,
                                      optimize_design=False,
                                      initial_design=po.ActuatorDesign.of(r))
        sweep_costs.append(rep.final["cost"])
    best_idx = int(np.argmin(sweep_costs))
    r_best = sweep_values[best_idx]
    cell = sweep_values[1] - sweep_values[0]

    location_ok = abs(r_best - d_joint.params[0]) <= cell + 1e-12
    # the sweep is a coarse outer loop: its optimum cannot beat the joint one
    cost_ok = sweep_costs[best_idx] >= rep_joint.final["cost"] * (1 - 1e-3)
    ok = location_ok and cost_ok
    _report(9, "sweep vs joint actuator location", ok,
            f"sweep best r={r_best:.2f}, joint r={d_joint.params[0]:.4f}, "
            f"cell {cell:.2f}", t0)
    assert ok
