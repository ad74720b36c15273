"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. The trained evaluation stack (100 demonstrations,
200-epoch models, held-out bounds) is built once per session.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import GOAL, START, reach_env, zone_on_path
from safectl import dynamics as dyn
from safectl.barriers import CylinderZone, SphereZone, TaskSpaceBarrier, zone_from_config
from safectl.control import KnnExpertPolicy, path_from_config
from safectl.shield import ConstraintSpec, SafetyShield, ShieldConfig
from safectl.sim import ClfPolicy, KinematicEnv, KnnPolicy, run_episode

REPO = Path(__file__).resolve().parent.parent
GAMMAS = (5.0, 10.0, 15.0, 20.0, 25.0)
BETAS = (5.0, 10.0, 15.0, 20.0, 25.0)


class Criterion:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed <= self.budget else "FAIL"
        line = f"ACCEPTANCE {self.number}: {status} - {self.name} ({elapsed:.1f}s"
        if detail:
            line += f"; {detail}"
        line += ")"
        print(line, flush=True)
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed <= self.budget, f"criterion {self.number} over budget: {elapsed:.1f}s"


def straight_path_through_zone():
    d3 = GOAL - START[:3]
    return path_from_config(
        {"type": "straight", "start": START[:3].tolist(), "direction": d3.tolist(),
         "length": float(np.linalg.norm(d3))}, 4)


def make_shield(stack, zone_cfg, gamma=10.0):
    constraints = [ConstraintSpec(zone_from_config(zone_cfg), "position"),
                   ConstraintSpec(TaskSpaceBarrier(np.vstack([d.states for d in stack.demos]),
                                                   radius=0.5), "full")]
    cfg = ShieldConfig(gamma=gamma, constraints=constraints,
                       lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4))
    return SafetyShield(cfg, models={"position": stack.pos, "full": stack.full},
                        bounds={"position": stack.bounds_pos, "full": stack.bounds_full})


def test_criterion_1_safety_invariance(default_stack):
    crit = Criterion(1, "shield eliminates collisions (unfiltered >= 90%, filtered 0/60)", 120)
    stack = default_stack
    zone_cfg = zone_on_path()
    env = reach_env(zones=[zone_cfg])
    knn = KnnPolicy(KnnExpertPolicy.from_demos(stack.demos, 5))
    path = straight_path_through_zone()
    clf = ClfPolicy(stack.full, path, 15.0)
    shield = make_shield(stack, zone_cfg)

    stats = {}
    for name, policy, p in (("knn", knn, None), ("clf", clf, path)):
        unfiltered = [run_episode(policy, env, seed=(1, s), path=p)[0] for s in range(60)]
        filtered = [run_episode(policy, env, seed=(1, s), shield=shield, path=p)[0]
                    for s in range(60)]
        stats[name] = (
            np.mean([r.collided for r in unfiltered]),
            sum(r.collided for r in filtered),
            min(r.min_margin for r in filtered),
        )
    detail = "; ".join(
        f"{k}: unfiltered {v[0]:.2f}, filtered {v[1]}/60, min margin {v[2]:.2e}"
        for k, v in stats.items()
    )
    ok = all(v[0] >= 0.90 and v[1] == 0 and v[2] > 0.0 for v in stats.values())
    crit.finish(ok, detail)


def test_criterion_2_gamma_margin_trend(default_stack):
    crit = Criterion(2, "min safe margin non-increasing in gamma, strict at endpoints, >= 0", 120)
    stack = default_stack
    zone_cfg = zone_on_path()
    env = reach_env(zones=[zone_cfg])
    env.task = "path-follow"
    path = straight_path_through_zone()
    means = []
    for gamma in GAMMAS:
        shield = make_shield(stack, zone_cfg, gamma=gamma)
        policy = ClfPolicy(stack.full, path, 15.0)
        margins = [run_episode(policy, env, seed=(2, s), shield=shield, path=path)[0].min_margin
                   for s in range(20)]
        means.append(float(np.mean(margins)))
    monotone = all(means[i + 1] <= means[i] + 1e-12 for i in range(len(means) - 1))
    strict = means[-1] < means[0]
    crit.finish(monotone and strict and min(means) >= 0.0,
                "margins " + " ".join(f"{m:.2e}" for m in means))


def test_criterion_3_beta_tracking_trend(default_stack):
    crit = Criterion(3, "tracking deviation has an interior argmin over beta", 120)
    stack = default_stack
    path = straight_path_through_zone()
    env = reach_env(w_max=0.05, obs_noise=0.0005, disturbance_mode="episode")
    env.task = "path-follow"
    env.start_spread = 0.005
    env.zones = []
    means = []
    for beta in BETAS:
        policy = ClfPolicy(stack.full, path, beta)
        devs = [run_episode(policy, env, seed=(3, s), path=path)[0].tracking_dev
                for s in range(20)]
        means.append(float(np.mean(devs)))
    argmin = int(np.argmin(means))
    crit.finish(0 < argmin < len(BETAS) - 1,
                f"argmin beta={BETAS[argmin]:g}; devs " + " ".join(f"{m:.2e}" for m in means))


def test_criterion_4_theorem_invariance_property(default_stack):
    crit = Criterion(4, "filtered rollouts stay safe under bounded model mismatch", 60)
    stack = default_stack
    model = stack.pos  # 3-D position model: truth = model field + bounded noise
    w_budget = 0.01
    dt = model.dt
    # e_sdot bounds the forward difference (s_{t+1} - s_t)/dt - field: the
    # disturbance plus the rk4 step's departure from the euler one, hence the
    # headroom; no row reads e_s
    declared = dyn.UncertaintyBounds(e_sdot=1.5 * w_budget, e_s=0.0)

    zone_cfg = zone_on_path()
    zone = zone_from_config(zone_cfg)
    demo_pos = np.vstack([d.states[:, :3] for d in stack.demos])
    behavioral = TaskSpaceBarrier(demo_pos, radius=0.5)
    constraints = [ConstraintSpec(zone, "position"), ConstraintSpec(behavioral, "full")]
    gamma = 10.0
    cfg = ShieldConfig(gamma=gamma, constraints=constraints,
                       lb=-0.05 * np.ones(3), ub=0.05 * np.ones(3))
    shield = SafetyShield(cfg, models={"position": model, "full": model},
                          bounds={"position": declared, "full": declared})
    knn = KnnExpertPolicy(
        np.vstack([d.states[:-1, :3] for d in stack.demos]),
        np.vstack([d.actions[:, :3] for d in stack.demos]), 5)

    from safectl.sim import EnvConfig

    env_cfg = EnvConfig(n_state=3, n_action=3, task="reach", goal=GOAL,
                        start=START[:3], start_spread=0.01, w_max=w_budget,
                        zones=[zone_cfg])
    # the env steps row batches; each row's truth is the model's own field
    field = lambda S, A: np.array([model.field(s, a) for s, a in zip(S, A)])
    decay = np.exp(-gamma * dt)  # 1 - kappa
    violations = 0
    worst = np.inf
    max_sdot_err = 0.0
    for seed in range(100):
        env = KinematicEnv(env_cfg, [(4, seed)], field_fn=field)
        obs = env.observe()[0]
        states, infeasible = [env.state[0].copy()], False
        assert zone.value(env.state[0]) > 0, "start must be safe"
        for t in range(100):
            a = np.clip(knn.action(obs), -0.05, 0.05)
            rep = shield.filter(a, obs)
            infeasible |= rep.infeasible
            pred = model.field(env.state[0], rep.a_safe)
            obs = env.step(rep.a_safe[None, :])[0]
            err = (env.state[0] - states[-1]) / dt - pred
            max_sdot_err = max(max_sdot_err, float(np.abs(err).sum()))
            states.append(env.state[0].copy())
        states = np.asarray(states)
        margins = [np.array([b.value(s) for s in states]) for b in (zone, behavioral)]
        worst = min(worst, *(v.min() for v in margins))
        # the one-step condition every feasible filtered step guarantees:
        # b(s_{t+1}) >= (1 - kappa) b(s_t), up to float rounding
        held = all(np.all(v[1:] >= decay * v[:-1] - 1e-15) for v in margins)
        if infeasible or not held or margins[0].min() < 0:
            violations += 1
    # the declared derivative bound must actually hold on everything executed
    precondition_ok = max_sdot_err <= declared.e_sdot
    crit.finish(violations == 0 and precondition_ok,
                f"worst margin {worst:.2e}, max derivative err {max_sdot_err:.2e} "
                f"<= e_sdot {declared.e_sdot:.2e}, violations {violations}")


def test_criterion_5_qp_grid_oracle():
    crit = Criterion(5, "QP matches grid search within 1e-3 with KKT <= 1e-7", 10)
    from test_qp import feasible_instance, grid_search
    from safectl import qp

    rng = np.random.default_rng(5)
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))  # m <= 3
        k = int(rng.integers(0, 7))
        problem = feasible_instance(rng, m, k)
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        _, grid_obj = grid_search(problem)
        worst_gap = max(worst_gap, abs(sol.objective - grid_obj))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    crit.finish(worst_gap < 1e-3 and worst_kkt <= 1e-7,
                f"worst gap {worst_gap:.2e}, worst KKT {worst_kkt:.2e}")


def test_criterion_6_gradient_audits():
    crit = Criterion(6, "autodiff and barrier gradients match finite differences", 10)
    from test_barriers import central_diff_grad
    from safectl.autodiff import Tape, TapedMlp, backward, init_mlp

    rng = np.random.default_rng(6)
    worst = 0.0
    # autodiff: L1 regression loss through the MLP
    for trial in range(10):
        p = init_mlp(4, 12, 5, seed=trial)
        x = rng.normal(size=4)
        target = rng.normal(size=5)

        def loss_value():
            tape = Tape()
            mlp = TapedMlp(tape, p)
            node = tape.sum_abs(tape.sub(mlp(tape.const(x)), tape.const(target)))
            return tape, mlp, node

        tape, mlp, node = loss_value()
        grads = backward(tape, node)
        eps = 1e-5
        for arr, pnode in zip(p.arrays(), mlp.param_nodes()):
            flat = arr.ravel()
            for i in rng.integers(0, flat.size, size=4):
                orig = flat[i]
                flat[i] = orig + eps
                up = float(loss_value()[2].value)
                flat[i] = orig - eps
                dn = float(loss_value()[2].value)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                g = grads[pnode.index].ravel()[i]
                worst = max(worst, abs(fd - g) / max(abs(fd), 1e-8))

    # the fused training gradient: L1 loss of a 2-step rk4 rollout
    for trial in range(5):
        p = init_mlp(3, 8, 3 * (1 + 2), seed=trial)
        s_batch = np.cumsum(rng.normal(size=(3, 3, 4)) * 0.1, axis=0)
        a_batch = rng.normal(size=(2, 2, 4))

        def rollout_loss():
            return dyn._rollout_loss_and_grad(p, s_batch, a_batch, 0.1, 3)

        _, grads = rollout_loss()
        eps = 1e-5
        for arr, grad in zip(p.arrays(), grads):
            flat = arr.ravel()
            for i in rng.integers(0, flat.size, size=4):
                orig = flat[i]
                flat[i] = orig + eps
                up = rollout_loss()[0]
                flat[i] = orig - eps
                dn = rollout_loss()[0]
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                worst = max(worst, abs(fd - grad.ravel()[i]) / max(abs(fd), 1e-8))

    # analytic barrier gradients
    sphere = SphereZone([0.1, -0.2, 0.3], 0.6)
    cyl = CylinderZone([0, 0, 0], [0, 0, 1], 0.8, 1.5)
    tsb = TaskSpaceBarrier(rng.uniform(-1, 1, size=(40, 3)), radius=0.5)
    checked = 0
    while checked < 60:
        x = rng.uniform(-2, 2, 3)
        radial = np.linalg.norm(np.cross(x - cyl.point, cyl.axis))
        b_rad, b_vert = radial - cyl.radius, abs(x[2]) - 0.5 * cyl.length
        near_kink = radial < 0.05 or abs(b_rad - b_vert) < 0.05 or abs(x[2]) < 0.05
        d = np.sort(np.linalg.norm(tsb.states - x, axis=1))
        near_voronoi = d[1] - d[0] < 1e-3
        for barrier, skip in ((sphere, False), (cyl, near_kink), (tsb, near_voronoi)):
            if skip:
                continue
            _, grad = barrier.value_and_grad(x)
            fd = central_diff_grad(barrier.value, x)
            worst = max(worst, float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)))
        checked += 1
    crit.finish(worst < 1e-4, f"worst relative error {worst:.2e}")


def test_criterion_7_integrator_orders():
    crit = Criterion(7, "rk4 error ratio in [12,20], euler in [1.8,2.2] on halving dt", 5)

    def global_err(method, dt):
        n = int(round(1.0 / dt))
        s = dyn.integrate(lambda s, a: -s, np.array([1.0]), np.zeros((n, 1)), dt=dt,
                          method=method)
        return abs(s[-1, 0] - np.exp(-1.0))

    euler_ratio = global_err("euler", 0.1) / global_err("euler", 0.05)
    rk4_ratio = global_err("rk4", 0.1) / global_err("rk4", 0.05)
    crit.finish(1.8 <= euler_ratio <= 2.2 and 12.0 <= rk4_ratio <= 20.0,
                f"euler {euler_ratio:.3f}, rk4 {rk4_ratio:.2f}")


def test_criterion_8_dynamics_learning(default_stack):
    crit = Criterion(8, "trained held-out e_s < 10% of untrained; bitwise-deterministic", 180)
    stack = default_stack
    untrained_bounds = dyn.quantify_uncertainty(stack.full_untrained, stack.held_demos)
    ratio = stack.bounds_full.e_s / untrained_bounds.e_s
    # determinism: two fresh short runs agree bitwise and form a prefix of the
    # 200-epoch curve (identical seed -> identical update stream)
    cfg = dyn.TrainConfig(epochs=12, batch=20, rollout_h=10, seed=0)
    _, l1 = dyn.train(stack.full_untrained, stack.train_demos, cfg)
    _, l2 = dyn.train(stack.full_untrained, stack.train_demos, cfg)
    deterministic = np.array_equal(l1, l2) and np.array_equal(l1, stack.losses_full[:12])
    ok = ratio < 0.10 and deterministic and stack.train_seconds <= 180
    crit.finish(ok, f"e_s ratio {ratio:.3f}, 200-epoch train {stack.train_seconds:.0f}s, "
                    f"bitwise={deterministic}")


def test_criterion_9_filter_minimality(default_stack):
    crit = Criterion(9, "filter equals closed-form projection on single-active rows", 10)
    rng = np.random.default_rng(9)
    zone = SphereZone([0.0, 0, 0], 1.0)
    model = dyn.AffineModel.integrator(3)
    bounds = dyn.UncertaintyBounds(e_sdot=0.0, e_s=0.0)
    cfg = ShieldConfig(gamma=1.0, constraints=[ConstraintSpec(zone, "position")],
                       lb=-10.0 * np.ones(3), ub=10.0 * np.ones(3))
    shield = SafetyShield(cfg, models={"position": model}, bounds={"position": bounds})
    worst_active, worst_inactive = 0.0, 0.0
    done_active = done_inactive = 0
    while done_active < 100 or done_inactive < 100:
        s = rng.uniform(1.05, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        a_des = rng.uniform(-2, 2, 3)
        rows, rhs = shield.constraint_rows(s)  # e_s = 0: the one row at s
        G, h = rows[0], rhs[0]
        viol = float(G @ a_des - h)
        rep = shield.filter(a_des, s)
        if viol > 1e-3 and done_active < 100:
            expected = a_des - (viol / (G @ G)) * G
            worst_active = max(worst_active, float(np.max(np.abs(rep.a_safe - expected))))
            done_active += 1
        elif viol < -1e-3 and done_inactive < 100:
            worst_inactive = max(worst_inactive, float(np.max(np.abs(rep.a_safe - a_des))))
            done_inactive += 1
    crit.finish(worst_active < 1e-8 and worst_inactive == 0.0,
                f"active dev {worst_active:.2e}, inactive dev {worst_inactive:.2e}")


def test_criterion_10_end_to_end_pipeline(tmp_path):
    crit = Criterion(10, "gen-demos -> train -> quantify -> run, exit 0, valid summary", 300)
    cfg_path = REPO / "configs" / "reach_sphere.json"
    out = tmp_path / "pipeline"
    ok = True
    detail = []
    for cmd in (["gen-demos", "--n", "100"], ["train"], ["quantify"], ["run"]):
        proc = subprocess.run(
            [sys.executable, "-m", "safectl.cli", cmd[0], "--config", str(cfg_path),
             "--out", str(out), *cmd[1:]],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            ok = False
            detail.append(f"{cmd[0]} exited {proc.returncode}: {proc.stderr[:200]}")
            break
    if ok:
        summary = json.loads((out / "summary.json").read_text())
        required = {"success_rate_with_violation", "success_rate_without_violation",
                    "collision_rate", "inference_time_ms", "safe_margin",
                    "sdot_error", "s_error", "episodes"}
        missing = required - set(summary)
        if missing:
            ok = False
            detail.append(f"summary missing {missing}")
        else:
            detail.append(
                f"shielded collision {summary['collision_rate']['mean']:.2f}, "
                f"success w/o violation {summary['success_rate_without_violation']['mean']:.2f}"
            )
            ok = summary["collision_rate"]["mean"] == 0.0
    if ok:
        # the unshielded baseline on the same artifacts collides almost always
        proc = subprocess.run(
            [sys.executable, "-m", "safectl.cli", "run", "--config", str(cfg_path),
             "--out", str(out), "--shield", "off"],
            capture_output=True, text=True,
        )
        ok = proc.returncode == 0
        if ok:
            baseline = json.loads((out / "summary.json").read_text())
            detail.append(f"unshielded collision {baseline['collision_rate']['mean']:.2f}")
            ok = baseline["collision_rate"]["mean"] >= 0.9
    crit.finish(ok, "; ".join(detail))
