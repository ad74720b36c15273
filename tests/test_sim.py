import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOAL, START, AffineModel, reach_env, straight_path_to, zone_on_path
from safectl.barriers import CylinderZone, SphereZone
from safectl.control import KnnExpertPolicy, ScriptedExpert, straight_path
from safectl.dynamics import integrate
from safectl.sim import (
    ClfPolicy,
    EnvConfig,
    EpisodeResult,
    KinematicEnv,
    KnnPolicy,
    ScriptedPolicy,
    TrajectoryLog,
    compute_metrics,
    run_episode,
    run_episodes,
    zone_margins,
)


class TestStep:
    """One env row at a time: step takes (B, n_action) actions, state is (B, n_state)."""

    def test_pure_integrator_step(self):
        env = KinematicEnv(EnvConfig(start=np.array([0.1, 0.1, 0.1, 0.0])), [0])
        a = np.array([[0.02, -0.01, 0.03, 0.0]])
        env.step(a)
        assert np.allclose(env.state[0], [0.102, 0.099, 0.103, 0.0], atol=1e-15)

    def test_zero_action_zero_field_state_unchanged(self):
        env = KinematicEnv(EnvConfig(start=np.array([0.2, 0.1, 0.0, 0.0])), [0])
        s0 = env.state.copy()
        env.step(np.zeros((1, 4)))
        assert np.array_equal(env.state, s0)

    def test_action_clamped_to_box(self):
        env = KinematicEnv(EnvConfig(start=np.zeros(4), a_max=0.05), [0])
        env.step(np.array([[10.0, -10.0, 0.0, 0.0]]))
        assert np.allclose(env.state[0], [0.005, -0.005, 0.0, 0.0], atol=1e-15)

    def test_rk4_matches_fine_step_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 3
            A = rng.normal(size=(n, n)) * 0.2
            B = rng.normal(size=(n, n)) * 0.3
            field = lambda s, _a: A @ s + B @ _a
            cfg = EnvConfig(n_state=n, n_action=n, start=rng.normal(size=n) * 0.1, a_max=1.0)
            env = KinematicEnv(cfg, [0], field_fn=lambda S, _A: S @ A.T + _A @ B.T)
            a = rng.uniform(-0.5, 0.5, n)
            s0 = env.state[0].copy()
            env.step(a[None, :])
            fine = integrate(field, s0, np.tile(a, (100, 1)), dt=cfg.dt / 100)[-1]
            assert np.max(np.abs(env.state[0] - fine)) < 1e-8

    def test_disturbance_bounded_and_seeded(self):
        cfg = EnvConfig(start=np.zeros(4), w_max=0.03)
        e1 = KinematicEnv(cfg, [5])
        e2 = KinematicEnv(cfg, [5])
        for _ in range(20):
            e1.step(np.zeros((1, 4)))
            e2.step(np.zeros((1, 4)))
            assert np.array_equal(e1.state, e2.state)
        # zero action, zero field: all motion comes from w; per-step L1 <= w_max*dt
        assert np.abs(np.diff([0.0] + [e1.state[0, 0]])).max() <= 0.03 * 0.1 * 20

    def test_episode_disturbance_mode_constant_bias(self):
        cfg = EnvConfig(start=np.zeros(4), w_max=0.03, disturbance_mode="episode")
        env = KinematicEnv(cfg, [3])
        env.step(np.zeros((1, 4)))
        first = env.state.copy()
        env.step(np.zeros((1, 4)))
        assert np.allclose(env.state, 2 * first, atol=1e-15)  # constant drift


class TestRunEpisode:
    def test_reach_expert_succeeds_under_horizon(self):
        expert = ScriptedExpert(goal=GOAL, a_max=0.05)
        result, log = run_episode(ScriptedPolicy(expert), reach_env(), seed=0)
        assert result.success
        assert result.steps < 100
        assert log.states.shape == (101, 4)  # full horizon is always logged

    def test_transport_succeeds(self):
        obj = np.array([0.14, 0.15, 0.09])
        goal = np.array([0.26, 0.26, 0.13])
        env = EnvConfig(task="transport", goal=goal, obj=obj,
                        start=START, start_spread=0.005)
        expert = ScriptedExpert(goal=goal, a_max=0.05, obj=obj)
        result, _ = run_episode(ScriptedPolicy(expert), env, seed=0)
        assert result.success

    def test_deterministic_trajectories_bitwise(self):
        expert = ScriptedExpert(goal=GOAL, a_max=0.05, dither=0.02)
        r1, l1 = run_episode(ScriptedPolicy(expert), reach_env(obs_noise=1e-3, w_max=0.01), seed=9)
        r2, l2 = run_episode(ScriptedPolicy(expert), reach_env(obs_noise=1e-3, w_max=0.01), seed=9)
        assert np.array_equal(l1.states, l2.states)
        assert np.array_equal(l1.a_safe, l2.a_safe)
        assert r1.success == r2.success and r1.steps == r2.steps

    def test_collision_detection_against_zone(self):
        env = reach_env(zones=[zone_on_path()])
        expert = ScriptedExpert(goal=GOAL, a_max=0.05)
        result, log = run_episode(ScriptedPolicy(expert), env, seed=0)
        assert result.collided
        assert result.min_margin < 0.0
        assert log.margins.shape[1] == 1

    def test_collided_implies_negative_margin_invariant(self):
        env = reach_env(zones=[zone_on_path()])
        for seed in range(5):
            expert = ScriptedExpert(goal=GOAL, a_max=0.05, dither=0.02)
            result, _ = run_episode(ScriptedPolicy(expert), env, seed=seed)
            if result.collided:
                assert result.min_margin < 0.0
            else:
                assert result.min_margin >= 0.0

    def test_nonfinite_action_aborts_flagged(self):
        class BadPolicy:
            def reset(self, seed=None):
                pass

            def act(self, obs, t):
                return np.array([np.nan, 0, 0, 0])

        result, _ = run_episode(BadPolicy(), reach_env(), seed=0)
        assert result.aborted and not result.success

    def test_path_follow_success_and_tracking(self):
        model = AffineModel.integrator(4)
        path = straight_path_to(GOAL)
        env = EnvConfig(task="path-follow", start=START, start_spread=0.0)
        result, _ = run_episode(ClfPolicy(model, path, 15.0), env,
                                seed=0, path=path)
        assert result.success
        assert result.tracking_dev < 2e-3

    def test_exact_path_replay_has_zero_tracking_dev(self):
        # a policy that walks the waypoints exactly: deviation 0
        path = straight_path([0.0, 0, 0, 0], [0.3, 0, 0, 0], 31)

        class Replay:
            def __init__(self):
                self.i = 0

            def reset(self, seed=None):
                self.i = 0

            def act(self, obs, t):
                self.i = min(self.i + 1, 30)
                return (path.waypoints[self.i] - obs) / 0.1

        env = EnvConfig(task="path-follow", start=np.array([0.0, 0, 0, 0]),
                        start_spread=0.0, a_max=1.0, horizon=40, goal_tol=0.005)
        result, _ = run_episode(Replay(), env, seed=0, path=path)
        assert result.success
        assert result.tracking_dev == pytest.approx(0.0, abs=1e-12)


class NanAt:
    """Wraps a policy; returns NaN actions from step k on."""

    def __init__(self, policy, k):
        self.policy, self.k = policy, k

    def reset(self, seed=None):
        self.policy.reset(seed)

    def act(self, obs, t):
        a = self.policy.act(obs, t)
        return np.full(len(a), np.nan) if t >= self.k else a


OBJ = np.array([0.14, 0.15, 0.09])
CYLINDER = {"type": "cylinder", "point": [0.25, 0.22, 0.1], "axis": [0, 0, 1],
            "radius": 0.02, "length": 0.08}


def same_floats(a, b) -> bool:
    """Equal shapes and equal bytes: -0.0 and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLockstep:
    """A lockstep batch is the serial episodes, bit for bit, timing aside."""

    @settings(max_examples=30, deadline=None)
    @given(
        task=st.sampled_from(["reach", "transport", "path-follow"]),
        policy_kind=st.sampled_from(["scripted", "clf"]),
        w_max=st.sampled_from([0.0, 0.02]),
        mode=st.sampled_from(["step", "episode"]),
        obs_noise=st.sampled_from([0.0, 1e-3]),
        zones=st.booleans(),
        n=st.integers(1, 4),
        master=st.integers(0, 2**16),
        nan=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 20))),
    )
    def test_batch_equals_one_episode_at_a_time(self, task, policy_kind, w_max, mode,
                                                 obs_noise, zones, n, master, nan):
        goal = np.array([0.26, 0.26, 0.13]) if task == "transport" else GOAL
        path = straight_path_to(goal)
        env = EnvConfig(task=task, goal=goal, obj=OBJ if task == "transport" else None,
                        start=START, start_spread=0.01, w_max=w_max, disturbance_mode=mode,
                        obs_noise=obs_noise, horizon=40,
                        zones=[zone_on_path(), CYLINDER] if zones else [])
        seeds = [(master, i) for i in range(n)]

        def policy(i):
            if policy_kind == "clf":
                p = ClfPolicy(AffineModel.integrator(4), path, 15.0)
            else:
                p = ScriptedPolicy(ScriptedExpert(goal=goal, a_max=0.05, dither=0.02,
                                                  obj=OBJ if task == "transport" else None))
            return NanAt(p, nan[1]) if nan is not None and nan[0] == i else p

        batch = run_episodes([policy(i) for i in range(n)], env, seeds, path=path)
        serial = [run_episode(policy(i), env, seed, path=path) for i, seed in enumerate(seeds)]
        assert len(batch) == n
        for i, ((r_b, log_b), (r_s, log_s)) in enumerate(zip(batch, serial)):
            want, got = asdict(r_s), asdict(r_b)
            for d in (want, got):
                d.pop("inference_time_ms")
            assert repr(got) == repr(want), i
            for f in fields(TrajectoryLog):
                if f.name not in ("build_time_us", "solve_time_us"):
                    assert same_floats(getattr(log_b, f.name), getattr(log_s, f.name)), f.name
            if nan is not None and nan[0] == i:
                assert r_b.aborted and log_b.a_des.shape[0] == min(nan[1], 40)
            else:
                assert not r_b.aborted and log_b.a_des.shape[0] == 40
            assert math.isnan(r_b.min_margin) != bool(zones)


class TestZoneMargins:
    """The hard-max margins run_episode judges collisions by."""

    @staticmethod
    def series(zones, traj):
        return zone_margins(zones, traj[:, :3])

    def test_all_outside_no_violation(self):
        traj = np.linspace([1.0, 0, 0, 0], [1.0, 2.0, 0, 0], 20)
        margins = self.series([SphereZone([0, 0, 0], 0.5)], traj)
        assert margins.shape == (20, 1)
        assert (margins > 0).all()

    def test_line_through_center_min_is_minus_r_squared(self):
        traj = np.linspace([-2.0, 0, 0, 0], [2.0, 0, 0, 0], 81)  # passes s = 0
        margins = self.series([SphereZone([0, 0, 0], 0.5)], traj)
        assert margins.min() == pytest.approx(-0.25, abs=1e-12)

    def test_zone_margin_is_the_barrier_value(self):
        zones = [CylinderZone([0, 0, 0], [0, 0, 1], 1.0, 2.0), SphereZone([0, 0, 0], 0.5)]
        X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.3, 0.4, -0.2]])
        margins = zone_margins(zones, X)
        # the cylinder's max of (0, -1) is exactly 0 on the side surface: not a violation
        assert margins[:, 0].tolist() == [0.0, 2.0, -0.5]
        assert margins.tolist() == [[z.value(x) for z in zones] for x in X]
    def test_no_zones_no_margins(self):
        assert zone_margins([], np.zeros((2, 3))).shape == (2, 0)


class TestMetrics:
    @staticmethod
    def result(success, collided, margin=0.1):
        return EpisodeResult(success=success, collided=collided, min_margin=margin,
                             tracking_dev=float("nan"), steps=50, inference_time_ms=1.0)

    def test_all_success_no_collision(self):
        batch = {0: [self.result(True, False)] * 10, 1: [self.result(True, False)] * 10}
        m = compute_metrics(batch)
        assert m["success_rate_without_violation"]["mean"] == 1.0
        assert m["collision_rate"]["mean"] == 0.0
        assert m["episodes"] == 20

    def test_half_collided_batch(self):
        batch = {0: [self.result(True, i % 2 == 0, margin=-0.1 if i % 2 == 0 else 0.1)
                     for i in range(20)]}
        m = compute_metrics(batch)
        assert m["collision_rate"]["mean"] == pytest.approx(0.5)
        assert m["success_rate_with_violation"]["mean"] == 1.0
        assert m["success_rate_without_violation"]["mean"] == pytest.approx(0.5)

    def test_success_without_never_exceeds_with(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = {s: [self.result(bool(rng.integers(2)), bool(rng.integers(2)))
                         for _ in range(10)] for s in range(3)}
            m = compute_metrics(batch)
            assert (m["success_rate_without_violation"]["mean"]
                    <= m["success_rate_with_violation"]["mean"] + 1e-12)

    def test_std_over_seeds(self):
        batch = {0: [self.result(True, False)] * 4, 1: [self.result(False, False)] * 4}
        m = compute_metrics(batch)
        assert m["success_rate_with_violation"]["mean"] == pytest.approx(0.5)
        assert m["success_rate_with_violation"]["std"] == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics({})


class TestShieldedEpisode:
    def test_demo_corpus_is_100_successful_full_horizon_runs(self, default_stack):
        # the fixture asserts per-episode success while generating; shape here
        assert len(default_stack.demos) == 100
        for demo in default_stack.demos:
            assert demo.states.shape == (101, 4)
            assert demo.actions.shape == (100, 4)

    def test_shield_prevents_collision_smoke(self, default_stack):
        from safectl.barriers import TaskSpaceBarrier, zone_from_config
        from safectl.shield import ConstraintSpec, SafetyShield, ShieldConfig

        stack = default_stack
        zone_cfg = zone_on_path()
        env = reach_env(zones=[zone_cfg])
        knn = KnnExpertPolicy.from_demos(stack.demos, 5)
        tsb = TaskSpaceBarrier(np.vstack([d.states for d in stack.demos]), radius=0.5)
        cfg = ShieldConfig(
            gamma=10.0,
            constraints=[ConstraintSpec(zone_from_config(zone_cfg), "position"),
                         ConstraintSpec(tsb, "full")],
            lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4),
        )
        shield = SafetyShield(cfg, models={"position": stack.pos, "full": stack.full},
                              bounds={"position": stack.bounds_pos, "full": stack.bounds_full})
        unshielded, _ = run_episode(KnnPolicy(knn), env, seed=0)
        shielded, log = run_episode(KnnPolicy(knn), env, seed=0, shield=shield)
        assert unshielded.collided
        assert not shielded.collided
        assert shielded.min_margin > 0.0
        assert log.filter_margins is not None and log.filter_margins.shape[1] == 2
