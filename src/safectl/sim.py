"""Deterministic kinematic simulator and episode runner.

Ground truth is the velocity-controlled integrator sdot = E a + w(t), with
E = eye(n_state, n_action) and a seeded disturbance draw ||w||_1 <= w_max
held constant over each step, integrated with rk4 (an injectable field_fn
replaces E a for tests that need another truth). Observations add Gaussian
noise. Collision checking uses hard-max zone margins on the true state, so
smoothing slack can never hide a violation. Per-episode RNG streams derive from (master seed, episode index),
making batches order- and concurrency-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .barriers import zone_from_config
from .control import (
    KnnExpertPolicy,
    ReferencePath,
    ScriptedExpert,
    WaypointTracker,
    clf_action,
)
from .dynamics import _step_rk4


@dataclass
class EnvConfig:
    n_state: int = 4
    n_action: int = 4
    dt: float = 0.1
    w_max: float = 0.0                   # L1 bound on the disturbance, state-units/s
    disturbance_mode: str = "step"       # step: fresh draw per step; episode: one bias draw per episode
    obs_noise: float = 0.0
    a_max: float = 0.05                  # per-dim action bound
    horizon: int = 100
    task: str = "reach"                  # reach | transport | path-follow
    zones: list = field(default_factory=list)          # zone config dicts
    goal: np.ndarray | None = None       # position target (reach/transport)
    start: np.ndarray | None = None      # nominal start state
    start_spread: float = 0.0            # uniform box half-width on position dims
    obj: np.ndarray | None = None        # object position (transport)
    goal_tol: float = 0.005
    latch_tol: float = 0.005

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < 1 or self.w_max < 0:
            raise ValueError("dt > 0, horizon >= 1, w_max >= 0 required")
        if self.start is None:
            self.start = np.zeros(self.n_state)
        else:
            self.start = np.asarray(self.start, dtype=np.float64)
        if self.goal is not None:
            self.goal = np.asarray(self.goal, dtype=np.float64)
        if self.obj is not None:
            self.obj = np.asarray(self.obj, dtype=np.float64)

    def build_zones(self):
        return [zone_from_config(z) for z in self.zones]


class KinematicEnv:
    """Velocity-controlled point agent; field_fn(s, a) is the truth less the
    disturbance, E a when not given."""

    def __init__(self, config: EnvConfig, seed: int = 0, field_fn=None):
        self.cfg = config
        if field_fn is None:
            gain = np.eye(config.n_state, config.n_action)
            field_fn = lambda s, a: gain @ a
        self.field_fn = field_fn
        self._rng = None
        self.state = None
        self.latched = False
        self.reset(seed)

    def reset(self, seed: int = 0):
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        s0 = self.cfg.start.copy()
        if self.cfg.start_spread > 0:
            n_pos = min(3, self.cfg.n_state)
            s0[:n_pos] += self._rng.uniform(
                -self.cfg.start_spread, self.cfg.start_spread, n_pos
            )
        self.state = s0
        self.latched = False
        self._episode_bias = None
        if self.cfg.disturbance_mode == "episode":
            self._episode_bias = self._draw_disturbance()
        return self.observe()

    def observe(self) -> np.ndarray:
        if self.cfg.obs_noise > 0:
            return self.state + self._rng.normal(0.0, self.cfg.obs_noise, self.cfg.n_state)
        return self.state.copy()

    def _draw_disturbance(self) -> np.ndarray:
        if self.cfg.w_max == 0.0:
            return np.zeros(self.cfg.n_state)
        d = self._rng.uniform(-1.0, 1.0, self.cfg.n_state)
        d /= max(np.abs(d).sum(), 1e-300)
        return self.cfg.w_max * self._rng.uniform(0.0, 1.0) * d

    def step(self, a) -> np.ndarray:
        """Clamp the action, integrate one dt with a constant disturbance draw,
        return the (possibly noisy) observation."""
        a = np.clip(np.asarray(a, dtype=np.float64), -self.cfg.a_max, self.cfg.a_max)
        w = self._episode_bias if self._episode_bias is not None else self._draw_disturbance()
        self.state = _step_rk4(lambda s, _a: self.field_fn(s, _a) + w, self.state, a, self.cfg.dt)
        if self.cfg.task == "transport" and not self.latched and self.cfg.obj is not None:
            if np.linalg.norm(self.state[:3] - self.cfg.obj) <= self.cfg.latch_tol:
                self.latched = True
        return self.observe()


# -- policies --------------------------------------------------------------------


class ClfPolicy:
    """Waypoint-following CLF controller bound to a learned model."""

    def __init__(self, model, path: ReferencePath, beta: float):
        self.model = model
        self.path = path
        self.beta = beta
        self.tracker = None
        self.reset()

    def reset(self, seed: int | None = None):
        self.tracker = WaypointTracker(self.path)

    def act(self, obs, t: int) -> np.ndarray:
        s_des = self.tracker.select(obs)
        return clf_action(self.model, obs, s_des, self.beta)


class KnnPolicy:
    def __init__(self, expert: KnnExpertPolicy):
        self.expert = expert

    def reset(self, seed: int | None = None):
        pass

    def act(self, obs, t: int) -> np.ndarray:
        return self.expert.action(obs)


class ScriptedPolicy:
    def __init__(self, expert: ScriptedExpert):
        self.expert = expert

    def reset(self, seed: int | None = None):
        self.expert.reset(seed)

    def act(self, obs, t: int) -> np.ndarray:
        return self.expert.action(obs)


# -- episodes --------------------------------------------------------------------


@dataclass
class EpisodeResult:
    success: bool
    collided: bool
    min_margin: float
    tracking_dev: float
    steps: int
    inference_time_ms: float
    slack_events: int = 0     # steps the shield met only with slack
    fallback_events: int = 0  # steps where even the relaxation failed (fallback action)
    aborted: bool = False


@dataclass
class TrajectoryLog:
    states: np.ndarray       # (H+1, n) true states
    a_des: np.ndarray        # (H, m)
    a_safe: np.ndarray       # (H, m)
    margins: np.ndarray      # (H+1, k) hard zone margins on true states
    slack: np.ndarray        # (H,)
    solve_time_us: np.ndarray  # (H,)
    filter_margins: np.ndarray | None = None  # (H, k2) per-constraint b when shielded


def zone_margins(zones, position) -> np.ndarray:
    return np.array([z.hard_value(position) for z in zones]) if zones else np.zeros(0)


def run_episode(policy, env_cfg: EnvConfig, seed: int, shield=None,
                path: ReferencePath | None = None):
    """Roll one seeded episode; returns (EpisodeResult, TrajectoryLog).

    The nominal action is clamped to the actuator box before filtering (the
    filter expects a_des inside the box). Success predicates: reach = position
    within goal_tol of the goal by the horizon; transport = object latched and
    delivered within goal_tol; path-follow = within goal_tol of the final
    waypoint. Collision means any hard-max zone margin < 0 along the true
    trajectory. Episodes always run the full horizon; `steps` records the
    first success time.
    """
    env = KinematicEnv(env_cfg, seed=seed)
    zones = env_cfg.build_zones()
    policy.reset(seed)
    obs = env.observe()

    h, n, m = env_cfg.horizon, env_cfg.n_state, env_cfg.n_action
    states = np.empty((h + 1, n))
    a_des_log = np.zeros((h, m))
    a_safe_log = np.zeros((h, m))
    margins = np.empty((h + 1, len(zones))) if zones else np.zeros((h + 1, 0))
    slack = np.zeros(h)
    solve_us = np.zeros(h)

    states[0] = env.state
    if zones:
        margins[0] = zone_margins(zones, env.state[:3])
    filter_margins = (
        np.zeros((h, len(shield.config.constraints))) if shield is not None else None
    )
    success_at = None
    infer_total = 0.0
    slack_events = 0
    fallback_events = 0
    aborted = False
    steps_run = 0

    for t in range(h):
        t0 = time.perf_counter()
        a_des = np.asarray(policy.act(obs, t), dtype=np.float64)
        if not np.all(np.isfinite(a_des)):
            aborted = True
            break
        a_des = np.clip(a_des, -env_cfg.a_max, env_cfg.a_max)
        if shield is not None:
            report = shield.filter(a_des, obs)
            a = report.a_safe
            slack[t] = report.slack_used
            solve_us[t] = report.solve_time * 1e6
            filter_margins[t] = report.margins
            if report.fallback:
                fallback_events += 1
            elif report.infeasible:
                slack_events += 1
        else:
            a = a_des
            solve_us[t] = (time.perf_counter() - t0) * 1e6
        infer_total += time.perf_counter() - t0
        obs = env.step(a)
        a_des_log[t] = a_des
        a_safe_log[t] = a
        states[t + 1] = env.state
        if zones:
            margins[t + 1] = zone_margins(zones, env.state[:3])
        steps_run = t + 1
        if success_at is None and _task_success(env, env_cfg, path):
            success_at = t + 1

    success = success_at is not None and not aborted
    collided = bool(zones) and bool((margins[: steps_run + 1] < 0.0).any())
    min_margin = float(margins[: steps_run + 1].min()) if zones else float("nan")
    if path is not None and steps_run:
        tracking = float(
            path.distance_to(states[1 : steps_run + 1, : path.waypoints.shape[1]]).mean()
        )
    else:
        tracking = float("nan")

    result = EpisodeResult(
        success=success,
        collided=collided,
        min_margin=min_margin,
        tracking_dev=tracking,
        steps=success_at if success_at is not None else steps_run,
        inference_time_ms=1e3 * infer_total / max(1, steps_run),
        slack_events=slack_events,
        fallback_events=fallback_events,
        aborted=aborted,
    )
    log = TrajectoryLog(
        states=states[: steps_run + 1],
        a_des=a_des_log[:steps_run],
        a_safe=a_safe_log[:steps_run],
        margins=margins[: steps_run + 1],
        slack=slack[:steps_run],
        solve_time_us=solve_us[:steps_run],
        filter_margins=None if filter_margins is None else filter_margins[:steps_run],
    )
    return result, log


def _task_success(env: KinematicEnv, cfg: EnvConfig, path) -> bool:
    pos = env.state[:3]
    if cfg.task == "reach":
        return cfg.goal is not None and np.linalg.norm(pos - cfg.goal[:3]) <= cfg.goal_tol
    if cfg.task == "transport":
        return (
            env.latched
            and cfg.goal is not None
            and np.linalg.norm(pos - cfg.goal[:3]) <= cfg.goal_tol
        )
    if cfg.task == "path-follow":
        if path is None:
            return False
        final = path.waypoints[-1][:3]
        return np.linalg.norm(pos - final) <= cfg.goal_tol
    raise ValueError(f"unknown task {cfg.task!r}")


# -- batch metrics ---------------------------------------------------------------


def compute_metrics(results_by_seed: dict[int, list[EpisodeResult]],
                    bounds: dict | None = None) -> dict:
    """Mean and std over seeds of the per-seed episode averages.

    Keys follow the evaluation-table metric names, plus the episode count and
    the total shield steps that needed slack (`slack_events`) or fell back to
    the hold action (`fallback_events`). `bounds` (optional) adds the
    model-level derivative/state error entries.
    """
    if not results_by_seed or not any(results_by_seed.values()):
        raise ValueError("empty batch")

    def per_seed(fn):
        vals = np.array([
            float(np.mean([fn(r) for r in results])) for results in results_by_seed.values()
        ])
        return {"mean": float(vals.mean()), "std": float(vals.std())}

    summary = {
        "success_rate_with_violation": per_seed(lambda r: float(r.success)),
        "success_rate_without_violation": per_seed(lambda r: float(r.success and not r.collided)),
        "collision_rate": per_seed(lambda r: float(r.collided)),
        "inference_time_ms": per_seed(lambda r: r.inference_time_ms),
    }
    margins = [r.min_margin for rs in results_by_seed.values() for r in rs]
    if np.all(np.isfinite(margins)):
        summary["safe_margin"] = per_seed(lambda r: r.min_margin)
    tracking = [r.tracking_dev for rs in results_by_seed.values() for r in rs]
    if np.all(np.isfinite(tracking)):
        summary["tracking_dev_m"] = per_seed(lambda r: r.tracking_dev)
    if bounds is not None:
        summary["sdot_error"] = bounds.get("e_sdot")
        summary["s_error"] = bounds.get("e_s")
    results = [r for rs in results_by_seed.values() for r in rs]
    summary["episodes"] = len(results)
    summary["slack_events"] = sum(r.slack_events for r in results)
    summary["fallback_events"] = sum(r.fallback_events for r in results)
    return summary
