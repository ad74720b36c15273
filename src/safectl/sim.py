"""Deterministic kinematic simulator and lockstep episode runner.

Ground truth is the velocity-controlled integrator sdot = E a + w(t), with
E = eye(n_state, n_action) and a seeded disturbance draw ||w||_1 <= w_max
held constant over each step, integrated with rk4. An injectable field_fn(S, A)
replaces E a for tests that need another truth: it maps states S (B, n_state)
and actions A (B, n_action) to sdot (B, n_state), row by row. Observations add
Gaussian noise. Collision checking evaluates the zone barriers, the function
behind the shield's margins, on the true state.

`run_episodes` steps a batch of episodes in lockstep: one env holds each
episode as a row, and a step clamps, integrates (one rk4 call) and checks
success, latch and zone margins for every live row at once. Each episode keeps
its own RNG stream, drawn from its seed in the order it has alone, its own
policy object with one `act` call a step, and its own shield filter call. A
row's arithmetic does not depend on the batch, so `run_episode`, the batch of
one, gives the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter as clock

import numpy as np

from .barriers import rowdot, zone_from_config
from .control import (KnnExpertPolicy, ReferencePath, ScriptedExpert, WaypointTracker, clamp,
                      clf_action)
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
        self.start = np.zeros(self.n_state) if self.start is None else \
            np.asarray(self.start, dtype=np.float64)
        if self.goal is not None:
            self.goal = np.asarray(self.goal, dtype=np.float64)
        if self.obj is not None:
            self.obj = np.asarray(self.obj, dtype=np.float64)


class KinematicEnv:
    """Velocity-controlled point agents, one row of `state` per seed, each
    with its own RNG stream; field_fn(S, A) is the truth less the
    disturbance, E a when not given."""

    def __init__(self, config: EnvConfig, seeds, field_fn=None):
        self.cfg = config
        gain_t = np.eye(config.n_state, config.n_action).T
        self.field_fn = field_fn or (lambda S, A: A @ gain_t)
        self.reset(seeds)

    def reset(self, seeds):
        cfg = self.cfg
        self._rngs = [np.random.default_rng(np.random.SeedSequence(s)) for s in seeds]
        self.state = np.tile(cfg.start, (len(self._rngs), 1))
        if cfg.start_spread > 0:
            n_pos = min(3, cfg.n_state)
            for s, rng in zip(self.state, self._rngs):
                s[:n_pos] += rng.uniform(-cfg.start_spread, cfg.start_spread, n_pos)
        self.latched = np.zeros(len(self._rngs), dtype=bool)
        self._episode_bias = self._draw_disturbance() if cfg.disturbance_mode == "episode" \
            else None
        # run_episodes drops this observation and observes afresh; the dropped
        # draw is part of every noisy episode's stream, so it must stay
        return self.observe()

    def observe(self) -> np.ndarray:
        if self.cfg.obs_noise > 0:
            n, sd = self.cfg.n_state, self.cfg.obs_noise
            return self.state + np.array([rng.normal(0.0, sd, n) for rng in self._rngs])
        return self.state.copy()

    def _draw_disturbance(self) -> np.ndarray:
        n, w_max = self.cfg.n_state, self.cfg.w_max
        if w_max == 0.0:
            return np.zeros((len(self._rngs), n))
        w = np.empty((len(self._rngs), n))
        for k, rng in enumerate(self._rngs):
            d = rng.uniform(-1.0, 1.0, n)
            d /= max(np.abs(d).sum(), 1e-300)
            w[k] = w_max * rng.uniform(0.0, 1.0) * d
        return w

    def step(self, a) -> np.ndarray:
        """Clamp the actions a (B, n_action), integrate every row one dt with
        a constant disturbance draw in one rk4 call, return the (possibly
        noisy) observations (B, n_state)."""
        a = clamp(np.array(a, dtype=np.float64), self.cfg.a_max)
        w = self._episode_bias if self._episode_bias is not None else self._draw_disturbance()
        self.state = _step_rk4(lambda s, _a: self.field_fn(s, _a) + w, self.state, a, self.cfg.dt)
        if self.cfg.task == "transport" and self.cfg.obj is not None:
            self.latched |= _distance(self.state[:, :3], self.cfg.obj) <= self.cfg.latch_tol
        return self.observe()


def _distance(points, target) -> np.ndarray:
    """np.linalg.norm(p - target) for each row p of points, bitwise."""
    d = points - target
    return np.sqrt(rowdot(d, d))


# -- policies --------------------------------------------------------------------


class ClfPolicy:
    """Waypoint-following CLF controller bound to a learned model."""

    def __init__(self, model, path: ReferencePath, beta: float):
        self.model = model
        self.path = path
        self.beta = beta
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

    def __copy__(self):
        # a copy rolls an episode of its own: its own latch and dither stream
        return ScriptedPolicy(replace(self.expert))

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
    margins: np.ndarray      # (H+1, k) zone margins on true states
    slack: np.ndarray        # (H,)
    build_time_us: np.ndarray  # (H,) row building; 0 when unshielded
    solve_time_us: np.ndarray  # (H,) the QP; the policy's act when unshielded
    filter_margins: np.ndarray | None = None  # (H, k2) per-constraint b when shielded


def zone_margins(zones, positions) -> np.ndarray:
    """Zone margins (B, k) of positions (B, 3)."""
    return np.array([z.value_and_grad_batch(positions)[0] for z in zones]).T if zones \
        else np.zeros((len(positions), 0))


def run_episode(policy, env_cfg: EnvConfig, seed, shield=None,
                path: ReferencePath | None = None):
    """Roll one seeded episode; returns (EpisodeResult, TrajectoryLog)."""
    return run_episodes([policy], env_cfg, [seed], shield, path)[0]


def run_episodes(policies, env_cfg: EnvConfig, seeds, shield=None,
                 path: ReferencePath | None = None) -> list:
    """Roll one seeded episode per (policy, seed) pair in lockstep; returns
    their (EpisodeResult, TrajectoryLog) pairs in seed order. Each policy is
    reset with its seed and acts for its episode alone.

    The nominal action is clamped to the actuator box before filtering (the
    filter expects a_des inside the box). Success predicates: reach = position
    within goal_tol of the goal by the horizon; transport = object latched and
    delivered within goal_tol; path-follow = within goal_tol of the final
    waypoint. Collision means any zone margin < 0 along the true
    trajectory. An episode runs the full horizon unless its policy returns a
    non-finite action, which aborts it alone; `steps` is the first success time.
    """
    env = KinematicEnv(env_cfg, seeds)
    zones = [zone_from_config(z) for z in env_cfg.zones]
    for policy, seed in zip(policies, seeds):
        policy.reset(seed)
    obs = env.observe()

    e, h, n, m = len(seeds), env_cfg.horizon, env_cfg.n_state, env_cfg.n_action
    # time-major logs: step t's rows are one block, written in place as views
    states = np.empty((h + 1, e, n))
    a_des_log, a_safe_log = np.zeros((2, h, e, m))
    margins = np.empty((h + 1, e, len(zones)))
    slack, build_us, solve_us, spent_s = np.zeros((4, h, e))
    filter_margins = None if shield is None else np.zeros((h, e, len(shield.config.constraints)))
    states[0] = env.state
    margins[0] = zone_margins(zones, env.state[:, :3])
    success_at = [0] * e  # 0 until the goal is reached
    steps_run, aborted, slack_events, fallback_events = [h] * e, [False] * e, [0] * e, [0] * e
    live, pending = list(range(e)), list(range(e))  # not aborted; and not yet succeeded

    # An aborted episode's row rides along with a zero action and its log is
    # cut at the abort, so every step works on whole arrays.
    for t in range(h):
        a_des, a, spent = a_des_log[t], a_safe_log[t], spent_s[t]
        for i in live:
            t0 = clock()
            a_des[i] = policies[i].act(obs[i], t)
            spent[i] = clock() - t0
        if not np.isfinite(a_des).all():
            bad = ~np.isfinite(a_des).all(axis=1)
            for i in np.flatnonzero(bad):
                steps_run[i], aborted[i] = t, True
            a_des[bad] = 0.0
            live = [i for i in live if not bad[i]]
            pending = [i for i in pending if not bad[i]]
            if not live:
                break
        clamp(a_des, env_cfg.a_max)
        a[:] = a_des
        if shield is not None:
            for i in live:
                t0 = clock()
                report = shield.filter(a_des[i], obs[i])
                spent[i] += clock() - t0
                a[i] = report.a_safe
                slack[t, i] = report.slack_used
                build_us[t, i] = report.build_time * 1e6
                solve_us[t, i] = report.solve_time * 1e6
                filter_margins[t, i] = report.margins
                fallback_events[i] += report.fallback
                slack_events[i] += report.infeasible and not report.fallback
        obs = env.step(a)
        states[t + 1] = env.state
        margins[t + 1] = zone_margins(zones, env.state[:, :3])
        if pending:
            reached = _task_success(env.state[:, :3], env.latched, env_cfg, path)
            for i in pending:
                if reached[i]:
                    success_at[i] = t + 1
            pending = [i for i in pending if not reached[i]]
    if shield is None:
        solve_us = spent_s * 1e6

    episodes = []
    for i in range(e):
        r = steps_run[i]
        tracking = float("nan") if path is None or not r else \
            float(path.distance_to(states[1 : r + 1, i, : path.waypoints.shape[1]]).mean())
        result = EpisodeResult(
            success=bool(success_at[i]) and not aborted[i], tracking_dev=tracking,
            collided=bool(zones) and bool((margins[: r + 1, i] < 0.0).any()),
            min_margin=float(margins[: r + 1, i].min()) if zones else float("nan"),
            steps=success_at[i] or r, inference_time_ms=1e3 * spent_s[:r, i].sum() / max(1, r),
            slack_events=slack_events[i], fallback_events=fallback_events[i], aborted=aborted[i],
        )
        log = TrajectoryLog(
            states=states[: r + 1, i].copy(), a_des=a_des_log[:r, i].copy(),
            a_safe=a_safe_log[:r, i].copy(), margins=margins[: r + 1, i].copy(),
            slack=slack[:r, i].copy(), build_time_us=build_us[:r, i].copy(),
            solve_time_us=solve_us[:r, i].copy(),
            filter_margins=None if filter_margins is None else filter_margins[:r, i].copy(),
        )
        episodes.append((result, log))
    return episodes


def _task_success(positions, latched, cfg: EnvConfig, path) -> np.ndarray:
    """Whether each row of positions (B, 3) meets the task's success predicate."""
    if cfg.task not in ("reach", "transport", "path-follow"):
        raise ValueError(f"unknown task {cfg.task!r}")
    target = cfg.goal if cfg.task != "path-follow" else None if path is None else path.waypoints[-1]
    if target is None:
        return np.zeros(len(positions), dtype=bool)
    hit = _distance(positions, target[:3]) <= cfg.goal_tol
    return hit & latched if cfg.task == "transport" else hit


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
        vals = np.array([float(np.mean([fn(r) for r in rs])) for rs in results_by_seed.values()])
        return {"mean": float(vals.mean()), "std": float(vals.std())}

    summary = {
        "success_rate_with_violation": per_seed(lambda r: float(r.success)),
        "success_rate_without_violation": per_seed(lambda r: float(r.success and not r.collided)),
        "collision_rate": per_seed(lambda r: float(r.collided)),
        "inference_time_ms": per_seed(lambda r: r.inference_time_ms),
    }
    results = [r for rs in results_by_seed.values() for r in rs]
    if np.all(np.isfinite([r.min_margin for r in results])):
        summary["safe_margin"] = per_seed(lambda r: r.min_margin)
    if np.all(np.isfinite([r.tracking_dev for r in results])):
        summary["tracking_dev_m"] = per_seed(lambda r: r.tracking_dev)
    if bounds is not None:
        summary["sdot_error"] = bounds.get("e_sdot")
        summary["s_error"] = bounds.get("e_s")
    summary["episodes"] = len(results)
    summary["slack_events"] = sum(r.slack_events for r in results)
    summary["fallback_events"] = sum(r.fallback_events for r in results)
    return summary
