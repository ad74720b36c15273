"""Shared fixtures: the default evaluation stack (demonstrations, trained
models, uncertainty bounds) built once per session at the full default
configuration, plus the scenario geometry used by the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from safectl import dynamics as dyn
from safectl.control import ScriptedExpert
from safectl.sim import EnvConfig, ScriptedPolicy, run_episode

START = np.array([0.05, 0.05, 0.05, 0.0])
GOAL = np.array([0.30, 0.30, 0.15])


def zone_on_path(offset: float = 0.02, radius: float = 0.045) -> dict:
    """Sphere zone straddling the straight start->goal segment, offset a bit
    sideways so filtered trajectories deflect around it instead of stalling."""
    mid = (START[:3] + GOAL) / 2
    perp = np.cross(GOAL - START[:3], [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    return {"type": "sphere", "center": (mid + offset * perp).tolist(), "radius": radius}


def reach_env(zones=(), **kw) -> EnvConfig:
    return EnvConfig(task="reach", goal=GOAL, start=START, start_spread=0.01,
                     zones=list(zones), **kw)


def make_demos(n: int = 100, dither: float = 0.02, seed_base: int = 0):
    env = reach_env()
    demos = []
    for i in range(n):
        expert = ScriptedExpert(goal=GOAL, a_max=env.a_max, dither=dither)
        result, log = run_episode(ScriptedPolicy(expert), env, seed=(seed_base, i))
        assert result.success, f"expert failed on seed {i}"
        demos.append(dyn.Demonstration(states=log.states, actions=log.a_safe, dt=env.dt))
    return demos


@dataclass
class Stack:
    demos: list
    train_demos: list
    held_demos: list
    full: dyn.NeuralOdeModel
    pos: dyn.NeuralOdeModel
    full_untrained: dyn.NeuralOdeModel
    bounds_full: dyn.UncertaintyBounds
    bounds_pos: dyn.UncertaintyBounds
    losses_full: np.ndarray
    train_seconds: float


@pytest.fixture(scope="session")
def default_stack() -> Stack:
    """100 demonstrations on the default reach task, both models trained at
    the default configuration (200 epochs), bounds on the held-out split."""
    import time

    demos = make_demos(100)
    train_demos, held = dyn.split_demos(demos, 0.2, seed=0)
    untrained = dyn.NeuralOdeModel.create(4, 4, seed=0)
    cfg = dyn.TrainConfig(epochs=200, batch=20, rollout_h=10, seed=0)
    t0 = time.perf_counter()
    full, losses = dyn.train(untrained, train_demos, cfg)
    train_seconds = time.perf_counter() - t0
    pos, _ = dyn.derive_position_model(untrained, train_demos, cfg)
    return Stack(
        demos=demos,
        train_demos=train_demos,
        held_demos=held,
        full=full,
        pos=pos,
        full_untrained=untrained,
        bounds_full=dyn.quantify_uncertainty(full, held),
        bounds_pos=dyn.quantify_uncertainty(
            pos, dyn.slice_demos(held, dyn.POSITION_DIMS, dyn.POSITION_DIMS)),
        losses_full=losses,
        train_seconds=train_seconds,
    )
