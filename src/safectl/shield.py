"""Robust CBF-QP safety filter.

Each barrier b with the learned control-affine model (f, g) yields the
forward-invariance condition

    L_f b(y) + L_g b(y) a - robust(y) + gamma * b(y) >= 0,

with robust(y) = ||grad b(y)||_inf * e_sdot pairing the model's worst-case L1
derivative error against the gradient (Hoelder duality). Every row, spatial
or behavioral, uses the same gamma. State uncertainty widens the evaluation
point into the box [s - e_s, s + e_s]; the condition is enforced at the
center and at every box vertex, at most MAX_BOX_CORNERS of them (chosen by
deterministic bit-reversal subsampling when there are more), which
under-approximates the min over the box on the sampled set.

Rows are built batched. The box points and the model evaluation depend only
on the binding (position substate or full state), so each binding builds its
box once and sends it through one `drift_and_gain_batch` call (one MLP
forward), shared by every constraint on that binding. Per constraint, the box
goes through one barrier `value_and_grad_batch` call (one kd-tree query for
the task-space barrier), and the Lie derivatives and robust margins are
formed with array operations. The center is the first box point, so the
per-constraint margins the filter reports are the barrier values already
computed for the center rows.

The filter stacks spatial rows (position-substate model, acting on the
linear-velocity action block) and the behavioral row (full-state model),
then solves min ||a - a_des||^2 over the action box. Infeasibility falls
back to a shared-slack relaxation; nonzero slack is reported as infeasible
instead of crashing the episode. A relaxation that does not solve either
(an empty action box, say) returns the zero action clipped to the box and
is reported as an infeasible fallback step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import qp
from .dynamics import POSITION_DIMS, UncertaintyBounds

MAX_BOX_CORNERS = 64  # box corners enforced per binding; more are subsampled


@dataclass
class ConstraintSpec:
    """A barrier bound to either the position-substate or the full-state model."""

    barrier: object
    binding: str = "position"  # position | full

    def __post_init__(self):
        if self.binding not in ("position", "full"):
            raise ValueError(f"unknown binding {self.binding!r}")


@dataclass
class ShieldConfig:
    gamma: float = 10.0
    constraints: list = field(default_factory=list)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not self.constraints:
            raise ValueError("at least one constraint is required")


@dataclass
class FilterReport:
    a_safe: np.ndarray
    intervened: bool
    margins: np.ndarray  # per-constraint b at the current state
    worst_margin: float
    slack_used: float
    solve_time: float
    infeasible: bool = False
    fallback: bool = False  # the relaxation failed too; a_safe is the hold action


def _rows_at(barrier, Y, f, g, bounds: UncertaintyBounds, gamma: float):
    """CBF rows at every evaluation point of Y (B, n), given the model's drift
    f (B, n) and gain g (B, n, n_action) there: G = -L_g b (B, n_action),
    h = L_f b - robust + gamma * b (B,), and the barrier values b (B,)."""
    b, grad = barrier.value_and_grad_batch(Y)
    lf = np.einsum("bi,bi->b", grad, f)
    lg = np.einsum("bi,bij->bj", grad, g)
    margin = np.abs(grad).max(axis=1) * bounds.e_sdot
    return -lg, lf - margin + gamma * b, b


@lru_cache(maxsize=64)
def _corner_signs(n: int) -> np.ndarray:
    """+-1 sign rows of the first min(2^n, MAX_BOX_CORNERS) cube corners,
    bit-reversed enumeration: row i has sign + on axis j iff bit n-1-j of i is
    set. Read-only, because every caller shares the cached array."""
    i = np.arange(min(1 << n, MAX_BOX_CORNERS))
    signs = ((i[:, None] >> (n - 1 - np.arange(n))) & 1) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def box_vertices(center: np.ndarray, half_width: float) -> np.ndarray:
    """Vertices of the axis-aligned box center +- half_width plus the center.

    When 2^n exceeds MAX_BOX_CORNERS, corners are subsampled deterministically
    by bit-reversed index, which spreads the kept corners across the cube.
    Returns an array with the center as the first row.
    """
    if half_width == 0.0:
        return center[None, :]
    signs = _corner_signs(center.shape[0])
    return np.vstack([center[None, :], center[None, :] + half_width * signs])


class SafetyShield:
    """Minimally-deviating safe action via the robust CBF-QP.

    models/bounds are {"position": ..., "full": ...}; only the bindings used
    by the configured constraints need to be present. Filter calls are pure
    given immutable models, bounds and config.
    """

    def __init__(self, config: ShieldConfig, models: dict, bounds: dict):
        self.config = config
        self.models = models
        self.bounds = bounds
        for spec in config.constraints:
            if spec.binding not in models or spec.binding not in bounds:
                raise ValueError(f"no model/bounds for binding {spec.binding!r}")

    def _state_for(self, spec: ConstraintSpec, s: np.ndarray) -> np.ndarray:
        if spec.binding == "position":
            return s[list(POSITION_DIMS)]
        return s

    def constraint_rows(self, s):
        """Stacked (G, h) rows over all constraints and box vertices, in the
        full action dimension (spatial rows zero-padded outside the
        linear-velocity block)."""
        G, h, _ = self.rows_and_margins(s)
        return G, h

    def rows_and_margins(self, s):
        """constraint_rows plus the per-constraint barrier value at s, read
        from each constraint's center row instead of evaluating again.

        Each constraint gives one row per point of the box around its
        binding's state (the center first), so e_s = 0 gives one row. The box
        points and their model evaluation (one MLP call) are built once per
        binding and shared by every constraint on it."""
        cfg = self.config
        s = np.asarray(s, dtype=np.float64)
        n_action = self.models["full"].n_action if "full" in self.models else len(POSITION_DIMS)
        at_box = {}  # binding -> (box points, f, g)
        all_rows, all_rhs, margins = [], [], []
        for spec in cfg.constraints:
            bnd = self.bounds[spec.binding]
            if spec.binding not in at_box:
                pts = box_vertices(self._state_for(spec, s), bnd.e_s)
                at_box[spec.binding] = (pts, *self.models[spec.binding].drift_and_gain_batch(pts))
            rows, rhs, b = _rows_at(spec.barrier, *at_box[spec.binding], bnd, cfg.gamma)
            if spec.binding == "position":
                padded = np.zeros((rows.shape[0], n_action))
                padded[:, list(POSITION_DIMS)] = rows
                rows = padded
            all_rows.append(rows)
            all_rhs.append(rhs)
            margins.append(b[0])
        return np.vstack(all_rows), np.concatenate(all_rhs), np.array(margins)

    def margins(self, s) -> np.ndarray:
        """Per-constraint barrier value at the current state."""
        s = np.asarray(s, dtype=np.float64)
        return np.array(
            [spec.barrier.value(self._state_for(spec, s)) for spec in self.config.constraints]
        )

    def filter(self, a_des, s) -> FilterReport:
        """Solve min ||a - a_des||^2 subject to all robust CBF rows and the
        action box (P = I, q = -a_des in standard form).

        When the rows admit no action in the box, the shared-slack relaxation
        gives the action, and a slack above 1e-6 marks the step infeasible.
        When the relaxation does not solve either (e.g. an empty action box),
        a_safe is the fallback, the zero (hold-position) velocity clipped to
        the box (a NaN bound side is ignored, so it is finite), and the report
        has infeasible=True, fallback=True and a nan slack."""
        t0 = time.perf_counter()
        a_des = np.asarray(a_des, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(a_des)):
            raise ValueError("non-finite state or action entering the filter")
        G, h, margins = self.rows_and_margins(s)
        problem = qp.QpProblem(
            P=np.eye(a_des.shape[0]),
            q=-a_des,
            G=G,
            h=h,
            lb=self.config.lb,
            ub=self.config.ub,
        )
        sol = qp.solve_with_slack(problem)
        fallback = sol.status != "optimal"
        a_safe = sol.a
        if fallback:
            # fmax/fmin skip a NaN bound, so the hold action stays finite
            lb, ub = self.config.lb, self.config.ub
            a_safe = np.fmin(np.fmax(np.zeros_like(a_des), -np.inf if lb is None else lb),
                             np.inf if ub is None else ub)
        return FilterReport(
            a_safe=a_safe,
            intervened=bool(np.linalg.norm(a_safe - a_des) > 1e-9),
            margins=margins,
            worst_margin=float(margins.min()),
            slack_used=sol.slack_used,
            solve_time=time.perf_counter() - t0,
            infeasible=fallback or sol.slack_used > 1e-6,
            fallback=fallback,
        )

