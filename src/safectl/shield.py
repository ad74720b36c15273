"""Robust discrete-time CBF-QP safety filter.

Each barrier b with the learned control-affine model (f, g) gives one row at
the observed state s, with one gamma for every row:

    L_f b(s) + L_g b(s) a - ||grad b(s)||_inf * e_sdot + (kappa / dt) * b(s) >= 0,

kappa = 1 - exp(-gamma * dt), dt the binding model's step. Write the step as
s' = s + dt * (f + g a + e), ||e||_1 <= e_sdot. A convex b lies above its
tangent and Hoelder bounds grad b . e, so the row gives
b(s') >= (1 - kappa) * b(s) (Agrawal & Sreenath 2017; Cosner et al. 2023).
A task-space piece is concave, b_i(s + d) = b_i(s) + grad b_i . d - ||d||^2,
so its row also subtracts dt * (||f|| + ||g|| * ||a_max|| + e_sdot)^2, which
bounds ||d||^2 / dt over the action box, and b >= b_i* at s' carries the bound
to b (Glotfelter et al. 2017). The guarantee assumes convex zone barriers (the
sphere, the cylinder pieces and their log-sum-exp all are), an exact state,
the action held for the whole step (zero-order hold), and an e_sdot that
covers the applied action.

Each binding (position substate or full state) sends its state through one
`drift_and_gain_batch` call, shared by every constraint on it; each
constraint makes one barrier `value_and_grad_batch` call, whose values are the
margins the filter reports.

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

import numpy as np

from . import qp
from .dynamics import POSITION_DIMS


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
    """gamma (1/s) is the per-step decay kappa = 1 - exp(-gamma * dt) of the
    barriers, so gamma = inf is kappa = 1, the largest valid choice."""

    gamma: float = 10.0
    constraints: list = field(default_factory=list)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        if (self.lb is None or self.ub is None) and any(c.barrier.concavity
                                                        for c in self.constraints):
            raise ValueError("a concave barrier needs the action box lb, ub")


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


def _rows_at(barrier, y, f, g, e_sdot: float, dt: float, cfg: ShieldConfig):
    """The CBF row at the state y (1, n), given the model's drift f (1, n) and
    gain g (1, n, n_action) there: G = -L_g b (n_action,), the scalar h, and
    the barrier value b."""
    b, grad = barrier.value_and_grad_batch(y)
    lf = np.einsum("bi,bi->b", grad, f)
    lg = np.einsum("bi,bij->bj", grad, g)
    kappa = -np.expm1(-cfg.gamma * dt)  # 1 - exp(-gamma dt), accurate for small gamma dt
    h = lf - np.abs(grad).max(axis=1) * e_sdot + kappa / dt * b
    if barrier.concavity:
        # ||s' - s||_2 <= dt * reach for every action in the box
        a_max = np.linalg.norm(np.fmax(np.abs(cfg.lb), np.abs(cfg.ub)))
        reach = np.linalg.norm(f, axis=1) + np.linalg.norm(g, 2, axis=(1, 2)) * a_max + e_sdot
        h = h - barrier.concavity * dt * reach**2
    return -lg[0], h[0], b[0]


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
        """Stacked (G, h) rows, one per constraint, in the full action
        dimension (spatial rows zero-padded outside the linear-velocity
        block)."""
        G, h, _ = self.rows_and_margins(s)
        return G, h

    def rows_and_margins(self, s):
        """constraint_rows plus the per-constraint barrier value at s, read
        from the row building instead of evaluating again. The model is
        evaluated once per binding and shared by every constraint on it."""
        cfg = self.config
        s = np.asarray(s, dtype=np.float64)
        n_action = self.models["full"].n_action if "full" in self.models else len(POSITION_DIMS)
        k = len(cfg.constraints)
        G, h, margins = np.zeros((k, n_action)), np.empty(k), np.empty(k)
        at_state = {}  # binding -> (state, f, g)
        for i, spec in enumerate(cfg.constraints):
            model, bnd = self.models[spec.binding], self.bounds[spec.binding]
            if spec.binding not in at_state:
                y = self._state_for(spec, s)[None, :]
                at_state[spec.binding] = (y, *model.drift_and_gain_batch(y))
            cols = list(POSITION_DIMS) if spec.binding == "position" else slice(None)
            G[i, cols], h[i], margins[i] = _rows_at(spec.barrier, *at_state[spec.binding],
                                                    bnd.e_sdot, model.dt, cfg)
        return G, h, margins

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

