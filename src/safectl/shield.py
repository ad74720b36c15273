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
sphere and the cylinder, a max of convex pieces, are), an exact state,
the action held for the whole step (zero-order hold), and an e_sdot that
covers the applied action.

A step costs one `drift_and_gain_batch` call per binding (position substate
or full state), one barrier `value_and_grad_batch` call per constraint (its
values are the reported margins) and arithmetic on 1-D views of them. What
depends only on the frozen config and the models (kappa / dt, ||a_max||, P,
the columns, the constraints grouped by binding) is fixed at construction.

The filter stacks spatial rows (position-substate model, acting on the
linear-velocity action block) and the behavioral row (full-state model),
then solves min ||a - a_des||^2 over the action box. Infeasibility falls
back to a shared-slack relaxation; nonzero slack is reported as infeasible
instead of crashing the episode. A relaxation that does not solve either
(an empty action box, say) returns the zero action clipped to the box and
is reported as an infeasible fallback step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .dynamics import POSITION_DIMS

# the state and action columns of each binding
COLUMNS = {"position": slice(POSITION_DIMS[0], POSITION_DIMS[-1] + 1), "full": slice(None)}


@dataclass(frozen=True)
class ConstraintSpec:
    """A barrier bound to either the position-substate or the full-state model."""

    barrier: object
    binding: str = "position"  # position | full

    def __post_init__(self):
        if self.binding not in COLUMNS:
            raise ValueError(f"unknown binding {self.binding!r}")


@dataclass(frozen=True)
class ShieldConfig:
    """gamma (1/s) is the per-step decay kappa = 1 - exp(-gamma * dt) of the
    barriers, so gamma = inf is kappa = 1, the largest valid choice. Frozen,
    with a constraint tuple and read-only copies of lb, ub: the checks hold."""

    gamma: float = 10.0
    constraints: tuple = ()
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
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for name in ("lb", "ub"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
                getattr(self, name).flags.writeable = False


@dataclass
class FilterReport:
    a_safe: np.ndarray
    intervened: bool
    margins: np.ndarray  # per-constraint b at the current state
    worst_margin: float
    slack_used: float
    build_time: float  # s spent building the rows
    solve_time: float  # s spent in the QP
    infeasible: bool = False
    fallback: bool = False  # the relaxation failed too; a_safe is the hold action


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
        groups = {}
        for i, spec in enumerate(config.constraints):
            if spec.binding not in models or spec.binding not in bounds:
                raise ValueError(f"no model/bounds for binding {spec.binding!r}")
            groups.setdefault(spec.binding, []).append((i, spec.barrier))
        # P of every QP, and ||a_max|| for concave rows (the config admits them only with a box)
        self._eye = np.eye(models["full"].n_action if "full" in models else len(POSITION_DIMS))
        self._a_max = None if config.lb is None or config.ub is None else \
            np.linalg.norm(np.fmax(np.abs(config.lb), np.abs(config.ub)))
        # (binding, columns, kappa / dt, dt, [(row, barrier)]), kappa = 1 -
        # exp(-gamma dt) through expm1, accurate for small gamma dt
        self._groups = [(b, COLUMNS[b], -np.expm1(-config.gamma * models[b].dt) / models[b].dt,
                         models[b].dt, items) for b, items in groups.items()]

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
        s = np.asarray(s, dtype=np.float64)
        k = len(self.config.constraints)
        G, h, margins = np.zeros((k, self._eye.shape[0])), np.empty(k), np.empty(k)
        for binding, cols, rate, dt, items in self._groups:
            y = s[None, cols]
            f, g = self.models[binding].drift_and_gain_batch(y)
            f, g = f[0], g[0]
            e_sdot = self.bounds[binding].e_sdot
            for i, barrier in items:
                b, grad = barrier.value_and_grad_batch(y)
                b, grad = b[0], grad[0]
                h[i] = grad @ f - np.abs(grad).max() * e_sdot + rate * b
                if barrier.concavity:
                    # ||s' - s||_2 <= dt * reach for every action in the box;
                    # svd's largest value is norm(g, 2) without its wrapper
                    reach = math.sqrt(f @ f) \
                        + np.linalg.svd(g, compute_uv=False)[0] * self._a_max + e_sdot
                    h[i] -= barrier.concavity * dt * reach**2
                G[i, cols] = -(grad @ g)
                margins[i] = b
        return G, h, margins

    def margins(self, s) -> np.ndarray:
        """Per-constraint barrier value at the current state."""
        s = np.asarray(s, dtype=np.float64)
        return np.array(
            [spec.barrier.value(s[COLUMNS[spec.binding]]) for spec in self.config.constraints]
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
        if not (np.isfinite(s).all() and np.isfinite(a_des).all()):
            raise ValueError("non-finite state or action entering the filter")
        G, h, margins = self.rows_and_margins(s)
        lb, ub = self.config.lb, self.config.ub
        t1 = time.perf_counter()
        sol = qp.solve_with_slack(qp.QpProblem(P=self._eye, q=-a_des, G=G, h=h, lb=lb, ub=ub))
        t2 = time.perf_counter()
        fallback = sol.status != "optimal"
        a_safe = sol.a
        if fallback:
            # fmax/fmin skip a NaN bound, so the hold action stays finite
            a_safe = np.fmin(np.fmax(np.zeros_like(a_des), -np.inf if lb is None else lb),
                             np.inf if ub is None else ub)
        step = a_safe - a_des
        return FilterReport(
            a_safe=a_safe,
            intervened=math.sqrt(step @ step) > 1e-9,  # ||step||, as norm takes it
            margins=margins,
            worst_margin=float(margins.min()),
            slack_used=sol.slack_used,
            build_time=t1 - t0,
            solve_time=t2 - t1,
            infeasible=fallback or sol.slack_used > 1e-6,
            fallback=fallback,
        )
