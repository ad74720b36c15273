"""Least-distance QP: min 1/2 a'a + q'a  s.t.  Ga <= h, lb <= a <= ub.

Callers move a desired action as little as possible (q = -a_des, P = I). With
z = a + q and the stacked rows C a <= d (G, then the finite box sides), this
is the least-distance program min ||z|| s.t. C z <= e, e = d + C q, which one
nnls call solves (Lawson & Hanson 1974, "Solving Least Squares Problems",
ch. 23): u >= 0 minimises ||M u - f|| for M = -[C'; e'] and f = (0, ..., 0, 1),
and r = M u - f has r[m] = -(1 + e'u) = -1 / (1 + ||z||^2), zero when no point
is feasible. Otherwise z = -r[:m] / r[m], the rows with u > 0 bind, and
lam = u / (1 + e'u) are their multipliers. `solve` takes z as the least-norm
solution of the binding rows held as equalities, and lam from z + C'lam = 0 on
them: the same point, without the 1/r[m] that loses digits when ||z|| is large
(a relaxed step's slack). It is "optimal" only when it holds every row and the
box within FEAS_TOL. Copies of a row need no pass: the optimum is unique, and
once one copy is in nnls's passive set the residual is orthogonal to it, so the
others never enter, and active_set (the caller's rows with u > 0) names one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import nnls

FEAS_TOL = 1e-9
KKT_TOL = 1e-7


@dataclass
class QpProblem:
    """min 1/2 a'Pa + q'a s.t. Ga <= h plus optional box bounds, P = I."""

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    lb: np.ndarray | None = None  # None is stored as -inf
    ub: np.ndarray | None = None  # None is stored as +inf

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)
        m = self.q.shape[0]
        self.lb = np.full(m, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=np.float64)
        self.ub = np.full(m, np.inf) if self.ub is None else np.asarray(self.ub, dtype=np.float64)
        if self.P.shape != (m, m) or np.count_nonzero(self.P) != m \
                or np.count_nonzero(self.P.diagonal() == 1.0) != m:  # a NaN is nonzero, not 1
            raise ValueError(f"P must be the {m}x{m} identity")
        if self.G is None:
            self.G, self.h = np.zeros((0, m)), np.zeros(0)
        else:
            self.G = np.atleast_2d(np.asarray(self.G, dtype=np.float64))
            self.h = np.atleast_1d(np.asarray(self.h, dtype=np.float64))
            if self.G.shape != (self.h.shape[0], m):
                raise ValueError(f"G shape {self.G.shape} vs h {self.h.shape}, m={m}")

    def stacked_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All inequalities as rows (box bounds appended, upper before lower,
        infinite ones dropped, NaN ones kept), plus a map from stacked row
        index to original constraint index (box rows: -1)."""
        m, k = self.q.size, self.G.shape[0]
        bound = np.concatenate([self.ub, self.lb])
        fin = (~np.isinf(bound)).nonzero()[0]
        sign = np.where(fin < m, 1.0, -1.0)
        n = k + fin.size
        rows = np.zeros((n, m))
        rows[:k] = self.G
        rows[np.arange(k, n), fin % m] = sign
        rhs = np.concatenate([self.h, sign * bound[fin]])
        return rows, rhs, np.where(np.arange(n) < k, np.arange(n), -1)


@dataclass
class QpSolution:
    a: np.ndarray
    active_set: list[int]
    status: str  # optimal | infeasible | max_iter (nnls's limit) | nan (a row is not finite)
    slack_used: float = 0.0
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kkt_residual: float = float("nan")


def solve(problem: QpProblem) -> QpSolution:
    """Solve the LDP; -q is returned first when it passes the check. Any other
    status leaves the fallback to the caller (a = -q). A row, bound or q that
    is not finite gives "nan" before nnls, which would reject it."""
    q, x = problem.q, -problem.q
    if (worst := _max_violation(problem, x)) <= FEAS_TOL:  # x + q = 0, no multipliers
        return QpSolution(x, [], "optimal", kkt_residual=max(0.0, worst))
    C, d, origin = problem.stacked_rows()
    M = -np.vstack([C.T, d + C @ q])
    if not (np.isfinite(M).all() and np.isfinite(q).all()):
        return QpSolution(x, [], "nan")
    try:
        u = nnls(M, np.append(np.zeros(q.size), 1.0))[0]
    except RuntimeError:  # nnls's iteration limit
        return QpSolution(x, [], "max_iter")
    act, lam = u > 0.0, np.zeros(u.size)
    if M[-1] @ u < 1.0:  # r[m] < 0: feasible
        z = np.linalg.lstsq(C[act], -M[-1, act], rcond=None)[0]
        lam[act] = np.linalg.lstsq(C[act].T, -z, rcond=None)[0]
        if _max_violation(problem, a := x + z) <= FEAS_TOL:
            return QpSolution(a, origin[act & (origin >= 0)].tolist(), "optimal", multipliers=lam,
                              kkt_residual=kkt_residual(problem.P, q, C, d, a, lam))
    return QpSolution(x, [], "infeasible")


def _max_violation(problem: QpProblem, x: np.ndarray) -> float:
    """Largest violation of the rows and the box at x (nan if one is nan)."""
    return float(np.concatenate([problem.G @ x - problem.h, x - problem.ub, problem.lb - x]).max())


def kkt_residual(P, q, G, h, x, lam) -> float:
    """max of the stationarity, primal feasibility, complementarity and
    dual-sign residuals of P x + q + G' lam = 0, Gx <= h, lam >= 0."""
    s = G @ x - h
    return max(float(np.abs(P @ x + q + G.T @ lam).max()),
               *(float(v.max(initial=0.0)) for v in (s, np.abs(lam * s), -lam)))


def solve_with_slack(problem: QpProblem, penalty: float = 1e6) -> QpSolution:
    """solve(), or on infeasibility a shared-slack relaxation: each row
    g_i'a <= h_i becomes g_i'a - xi <= h_i (one xi >= 0) and the objective
    gains penalty*xi^2 = 1/2 eta^2, eta = sqrt(2 penalty) xi, so in (a, eta) it
    is again an LDP. The box stays hard (actuator limits), which keeps the
    relaxation feasible when the box is nonempty. slack_used is 0 on a feasible
    problem, xi* on a relaxed one, and nan when the relaxation is not solved."""
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    if (hard := solve(problem)).status == "optimal":
        return hard
    m, scale = problem.q.size, np.sqrt(2.0 * penalty)
    sol = solve(QpProblem(
        P=np.eye(m + 1), q=np.append(problem.q, 0.0), h=problem.h,
        G=np.hstack([problem.G, np.full((problem.G.shape[0], 1), -1.0 / scale)]),
        lb=np.append(problem.lb, 0.0), ub=np.append(problem.ub, np.inf)))
    xi = max(0.0, float(sol.a[m] / scale)) if sol.status == "optimal" else float("nan")
    return replace(sol, a=sol.a[:m], slack_used=xi)


def dump_problem(problem: QpProblem) -> dict:
    """JSON-ready dump of (P, q, G, h, box) for failure triage (json writes a
    missing bound as -Infinity or Infinity)."""
    return {k: getattr(problem, k).tolist() for k in ("P", "q", "G", "h", "lb", "ub")}
