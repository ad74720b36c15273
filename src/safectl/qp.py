"""Small dense convex QP solver: min 1/2 a'Pa + q'a  s.t.  Ga <= h, lb <= a <= ub.

Dual active-set method (Goldfarb & Idnani 1983) starting from the
unconstrained minimum -P^{-1}q: the most violated inequality is added to the
working set, the step is taken through the Cholesky factor of P, and working
rows whose multiplier would cross zero are dropped. With P = I every add is a
projection onto the violated half-space, so the iteration is a projection
cascade. Sized for m <= 8 variables and a few hundred rows; factorizations are
recomputed densely per iteration.

Feasible-first exit: when the unconstrained minimum already satisfies every
row and the box within FEAS_TOL, it is the optimum, and `solve` returns it
before stacking any row. This is the iteration's own first feasibility check
moved ahead of the row preparation, so the answer is the same either way.

Determinism: ties (equal violations, equal blocking ratios) resolve to the
lowest row index, and reported active-set indices refer to the caller's rows.
Duplicate rows need no pass of their own. Of exact copies of a row the first
is picked, since ties go to the lowest index. Once one copy of a row (exact
or within 1e-12) is in the working set, every other copy's violation is
within 1e-12 * (1 + ||x||_1), far below FEAS_TOL, so no other copy enters
while it stays there, and no dependent pair of copies forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
KKT_TOL = 1e-7
_DEP_TOL = 1e-12  # curvature below this means the row is dependent on the working set


@dataclass
class QpProblem:
    """min 1/2 a'Pa + q'a s.t. Ga <= h plus optional box bounds."""

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)
        m = self.q.shape[0]
        if self.P.shape != (m, m):
            raise ValueError(f"P shape {self.P.shape} vs q dim {m}")
        if not (np.abs(self.P - self.P.T) <= 1e-10).all():
            raise ValueError("P must be symmetric to 1e-10")
        if self.G is None:
            self.G = np.zeros((0, m))
            self.h = np.zeros(0)
        else:
            self.G = np.atleast_2d(np.asarray(self.G, dtype=np.float64))
            self.h = np.atleast_1d(np.asarray(self.h, dtype=np.float64))
            if self.G.shape != (self.h.shape[0], m):
                raise ValueError(f"G shape {self.G.shape} vs h {self.h.shape}, m={m}")

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def stacked_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All inequalities as rows (box bounds appended, upper before lower,
        infinite ones dropped), plus a map from stacked row index to original
        constraint index (box rows: -1). A NaN bound stays as a row, so its
        NaN violation gives the solve status "nan"."""
        m, k = self.dim, self.G.shape[0]
        bound = np.empty(2 * m)  # [ub; lb], a missing side reads as infinite
        bound[:m] = np.inf if self.ub is None else self.ub
        bound[m:] = -np.inf if self.lb is None else self.lb
        fin = (~np.isinf(bound)).nonzero()[0]
        sign = np.where(fin < m, 1.0, -1.0)
        n = k + fin.size
        rows = np.zeros((n, m))
        rows[:k] = self.G
        rows[np.arange(k, n), fin % m] = sign
        rhs = np.empty(n)
        rhs[:k] = self.h
        rhs[k:] = sign * bound[fin]
        origin = np.full(n, -1)
        origin[:k] = np.arange(k)
        return rows, rhs, origin


@dataclass
class QpSolution:
    a: np.ndarray
    objective: float
    active_set: list[int]
    status: str  # optimal | infeasible | max_iter | nan (a row's violation was NaN)
    slack_used: float = 0.0
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kkt_residual: float = float("nan")


def solve(problem: QpProblem, max_iter: int = 500) -> QpSolution:
    """Solve the QP; P must be positive definite (P = I in all callers here).

    Returns status "infeasible" when the inequalities admit no point, and
    "nan" when a stacked row gives a NaN violation (a NaN in G, h or q),
    leaving the fallback to the caller in both cases.

    The first iterate is the unconstrained minimum -P^{-1}q. When it violates
    no row and no bound by more than FEAS_TOL it is returned at once as
    "optimal", with an empty active set, no multipliers (the working set is
    empty) and its KKT residual. A NaN in it fails that check and takes the
    full path.

    Working-set invariants maintained every iteration: stationarity
    P x + q + G_A' lam = 0, lam >= 0, and G_A x = h_A on the working rows.
    """
    P, q = problem.P, problem.q
    try:
        cho = np.linalg.cholesky(P)
    except np.linalg.LinAlgError as e:
        raise ValueError("P must be positive definite") from e

    def p_solve(rhs):
        return np.linalg.solve(cho.T, np.linalg.solve(cho, rhs))

    x = p_solve(-q)
    worst = _max_violation(problem, x)
    if worst <= FEAS_TOL:
        # the multipliers are all zero, so the residual is stationarity and
        # primal feasibility alone, as kkt_residual computes it
        resid = max(float(np.abs(P @ x + q).max()), max(0.0, worst))
        return QpSolution(a=x, objective=_objective(problem, x), active_set=[],
                          status="optimal", kkt_residual=resid)

    G, h, origin = problem.stacked_rows()

    active: list[int] = []
    lam = np.zeros(0)

    for _ in range(max_iter):
        viol = G @ x - h
        worst = viol.max(initial=-np.inf)
        if worst <= FEAS_TOL:
            return _finish(problem, G, h, origin, x, active, lam, "optimal")
        if np.isnan(worst):
            return _finish(problem, G, h, origin, x, active, lam, "nan")
        p = int(np.flatnonzero(viol >= worst - 1e-14)[0])
        gp = G[p]
        lam_p = 0.0

        while True:
            pig = p_solve(gp)
            if active:
                A = G[active]
                pia = p_solve(A.T)  # (m, k)
                r = np.linalg.solve(A @ pia, A @ pig)
                y = pig - pia @ r
            else:
                r = np.zeros(0)
                y = pig
            curv = gp @ y  # = n' H n >= 0
            s_p = gp @ x - h[p]

            if r.size and np.any(r > _DEP_TOL):
                with np.errstate(divide="ignore"):
                    ratios = np.where(r > _DEP_TOL, lam / np.where(r > _DEP_TOL, r, 1.0), np.inf)
                t1 = float(ratios.min())
                j_block = int(np.flatnonzero(ratios <= t1 + 1e-14)[0])
            else:
                t1, j_block = np.inf, -1

            if curv <= _DEP_TOL:
                # row p is dependent on the working set: dual motion only
                if not np.isfinite(t1):
                    return _finish(problem, G, h, origin, x, active, lam, "infeasible")
                lam = lam - t1 * r
                lam_p += t1
                active.pop(j_block)
                lam = np.delete(lam, j_block)
                continue

            t2 = s_p / curv
            t = min(t1, t2)
            x = x - t * y
            if r.size:
                lam = lam - t * r
            lam_p += t
            if t2 <= t1 + 1e-14:
                active.append(p)
                lam = np.append(lam, lam_p)
                break
            active.pop(j_block)
            lam = np.delete(lam, j_block)

    return _finish(problem, G, h, origin, x, active, lam, "max_iter")


def _max_violation(problem: QpProblem, x: np.ndarray) -> float:
    """Largest violation of G x <= h and of the box at x; nan if x or a row
    gives nan, -inf when there is nothing to violate."""
    parts = [problem.G @ x - problem.h]
    if problem.ub is not None:
        parts.append(x - problem.ub)
    if problem.lb is not None:
        parts.append(problem.lb - x)
    return float(np.concatenate(parts).max(initial=-np.inf))


def _objective(problem: QpProblem, x: np.ndarray) -> float:
    return 0.5 * float(x @ problem.P @ x) + float(problem.q @ x)


def _finish(problem, G, h, origin, x, active, lam, status) -> QpSolution:
    full_lam = np.zeros(G.shape[0])
    for idx, l in zip(active, lam):
        full_lam[idx] = l
    resid = (
        kkt_residual(problem.P, problem.q, G, h, x, full_lam)
        if status == "optimal"
        else float("nan")
    )
    ext_active = sorted(int(origin[i]) for i in active if origin[i] >= 0)
    return QpSolution(
        a=x,
        objective=_objective(problem, x),
        active_set=ext_active,
        status=status,
        multipliers=full_lam,
        kkt_residual=resid,
    )


def kkt_residual(P, q, G, h, x, lam) -> float:
    """max of stationarity, primal feasibility, complementarity and dual-sign
    residuals for the system P x + q + G' lam = 0, Gx <= h, lam >= 0."""
    stat = float(np.abs(P @ x + q + (G.T @ lam if G.shape[0] else 0.0)).max())
    if G.shape[0]:
        s = G @ x - h
        prim = max(0.0, float(s.max()))
        comp = float(np.abs(lam * s).max())
        dual = max(0.0, float((-lam).max()))
    else:
        prim = comp = dual = 0.0
    return max(stat, prim, comp, dual)


def solve_with_slack(problem: QpProblem, penalty: float = 1e6) -> QpSolution:
    """Solve the QP, falling back to a shared-slack relaxation on infeasibility.

    The hard problem is tried first; if it is feasible the result is exactly
    solve() with slack_used = 0 (no phantom slack on strongly binding rows).
    Otherwise each explicit row g_i'a <= h_i is softened to g_i'a - xi <= h_i
    with one shared xi >= 0 and the objective gains penalty*xi^2. Box bounds
    stay hard (actuator limits), which keeps the relaxation feasible whenever
    the box is nonempty; slack_used reports xi*, and is nan when the
    relaxation itself does not solve (its status is then not "optimal").
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    hard = solve(problem)
    if hard.status == "optimal":
        return hard
    m = problem.dim
    P2 = np.zeros((m + 1, m + 1))
    P2[:m, :m] = problem.P
    P2[m, m] = 2.0 * penalty  # 1/2 * (2 rho) * xi^2 = rho * xi^2
    q2 = np.append(problem.q, 0.0)
    G2 = np.hstack([problem.G, -np.ones((problem.G.shape[0], 1))])
    h2 = problem.h.copy()
    neg_inf = np.full(m, -np.inf)
    pos_inf = np.full(m, np.inf)
    lb2 = np.append(problem.lb if problem.lb is not None else neg_inf, 0.0)
    ub2 = np.append(problem.ub if problem.ub is not None else pos_inf, np.inf)
    inner = QpProblem(P=P2, q=q2, G=G2, h=h2, lb=lb2, ub=ub2)
    sol = solve(inner)
    a = sol.a[:m]
    xi = max(0.0, float(sol.a[m])) if sol.status == "optimal" else float("nan")
    return QpSolution(
        a=a,
        objective=_objective(problem, a),
        active_set=sol.active_set,
        status=sol.status,
        slack_used=xi,
        multipliers=sol.multipliers,
        kkt_residual=sol.kkt_residual,
    )


def dump_problem(problem: QpProblem) -> dict:
    """JSON-ready dump of (P, q, G, h, box) for failure triage."""
    return {
        "P": problem.P.tolist(),
        "q": problem.q.tolist(),
        "G": problem.G.tolist(),
        "h": problem.h.tolist(),
        "lb": None if problem.lb is None else np.asarray(problem.lb).tolist(),
        "ub": None if problem.ub is None else np.asarray(problem.ub).tolist(),
    }
