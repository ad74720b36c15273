import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safectl import qp


def feasible_instance(rng, m, k, box=2.0):
    q = rng.normal(size=m)
    G = rng.normal(size=(k, m))
    x0 = rng.uniform(-0.75 * box, 0.75 * box, size=m)  # interior anchor
    h = G @ x0 + rng.uniform(0.2, 1.0, size=k)
    return qp.QpProblem(P=np.eye(m), q=q, G=G if k else None, h=h if k else None,
                        lb=-box * np.ones(m), ub=box * np.ones(m))


def grid_search(problem: qp.QpProblem, stages=6, pts=21, beam=6):
    """Dense grid search over the box, refined around the best feasible
    candidates of each stage (beam keeps thin feasible regions honest).
    Independent of the solver under test."""
    m = problem.q.size

    def evaluate(lo, hi):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(m)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        feas = np.ones(mesh.shape[0], dtype=bool)
        if problem.G.shape[0]:
            feas = np.all(mesh @ problem.G.T <= problem.h + 1e-12, axis=1)
        cand = mesh[feas]
        if cand.shape[0] == 0:
            return cand, np.empty(0)
        f = 0.5 * np.einsum("ij,ij->i", cand, cand) + cand @ problem.q
        return cand, f

    lo0, hi0 = problem.lb.astype(float), problem.ub.astype(float)
    cand, f = evaluate(lo0, hi0)
    best_x, best_f = None, np.inf
    span = (hi0 - lo0) / (pts - 1)
    seeds = cand[np.argsort(f)[:beam]] if cand.shape[0] else np.empty((0, m))
    if f.size and f.min() < best_f:
        best_f, best_x = float(f.min()), cand[np.argmin(f)]
    for _ in range(stages - 1):
        next_seeds = []
        for s in seeds:
            lo = np.maximum(lo0, s - 2 * span)
            hi = np.minimum(hi0, s + 2 * span)
            cand, f = evaluate(lo, hi)
            if not f.size:
                continue
            order = np.argsort(f)[: max(1, beam // len(seeds) if len(seeds) else beam)]
            next_seeds.append(cand[order])
            if f[order[0]] < best_f:
                best_f, best_x = float(f[order[0]]), cand[order[0]]
        if not next_seeds:
            break
        seeds = np.vstack(next_seeds)
        span = 4 * span / (pts - 1)
    return best_x, best_f


def test_unconstrained_minimum():
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2)))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, 0.0, atol=1e-14)
    assert sol.objective == pytest.approx(0.0, abs=1e-14)


def test_halfspace_projection():
    # projection of (2, 0) onto a1 <= 0
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]),
                                G=[[1.0, 0.0]], h=[0.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, [0.0, 0.0], atol=1e-12)
    assert sol.active_set == [0]
    assert sol.kkt_residual <= qp.KKT_TOL


def test_random_instances_match_grid_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(0, 7))
        problem = feasible_instance(rng, m, k)
        sol = qp.solve(problem)
        assert sol.status == "optimal", trial
        assert sol.kkt_residual <= qp.KKT_TOL, trial
        G, h, _ = problem.stacked_rows()
        assert (G @ sol.a <= h + 1e-8).all(), trial
        _, grid_obj = grid_search(problem)
        assert sol.objective <= grid_obj + 1e-9, trial
        assert abs(sol.objective - grid_obj) < 1e-3, (trial, sol.objective, grid_obj)


def test_infeasible_detected():
    sol = qp.solve(qp.QpProblem(P=np.eye(1), q=np.zeros(1),
                                G=[[1.0], [-1.0]], h=[-1.0, -1.0]))
    assert sol.status == "infeasible"


def test_slack_feasible_matches_hard_solve():
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]), G=[[1.0, 0.0]], h=[0.0])
    hard = qp.solve(problem)
    soft = qp.solve_with_slack(problem)
    assert np.array_equal(hard.a, soft.a)
    assert soft.slack_used <= 1e-8


def test_slack_symmetric_contradiction():
    # a1 <= -1 and -a1 <= -1 admit no point; by symmetry a*=0, xi*=1
    sol = qp.solve_with_slack(
        qp.QpProblem(P=np.eye(1), q=np.zeros(1), G=[[1.0], [-1.0]], h=[-1.0, -1.0])
    )
    assert sol.status == "optimal"
    assert sol.a[0] == pytest.approx(0.0, abs=1e-8)
    assert sol.slack_used == pytest.approx(1.0, abs=1e-8)


def test_slack_nonincreasing_in_penalty():
    # coupled infeasible instance where small penalties trade violation for cost
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]),
                           G=[[1.0, 1.0], [-1.0, -1.0]], h=[-1.0, -1.0])
    prev = np.inf
    xis = []
    for rho in (0.25, 0.3, 0.375, 0.45, 0.5, 5.0, 1e3, 1e6):
        xi = qp.solve_with_slack(problem, penalty=rho).slack_used
        assert xi <= prev + 1e-9
        xis.append(xi)
        prev = xi
    assert xis[0] > xis[3] + 1e-3  # strictly decreasing in the traded regime


def test_row_scaling_invariance():
    rng = np.random.default_rng(7)
    for trial in range(30):
        problem = feasible_instance(rng, 3, 5)
        base = qp.solve(qp.QpProblem(P=problem.P, q=problem.q, G=problem.G, h=problem.h))
        d = rng.uniform(0.1, 10.0, size=5)
        scaled = qp.solve(qp.QpProblem(P=problem.P, q=problem.q,
                                       G=problem.G * d[:, None], h=problem.h * d))
        assert np.allclose(base.a, scaled.a, atol=1e-8), trial


def test_duplicate_rows_only_first_copy_enters():
    G = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    h = [0.0, 0.0, 0.0]
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]), G=G, h=h))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, [0.0, 0.0], atol=1e-12)
    # once one copy binds, the others never enter nnls's passive set
    assert len(sol.active_set) == 1 and sol.active_set[0] in (0, 1, 2)


def test_equal_violation_tiebreak_lowest_index():
    # both rows violated by exactly 2: both bind at the optimum
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, -2.0]),
                           G=[[1.0, 0.0], [0.0, 1.0]], h=[0.0, 0.0])
    full = qp.solve(problem)
    assert np.allclose(full.a, [0.0, 0.0], atol=1e-12)
    assert full.active_set == [0, 1]


def test_kkt_residual_reported_per_solve():
    rng = np.random.default_rng(42)
    for _ in range(50):
        sol = qp.solve(feasible_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6))))
        assert sol.status == "optimal"
        assert np.isfinite(sol.kkt_residual)
        assert sol.kkt_residual <= qp.KKT_TOL


def test_problem_validation():
    with pytest.raises(ValueError, match="P must be the 2x2 identity"):
        qp.QpProblem(P=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2))
    with pytest.raises(ValueError, match="P must be the 2x2 identity"):
        qp.QpProblem(P=np.zeros((2, 2)), q=np.zeros(2))
    with pytest.raises(ValueError, match="G shape"):
        qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[1.0, 0.0, 0.0]], h=[0.0])


@pytest.mark.parametrize("P", [
    [[1.0, 0.0], [5e-11, 1.0]],     # off by less than any symmetry tolerance
    [[1.0 + 1e-15, 0.0], [0.0, 1.0]],
    [[2.0, 1.0], [1.0, 2.0]],       # symmetric positive definite
    [[1.0, 0.0], [0.0, 0.0]],       # singular
    np.eye(3),                      # the wrong size
    [1.0, 1.0],                     # not a matrix
])
def test_p_other_than_the_identity_is_rejected(P):
    with pytest.raises(ValueError, match="P must be the 2x2 identity"):
        qp.QpProblem(P=np.array(P), q=np.zeros(2))


def test_nan_in_p_is_rejected():
    with pytest.raises(ValueError, match="P must be the 2x2 identity"):
        qp.QpProblem(P=np.array([[1.0, np.nan], [np.nan, 1.0]]), q=np.zeros(2))


def stacked_rows_reference(problem):
    """G, then the identity rows of the finite upper bounds, then the negated
    identity rows of the finite lower bounds."""
    rows, rhs, origin = [problem.G], [problem.h], [np.arange(problem.G.shape[0])]
    eye = np.eye(problem.q.size)
    for bound, sign in ((problem.ub, 1.0), (problem.lb, -1.0)):
        if bound is not None:
            fin = np.isfinite(np.asarray(bound, dtype=np.float64))
            rows.append(sign * eye[fin])
            rhs.append(sign * np.asarray(bound, dtype=np.float64)[fin])
            origin.append(np.full(int(fin.sum()), -1))
    return np.vstack(rows), np.concatenate(rhs), np.concatenate(origin)


@pytest.mark.parametrize("lb,ub", [
    (-np.ones(3), np.ones(3)),
    (None, None),
    (None, [1.0, np.inf, 2.0]),
    ([-np.inf, -1.0, -np.inf], None),
    ([-np.inf, -1.0, 0.5], [np.inf, np.inf, np.inf]),
    ([-1, -2, -3], [1, 2, 3]),  # integer bounds
])
@pytest.mark.parametrize("k", [0, 4])
def test_stacked_rows_match_reference(lb, ub, k):
    rng = np.random.default_rng(k)
    problem = qp.QpProblem(P=np.eye(3), q=np.zeros(3),
                           G=rng.normal(size=(k, 3)) if k else None,
                           h=rng.normal(size=k) if k else None, lb=lb, ub=ub)
    for got, want in zip(problem.stacked_rows(), stacked_rows_reference(problem)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dump_problem_is_json_ready():
    import json

    problem = qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[1.0, 0.0]], h=[1.0],
                           lb=-np.ones(2), ub=np.ones(2))
    payload = qp.dump_problem(problem)
    assert json.loads(json.dumps(payload))["h"] == [1.0]


def test_active_set_refers_to_callers_rows_with_copies():
    # rows 0-2 are copies of one loose row; rows 3 and 5 copies of the binding
    # row, row 4 a near-copy within tolerance: one of rows 3-5 is reported
    G = [[1.0, 0.0], [1.0, 0.0], [1.0, 1e-13], [0.0, 1.0], [0.0, 1.0 + 5e-13], [0.0, 1.0]]
    h = [5.0, 5.0, 5.0, -1.0, -1.0, -1.0]
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=G, h=h))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, [0.0, -1.0], atol=1e-12)
    assert len(sol.active_set) == 1 and sol.active_set[0] in (3, 4, 5)


def with_copies(problem, rng, exact):
    """problem with copies of random rows appended: exact ones, or (unless
    exact) ones with one entry or the rhs shifted by at most 1e-12."""
    G, h = [problem.G], [problem.h]
    for _ in range(int(rng.integers(1, 6))):
        i = int(rng.integers(0, problem.G.shape[0]))
        g, b = problem.G[i].copy(), float(problem.h[i])
        shift = 0.0 if exact else float(rng.choice([0.0, 1.0])) * rng.uniform(-1e-12, 1e-12)
        if rng.random() < 0.5:
            g[int(rng.integers(0, problem.q.size))] += shift
        else:
            b += shift
        G.append(g[None, :])
        h.append([b])
    return qp.QpProblem(P=problem.P, q=problem.q, G=np.vstack(G), h=np.concatenate(h),
                        lb=problem.lb, ub=problem.ub)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_copied_rows_change_neither_status_nor_solution(k, m, feasible, seed):
    # no pass removes copies: the LDP's optimum is unique, so copies only
    # split a multiplier and move the answer by rounding
    rng = np.random.default_rng(seed)
    problem = feasible_instance(rng, m, k)
    if not feasible:
        # a row and its negation with negative rhs admit no point
        g = rng.normal(size=m)
        problem = qp.QpProblem(P=problem.P, q=problem.q, G=np.vstack([problem.G, g, -g]),
                               h=np.append(problem.h, [-0.5, -0.5]), lb=problem.lb, ub=problem.ub)
    want = qp.solve(problem)
    assert want.status == ("optimal" if feasible else "infeasible")
    got = qp.solve(with_copies(problem, rng, exact=False))
    assert got.status == want.status
    if feasible:
        assert np.max(np.abs(got.a - want.a)) <= 1e-9
    # exact copies change nothing beyond rounding, also in the slack
    # relaxation (its 1e6 penalty can scale a 1e-12 shift of a row past 1e-9)
    copied = with_copies(problem, rng, exact=True)
    for solve in (qp.solve, qp.solve_with_slack):
        want, got = solve(problem), solve(copied)
        assert got.status == want.status
        assert np.max(np.abs(got.a - want.a)) <= 1e-9


def forbid_row_preparation(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("row preparation reached")

    monkeypatch.setattr(qp.QpProblem, "stacked_rows", boom)


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_feasible_unconstrained_minimum_exits_before_row_preparation(monkeypatch, k, identity):
    rng = np.random.default_rng(10 * k + identity)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        q = rng.uniform(-0.5, 0.5, m)
        x0 = -q
        G = rng.normal(size=(k, m))
        h = G @ x0 + rng.uniform(0.0, 1.0, k)  # every row holds at the minimiser
        rows = dict(G=G if k else None, h=h if k else None,
                    lb=x0 - rng.uniform(0.0, 1.0, m), ub=x0 + rng.uniform(0.0, 1.0, m))
        if not identity:
            # a general positive definite P is not a problem this solver takes
            L = rng.normal(size=(m, m))
            with pytest.raises(ValueError, match="P must be the"):
                qp.QpProblem(P=L @ L.T + m * np.eye(m), q=q, **rows)
            continue
        P = np.eye(m)
        problem = qp.QpProblem(P=P, q=q, **rows)
        rows, rhs, _ = problem.stacked_rows()
        with monkeypatch.context() as mp:
            forbid_row_preparation(mp)
            sol = qp.solve(problem)
        assert np.array_equal(sol.a, x0) and sol.a.tobytes() == x0.tobytes()
        assert sol.status == "optimal" and sol.active_set == []
        assert not np.any(sol.multipliers)
        assert sol.kkt_residual <= qp.KKT_TOL
        assert sol.kkt_residual == pytest.approx(
            qp.kkt_residual(P, q, rows, rhs, x0, np.zeros(rows.shape[0])), abs=1e-15)
        assert sol.objective == 0.5 * float(x0 @ P @ x0) + float(q @ x0)


def test_violation_within_feasibility_tolerance_still_exits_early(monkeypatch):
    # the minimiser 0 violates the row by exactly FEAS_TOL and the box by less
    problem = qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[1.0, 0.0]], h=[-qp.FEAS_TOL],
                           lb=[0.5e-9, -1.0], ub=[1.0, 1.0])
    forbid_row_preparation(monkeypatch)
    sol = qp.solve(problem)
    assert sol.status == "optimal" and sol.active_set == []
    assert sol.kkt_residual == qp.FEAS_TOL


@pytest.mark.parametrize("G,h,lb,ub,active", [
    ([[1.0, 0.0]], [-1.0], None, None, [0]),                  # a row is violated
    (None, None, [0.5, -1.0], [1.0, 1.0], []),                # a lower bound is violated
    (None, None, [-1.0, -1.0], [1.0, -0.5], []),              # an upper bound is violated
    ([[1.0, 0.0], [1.0, 0.0]], [-1.0, -1.0], [-2.0, -2.0], [2.0, 2.0], [0]),
])
def test_infeasible_start_stacks_rows_once(monkeypatch, G, h, lb, ub, active):
    # an infeasible start stacks the rows once, then solves
    calls = []
    original = qp.QpProblem.stacked_rows

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qp.QpProblem, "stacked_rows", counting)
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=G, h=h, lb=lb, ub=ub))
    assert calls == [1]
    assert sol.status == "optimal" and sol.active_set == active  # box rows are not reported
    assert sol.kkt_residual <= qp.KKT_TOL


def test_nan_start_takes_the_full_path(monkeypatch):
    # a NaN row fails the feasibility check instead of passing as feasible
    def reached(*args):
        raise LookupError("full path")

    monkeypatch.setattr(qp.QpProblem, "stacked_rows", reached)
    with pytest.raises(LookupError, match="full path"):
        qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[np.nan, 0.0]], h=[1.0]))


def forbid_nnls(monkeypatch):
    # nnls rejects non-finite input, so a NaN must be caught before it
    def guard(*args, **kwargs):
        raise AssertionError("nnls reached")

    monkeypatch.setattr(qp, "nnls", guard)


@pytest.mark.parametrize("G,h", [
    ([[np.nan, 0.0]], [1.0]),                 # a NaN coefficient
    ([[1.0, 0.0]], [np.nan]),                 # a NaN right-hand side
    ([[1.0, 0.0], [np.nan, 1.0]], [-1.0, 0.0]),  # beside a violated finite row
])
def test_nan_row_gives_nan_status_not_an_exception(monkeypatch, G, h):
    forbid_nnls(monkeypatch)
    problem = qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=G, h=h, lb=-np.ones(2), ub=np.ones(2))
    assert qp.solve(problem).status == "nan"
    relaxed = qp.solve_with_slack(problem)
    assert relaxed.status == "nan"
    assert np.isnan(relaxed.slack_used)


@pytest.mark.parametrize("lb,ub,q", [
    ([-1.0, -1.0], [np.nan, 1.0], [-2.0, 0.0]),   # the minimiser lies past the finite box
    ([-1.0, -1.0], [np.nan, 1.0], [0.0, 0.0]),    # the minimiser lies inside it
    ([np.nan, -1.0], [1.0, 1.0], [2.0, 0.0]),     # a NaN lower bound
])
def test_nan_box_bound_gives_nan_status(monkeypatch, lb, ub, q):
    # a NaN bound is kept as a row, not dropped as if it were infinite
    forbid_nnls(monkeypatch)
    problem = qp.QpProblem(P=np.eye(2), q=np.array(q), lb=np.array(lb), ub=np.array(ub))
    assert qp.solve(problem).status == "nan"
    relaxed = qp.solve_with_slack(problem)
    assert relaxed.status == "nan"
    assert np.isnan(relaxed.slack_used)


def test_stacked_rows_keep_nan_bounds_and_drop_infinite_ones():
    problem = qp.QpProblem(P=np.eye(3), q=np.zeros(3), lb=np.array([-np.inf, np.nan, -1.0]),
                           ub=np.array([np.nan, np.inf, 2.0]))
    rows, rhs, origin = problem.stacked_rows()
    assert np.array_equal(rows, [[1, 0, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]])
    assert np.array_equal(rhs, [np.nan, 2.0, np.nan, 1.0], equal_nan=True)
    assert np.array_equal(origin, [-1, -1, -1, -1])


def independent_kkt(problem, sol):
    """KKT residual of a solution from its multipliers and the stacked rows,
    computed here rather than by qp.kkt_residual."""
    C, d, _ = problem.stacked_rows()
    lam = sol.multipliers if sol.multipliers.size else np.zeros(d.size)
    slack = C @ sol.a - d
    return max(float(np.abs(sol.a + problem.q + C.T @ lam).max()),
               float(np.maximum(slack, 0.0).max(initial=0.0)),
               float(np.abs(lam * slack).max(initial=0.0)),
               float(np.maximum(-lam, 0.0).max(initial=0.0)))


def linprog_feasible(problem):
    from scipy.optimize import linprog

    C, d, _ = problem.stacked_rows()
    res = linprog(np.zeros(problem.q.size), A_ub=C, b_ub=d, bounds=(None, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 60), st.floats(1.0, 20.0), st.booleans(),
       st.floats(-6.0, 0.0), st.integers(0, 2**32 - 1))
def test_solutions_carry_a_certificate(m, k, q_scale, contradict, log_delta, seed):
    # shield-sized problems: q scaled so that rows and box sides bind, and
    # some made infeasible by a row and its negation with rhs -delta
    rng = np.random.default_rng(seed)
    base = feasible_instance(rng, m, k)
    G, h = base.G, base.h
    if contradict:
        g = rng.normal(size=m)
        G, h = np.vstack([G, g, -g]), np.append(h, [-(10.0 ** log_delta)] * 2)
    problem = qp.QpProblem(P=np.eye(m), q=q_scale * base.q, G=G, h=h, lb=base.lb, ub=base.ub)
    sol = qp.solve(problem)
    assert sol.status in ("optimal", "infeasible")
    assert (sol.status == "infeasible") == (not linprog_feasible(problem))
    if sol.status == "optimal":
        assert independent_kkt(problem, sol) <= qp.KKT_TOL


def test_nnls_iteration_limit_gives_max_iter(monkeypatch):
    def at_limit(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(qp, "nnls", at_limit)
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]), G=[[1.0, 0.0]], h=[0.0],
                           lb=-np.ones(2), ub=np.ones(2))
    sol = qp.solve(problem)
    assert sol.status == "max_iter" and sol.active_set == []
    assert np.isnan(sol.kkt_residual)
    relaxed = qp.solve_with_slack(problem)
    assert relaxed.status == "max_iter" and np.isnan(relaxed.slack_used)


@pytest.mark.parametrize("G,h", [([[1.0, 0.0]], [-1.0]), (None, None)])
def test_nan_in_q_gives_nan_status(monkeypatch, G, h):
    # also with no row and no bound, where no stacked row carries the NaN
    forbid_nnls(monkeypatch)
    problem = qp.QpProblem(P=np.eye(2), q=np.array([np.nan, 0.0]), G=G, h=h)
    assert qp.solve(problem).status == "nan"
    assert qp.solve_with_slack(problem).status == "nan"
