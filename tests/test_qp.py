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
    m = problem.dim

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


def test_duplicate_rows_deduplicated():
    G = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    h = [0.0, 0.0, 0.0]
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]), G=G, h=h))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, [0.0, 0.0], atol=1e-12)
    assert sol.active_set == [0]  # only the first copy survives


def test_equal_violation_tiebreak_lowest_index():
    # both rows violated by exactly 2; with one iteration only the lowest index
    # may enter, which pins the intermediate projection
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, -2.0]),
                           G=[[1.0, 0.0], [0.0, 1.0]], h=[0.0, 0.0])
    partial = qp.solve(problem, max_iter=1)
    assert partial.status == "max_iter"
    assert np.allclose(partial.a, [0.0, 2.0], atol=1e-12)
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
    with pytest.raises(ValueError, match="symmetric"):
        qp.QpProblem(P=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2))
    with pytest.raises(ValueError, match="positive definite"):
        qp.solve(qp.QpProblem(P=np.zeros((2, 2)), q=np.zeros(2)))
    with pytest.raises(ValueError, match="G shape"):
        qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[1.0, 0.0, 0.0]], h=[0.0])


@pytest.mark.parametrize("asym,ok", [(2e-10, False), (5e-11, True)])
def test_symmetry_tolerance_is_absolute_1e10(asym, ok):
    # entries of magnitude 1: a relative tolerance would pass both
    P = np.array([[2.0, 1.0], [1.0 + asym, 2.0]])
    if ok:
        qp.QpProblem(P=P, q=np.zeros(2))
    else:
        with pytest.raises(ValueError, match="symmetric to 1e-10"):
            qp.QpProblem(P=P, q=np.zeros(2))


def test_nan_in_p_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        qp.QpProblem(P=np.array([[1.0, np.nan], [np.nan, 1.0]]), q=np.zeros(2))


def stacked_rows_reference(problem):
    """G, then the identity rows of the finite upper bounds, then the negated
    identity rows of the finite lower bounds."""
    rows, rhs, origin = [problem.G], [problem.h], [np.arange(problem.G.shape[0])]
    eye = np.eye(problem.dim)
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


def greedy_dedupe_reference(G, h, origin):
    """The row-by-row dedupe the array pass replaced: row i is dropped when it
    matches an already kept row within 1e-12, first occurrence kept."""
    keep = []
    for i in range(G.shape[0]):
        dup = False
        for j in keep:
            if abs(h[i] - h[j]) <= 1e-12 and np.all(np.abs(G[i] - G[j]) <= 1e-12):
                dup = True
                break
        if not dup:
            keep.append(i)
    keep = np.asarray(keep, dtype=int)
    return G[keep], h[keep], origin[keep]


def assert_same_dedupe(G, h):
    origin = np.arange(G.shape[0])
    got = qp._dedupe(G, h, origin)
    want = greedy_dedupe_reference(G, h, origin)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_dedupe_matches_greedy_reference(k, m, seed):
    # random rows with planted exact copies and copies shifted by 0.9e-12
    # (dropped) and 1.1e-12 (kept) in one entry or the rhs
    rng = np.random.default_rng(seed)
    G = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(k, m))  # coarse values repeat by chance
    h = rng.choice([0.0, 0.05, 1.0], size=k)
    rows, rhs = [G], [h]
    for _ in range(rng.integers(0, 6) if k else 0):
        i = int(rng.integers(0, k))
        g, b = G[i].copy(), float(h[i])
        shift = float(rng.choice([0.0, 0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12]))
        if rng.random() < 0.5:
            g[int(rng.integers(0, m))] += shift
        else:
            b += shift
        rows.append(g[None, :])
        rhs.append([b])
    order = rng.permutation(sum(r.shape[0] for r in rows))
    assert_same_dedupe(np.vstack(rows)[order], np.concatenate(rhs)[order])


def test_dedupe_tolerance_boundary():
    G = np.array([[1.0, 0.0], [1.0 + 0.9e-12, 0.0], [1.0 + 1.1e-12, 0.0]])
    h = np.array([0.5, 0.5, 0.5])
    _, _, origin = qp._dedupe(G, h, np.arange(3))
    assert origin.tolist() == [0, 2]
    assert_same_dedupe(G, h)


def test_dedupe_nontransitive_chain_keeps_both_ends():
    # a ~ b and b ~ c but not a ~ c: b goes with a, c stays
    G = np.array([[0.0, 1.0], [0.0, 1.0 + 0.9e-12], [0.0, 1.0 + 1.8e-12], [0.0, 1.0]])
    h = np.zeros(4)
    _, _, origin = qp._dedupe(G, h, np.arange(4))
    assert origin.tolist() == [0, 2]
    assert_same_dedupe(G, h)


def test_active_set_refers_to_callers_rows_after_dedupe():
    # rows 0-2 are copies of one loose row; rows 3 and 5 copies of the binding
    # row, row 4 a near-copy within tolerance: only row 3 can be reported
    G = [[1.0, 0.0], [1.0, 0.0], [1.0, 1e-13], [0.0, 1.0], [0.0, 1.0 + 5e-13], [0.0, 1.0]]
    h = [5.0, 5.0, 5.0, -1.0, -1.0, -1.0]
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=G, h=h))
    assert sol.status == "optimal"
    assert np.allclose(sol.a, [0.0, -1.0], atol=1e-12)
    assert sol.active_set == [3]


def forbid_row_preparation(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("row preparation reached")

    monkeypatch.setattr(qp, "_dedupe", boom)
    monkeypatch.setattr(qp.QpProblem, "stacked_rows", boom)


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_feasible_unconstrained_minimum_exits_before_row_preparation(monkeypatch, k, identity):
    rng = np.random.default_rng(10 * k + identity)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        if identity:
            P = np.eye(m)
        else:
            L = rng.normal(size=(m, m))
            P = L @ L.T + m * np.eye(m)
            P = 0.5 * (P + P.T)
        q = rng.uniform(-0.5, 0.5, m)
        cho = np.linalg.cholesky(P)
        x0 = np.linalg.solve(cho.T, np.linalg.solve(cho, -q))
        G = rng.normal(size=(k, m))
        h = G @ x0 + rng.uniform(0.0, 1.0, k)  # every row holds at the minimiser
        problem = qp.QpProblem(P=P, q=q, G=G if k else None, h=h if k else None,
                               lb=x0 - rng.uniform(0.0, 1.0, m), ub=x0 + rng.uniform(0.0, 1.0, m))
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
def test_infeasible_start_reaches_dedupe(monkeypatch, G, h, lb, ub, active):
    calls = []
    original = qp._dedupe

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qp, "_dedupe", counting)
    sol = qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=G, h=h, lb=lb, ub=ub))
    assert calls == [1]
    assert sol.status == "optimal" and sol.active_set == active  # box rows are not reported
    assert sol.kkt_residual <= qp.KKT_TOL


def test_nan_start_takes_the_full_path(monkeypatch):
    # a NaN row fails the feasibility check instead of passing as feasible
    def reached(*args):
        raise LookupError("full path")

    monkeypatch.setattr(qp, "_dedupe", reached)
    with pytest.raises(LookupError, match="full path"):
        qp.solve(qp.QpProblem(P=np.eye(2), q=np.zeros(2), G=[[np.nan, 0.0]], h=[1.0]))


@pytest.mark.parametrize("G,h", [
    ([[np.nan, 0.0]], [1.0]),                 # a NaN coefficient
    ([[1.0, 0.0]], [np.nan]),                 # a NaN right-hand side
    ([[1.0, 0.0], [np.nan, 1.0]], [-1.0, 0.0]),  # beside a violated finite row
])
def test_nan_row_gives_nan_status_not_an_exception(G, h):
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
def test_nan_box_bound_gives_nan_status(lb, ub, q):
    # a NaN bound is kept as a row, not dropped as if it were infinite
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
