import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import AffineModel
from safectl import config, qp
from safectl.control import (
    CURV_TOL,
    KnnExpertPolicy,
    ReferencePath,
    ScriptedExpert,
    UncontrollableError,
    WaypointTracker,
    clf_action,
    select_waypoint,
    straight_path,
)
from safectl.dynamics import NeuralOdeModel


def distance_reference(path, p):
    """Segment-by-segment distance to the polyline, the loop the batched
    distance_to replaced."""
    best = np.inf
    w = path.waypoints
    for i in range(len(w) - 1):
        seg = w[i + 1] - w[i]
        t = np.clip((p - w[i]) @ seg / (seg @ seg), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(p - (w[i] + t * seg))))
    return best


def config_path(path_cfg):
    """The path config.build_path gives a default config with this policy.path."""
    return config.build_path(config.validate({"version": 1, "env": {},
                                              "policy": {"path": path_cfg}}))


def chord_sum(w):
    return float(np.linalg.norm(np.diff(w, axis=0), axis=1).sum())


class TestReferencePath:
    def test_validation(self):
        with pytest.raises(ValueError, match="two waypoints"):
            ReferencePath(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="distinct"):
            ReferencePath(np.array([[0.0, 0], [0, 0], [1, 0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_waypoints_are_rejected(self, bad):
        # a NaN gap compares false with 0, so the distinct check alone lets it pass
        with pytest.raises(ValueError, match="finite"):
            ReferencePath(np.array([[0.0, 0], [bad, 0], [1, 0]]))
        with pytest.raises(ValueError, match="finite"):
            ReferencePath(np.full((20, 4), bad))

    def test_builders_reproduce_benchmark_lengths(self):
        # the circle's 0.75 m is a polygonal chord sum; the triangle's corners
        # are waypoints, so its 0.30 m is exact
        for kind, length, rel in (("circle", 0.75, 1e-3), ("triangle", 0.30, 1e-12)):
            for path_cfg in ({"type": kind}, {"type": kind, "length": length}):
                w = config_path(path_cfg).waypoints
                assert chord_sum(w) == pytest.approx(length, rel=rel)
                assert w.shape[1] == 4  # padded to the state dimension
                assert w[-1] == pytest.approx(w[0], abs=1e-15)  # closed
                assert w[:-1, :3].mean(axis=0) == pytest.approx(config.PATH_CENTER, abs=1e-15)

    def test_straight_path_runs_from_the_start_toward_the_goal(self):
        start, goal = np.array([0.05, 0.05, 0.05]), np.array([0.30, 0.30, 0.15])
        w = config_path({"type": "straight"}).waypoints
        assert w.shape == (20, 4)
        assert np.array_equal(w[0, :3], start)
        assert w[-1, :3] == pytest.approx(goal, abs=1e-15)
        assert chord_sum(w) == pytest.approx(np.linalg.norm(goal - start), rel=1e-14)
        short = config_path({"type": "straight", "length": 0.1}).waypoints
        assert chord_sum(short) == pytest.approx(0.1, rel=1e-14)
        unit = (goal - start) / np.linalg.norm(goal - start)
        assert short[-1, :3] == pytest.approx(start + 0.1 * unit, abs=1e-15)

    def test_distance_to_polyline(self):
        path = straight_path([0.0, 0, 0], [1.0, 0, 0], 5)
        got = path.distance_to([[0.5, 0.2, 0.0], [-0.3, 0.0, 0.0]])
        assert got == pytest.approx([0.2, 0.3], abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(1, 4)),
                  elements=st.floats(-1.0, 1.0)),
           st.integers(0, 2**32 - 1), st.integers(1, 60))
    def test_batched_distance_matches_per_point_loop(self, waypoints, seed, n_points):
        if np.any(np.linalg.norm(np.diff(waypoints, axis=0), axis=1) == 0.0):
            waypoints = waypoints + 3.0 * np.arange(waypoints.shape[0])[:, None]  # distinct
        path = ReferencePath(waypoints)
        rng = np.random.default_rng(seed)
        points = np.vstack([rng.uniform(-2.0, 2.0, (n_points, waypoints.shape[1])),
                            path.waypoints])  # points on the path too
        got = path.distance_to(points)
        assert got.shape == (points.shape[0],)
        for d, p in zip(got, points):
            assert d == pytest.approx(distance_reference(path, p), rel=1e-12, abs=1e-14)

    def test_explicit_waypoints_config(self):
        p = config_path({"type": "waypoints", "waypoints": [[0, 0, 0], [1, 0, 0]]})
        assert np.array_equal(p.waypoints, [[0.0, 0, 0, 0], [1.0, 0, 0, 0]])


def select_waypoint_reference(path, s, current_index, threshold):
    """select_waypoint as it was: every advance takes the norm of s - w[i]
    afresh, and np.clip clamps the cursor."""
    w = path.waypoints
    last = len(w) - 1
    current_index = int(np.clip(current_index, 0, last))
    d = np.linalg.norm(w[current_index:] - np.asarray(s, dtype=np.float64), axis=1)
    i = current_index + int(np.argmin(d))
    while i < last and np.linalg.norm(s - w[i]) ** 2 < threshold:
        i += 1
    return w[i], i


class TestSelectWaypoint:
    def setup_method(self):
        self.path = ReferencePath(np.array([[float(i), 0.0] for i in range(6)]))
        self.thresh = 0.25  # squared distance

    def test_far_state_targets_nearest_forward(self):
        s_des, idx = select_waypoint(self.path, np.array([2.1, 3.0]), 0, self.thresh)
        assert np.array_equal(s_des, [2.0, 0.0])
        assert idx == 2

    def test_advances_past_close_waypoint(self):
        # within threshold of waypoint 2, waypoint 3 beyond it -> returns 3
        s = np.array([2.1, 0.0])
        s_des, idx = select_waypoint(self.path, s, 0, self.thresh)
        assert np.array_equal(s_des, [3.0, 0.0])
        assert idx == 3

    def test_stays_at_final_waypoint(self):
        s = np.array([5.05, 0.0])
        s_des, idx = select_waypoint(self.path, s, 0, self.thresh)
        assert np.array_equal(s_des, [5.0, 0.0])
        assert idx == 5

    def test_never_backtracks(self):
        # nearest waypoint overall is 1, but the cursor is already at 3
        s_des, idx = select_waypoint(self.path, np.array([1.0, 0.4]), 3, self.thresh)
        assert idx == 3
        assert np.array_equal(s_des, [3.0, 0.0])

    def test_index_monotone_over_episode(self):
        tracker = WaypointTracker(self.path)
        rng = np.random.default_rng(0)
        prev = 0
        s = np.array([0.0, 0.0])
        for _ in range(50):
            s = s + rng.uniform(-0.05, 0.3, 2) * np.array([1.0, 0.2])
            tracker.select(s)
            assert tracker.index >= prev
            prev = tracker.index


    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 12), st.integers(0, 11),
           st.integers(-4, 0), st.integers(-2, 14), st.floats(0.0, 1.0))
    def test_matches_the_reference_loop(self, seed, n, m, near, scale, current_index, threshold):
        # a random path, and a state near one of its waypoints, so that the
        # advance past waypoints within the threshold runs
        rng = np.random.default_rng(seed)
        path = ReferencePath(rng.uniform(-1.0, 1.0, (m, n)))
        s = path.waypoints[near % m] + rng.normal(0.0, 10.0**scale, n)
        s_des, idx = select_waypoint(path, s, current_index, threshold)
        s_ref, idx_ref = select_waypoint_reference(path, s, current_index, threshold)
        assert idx == idx_ref and s_des.tobytes() == s_ref.tobytes()


class TestClfAction:
    def test_integrator_closed_form(self):
        # f=0, g=I, e=(1,0,0), beta=2: min-norm a with 2 e'a <= -2||e||^2
        model = AffineModel.integrator(3)
        a = clf_action(model, np.array([1.0, 0, 0]), np.zeros(3), 2.0)
        assert np.allclose(a, [-1.0, 0.0, 0.0], atol=1e-9)

    def test_equilibrium_zero_action(self):
        model = AffineModel.integrator(3)
        a = clf_action(model, np.ones(3), np.ones(3), 2.0)
        assert np.allclose(a, 0.0, atol=1e-12)

    def test_beta_doubling_doubles_action_norm(self):
        model = AffineModel.integrator(3)
        s, s_des = np.array([0.4, -0.2, 0.1]), np.zeros(3)
        n1 = np.linalg.norm(clf_action(model, s, s_des, 3.0))
        n2 = np.linalg.norm(clf_action(model, s, s_des, 6.0))
        assert n2 == pytest.approx(2.0 * n1, rel=1e-9)

    def test_minimality_matches_analytic_kkt(self):
        # tight constraint: a = -((L_fV + beta V)/||L_gV||^2) L_gV'; else 0
        rng = np.random.default_rng(0)
        model = AffineModel.integrator(4)
        beta = 5.0
        for _ in range(100):
            s = rng.normal(size=4)
            s_des = rng.normal(size=4)
            e = s - s_des
            v = float(e @ e)
            lg = 2.0 * e  # grad V' g with g = I
            lf = 0.0
            expected = -((lf + beta * v) / (lg @ lg)) * lg if v > 0 else np.zeros(4)
            a = clf_action(model, s, s_des, beta)
            assert np.max(np.abs(a - expected)) < 1e-8

    def test_uncontrollable_raises(self):
        # unstable drift with zero gain: no action can produce descent
        model = AffineModel(A=np.eye(2), B=np.zeros((2, 2)))
        with pytest.raises(UncontrollableError, match="uncontrollable"):
            clf_action(model, np.array([1.0, 0.0]), np.zeros(2), 2.0)

    def test_descent_in_closed_loop_with_true_model(self):
        # with the injected ground-truth integrator, V never increases by more
        # than the 5% discretisation allowance while the constraint is feasible
        model = AffineModel.integrator(3)
        s_des = np.zeros(3)
        s = np.array([0.5, -0.3, 0.2])
        dt = 0.1
        v_prev = float(s @ s)
        for _ in range(60):
            a = clf_action(model, s, s_des, 4.0)
            s = s + dt * a  # integrator truth
            v = float(s @ s)
            assert v <= v_prev * 1.05 + 1e-15
            v_prev = v
        assert v_prev < 1e-4


def decrease_row(model, s, s_des, beta):
    """The CLF decrease condition as the row L_gV a <= h, with L_fV and V."""
    s = np.asarray(s, dtype=np.float64)
    e = s - np.asarray(s_des, dtype=np.float64)
    v = float(e @ e)
    grad_v = 2.0 * e
    f, g = model.drift_and_gain(s)
    lf_v = float(grad_v @ f)
    lg_v = grad_v @ g
    return lg_v, -lf_v - beta * v, lf_v, v


def clf_qp_reference(model, s, s_des, beta):
    """clf_action as the one-row QP it stands for: the decrease row handed to
    qp.solve with P = I, q = 0."""
    lg_v, h, _, _ = decrease_row(model, s, s_des, beta)
    sol = qp.solve(qp.QpProblem(P=np.eye(model.n_action), q=np.zeros(model.n_action),
                                G=lg_v[None, :], h=np.array([h])))
    assert sol.status == "optimal"
    return sol.a


def assert_matches_qp(got, want):
    """The zero action exactly (both take it when the row holds at a = 0
    within qp.FEAS_TOL); the projection within 1e-12 (1 + ||a||)."""
    if not np.any(want):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.linalg.norm(want))


class TestClfClosedFormMatchesQp:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["neural", "affine"]), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**32 - 1), st.floats(0.1, 50.0), st.booleans())
    def test_random_models_and_states(self, kind, n_state, n_action, seed, beta, at_target):
        rng = np.random.default_rng(seed)
        if kind == "neural":
            model = NeuralOdeModel.create(n_state, n_action, hidden=8, seed=seed % 1000)
        else:
            model = AffineModel(A=rng.normal(size=(n_state, n_state)),
                                B=rng.normal(size=(n_state, n_action)),
                                c=rng.normal(size=n_state))
        s = rng.uniform(-1.0, 1.0, n_state)
        s_des = s.copy() if at_target else rng.uniform(-1.0, 1.0, n_state)
        try:
            got = clf_action(model, s, s_des, beta)
        except UncontrollableError:
            lg_v, h, _, _ = decrease_row(model, s, s_des, beta)
            assert -h > qp.FEAS_TOL and float(lg_v @ lg_v) <= CURV_TOL
            return
        want = clf_qp_reference(model, s, s_des, beta)
        assert got.shape == want.shape
        assert_matches_qp(got, want)

    @pytest.mark.parametrize("s,active", [
        ([1.0, 0.0, 0.0], True),     # projection branch
        ([0.3, -0.2, 0.1], True),
        ([0.0, 0.0, 0.0], False),    # at the target: zero action
    ])
    def test_both_branches(self, s, active):
        model = AffineModel(A=0.2 * np.eye(3), B=np.diag([1.0, 0.5, 2.0]))
        a = clf_action(model, np.array(s), np.zeros(3), 4.0)
        assert_matches_qp(a, clf_qp_reference(model, np.array(s), np.zeros(3), 4.0))
        assert bool(np.any(a != 0.0)) == active

    def test_violation_exactly_at_feasibility_tolerance(self):
        # integrator, e = (1, 0, 0): h = -beta exactly, so beta = FEAS_TOL sits
        # on the tolerance (zero action) and the next float above leaves it
        model = AffineModel.integrator(3)
        s, s_des = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        at, above = qp.FEAS_TOL, float(np.nextafter(qp.FEAS_TOL, 1.0))
        a_at, a_above = clf_action(model, s, s_des, at), clf_action(model, s, s_des, above)
        assert np.array_equal(a_at, np.zeros(3))
        assert np.array_equal(a_at, clf_qp_reference(model, s, s_des, at))
        assert a_above[0] < 0.0
        assert_matches_qp(a_above, clf_qp_reference(model, s, s_des, above))

    @pytest.mark.parametrize("gain,raises", [(0.0, True), (1e-7, True), (1e-5, False),
                                             (4.999e-7, True), (5.001e-7, False)])
    def test_uncontrollable_raise_and_message_match_qp(self, gain, raises):
        # |L_gV|^2 = 4 gain^2 crosses CURV_TOL = 1e-12 at gain = 5e-7; below
        # it clf_action raises (the LDP would still return a huge projection),
        # above it the action matches qp.solve
        model = AffineModel(A=np.eye(2), B=gain * np.eye(2))
        s, s_des, beta = np.array([1.0, 0.0]), np.zeros(2), 2.0
        lg_v, h, lf_v, v = decrease_row(model, s, s_des, beta)
        assert -h > qp.FEAS_TOL  # the row is violated at a = 0
        assert (float(lg_v @ lg_v) <= CURV_TOL) == raises
        if not raises:
            assert_matches_qp(clf_action(model, s, s_des, beta),
                              clf_qp_reference(model, s, s_des, beta))
            return
        with pytest.raises(UncontrollableError) as got:
            clf_action(model, s, s_des, beta)
        assert str(got.value) == (
            f"uncontrollable descent direction: |L_gV|={np.linalg.norm(lg_v):.3e}, "
            f"L_fV+beta*V={lf_v + beta * v:.3e}")


class TestKnnExpert:
    def test_exact_state_single_neighbor(self):
        states = np.array([[0.0, 0], [1.0, 0], [0, 1.0]])
        actions = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        policy = KnnExpertPolicy(states, actions, n_neighbors=1)
        assert np.array_equal(policy.action(np.array([1.0, 0.0])), [3.0, 4.0])

    def test_two_equidistant_neighbors_average(self):
        states = np.array([[1.0, 0.0], [-1.0, 0.0]])
        actions = np.array([[2.0, 0.0], [0.0, 4.0]])
        policy = KnnExpertPolicy(states, actions, n_neighbors=2)
        assert np.allclose(policy.action(np.zeros(2)), [1.0, 2.0], atol=1e-12)

    def test_output_in_convex_hull_of_neighbors(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(200, 3))
        actions = rng.normal(size=(200, 2))
        policy = KnnExpertPolicy(states, actions, n_neighbors=5)
        for _ in range(1000):
            s = rng.normal(size=3)
            w, idx = policy.weights_and_neighbors(s)
            a = policy.action(s)
            neigh = actions[idx]
            # hull membership per coordinate bound plus weight reconstruction
            assert np.all(a >= neigh.min(axis=0) - 1e-12)
            assert np.all(a <= neigh.max(axis=0) + 1e-12)
            assert np.allclose(a, w @ neigh, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(6, 60), st.integers(-3, 1),
           st.sampled_from([1, 5]))
    def test_matches_brute_force_softmax_over_the_nearest(self, seed, n, scale, k):
        # the k nearest by a full sort of every distance; a tie at the k-th
        # place lets the kd-tree pick either state, so it is drawn again
        rng = np.random.default_rng(seed)
        states = rng.uniform(-1.0, 1.0, (n, 4)) * 10.0**scale
        actions = rng.uniform(-1.0, 1.0, (n, 4))
        s = rng.uniform(-1.2, 1.2, 4) * 10.0**scale
        d = np.linalg.norm(states - s, axis=1)
        order = np.argsort(d, kind="stable")
        assume(d[order[k]] - d[order[k - 1]] > 1e-9 * 10.0**scale)
        w = np.exp(-d[order[:k]])
        want = (w / w.sum()) @ actions[order[:k]]
        got = KnnExpertPolicy(states, actions, n_neighbors=k).action(s)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_weights_are_probability_vector(self):
        rng = np.random.default_rng(1)
        policy = KnnExpertPolicy(rng.normal(size=(50, 4)), rng.normal(size=(50, 4)), 5)
        for _ in range(200):
            w, _ = policy.weights_and_neighbors(rng.normal(size=4))
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            KnnExpertPolicy(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            KnnExpertPolicy(np.zeros((3, 2)), np.zeros((3, 2)), n_neighbors=4)


class TestScriptedExpert:
    def test_zero_action_at_goal(self):
        expert = ScriptedExpert(goal=np.array([0.2, 0.2, 0.2]), a_max=0.05)
        a = expert.action(np.array([0.2, 0.2, 0.2, 0.0]))
        assert np.array_equal(a, np.zeros(4))

    def test_saturates_toward_far_goal(self):
        expert = ScriptedExpert(goal=np.array([10.0, 0.0, 0.0]), a_max=0.05)
        a = expert.action(np.zeros(4))
        assert a[0] == pytest.approx(0.05)
        a_back = expert.action(np.array([20.0, 0.0, 0.0, 0.0]))
        assert a_back[0] == pytest.approx(-0.05)

    def test_transport_switches_target_after_latch(self):
        expert = ScriptedExpert(goal=np.array([1.0, 0, 0]), a_max=0.05,
                                obj=np.array([0.5, 0, 0]), latch_tol=0.01)
        a = expert.action(np.zeros(4))
        assert a[0] > 0  # toward the object first
        a_at_obj = expert.action(np.array([0.5, 0, 0, 0]))  # latch seen here
        assert expert._latched
        assert a_at_obj[0] > 0  # now toward the goal

    def test_dither_is_seeded_and_bounded(self):
        expert = ScriptedExpert(goal=np.array([10.0, 0, 0]), a_max=0.05, dither=0.02, seed=3)
        expert.reset(seed=(1, 2))
        s = np.zeros(4)
        seq1 = [expert.action(s).copy() for _ in range(5)]
        expert.reset(seed=(1, 2))
        seq2 = [expert.action(s).copy() for _ in range(5)]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)
            assert np.all(np.abs(a) <= 0.05 + 1e-15)
