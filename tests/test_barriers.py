import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from safectl.barriers import CylinderZone, SphereZone, TaskSpaceBarrier, cross3, zone_from_config


def central_diff_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


class TestSphere:
    def test_analytic_case(self):
        zone = SphereZone(center=[0, 0, 0], radius=1.0)
        b, grad = zone.value_and_grad([2.0, 0.0, 0.0])
        assert b == pytest.approx(3.0, abs=1e-14)
        assert np.allclose(grad, [4.0, 0.0, 0.0], atol=1e-14)

    def test_boundary_is_zero(self):
        zone = SphereZone(center=[0.1, -0.2, 0.3], radius=0.5)
        x = zone.center + 0.5 * np.array([1.0, 0.0, 0.0])
        assert zone.value(x) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        zone = SphereZone(center=[0.2, 0.1, -0.3], radius=0.7)
        for _ in range(100):
            x = rng.uniform(-2, 2, 3)
            _, grad = zone.value_and_grad(x)
            fd = central_diff_grad(zone.value, x)
            assert np.max(np.abs(grad - fd)) < 1e-6

    def test_sign_correct_on_random_points(self):
        rng = np.random.default_rng(1)
        zone = SphereZone(center=[0.0, 0.5, 0.0], radius=0.8)
        x = rng.uniform(-2, 2, size=(10_000, 3))
        outside = np.linalg.norm(x - zone.center, axis=1) > zone.radius
        b = np.array([zone.value(p) for p in x])
        assert np.array_equal(b > 0, outside)

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            SphereZone(center=[0, 0, 0], radius=0.0)


class TestCylinder:
    def setup_method(self):
        self.zone = CylinderZone(point=[0, 0, 0], axis=[0, 0, 1], radius=1.0, length=2.0)

    def test_radially_outside(self):
        b_rad, b_vert = self.zone.components([2.0, 0.0, 0.0])
        assert (b_rad, b_vert) == (pytest.approx(1.0), pytest.approx(-1.0))
        b = self.zone.value([2.0, 0.0, 0.0])
        assert 1.0 - np.log(2) / self.zone.tau <= b <= 1.0

    def test_beyond_cap(self):
        b_rad, b_vert = self.zone.components([0.0, 0.0, 3.0])
        assert (b_rad, b_vert) == (pytest.approx(-1.0), pytest.approx(2.0))
        with pytest.warns(UserWarning, match="axis"):  # the query sits on the axis
            b = self.zone.value([0.0, 0.0, 3.0])
        assert 2.0 - np.log(2) / self.zone.tau <= b <= 2.0

    def test_inside_is_negative(self):
        b_rad, b_vert = self.zone.components([0.5, 0.0, 0.0])
        assert (b_rad, b_vert) == (pytest.approx(-0.5), pytest.approx(-1.0))
        assert self.zone.value([0.5, 0.0, 0.0]) < 0.0

    def test_smooth_max_is_conservative(self):
        # smooth value in [hard_max - ln2/tau, hard_max] on random points
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = rng.uniform(-3, 3, 3)
            hard = self.zone.hard_value(x)
            smooth = self.zone.value(x)
            assert smooth <= hard + 1e-12
            assert smooth >= hard - np.log(2) / self.zone.tau - 1e-12

    def test_gradient_vs_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            x = rng.uniform(-3, 3, 3)
            b_rad, b_vert = self.zone.components(x)
            # skip the declared non-smooth loci: the axis and the component kink
            radial = np.linalg.norm(np.cross(x - self.zone.point, self.zone.axis))
            if radial < 0.05 or abs(b_rad - b_vert) < 0.05 or abs((x - self.zone.point) @ self.zone.axis) < 0.05:
                continue
            _, grad = self.zone.value_and_grad(x)
            fd = central_diff_grad(self.zone.value, x)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom < 1e-5
            checked += 1

    def test_on_axis_perturbs_and_warns(self):
        with pytest.warns(UserWarning, match="axis"):
            b, grad = self.zone.value_and_grad([0.0, 0.0, 0.0])
        assert np.all(np.isfinite(grad))

    def test_axis_normalised_and_validated(self):
        z = CylinderZone(point=[0, 0, 0], axis=[0, 0, 2.0], radius=1.0, length=1.0)
        assert np.linalg.norm(z.axis) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            CylinderZone(point=[0, 0, 0], axis=[0, 0, 0], radius=1.0, length=1.0)


class TestTaskSpace:
    def test_value_at_demo_state_is_radius_squared(self):
        states = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1]])
        barrier = TaskSpaceBarrier(states, radius=0.5)
        b, grad = barrier.value_and_grad(np.zeros(4))
        assert b == pytest.approx(0.25, abs=1e-14)
        assert barrier.nearest(np.zeros((1, 4))).tolist() == [0]
        assert np.allclose(grad, 0.0)

    def test_boundary_is_zero(self):
        barrier = TaskSpaceBarrier(np.zeros((1, 3)), radius=0.5)
        assert barrier.value([0.5, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(4)
        states = rng.uniform(-1, 1, size=(500, 4))
        barrier = TaskSpaceBarrier(states, radius=0.5)
        for _ in range(1000):
            s = rng.uniform(-1.2, 1.2, 4)
            # independent linear scan
            d2 = np.sum((states - s) ** 2, axis=1)
            idx = int(np.argmin(d2))
            assert barrier.nearest(s[None]).tolist() == [idx]
            assert barrier.value(s) == pytest.approx(0.25 - d2[idx], abs=1e-12)

    def test_tie_returns_a_nearest_state(self):
        states = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        barrier = TaskSpaceBarrier(states, radius=0.5)
        # an equidistant pair, then a point nearest to an exact duplicate
        assert_at_a_nearest_state(barrier, np.array([[0.0, 0.0], [0.9, 0.0]]))

    def test_gradient_vs_fd_away_from_cell_boundaries(self):
        rng = np.random.default_rng(5)
        states = rng.uniform(-1, 1, size=(50, 3))
        barrier = TaskSpaceBarrier(states, radius=0.5)
        checked = 0
        while checked < 100:
            s = rng.uniform(-1, 1, 3)
            d = np.sort(np.linalg.norm(states - s, axis=1))
            if d[1] - d[0] < 1e-3:  # near a Voronoi boundary
                continue
            _, grad = barrier.value_and_grad(s)
            fd = central_diff_grad(barrier.value, s)
            assert np.max(np.abs(grad - fd)) < 1e-5
            checked += 1

    def test_empty_demo_set_rejected(self):
        with pytest.raises(ValueError):
            TaskSpaceBarrier(np.zeros((0, 3)), radius=0.5)


def test_zone_from_config():
    sphere = zone_from_config({"type": "sphere", "center": [1, 2, 3], "radius": 0.5})
    assert isinstance(sphere, SphereZone)
    assert np.array_equal(sphere.center, [1, 2, 3])
    cyl = zone_from_config({"type": "cylinder", "point": [0, 0, 0], "axis": [1, 0, 0],
                            "radius": 0.3, "length": 1.0, "tau": 100.0})
    assert isinstance(cyl, CylinderZone)
    assert cyl.tau == 100.0
    with pytest.raises(ValueError, match="unknown zone type"):
        zone_from_config({"type": "torus"})


# -- batched evaluation against per-point references ---------------------------------
#
# The references below are the per-point implementations the batched methods
# replaced; batched rows must match them within 1e-12.

def sphere_reference(zone, x):
    d = np.asarray(x, dtype=np.float64) - zone.center
    return float(d @ d - zone.radius**2), 2.0 * d


def cylinder_reference(zone, x):
    rel = np.asarray(x, dtype=np.float64) - zone.point
    v = zone.axis
    if np.linalg.norm(np.cross(rel, v)) < 1e-9:
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(v)))] = 1.0
        radial = seed - (seed @ v) * v
        rel = rel + 1e-9 * radial / np.linalg.norm(radial)
    w = np.cross(rel, v)
    wn = np.linalg.norm(w)
    b_rad = wn - zone.radius
    grad_rad = np.cross(v, w) / wn
    ax = rel @ v
    b_vert = abs(ax) - 0.5 * zone.length
    grad_vert = np.sign(ax) * v if ax != 0.0 else 0.0 * v
    top = max(b_rad, b_vert)
    e_rad = np.exp(zone.tau * (b_rad - top))
    e_vert = np.exp(zone.tau * (b_vert - top))
    denom = e_rad + e_vert
    b = top + np.log(denom) / zone.tau - np.log(2.0) / zone.tau
    return float(b), (e_rad * grad_rad + e_vert * grad_vert) / denom


def task_space_reference(barrier, s):
    idx = int(barrier.nearest(s[None])[0])
    d = np.asarray(s, dtype=np.float64) - barrier.states[idx]
    return float(barrier.radius**2 - d @ d), -2.0 * d, idx


def assert_at_a_nearest_state(barrier, X):
    """nearest(X) picks, for every row, a stored state at the minimum distance
    (any one of them on a tie), and b and its gradient are that state's."""
    idx = barrier.nearest(X)
    b, grad = barrier.value_and_grad_batch(X)
    for i, x in enumerate(X):
        d2 = np.sum((barrier.states - x) ** 2, axis=1)
        assert d2[idx[i]] <= d2.min() + 1e-12
        d = x - barrier.states[idx[i]]
        assert abs(b[i] - (barrier.radius**2 - d @ d)) <= 1e-12
        assert np.max(np.abs(grad[i] + 2.0 * d)) <= 1e-12
    return idx


def assert_batch_matches(barrier, reference, X):
    b, grad = barrier.value_and_grad_batch(X)
    assert b.shape == (X.shape[0],) and grad.shape == X.shape
    for i, x in enumerate(X):
        b_ref, g_ref = reference(barrier, x)[:2]
        assert abs(b[i] - b_ref) <= 1e-12
        assert np.max(np.abs(grad[i] - g_ref), initial=0.0) <= 1e-12
        b1, g1 = barrier.value_and_grad(x)  # the B = 1 case
        assert abs(b1 - b_ref) <= 1e-12 and np.max(np.abs(g1 - g_ref)) <= 1e-12


points3 = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                 elements=st.floats(-3.0, 3.0))


class TestBatchedEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(points3)
    def test_sphere(self, X):
        assert_batch_matches(SphereZone([0.2, 0.1, -0.3], 0.7), sphere_reference, X)

    @settings(max_examples=60, deadline=None)
    @given(points3, st.sampled_from([[0, 0, 1], [1, 2, -0.5], [0.3, -1, 0]]))
    def test_cylinder(self, X, axis):
        zone = CylinderZone([0.1, -0.2, 0.0], axis, radius=0.4, length=1.2, tau=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a drawn point may sit on the axis
            assert_batch_matches(zone, cylinder_reference, X)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
           st.lists(st.floats(-0.7, 0.7), min_size=1, max_size=10))
    def test_cylinder_on_axis_points_warn_and_match(self, ts, offsets):
        # on-axis rows mixed with off-axis ones, including the mid-plane ax = 0
        zone = CylinderZone([0.1, -0.2, 0.3], [1, 2, -0.5], radius=0.4, length=1.2)
        on = zone.point + np.outer(ts + [0.0], zone.axis)
        off = on[np.arange(len(offsets)) % len(on)] + np.outer(offsets, [0.3, 0.0, 0.6])
        X = np.vstack([on, off])
        with pytest.warns(UserWarning, match="axis"):
            b, grad = zone.value_and_grad_batch(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, x in enumerate(X):
                b_ref, g_ref = cylinder_reference(zone, x)
                assert abs(b[i] - b_ref) <= 1e-12
                assert np.max(np.abs(grad[i] - g_ref)) <= 1e-12
        assert np.all(np.isfinite(grad))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(4)),
                  elements=st.floats(-1.5, 1.5)),
           st.integers(0, 2**32 - 1))
    def test_task_space(self, X, seed):
        rng = np.random.default_rng(seed)
        states = rng.uniform(-1, 1, size=(200, 4))
        states[100:110] = states[:10]  # exact duplicate demo states
        barrier = TaskSpaceBarrier(states, radius=0.5)
        X = np.vstack([X, states[100:105]])  # queries sitting on duplicates
        assert_at_a_nearest_state(barrier, X)
        assert_batch_matches(barrier, task_space_reference, X)

    def test_task_space_equidistant_ties_take_a_nearest_state(self):
        # each query is equidistant from a symmetric pair (and, at the origin,
        # from all four states), or sits nearest to an exact duplicate
        states = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
        barrier = TaskSpaceBarrier(states, radius=0.5)
        X = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5],
                      [0.0, 0.3], [0.3, 0.0], [0.9, 0.0]])
        idx = assert_at_a_nearest_state(barrier, X)
        assert idx.tolist() == [barrier.nearest(x[None])[0] for x in X]

    def test_task_space_single_demo_state(self):
        barrier = TaskSpaceBarrier(np.zeros((1, 3)), radius=0.5)
        b, grad = barrier.value_and_grad_batch(np.array([[0.5, 0.0, 0.0], [0.0, 0.1, 0.0]]))
        assert b == pytest.approx([0.0, 0.24], abs=1e-12)
        assert np.allclose(grad, [[-1.0, 0.0, 0.0], [0.0, -0.2, 0.0]])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
              elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
       st.integers(-9, 2), st.integers(-9, 2))
def test_cross3_is_bitwise_np_cross(X, v, ex, ev):
    # magnitudes from 1e-9 to 1e2, (B, 3) x (3,) in both orders and row by row
    X, v = X * 10.0**ex, v * 10.0**ev
    for a, b in ((X, v), (v, X), (X, X[::-1]), (v, v[::-1])):
        want = np.cross(a, b)
        got = cross3(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
