import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from safectl.barriers import (CylinderZone, SphereZone, TaskSpaceBarrier, cross3, rowdot,
                              zone_from_config)


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


def cylinder_pieces(zone, x):
    """(b_radial, b_vertical) at one point, from np.cross and np.linalg.norm."""
    rel = np.asarray(x, dtype=np.float64) - zone.point
    return (float(np.linalg.norm(np.cross(rel, zone.axis)) - zone.radius),
            float(abs(rel @ zone.axis) - 0.5 * zone.length))


class TestCylinder:
    def setup_method(self):
        self.zone = CylinderZone(point=[0, 0, 0], axis=[0, 0, 1], radius=1.0, length=2.0)

    def test_radially_outside(self):
        # pieces (1, -1): the radial one is active
        b, grad = self.zone.value_and_grad([2.0, 0.0, 0.0])
        assert b == 1.0 and grad.tolist() == [1.0, 0.0, 0.0]

    def test_beyond_cap(self):
        # pieces (-1, 2) on the axis: the vertical one is active, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, grad = self.zone.value_and_grad([0.0, 0.0, 3.0])
        assert b == 2.0 and grad.tolist() == [0.0, 0.0, 1.0]

    def test_inside_is_negative(self):
        # pieces (-0.5, -1): the radial one is active
        b, grad = self.zone.value_and_grad([0.5, 0.0, 0.0])
        assert b == -0.5 and grad.tolist() == [1.0, 0.0, 0.0]

    def test_on_axis_deep_inside_has_zero_gradient(self):
        # |ax| <= length/2 - radius on the axis: the radial piece -radius is
        # active, and 0 is a subgradient of the norm there; a tie takes it too
        zone = CylinderZone(point=[0.5, -0.25, 0.25], axis=[0, 0, 1], radius=0.25, length=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, grad = zone.value_and_grad_batch(zone.point + np.outer([0.0, 0.5, -0.75], zone.axis))
        assert b.tolist() == [-0.25, -0.25, -0.25]  # the last row is a tie
        assert grad.tolist() == [[0.0, 0.0, 0.0]] * 3

    def test_gradient_vs_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            x = rng.uniform(-3, 3, 3)
            b_rad, b_vert = cylinder_pieces(self.zone, x)
            # skip the declared non-smooth loci: the axis and the tie set of the pieces
            if b_rad + self.zone.radius < 0.05 or abs(b_rad - b_vert) < 0.05 \
                    or abs((x - self.zone.point) @ self.zone.axis) < 0.05:
                continue
            _, grad = self.zone.value_and_grad(x)
            fd = central_diff_grad(self.zone.value, x)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom < 1e-5
            checked += 1

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["rim", "axis", "random"]),
           st.sampled_from([[0, 0, 1], [1, 2, -0.5]]),
           arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           arrays(np.float64, (8, 3), elements=st.floats(-1.0, 1.0)),
           st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
    def test_gradient_is_a_subgradient(self, where, axis, x, Y, t, cap):
        # b(y) >= b(x) + grad(x) . (y - x) for every y: the convexity bound
        # the shield's discrete-time rows rest on, on the tie set (the cap
        # rim), on the axis inside the zone, and anywhere
        zone = CylinderZone([0.1, -0.2, 0.3], axis, radius=0.2, length=0.8)
        v = zone.axis
        if where == "rim":
            u = np.cross(v, x if np.linalg.norm(np.cross(v, x)) > 1e-3 else [1.0, 0.0, 0.0])
            x = zone.point + cap * 0.5 * zone.length * v + zone.radius * u / np.linalg.norm(u)
        elif where == "axis":
            x = zone.point + t * (0.5 * zone.length - zone.radius) * v
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, grad = zone.value_and_grad(x)
            Y = np.vstack([x + 1e-3 * Y, x + Y])
            b_y = zone.value_and_grad_batch(Y)[0]
        assert np.all(np.isfinite(grad))
        assert np.all(b_y >= b + (Y - x) @ grad - 1e-12)

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
                            "radius": 0.3, "length": 1.0})
    assert isinstance(cyl, CylinderZone)
    assert (cyl.axis.tolist(), cyl.radius, cyl.length) == ([1.0, 0.0, 0.0], 0.3, 1.0)
    with pytest.raises(ValueError, match="unknown zone type"):
        zone_from_config({"type": "torus"})


# -- batched evaluation against per-point references ---------------------------------
#
# The references below are per-point implementations of the batched methods;
# batched rows must match them within 1e-12.

def sphere_reference(zone, x):
    d = np.asarray(x, dtype=np.float64) - zone.center
    return float(d @ d - zone.radius**2), 2.0 * d


def cylinder_reference(zone, x):
    b_rad, b_vert = cylinder_pieces(zone, x)
    rel = np.asarray(x, dtype=np.float64) - zone.point
    if b_rad < b_vert:
        return b_vert, np.sign(rel @ zone.axis) * zone.axis
    w = np.cross(rel, zone.axis)
    wn = np.linalg.norm(w)
    return b_rad, np.cross(zone.axis, w) / wn if wn > 0.0 else np.zeros(3)


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
        zone = CylinderZone([0.1, -0.2, 0.0], axis, radius=0.4, length=1.2)
        assert_batch_matches(zone, cylinder_reference, X)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
           st.lists(st.floats(-0.7, 0.7), min_size=1, max_size=10),
           st.sampled_from([[0, 0, 1], [1, 2, -0.5]]))
    def test_cylinder_on_axis_points_match(self, ts, offsets, axis):
        # on-axis rows mixed with off-axis ones, including the mid-plane ax = 0;
        # along [0, 0, 1] the on-axis rows sit exactly on it
        zone = CylinderZone([0.1, -0.2, 0.3], axis, radius=0.4, length=1.2)
        on = zone.point + np.outer(ts + [0.0], zone.axis)
        off = on[np.arange(len(offsets)) % len(on)] + np.outer(offsets, [0.3, 0.0, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_batch_matches(zone, cylinder_reference, np.vstack([on, off]))

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


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
              elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
       st.integers(-9, 2))
def test_row_batches_are_bitwise_the_one_point_products(X, v, ex):
    # rowdot is the 1-D BLAS dot row by row; the zone values built on it are
    # the one-point formulas, so a lockstep episode's margins are its own
    X = X * 10.0**ex
    for a, b in ((X, v), (X, X[::-1])):
        want = [x @ y for x, y in zip(a, np.broadcast_to(b, a.shape))]
        assert rowdot(a, b).tolist() == [float(w) for w in want]
    cyl = CylinderZone([0.1, 0.0, 0.05], [0.3, 0.4, 0.5], 0.05, 0.1)
    rel = X - cyl.point
    want = [max(float(np.linalg.norm(cross3(r, cyl.axis)) - cyl.radius),
                float(abs(r @ cyl.axis) - 0.5 * cyl.length)) for r in rel]
    assert cyl.value_and_grad_batch(X)[0].tolist() == want
    assert [cyl.value(x) for x in X] == want
    sphere = SphereZone([0.1, 0.2, 0.0], 0.07)
    assert sphere.value_and_grad_batch(X)[0].tolist() == [sphere.value(x) for x in X]
