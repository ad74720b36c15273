"""Barrier functions b(.) with analytic gradients; the safe set is {b >= 0}.

Three families:
- SphereZone: squared distance to the center minus squared radius.
- CylinderZone: safe outside the side surface OR beyond the caps; the two
  component barriers are blended with a shifted log-sum-exp so the smooth
  value never exceeds the true max (errors fall on the conservative side).
- TaskSpaceBarrier: positive within distance `radius` of the nearest
  demonstration state, so the learned dynamics are only trusted in-distribution.

Each barrier evaluates a batch of points at once through
`value_and_grad_batch(X)`, X of shape (B, n), returning b (B,) and the
gradients (B, n); the single-point `value_and_grad` and `value` are its B = 1
case, as the zones' `hard_value` is the B = 1 case of `hard_value_batch`.
Each barrier declares `concavity`, the c in b(x + d) >= b(x) + grad . d -
c ||d||^2, which the shield's discrete-time rows read. Evaluation is pure; all
barrier objects are immutable after construction and safe to share across
workers. Hard (non-smoothed) values are exposed separately so smoothing slack
can never hide a violation check.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial import cKDTree

AXIS_EPS = 1e-9


def cross3(a, b):
    """np.cross for operands of shape (..., 3), as the same per-component
    products and differences, so the result is bitwise equal; without
    np.cross's axis handling or a stack it costs a fraction as much on small batches."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    out = np.empty(c[0].shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = c
    return out


def rowdot(X, Y):
    """x @ y for each row x of X (B, k) with the matching row of Y (B, k), or
    with Y (k,). Matmul's 1 x 1 output case calls the same BLAS dot as a 1-D
    product, so each value is bitwise the 1-D one; an einsum or a sum of the
    products rounds apart from it."""
    return (X[:, None, :] @ Y[..., None])[:, 0, 0]


def _single(barrier, x):
    """(b, grad) at one point as the B = 1 case of the barrier's batch method."""
    b, grad = barrier.value_and_grad_batch(np.asarray(x, dtype=np.float64)[None, :])
    return float(b[0]), grad[0]


class SphereZone:
    """Spherical no-go zone: b(x) = ||x - center||^2 - radius^2, grad = 2(x - center)."""

    concavity = 0.0  # convex: b(x + d) >= b(x) + grad . d

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def value(self, x) -> float:
        return _single(self, x)[0]

    def value_and_grad(self, x):
        return _single(self, x)

    def value_and_grad_batch(self, X):
        d = np.asarray(X, dtype=np.float64) - self.center
        return np.einsum("ij,ij->i", d, d) - self.radius**2, 2.0 * d

    def hard_value(self, x) -> float:
        return self.value(x)

    def hard_value_batch(self, X):
        return self.value_and_grad_batch(X)[0]


class CylinderZone:
    """Finite-cylinder no-go zone, safe when radially outside OR past a cap.

    b_radial(x)   = ||(x - point) x axis|| - radius
    b_vertical(x) = |(x - point) . axis| - length/2
    b(x)          = (1/tau) * log(exp(tau*b_radial) + exp(tau*b_vertical)) - log(2)/tau

    The log(2)/tau shift puts the smooth max in [max - log(2)/tau, max], so
    smooth b >= 0 implies hard-max b >= 0. tau defaults to 200 per meter
    (<= 3.5 mm of conservative slack).
    """

    concavity = 0.0  # convex pieces and log-sum-exp: b(x + d) >= b(x) + grad . d

    def __init__(self, point, axis, radius: float, length: float, tau: float = 200.0):
        self.point = np.asarray(point, dtype=np.float64)
        axis = np.asarray(axis, dtype=np.float64)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-9:
            if norm == 0:
                raise ValueError("axis must be a nonzero vector")
            axis = axis / norm
        self.axis = axis
        self.radius = float(radius)
        self.length = float(length)
        self.tau = float(tau)
        if self.radius <= 0 or self.length <= 0 or self.tau <= 0:
            raise ValueError("radius, length and tau must be positive")

    def _off_axis(self, rel: np.ndarray, on_axis: np.ndarray) -> np.ndarray:
        """rel (B, 3) with the rows flagged on_axis nudged radially off the
        axis (with a warning), because the radial gradient is undefined there."""
        warnings.warn(
            f"{int(on_axis.sum())} point(s) on cylinder axis; perturbing radially by 1e-9"
        )
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(self.axis)))] = 1.0
        radial = seed - (seed @ self.axis) * self.axis
        rel = rel.copy()
        rel[on_axis] += AXIS_EPS * radial / np.linalg.norm(radial)
        return rel

    def components_batch(self, X):
        """(b_radial, b_vertical) of every row of X (B, 3), without smoothing."""
        rel = np.asarray(X, dtype=np.float64) - self.point
        w = cross3(rel, self.axis)
        b_rad = np.sqrt(rowdot(w, w)) - self.radius
        return b_rad, np.abs(rowdot(rel, self.axis)) - 0.5 * self.length

    def components(self, x):
        b_rad, b_vert = self.components_batch(np.asarray(x, dtype=np.float64)[None, :])
        return float(b_rad[0]), float(b_vert[0])

    def hard_value(self, x) -> float:
        return float(self.hard_value_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

    def hard_value_batch(self, X):
        return np.maximum(*self.components_batch(X))

    def value(self, x) -> float:
        return _single(self, x)[0]

    def value_and_grad(self, x):
        return _single(self, x)

    def value_and_grad_batch(self, X):
        v = self.axis
        rel = np.asarray(X, dtype=np.float64) - self.point
        w = cross3(rel, v)
        wn = np.linalg.norm(w, axis=1)
        if (on_axis := wn < AXIS_EPS).any():
            rel = self._off_axis(rel, on_axis)
            w = cross3(rel, v)
            wn = np.linalg.norm(w, axis=1)
        b_rad = wn - self.radius
        grad_rad = cross3(v, w) / wn[:, None]
        ax = rel @ v
        b_vert = np.abs(ax) - 0.5 * self.length
        grad_vert = np.sign(ax)[:, None] * v  # sign(0) = 0: no vertical gradient on the mid-plane
        # shifted log-sum-exp of the two components, stabilised around the max
        tau = self.tau
        top = np.maximum(b_rad, b_vert)
        e_rad = np.exp(tau * (b_rad - top))
        e_vert = np.exp(tau * (b_vert - top))
        denom = e_rad + e_vert
        b = top + np.log(denom) / tau - np.log(2.0) / tau
        grad = (e_rad[:, None] * grad_rad + e_vert[:, None] * grad_vert) / denom[:, None]
        return b, grad


class TaskSpaceBarrier:
    """In-distribution barrier over demonstration states.

    b(s) = radius^2 - ||s - s_nearest||^2 with s_nearest a closest stored state:
    the max over stored states d_i of the pieces radius^2 - ||s - d_i||^2. So b
    is no less than any piece, and tied states give pieces of equal value, each
    a valid active piece (Glotfelter, Cortes & Egerstedt 2017, "Nonsmooth
    Barrier Functions With Applications to Multi-Robot Systems"); nearest()
    returns whichever tied state the kd-tree finds. The gradient treats
    s_nearest as locally constant, exact within a Voronoi cell.
    """

    concavity = 1.0  # the active piece: b_i(s + d) = b_i(s) + grad . d - ||d||^2

    def __init__(self, demo_states, radius: float = 0.5):
        states = np.asarray(demo_states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("demo_states must be a nonempty (N, n) array")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.states = states
        self.radius = float(radius)
        self._tree = cKDTree(states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def nearest(self, S) -> np.ndarray:
        """Index of a nearest stored state for every row of S (B, n)."""
        return self._tree.query(S)[1]

    def value(self, s) -> float:
        return _single(self, s)[0]

    def value_and_grad(self, s):
        return _single(self, s)

    def value_and_grad_batch(self, S):
        S = np.asarray(S, dtype=np.float64)
        if S.shape[1] != self.dim:
            raise ValueError(f"state dim {S.shape[1]} != barrier dim {self.dim}")
        d = S - self.states[self.nearest(S)]
        return self.radius**2 - np.einsum("ij,ij->i", d, d), -2.0 * d

    def hard_value(self, s) -> float:
        return self.value(s)


def zone_from_config(cfg: dict):
    """Build a spatial zone from its run-config JSON entry."""
    kind = cfg.get("type")
    if kind == "sphere":
        return SphereZone(center=cfg["center"], radius=cfg["radius"])
    if kind == "cylinder":
        return CylinderZone(
            point=cfg["point"],
            axis=cfg["axis"],
            radius=cfg["radius"],
            length=cfg["length"],
            tau=cfg.get("tau", 200.0),
        )
    raise ValueError(f"unknown zone type {kind!r}")
