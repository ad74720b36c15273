"""Barrier functions b(.) with analytic gradients; the safe set is {b >= 0}.

Three families:
- SphereZone: squared distance to the center minus squared radius.
- CylinderZone: safe outside the side surface OR beyond the caps; b is the
  max of the radial and the vertical piece.
- TaskSpaceBarrier: positive within distance `radius` of the nearest
  demonstration state, so the learned dynamics are only trusted in-distribution.

Each barrier evaluates a batch of points at once through
`value_and_grad_batch(X)`, X of shape (B, n), returning b (B,) and the
gradients (B, n); the single-point `value_and_grad` and `value` are its B = 1
case. A barrier that is the max of pieces returns its active piece's gradient,
a subgradient of the max (Glotfelter, Cortes & Egerstedt 2017, "Nonsmooth
Barrier Functions With Applications to Multi-Robot Systems"). Each barrier
declares `concavity`, the c in b(x + d) >= b(x) + grad . d - c ||d||^2, which
the shield's discrete-time rows read. Evaluation is pure; all barrier objects
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

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


class CylinderZone:
    """Finite-cylinder no-go zone, safe when radially outside OR past a cap.

    b_radial(x)   = ||(x - point) x axis|| - radius
    b_vertical(x) = |(x - point) . axis| - length/2
    b(x)          = max(b_radial(x), b_vertical(x))

    The gradient is the active piece's, the radial one on a tie. On the axis,
    where the radial piece is active only deep inside the zone, its gradient
    is 0, a subgradient of the norm there.
    """

    concavity = 0.0  # a max of convex pieces: b(x + d) >= b(x) + grad . d

    def __init__(self, point, axis, radius: float, length: float):
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
        if self.radius <= 0 or self.length <= 0:
            raise ValueError("radius and length must be positive")

    def value(self, x) -> float:
        return _single(self, x)[0]

    def value_and_grad(self, x):
        return _single(self, x)

    def value_and_grad_batch(self, X):
        v = self.axis
        rel = np.asarray(X, dtype=np.float64) - self.point
        w = cross3(rel, v)
        wn = np.sqrt(rowdot(w, w))
        ax = rowdot(rel, v)
        b_rad = wn - self.radius
        b_vert = np.abs(ax) - 0.5 * self.length
        # v x w is the radial direction scaled by wn, and 0 on the axis
        grad_rad = cross3(v, w) / np.where(wn > 0.0, wn, 1.0)[:, None]
        grad_vert = np.sign(ax)[:, None] * v  # sign(0) = 0: 0 on the mid-plane
        radial = (b_rad >= b_vert)[:, None]
        return np.maximum(b_rad, b_vert), np.where(radial, grad_rad, grad_vert)


class TaskSpaceBarrier:
    """In-distribution barrier over demonstration states.

    b(s) = radius^2 - ||s - s_nearest||^2 with s_nearest a closest stored state:
    the max over stored states d_i of the pieces radius^2 - ||s - d_i||^2. So b
    is no less than any piece, and tied states give pieces of equal value, each
    a valid active piece; nearest() returns whichever tied state the kd-tree
    finds. The gradient treats s_nearest as locally constant, exact within a
    Voronoi cell.
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
        )
    raise ValueError(f"unknown zone type {kind!r}")
