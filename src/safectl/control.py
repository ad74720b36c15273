"""Nominal-action generators.

- WaypointTracker + clf_action: reference-path follower. A quadratic Lyapunov
  function V(s) = ||s - s_des||^2 is driven down by the minimum-norm
  action satisfying the exponential decrease condition
  Vdot + beta*V <= 0, expanded through the learned control-affine model. With
  one row and P = I the minimum-norm action is a projection with a closed form
  (Ames et al. 2019, "Control Barrier Functions: Theory and Applications").
- KnnExpertPolicy: non-parametric regression of expert actions, softmax
  weighted over the nearest demonstration states (similar states are assumed
  to share similar optimal actions).
- ScriptedExpert: saturated proportional controller used to generate the
  demonstration corpus for reach/transport tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import qp
from .dynamics import NeuralOdeModel


class UncontrollableError(RuntimeError):
    """The CLF descent condition admits no action (L_g V ~ 0 while unstable)."""


# -- reference paths -------------------------------------------------------------


@dataclass
class ReferencePath:
    """Ordered waypoints (M+1, n); consecutive waypoints must be distinct."""

    waypoints: np.ndarray

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=np.float64)
        if self.waypoints.ndim != 2 or self.waypoints.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        if not np.isfinite(self.waypoints).all():
            raise ValueError("waypoints must be finite")
        gaps = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        if np.any(gaps == 0.0):
            raise ValueError("consecutive waypoints must be distinct")

    def distance_to(self, points) -> np.ndarray:
        """Distance from each point of `points` (T, n) to the waypoint
        polyline (used for tracking deviation): every segment's clamped
        projection at once, then the nearest. Returns a (T,) array."""
        p = np.asarray(points, dtype=np.float64)
        start = self.waypoints[:-1]
        seg = np.diff(self.waypoints, axis=0)  # (M, n)
        rel = p[:, None, :] - start  # (T, M, n)
        t = np.clip((rel * seg).sum(axis=-1) / (seg * seg).sum(axis=-1), 0.0, 1.0)
        return np.linalg.norm(p[:, None, :] - (start + t[..., None] * seg), axis=-1).min(axis=-1)


def straight_path(start, end, n_points: int = 20) -> ReferencePath:
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    return ReferencePath((1 - t) * start + t * end)


def circle_path(center, radius: float, n_points: int = 72) -> ReferencePath:
    """Closed circle of given radius in the x-y plane, z (and any further
    coordinate) held at the center's."""
    center = np.asarray(center, dtype=np.float64)
    ang = np.linspace(0.0, 2.0 * np.pi, n_points)
    pts = np.tile(center, (n_points, 1))
    pts[:, 0] += radius * np.cos(ang)
    pts[:, 1] += radius * np.sin(ang)
    return ReferencePath(pts)


def triangle_path(center, side: float, n_per_edge: int = 12) -> ReferencePath:
    """Closed equilateral triangle with the given side length in the x-y
    plane around the center."""
    center = np.asarray(center, dtype=np.float64)
    r = side / np.sqrt(3.0)
    corners = []
    for k in range(3):
        ang = np.pi / 2 + 2.0 * np.pi * k / 3.0
        c = center.copy()
        c[0] += r * np.cos(ang)
        c[1] += r * np.sin(ang)
        corners.append(c)
    corners.append(corners[0])
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        t = np.linspace(0.0, 1.0, n_per_edge, endpoint=False)[:, None]
        pts.append((1 - t) * a + t * b)
    pts.append(corners[0][None, :])
    return ReferencePath(np.vstack(pts))


def select_waypoint(path: ReferencePath, s, current_index: int, threshold: float):
    """Pick the desired waypoint for the current state.

    Starting from the waypoint nearest to s at or after current_index (never
    backtracking on self-intersecting paths), advance past every waypoint
    closer than the threshold in squared distance ||s - w||^2. Returns
    (s_des, new_index); the index is non-decreasing across calls.
    """
    w = path.waypoints
    last = len(w) - 1
    current_index = min(max(int(current_index), 0), last)
    d = np.linalg.norm(w[current_index:] - np.asarray(s, dtype=np.float64), axis=1)
    i = current_index + int(d.argmin())
    while i < last and d[i - current_index] ** 2 < threshold:
        i += 1
    return w[i], i


class WaypointTracker:
    """Episode-local waypoint cursor (one owner per episode). It advances past
    waypoints closer than 10% of the mean waypoint spacing, squared."""

    def __init__(self, path: ReferencePath):
        self.path = path
        spacing = float(np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1).mean())
        self.threshold = 0.1 * spacing**2
        self.index = 0

    def select(self, s) -> np.ndarray:
        s_des, self.index = select_waypoint(self.path, s, self.index, self.threshold)
        return s_des


# -- CLF tracking action ---------------------------------------------------------

CURV_TOL = 1e-12  # ||L_g V||^2 at or below this counts as zero: V has no descent direction


def clf_action(model: NeuralOdeModel, s, s_des, beta: float) -> np.ndarray:
    """Minimum-norm action with V decreasing at rate beta.

    V = ||s - s_des||^2, gradV = 2 (s - s_des). The decrease condition
    L_f V + L_g V a + beta V <= 0 is the single row G a <= h with
    G = L_g V = gradV' g(s), h = -L_f V - beta V. Its minimum-norm action is
    a = 0 when the row holds at a = 0 within qp.FEAS_TOL (h >= -FEAS_TOL), and
    otherwise the projection of 0 onto the half-space, a = (h / ||G||^2) G'.
    Raises UncontrollableError when the row is violated at a = 0 and
    ||G||^2 <= CURV_TOL, where L_g V counts as zero: the projection would need
    ||a|| = |h| / ||G|| >= 1e6 |h|.
    """
    s = np.asarray(s, dtype=np.float64)
    s_des = np.asarray(s_des, dtype=np.float64)
    e = s - s_des
    v = float(e @ e)
    grad_v = 2.0 * e
    f, g = model.drift_and_gain(s)
    lf_v = float(grad_v @ f)
    lg_v = grad_v @ g
    h = -lf_v - beta * v
    if -h <= qp.FEAS_TOL:
        return np.zeros(model.n_action)
    curv = float(lg_v @ lg_v)
    if curv <= CURV_TOL:
        raise UncontrollableError(
            f"uncontrollable descent direction: |L_gV|={np.linalg.norm(lg_v):.3e}, "
            f"L_fV+beta*V={lf_v + beta * v:.3e}"
        )
    return -(-h / curv) * lg_v


# -- kNN expert regression -------------------------------------------------------


class KnnExpertPolicy:
    """Softmax-weighted nearest-neighbor regression over (state, action) pairs:
    a(s) = sum_i exp(-||s - s_i||) a_i / sum_i exp(-||s - s_i||), over the
    n_neighbors nearest demonstration states."""

    def __init__(self, states, actions, n_neighbors: int = 5):
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.float64)
        if self.states.shape[0] != self.actions.shape[0] or self.states.shape[0] == 0:
            raise ValueError("states and actions must be nonempty and aligned")
        if n_neighbors < 1 or n_neighbors > self.states.shape[0]:
            raise ValueError("n_neighbors must be in [1, dataset size]")
        self.n_neighbors = int(n_neighbors)
        self._ranks = list(range(1, self.n_neighbors + 1))
        self._tree = cKDTree(self.states)

    @classmethod
    def from_demos(cls, demos, n_neighbors: int = 5) -> "KnnExpertPolicy":
        states = np.vstack([d.states[:-1] for d in demos])
        actions = np.vstack([d.actions for d in demos])
        return cls(states, actions, n_neighbors)

    def weights_and_neighbors(self, s):
        # k as the list of ranks 1..n returns arrays for one point, even for n = 1
        dist, idx = self._tree.query(np.asarray(s, dtype=np.float64), k=self._ranks)
        w = np.exp(np.negative(dist, out=dist), out=dist)
        w /= w.sum()
        return w, idx

    def action(self, s) -> np.ndarray:
        w, idx = self.weights_and_neighbors(s)
        return w @ self.actions[idx]


# -- scripted experts ------------------------------------------------------------


def clamp(a, a_max: float) -> np.ndarray:
    """np.clip(a, -a_max, a_max) in place: the same floats without np.clip's
    call overhead, which costs more than the work on a few-element array."""
    return np.minimum(np.maximum(a, -a_max, out=a), a_max, out=a)


@dataclass
class ScriptedExpert:
    """Saturated proportional controller toward task targets.

    reach: drive the position toward `goal`. transport: drive toward `obj`
    until the latch is seen (proximity within latch_tol), then toward `goal`.
    Yaw and any extra action dims regulate the matching state coordinate to 0.

    `dither` adds seeded uniform action noise before saturation. Without it
    the demonstration actions are a deterministic function of the state, which
    confounds drift and gain when the dynamics model is fit; a modest dither
    restores identifiability while the expert still completes the task.
    """

    goal: np.ndarray
    a_max: float
    gain: float = 2.0
    obj: np.ndarray | None = None
    latch_tol: float = 0.005
    dither: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.goal = np.asarray(self.goal, dtype=np.float64)
        if self.obj is not None:
            self.obj = np.asarray(self.obj, dtype=np.float64)
        self._latched = False
        self._rng = np.random.default_rng(self.seed)

    def reset(self, seed: int | None = None):
        self._latched = False
        self._rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, seed if seed is not None else 0))
        )

    def action(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        n_pos = self.goal.shape[0]
        target = self.goal
        if self.obj is not None and not self._latched:
            d = s[:n_pos] - self.obj
            if math.sqrt(d.dot(d)) <= self.latch_tol:
                self._latched = True
            else:
                target = self.obj
        a = np.zeros(s.shape)
        a[:n_pos] = self.gain * (target - s[:n_pos])
        a[n_pos:] = -self.gain * s[n_pos:]  # regulate yaw (and extras) to 0
        p, extra = a[:n_pos], a[n_pos:]
        # saturate the speed, not the components: preserves the straight-line
        # direction toward the target (per-dim clipping bends the path toward
        # whichever coordinate finishes first and confounds identification);
        # math.sqrt(p.dot(p)) is np.linalg.norm(p) without its call overhead
        speed = math.sqrt(p.dot(p))
        if speed > self.a_max:
            p *= self.a_max / speed
        clamp(extra, self.a_max)
        if self.dither > 0:
            a += self._rng.uniform(-self.dither, self.dither, a.shape[0])
        return clamp(a, self.a_max)
