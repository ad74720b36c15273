"""Output checks computed apart from the program.

Nothing here imports safectl. The model is read from its documented wire
format and evaluated with this file's own numpy forward pass and RK4 step;
zone margins use this file's own sphere and cylinder geometry; the QP is
re-solved with scipy. Each check returns a list of problems, empty when the
output is correct.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715
BOUNDS_RTOL = 1e-9
QP_TOL = 1e-6
BOX_TOL = 1e-9  # the program's QP meets inequality rows to 1e-9


# -- model wire format and dynamics -------------------------------------------


def read_model(path) -> dict:
    """Parse a model file: 8-byte little-endian header length, JSON header,
    then w1, b1, w2, b2 as one flat little-endian float64 array, row-major."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    flat = np.frombuffer(blob[8 + hlen:], dtype="<f8").astype(np.float64)
    n_in, n_hidden, n_out = header["layer_dims"]
    sizes = [n_hidden * n_in, n_hidden, n_out * n_hidden, n_out]
    if flat.size != sum(sizes):
        raise ValueError(f"{path}: {flat.size} doubles, expected {sum(sizes)}")
    w1, b1, w2, b2 = np.split(flat, np.cumsum(sizes)[:-1])
    return {
        "w1": w1.reshape(n_hidden, n_in), "b1": b1,
        "w2": w2.reshape(n_out, n_hidden), "b2": b2,
        "n_state": int(header["n_state"]), "n_action": int(header["n_action"]),
        "dt": float(header["dt"]), "header": header,
    }


def glorot_model(n_state: int, n_action: int, hidden: int, seed: int, dt: float) -> dict:
    """An untrained model: Glorot-uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    n_out = n_state * (1 + n_action)
    lim1 = np.sqrt(6.0 / (n_state + hidden))
    lim2 = np.sqrt(6.0 / (hidden + n_out))
    return {
        "w1": rng.uniform(-lim1, lim1, size=(hidden, n_state)), "b1": np.zeros(hidden),
        "w2": rng.uniform(-lim2, lim2, size=(n_out, hidden)), "b2": np.zeros(n_out),
        "n_state": n_state, "n_action": n_action, "dt": dt,
    }


def field(model: dict, S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sdot = f(s) + G(s) a for rows of S (N, n) and A (N, m)."""
    pre = S @ model["w1"].T + model["b1"]
    hid = 0.5 * pre * (1.0 + np.tanh(GELU_C * pre * (1.0 + GELU_A * pre * pre)))
    out = hid @ model["w2"].T + model["b2"]
    n, m = model["n_state"], model["n_action"]
    gain = out[:, n:].reshape(-1, n, m)
    return out[:, :n] + np.einsum("kij,kj->ki", gain, A)


def rk4(model: dict, S: np.ndarray, A: np.ndarray, dt: float) -> np.ndarray:
    k1 = field(model, S, A)
    k2 = field(model, S + 0.5 * dt * k1, A)
    k3 = field(model, S + 0.5 * dt * k2, A)
    k4 = field(model, S + dt * k3, A)
    return S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def error_bounds(model: dict, demos: list, state_dims=None, action_dims=None) -> tuple:
    """(e_sdot, e_s): worst L1 error over all transitions of the derivative
    against the forward difference, and of one RK4 step from the true state."""
    S, A, S1, dts = [], [], [], []
    for d in demos:
        st = d["states"] if state_dims is None else d["states"][:, state_dims]
        ac = d["actions"] if action_dims is None else d["actions"][:, action_dims]
        S.append(st[:-1])
        A.append(ac)
        S1.append(st[1:])
        dts.append(np.full(len(ac), d["dt"]))
    S, A, S1, dt = np.vstack(S), np.vstack(A), np.vstack(S1), np.concatenate(dts)
    if np.any(dt != dt[0]):
        raise ValueError("demonstrations mix step sizes")
    d_err = np.abs((S1 - S) / dt[:, None] - field(model, S, A)).sum(axis=1)
    s_err = np.abs(S1 - rk4(model, S, A, dt[0])).sum(axis=1)
    return float(d_err.max()), float(s_err.max())


def heldout(demos: list, holdout_frac: float, seed: int) -> list:
    """The held-out trajectories: the first round(frac * n) entries of a
    seeded permutation, at least one when there are two or more."""
    n = len(demos)
    perm = np.random.default_rng(seed).permutation(n)
    n_hold = max(1, int(round(holdout_frac * n))) if n > 1 else 0
    hold = set(perm[:n_hold].tolist())
    return [demos[i] for i in range(n) if i in hold]


# -- demonstrations and training -----------------------------------------------


def read_demos(path) -> list:
    demos = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            demos.append({"states": np.asarray(rec["states"], dtype=np.float64),
                          "actions": np.asarray(rec["actions"], dtype=np.float64),
                          "dt": float(rec["dt"])})
    return demos


def check_demo(demo: dict, goal, goal_tol: float, a_max: float) -> list:
    """The demo reaches the goal within goal_tol and no coordinate moves more
    than a_max * dt in one step."""
    problems = []
    pos = demo["states"][:, :3]
    if np.linalg.norm(pos - np.asarray(goal), axis=1).min() > goal_tol:
        problems.append("never within goal_tol of the goal")
    step = np.abs(np.diff(demo["states"], axis=0)).max()
    if step > a_max * demo["dt"] * (1.0 + 1e-12):
        problems.append(f"a step moves {step:.6g} > a_max*dt = {a_max * demo['dt']:.6g}")
    return problems


def read_losses(path) -> np.ndarray:
    lines = Path(path).read_text().split()
    if lines[0] != "epoch,loss":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([float(x.split(",")[1]) for x in lines[1:]])


def check_losses(losses: np.ndarray) -> list:
    if losses.size < 2 or not np.all(np.isfinite(losses)):
        return [f"loss curve has {losses.size} finite-checked entries"]
    if not losses[-1] < 0.5 * losses[0]:
        return [f"final loss {losses[-1]:.4g} is not below half the first {losses[0]:.4g}"]
    return []


def check_beats_untrained(e_s: float, e_s_untrained: float) -> list:
    if not e_s < e_s_untrained:
        return [f"trained e_s {e_s:.4g} is not below the untrained model's {e_s_untrained:.4g}"]
    return []


def check_bounds(reported: dict, e_sdot: float, e_s: float) -> list:
    problems = []
    for key, own in (("e_sdot", e_sdot), ("e_s", e_s)):
        got = float(reported[key])
        if not abs(got - own) <= BOUNDS_RTOL * abs(own):
            problems.append(f"{key}: reported {got!r}, recomputed {own!r}")
    return problems


# -- shielded episodes -----------------------------------------------------------


def zone_margins(pos: np.ndarray, zones: list) -> np.ndarray:
    """Hard margins (T, k) of positions (T, 3) against the zone configs:
    sphere |x - c|^2 - r^2; cylinder max(radial - r, |axial| - length/2)."""
    cols = []
    for z in zones:
        if z["type"] == "sphere":
            d = pos - np.asarray(z["center"])
            cols.append((d * d).sum(axis=1) - z["radius"] ** 2)
        elif z["type"] == "cylinder":
            axis = np.asarray(z["axis"], dtype=np.float64)
            axis = axis / np.linalg.norm(axis)
            rel = pos - np.asarray(z["point"])
            along = rel @ axis
            radial = np.linalg.norm(rel - along[:, None] * axis, axis=1)
            cols.append(np.maximum(radial - z["radius"], np.abs(along) - 0.5 * z["length"]))
        else:
            raise ValueError(f"unknown zone type {z['type']!r}")
    return np.stack(cols, axis=1) if cols else np.zeros((pos.shape[0], 0))


def read_episode_csv(path, n_state: int, n_action: int) -> dict:
    """Columns t, s*, a_des*, a_safe*, margin*, slack, solve_time_us; states
    are the true states after each step."""
    text = Path(path).read_text().splitlines()
    cols = text[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in text[1:]]
    data = np.asarray(rows, dtype=np.float64)

    def block(prefix, k):
        idx = [cols.index(f"{prefix}{i}") for i in range(k)]
        return data[:, idx]

    return {"states": block("s", n_state), "a_des": block("a_des", n_action),
            "a_safe": block("a_safe", n_action)}


def check_episode(ep: dict, intervened: np.ndarray, zones: list, target, goal_tol: float,
                  a_max: float) -> list:
    """No zone margin below zero, the target reached, every a_safe inside the
    action box, and a_safe == a_des bit for bit wherever the shield did not
    intervene."""
    problems = []
    pos = ep["states"][:, :3]
    margins = zone_margins(pos, zones)
    if margins.size and margins.min() < 0.0:
        problems.append(f"collision: hard margin {margins.min():.3e} at step "
                        f"{int(np.argmin(margins.min(axis=1)))}")
    if np.linalg.norm(pos - np.asarray(target)[:3], axis=1).min() > goal_tol:
        problems.append("target never reached")
    if np.abs(ep["a_safe"]).max() > a_max + BOX_TOL:
        problems.append(f"a_safe outside the action box: {np.abs(ep['a_safe']).max():.12g}")
    if intervened.shape[0] != ep["a_safe"].shape[0]:
        problems.append(f"{intervened.shape[0]} filter calls for {ep['a_safe'].shape[0]} steps")
    else:
        passed = ~intervened
        if np.any(ep["a_safe"][passed] != ep["a_des"][passed]):
            problems.append("a_safe differs from a_des on a step without intervention")
    return problems


def project(G: np.ndarray, h: np.ndarray, lb, ub, a_des: np.ndarray) -> np.ndarray:
    """argmin |a - a_des|^2 s.t. G a <= h, lb <= a <= ub.

    SLSQP finds the active set; the point is then polished by solving the
    equality-constrained projection on that set exactly, kept only if it is
    feasible with nonnegative multipliers."""
    C = np.vstack([G, np.eye(a_des.size), -np.eye(a_des.size)])
    d = np.concatenate([h, ub, -np.asarray(lb)])
    res = minimize(lambda a: float((a - a_des) @ (a - a_des)), np.clip(a_des, lb, ub),
                   jac=lambda a: 2.0 * (a - a_des), method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda a: d - C @ a,
                                 "jac": lambda a: -C}],
                   options={"ftol": 1e-15, "maxiter": 500})
    a = res.x
    active = np.flatnonzero(np.abs(C @ a - d) <= 1e-7)
    if active.size:
        Ca = C[active]
        lam, *_ = np.linalg.lstsq(Ca @ Ca.T, Ca @ a_des - d[active], rcond=None)
        polished = a_des - Ca.T @ lam
        if np.all(lam >= -1e-10) and np.all(C @ polished - d <= 1e-10):
            a = polished
    return a


def check_projection(G, h, lb, ub, a_des, a_safe) -> list:
    own = project(G, h, lb, ub, a_des)
    err = float(np.abs(own - a_safe).max())
    if not err <= QP_TOL:
        return [f"a_safe is {err:.3e} from the independent QP solution"]
    return []
