"""Control-affine neural ODE: sdot = drift(s) + gain(s) @ a.

One MLP maps the state to [drift; gain rows] (n_state * (1 + n_action)
outputs). Training minimises the mean L1 error of multi-step rk4 rollouts
against demonstration segments, differentiating straight through the
integrator: _rollout_loss_and_grad is one fused forward pass and one
vector-Jacobian pass over the discrete rollout, whose loss and gradients equal
reverse-mode autodiff's bit for bit. Uncertainty is quantified on held-out
transitions as worst-case L1 errors of the predicted derivative and of one rk4
step, which the safety filter consumes as robustness budgets. Those errors
are evaluated one demonstration at a time, all of its transitions in one batch
through drift_and_gain_batch; the bounds are the running max over
demonstrations. Read as a split-conformal quantile over n exchangeable
held-out trajectories, each bound covers a fresh trajectory's worst transition
with probability at least n/(n+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (  # noqa: F401 (backward: the benchmark tracer wraps this name)
    MlpParams,
    backward,
    forward_mlp,
    gelu_value_grad,
    init_mlp,
    load_mlp,
    save_mlp,
)

# The position sub-space: the state's position coordinates and the action's
# linear-velocity block that drives them, the slice spatial constraints use.
POSITION_DIMS = (0, 1, 2)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class NeuralOdeModel:
    """MLP-parameterised control-affine vector field with a fixed step size."""

    n_state: int
    n_action: int
    params: MlpParams
    hidden: int = 64
    dt: float = 0.1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        n_out = self.n_state * (1 + self.n_action)
        if self.params.layer_dims != (self.n_state, self.hidden, n_out):
            raise ValueError(
                f"params dims {self.params.layer_dims} do not match "
                f"({self.n_state}, {self.hidden}, {n_out})"
            )

    @classmethod
    def create(cls, n_state=4, n_action=4, hidden=64, dt=0.1, seed=0):
        params = init_mlp(n_state, hidden, n_state * (1 + n_action), seed=seed)
        return cls(n_state=n_state, n_action=n_action, params=params, hidden=hidden, dt=dt)

    def drift_and_gain(self, s):
        """Split the MLP output into drift f (n_state,) and gain G (n_state, n_action)."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.n_state,):
            raise ValueError(f"state shape {s.shape} != ({self.n_state},)")
        out = forward_mlp(self.params, s)
        f = out[: self.n_state]
        g = out[self.n_state :].reshape(self.n_state, self.n_action)
        return f, g

    def drift_and_gain_batch(self, S):
        """drift_and_gain for every row of S (B, n_state) in one MLP call:
        f (B, n_state) and G (B, n_state, n_action)."""
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != self.n_state:
            raise ValueError(f"states shape {S.shape} != (B, {self.n_state})")
        out = forward_mlp(self.params, S.T).T
        f = out[:, : self.n_state]
        g = out[:, self.n_state :].reshape(-1, self.n_state, self.n_action)
        return f, g

    def field(self, s, a):
        """sdot = f(s) + G(s) @ a."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.n_action,):
            raise ValueError(f"action shape {a.shape} != ({self.n_action},)")
        f, g = self.drift_and_gain(s)
        return f + g @ a

    def save(self, path, extra: dict | None = None):
        meta = {"n_state": self.n_state, "n_action": self.n_action, "dt": self.dt}
        if extra:
            meta.update(extra)
        save_mlp(path, self.params, extra=meta)

    @classmethod
    def load(cls, path):
        params, header = load_mlp(path)
        model = cls(
            n_state=int(header["n_state"]),
            n_action=int(header["n_action"]),
            params=params,
            hidden=params.layer_dims[1],
            dt=float(header["dt"]),
        )
        return model, header


@dataclass
class AffineModel:
    """Exact affine field sdot = A s + B a + c with the NeuralOdeModel interface.

    Used as an injected ground truth in tests and for constructing systems
    whose Lie derivatives have closed forms (e.g. the pure integrator
    AffineModel.integrator(n)).
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray | None = None
    dt: float = 0.1

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.c = np.zeros(self.A.shape[0]) if self.c is None else np.asarray(self.c, dtype=np.float64)

    @classmethod
    def integrator(cls, n: int, dt: float = 0.1) -> "AffineModel":
        return cls(A=np.zeros((n, n)), B=np.eye(n), dt=dt)

    @property
    def n_state(self) -> int:
        return self.A.shape[0]

    @property
    def n_action(self) -> int:
        return self.B.shape[1]

    def drift_and_gain(self, s):
        s = np.asarray(s, dtype=np.float64)
        return self.A @ s + self.c, self.B

    def drift_and_gain_batch(self, S):
        S = np.asarray(S, dtype=np.float64)
        return S @ self.A.T + self.c, np.broadcast_to(self.B, (S.shape[0],) + self.B.shape)

    def field(self, s, a):
        f, g = self.drift_and_gain(s)
        return f + g @ np.asarray(a, dtype=np.float64)


# -- integration ---------------------------------------------------------------


def _step_euler(field, s, a, dt):
    return s + dt * field(s, a)


def _step_rk4(field, s, a, dt):
    k1 = field(s, a)
    k2 = field(s + 0.5 * dt * k1, a)
    k3 = field(s + 0.5 * dt * k2, a)
    k4 = field(s + dt * k3, a)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(field, s0, actions, dt, method: str = "rk4"):
    """Roll a field sdot = field(s, a) forward with piecewise-constant actions.

    field: callable (s, a) -> sdot (a NeuralOdeModel.field works directly).
    actions: (H, n_action) with one action held constant over each dt; one
    (n_action,) action is a single step.
    Returns states (H+1, n) including s0.
    """
    s0 = np.asarray(s0, dtype=np.float64)
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    if actions.shape[0] < 1:
        raise ValueError("horizon must be >= 1")
    stepper = {"euler": _step_euler, "rk4": _step_rk4}.get(method)
    if stepper is None:
        raise ValueError(f"unknown method {method!r}")
    out = np.empty((actions.shape[0] + 1, s0.shape[0]))
    out[0] = s0
    for t in range(actions.shape[0]):
        out[t + 1] = stepper(field, out[t], actions[t], dt)
        if not np.all(np.isfinite(out[t + 1])):
            raise FloatingPointError(f"non-finite state at integration step {t}")
    return out


# -- demonstrations --------------------------------------------------------------


@dataclass
class Demonstration:
    """One trajectory: states (T+1, n), actions (T, m), step size dt."""

    states: np.ndarray
    actions: np.ndarray
    dt: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ValueError("states and actions must be 2-D")
        if self.actions.shape[0] != self.states.shape[0] - 1:
            raise ValueError(
                f"{self.actions.shape[0]} actions for {self.states.shape[0]} states"
            )
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.actions))):
            raise ValueError("demonstration contains non-finite values")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def __len__(self) -> int:
        return self.actions.shape[0]


def save_demos(path, demos: list[Demonstration]):
    """JSON-lines, one trajectory per line (deterministic float repr)."""
    with open(path, "w") as f:
        for d in demos:
            f.write(
                json.dumps(
                    {
                        "dt": d.dt,
                        "states": d.states.tolist(),
                        "actions": d.actions.tolist(),
                    },
                    sort_keys=True,
                )
            )
            f.write("\n")


def demo_lines(path):
    """Yield (1-based line number, raw bytes) of each nonblank line of a demos
    file, undecoded and unparsed, one line held at a time. split_demos splits
    a list of their line numbers as it splits demonstrations, so a stage can
    parse only the side of the split it uses."""
    with open(path, "rb") as f:
        for i, line in enumerate(f, 1):
            if line.strip():
                yield i, line


def parse_demo(line: str | bytes) -> Demonstration:
    """One demos-file line as a Demonstration; ValueError (a bad UTF-8 byte
    included) when it is not one."""
    rec = json.loads(line)
    try:
        return Demonstration(
            states=np.asarray(rec["states"]),
            actions=np.asarray(rec["actions"]),
            dt=float(rec["dt"]),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"not a demonstration record ({type(e).__name__}: {e})") from e


def load_demos(path) -> list[Demonstration]:
    return [parse_demo(line) for _, line in demo_lines(path)]


def split_demos(demos, holdout_frac: float = 0.2, seed: int = 0):
    """Deterministic train/held-out split by trajectory."""
    n = len(demos)
    idx = np.random.default_rng(seed).permutation(n)
    n_hold = max(1, int(round(holdout_frac * n))) if n > 1 else 0
    hold = set(idx[:n_hold].tolist())
    train = [demos[i] for i in range(n) if i not in hold]
    held = [demos[i] for i in range(n) if i in hold]
    return train, held


def slice_demos(demos, state_dims, action_dims) -> list[Demonstration]:
    """Project demonstrations onto a state/action sub-space (e.g. position only)."""
    sd = np.asarray(state_dims, dtype=int)
    ad = np.asarray(action_dims, dtype=int)
    return [
        Demonstration(states=d.states[:, sd], actions=d.actions[:, ad], dt=d.dt)
        for d in demos
    ]


# -- training --------------------------------------------------------------------


RMS_DECAY = 0.99  # RMSprop's squared-gradient average decay
RMS_EPS = 1e-8  # RMSprop's denominator offset


@dataclass
class TrainConfig:
    """Multi-step rollout training configuration.

    One epoch covers the dataset's transitions once in expectation:
    max(1, round(total_transitions / (batch * rollout_h))) gradient updates,
    each on `batch` trajectory segments of length `rollout_h` sampled
    uniformly with replacement over (trajectory, start index). RMSprop with
    decay RMS_DECAY and eps RMS_EPS, no momentum.
    """

    epochs: int = 200
    batch: int = 20
    rollout_h: int = 10
    lr: float = 1e-3
    seed: int = 0


def _rollout_loss_and_grad(params: MlpParams, s_batch, a_batch, dt, n_state):
    """Mean L1 rollout loss of a batch and its gradient [g_w1, g_b1, g_w2, g_b2].

    s_batch (h+1, n, B) holds the true states and a_batch (h, m, B) the
    actions, each held constant over its step; predictions feed forward from
    s_batch[0]. One forward pass keeps every field call's input, hidden
    activation and GELU derivative, and one reverse pass forms the
    vector-Jacobian products of the discrete rollout (discretise, then
    optimise). Every float64 operation is the one reverse-mode autodiff over
    the same rollout performs, in the same order and on C-contiguous arrays,
    so the loss and gradients equal autodiff's bit for bit. Returns
    (loss, None) when the loss is not finite; raises ValueError when a
    parameter or a true state is not finite.
    """
    w1, b1, w2, b2 = params.arrays()
    for arr in (w1, b1, w2, b2, s_batch):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value entering the tape")
    n, (h, m, batch) = n_state, a_batch.shape
    b1c, b2c = b1[:, None], b2[:, None]
    half, sixth = float(0.5 * dt), float(dt / 6.0)
    calls = []  # (x, hidden activation, GELU derivative, action) per field call

    def field(x, a):
        act, dact = gelu_value_grad(w1 @ x + b1c)
        out = w2 @ act + b2c
        calls.append((x, act, dact, a))
        return out[:n] + np.einsum("ijb,jb->ib", out[n:].reshape(n, m, -1), a)

    s, errs, loss = s_batch[0], [], None
    for t in range(h):
        a = a_batch[t]
        k1 = field(s, a)
        k2 = field(s + k1 * half, a)
        k3 = field(s + k2 * half, a)
        k4 = field(s + k3 * dt, a)
        # the tape's grouping, which rounds apart from _step_rk4's
        s = s + ((k1 + (k2 + k3) * 2.0) + k4) * sixth
        err = s - s_batch[t + 1]
        term = np.abs(err).sum()
        loss = term if loss is None else loss + term
        errs.append(err)
    scale = 1.0 / (batch * h)
    loss = float(loss * scale)
    if not np.isfinite(loss):
        return loss, None

    acc = [None, None, None, None]  # w1, b1, w2, b2

    def add(i, g):
        if acc[i] is None:
            acc[i] = g
        else:
            acc[i] += g

    def field_vjp(g_k, need_x):
        """Adjoint of the last field call not yet reversed, given its output
        adjoint g_k; returns the adjoint of its input x when need_x."""
        x, act, dact, a = calls.pop()
        g_out = np.empty((n * (1 + m), batch))
        g_out[:n] = g_k
        g_out[n:] = (g_k[:, None, :] * a[None, :, :]).reshape(n * m, -1)
        add(3, g_out.sum(axis=1))
        add(2, g_out @ act.T)
        g_pre = (w2.T @ g_out) * dact
        add(1, g_pre.sum(axis=1))
        add(0, g_pre @ x.T)
        return w1.T @ g_pre if need_x else None

    # g_s is the adjoint of the state after step t. The adjoint of the state
    # before it sums, in the tape's order: g_s, then the x4, x3 and x2 stage
    # inputs, then the k1 call, then that state's own loss term.
    g_s = scale * np.sign(errs[-1])
    for t in reversed(range(h)):
        g_incr = g_s * sixth
        g_p23 = g_incr * 2.0
        g_x4 = field_vjp(g_incr, True)
        g_x3 = field_vjp(g_p23 + g_x4 * dt, True)
        g_x2 = field_vjp(g_p23 + g_x3 * half, True)
        g_x1 = field_vjp(g_incr + g_x2 * half, t > 0)
        if t:
            g_s += g_x4
            g_s += g_x3
            g_s += g_x2
            g_s += g_x1
            g_s += scale * np.sign(errs[t - 1])
    for g in acc:
        g += 0.0  # the tape sums into zeros, which turns a -0.0 into 0.0
    return loss, acc


def train(model: NeuralOdeModel, demos: list[Demonstration], cfg: TrainConfig):
    """Fit the model on demonstration rollouts; returns (trained_model, losses).

    losses is the per-epoch mean of (1/(B*h)) * sum_j sum_t |shat_t - s_t|_1
    where predictions feed forward through the whole segment. Deterministic
    given cfg.seed; raises TrainingDiverged when the loss goes non-finite.
    """
    if not demos:
        raise ValueError("dataset is empty")
    h = cfg.rollout_h
    for i, d in enumerate(demos):
        if len(d.actions) < h:
            raise ValueError(f"trajectory {i} shorter than rollout_h={h}")
        if d.dt != demos[0].dt:
            raise ValueError(f"trajectory {i} has dt={d.dt}, expected {demos[0].dt}")

    rng = np.random.default_rng(cfg.seed)
    params = model.params.copy()
    arrs = params.arrays()
    sq_avg = [np.zeros_like(a) for a in arrs]
    n_transitions = sum(len(d.actions) for d in demos)
    steps = max(1, round(n_transitions / (cfg.batch * h)))
    n, b = model.n_state, cfg.batch
    dt = demos[0].dt
    losses = np.empty(cfg.epochs)

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for _ in range(steps):
            traj_idx = rng.integers(0, len(demos), size=b)
            starts = np.array(
                [rng.integers(0, len(demos[j].actions) - h + 1) for j in traj_idx]
            )
            s_batch = np.stack(
                [demos[j].states[k : k + h + 1] for j, k in zip(traj_idx, starts)],
                axis=2,
            )  # (h+1, n, B)
            a_batch = np.stack(
                [demos[j].actions[k : k + h] for j, k in zip(traj_idx, starts)],
                axis=2,
            )  # (h, m, B)

            loss, grads = _rollout_loss_and_grad(params, s_batch, a_batch, dt, n)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            for arr, g, acc in zip(arrs, grads, sq_avg):
                acc *= RMS_DECAY
                acc += (1.0 - RMS_DECAY) * g * g
                arr -= cfg.lr * g / (np.sqrt(acc) + RMS_EPS)
            epoch_loss += loss
        losses[epoch] = epoch_loss / steps

    trained = NeuralOdeModel(
        n_state=model.n_state,
        n_action=model.n_action,
        params=params,
        hidden=model.hidden,
        dt=model.dt,
    )
    return trained, losses


def derive_position_model(
    model: NeuralOdeModel,
    demos: list[Demonstration],
    cfg: TrainConfig,
):
    """Train the position-substate model used by spatial constraints.

    Slices each demonstration to POSITION_DIMS in both state and action and
    trains a fresh model of that size with the same configuration. Requires
    the full state and action to contain that sub-space.
    """
    if max(POSITION_DIMS) >= min(model.n_state, model.n_action):
        raise ValueError("position substate not configured for this model")
    sliced = slice_demos(demos, POSITION_DIMS, POSITION_DIMS)
    sub = NeuralOdeModel.create(
        n_state=len(POSITION_DIMS),
        n_action=len(POSITION_DIMS),
        hidden=model.hidden,
        dt=model.dt,
        seed=model.params.seed,
    )
    return train(sub, sliced, cfg)


# -- uncertainty -----------------------------------------------------------------


def _one_step_errors(model, S, A, S_next, dt):
    """Per-coordinate absolute errors of B transitions (S, A) -> S_next, float64
    arrays, each (B, n): of the field against the forward difference
    (S_next - S)/dt, and of one rk4 step of size dt from the true state S.
    Every field evaluation is one drift_and_gain_batch call over the batch."""

    def field(X, U):
        f, g = model.drift_and_gain_batch(X)
        return f + (g @ U[:, :, None])[:, :, 0]

    d_err = np.abs((S_next - S) / dt - field(S, A))
    s_err = np.abs(S_next - _step_rk4(field, S, A, dt))
    return d_err, s_err


@dataclass
class UncertaintyBounds:
    """Worst-case L1 model errors: e_sdot on the predicted derivative
    (state-units/s) and e_s on the one-step integration (state units), with
    coordinate-wise variants. Each scalar is the max over the transitions seen.

    Provenance, set by quantify_uncertainty: n_trajectories held-out
    trajectories were evaluated, and e_sdot_at / e_s_at give the (trajectory,
    t) attaining each bound, trajectory indexing the evaluated list."""

    e_sdot: float
    e_s: float
    per_dim_sdot: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_dim_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_trajectories: int = 0
    e_sdot_at: tuple[int, int] | None = None
    e_s_at: tuple[int, int] | None = None

    def __post_init__(self):
        if self.e_sdot < 0 or self.e_s < 0:
            raise ValueError("bounds must be nonnegative")

    @property
    def coverage(self) -> float | None:
        """Per-trajectory split-conformal coverage n/(n+1) of the bounds,
        assuming held-out and future trajectories are exchangeable."""
        n = self.n_trajectories
        return n / (n + 1) if n else None

    def to_dict(self) -> dict:
        def at(loc):
            return None if loc is None else {"trajectory": loc[0], "t": loc[1]}

        return {
            "e_sdot": self.e_sdot,
            "e_s": self.e_s,
            "per_dim_sdot": self.per_dim_sdot.tolist(),
            "per_dim_s": self.per_dim_s.tolist(),
            "n_trajectories": self.n_trajectories,
            "coverage": self.coverage,
            "e_sdot_at": at(self.e_sdot_at),
            "e_s_at": at(self.e_s_at),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UncertaintyBounds":
        """Inverse of to_dict; the provenance keys are optional, so files
        written before they existed still load."""

        def at(loc):
            return None if loc is None else (int(loc["trajectory"]), int(loc["t"]))

        return cls(
            e_sdot=float(d["e_sdot"]),
            e_s=float(d["e_s"]),
            per_dim_sdot=np.asarray(d.get("per_dim_sdot", []), dtype=np.float64),
            per_dim_s=np.asarray(d.get("per_dim_s", []), dtype=np.float64),
            n_trajectories=int(d.get("n_trajectories", 0)),
            e_sdot_at=at(d.get("e_sdot_at")),
            e_s_at=at(d.get("e_s_at")),
        )


def quantify_uncertainty(model: NeuralOdeModel, eval_demos: list[Demonstration]) -> UncertaintyBounds:
    """Worst-case L1 errors over held-out transitions.

    The reference derivative is the forward difference (s_{t+1} - s_t)/dt,
    matching one-step prediction semantics; the one-step prediction integrates
    from the ground-truth s_t with the demonstration's own dt. eval_demos
    should be disjoint from the training split. Each demonstration is one
    batch through drift_and_gain_batch; the bounds and the (trajectory, t) that
    attains each (earliest on ties) are running maxima over demonstrations.

    Meaning: with n held-out trajectories exchangeable with a future one, the
    future trajectory's worst transition error exceeds the bound with
    probability at most 1/(n+1) (split-conformal coverage n/(n+1), reported
    as UncertaintyBounds.coverage). It does not extend to trajectories drawn
    differently from the held-out ones, e.g. under another policy or scene.

    Raises ValueError on an empty evaluation set.
    """
    if not eval_demos:
        raise ValueError("evaluation set is empty")
    b = UncertaintyBounds(
        e_sdot=0.0,
        e_s=0.0,
        per_dim_sdot=np.zeros(model.n_state),
        per_dim_s=np.zeros(model.n_state),
        n_trajectories=len(eval_demos),
    )
    for i, d in enumerate(eval_demos):
        if not len(d):
            continue
        d_err, s_err = _one_step_errors(model, d.states[:-1], d.actions, d.states[1:], d.dt)
        d_l1, s_l1 = d_err.sum(axis=1), s_err.sum(axis=1)
        t = int(d_l1.argmax())
        if b.e_sdot_at is None or d_l1[t] > b.e_sdot:
            b.e_sdot, b.e_sdot_at = float(d_l1[t]), (i, t)
        t = int(s_l1.argmax())
        if b.e_s_at is None or s_l1[t] > b.e_s:
            b.e_s, b.e_s_at = float(s_l1[t]), (i, t)
        np.maximum(b.per_dim_sdot, d_err.max(axis=0), out=b.per_dim_sdot)
        np.maximum(b.per_dim_s, s_err.max(axis=0), out=b.per_dim_s)
    return b
