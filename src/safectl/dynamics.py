"""Control-affine neural ODE: sdot = drift(s) + gain(s) @ a.

One MLP maps the state to [drift; gain rows] (n_state * (1 + n_action)
outputs). Training minimises the mean L1 error of multi-step rollouts against
demonstration segments, differentiating straight through the fixed-step
integrator on the autodiff tape. Uncertainty is quantified on held-out
transitions as worst-case L1 errors of the predicted derivative and of the
one-step integration, which the safety filter consumes as robustness budgets.
Those errors are evaluated one demonstration at a time, all of its
transitions in one batch through drift_and_gain_batch; the bounds are the
running max over demonstrations. Read as a split-conformal quantile over n
exchangeable held-out trajectories, each bound covers a fresh trajectory's
worst transition with probability at least n/(n+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    MlpParams,
    Tape,
    TapedMlp,
    backward,
    forward_mlp,
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


def _stepper(method: str):
    stepper = {"euler": _step_euler, "rk4": _step_rk4}.get(method)
    if stepper is None:
        raise ValueError(f"unknown method {method!r}")
    return stepper


def integrate(field, s0, actions, dt, method: str = "rk4"):
    """Roll a field sdot = field(s, a) forward with piecewise-constant actions.

    field: callable (s, a) -> sdot (a NeuralOdeModel.field works directly).
    actions: (H, n_action) with one action held constant over each dt, or a
    single (n_action,) vector broadcast over the horizon.
    Returns states (H+1, n) including s0.
    """
    s0 = np.asarray(s0, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim == 1:
        actions = actions[None, :]
    if actions.shape[0] < 1:
        raise ValueError("horizon must be >= 1")
    stepper = _stepper(method)
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


def load_demos(path) -> list[Demonstration]:
    demos = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            demos.append(
                Demonstration(
                    states=np.asarray(rec["states"]),
                    actions=np.asarray(rec["actions"]),
                    dt=float(rec["dt"]),
                )
            )
    return demos


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


@dataclass
class TrainConfig:
    """Multi-step rollout training configuration.

    One epoch covers the dataset's transitions once in expectation:
    max(1, round(total_transitions / (batch * rollout_h))) gradient updates,
    each on `batch` trajectory segments of length `rollout_h` sampled
    uniformly with replacement over (trajectory, start index). Override with
    steps_per_epoch. RMSprop with decay 0.99 and eps 1e-8, no momentum.
    """

    epochs: int = 200
    batch: int = 20
    rollout_h: int = 10
    lr: float = 1e-3
    optimizer: str = "rmsprop"
    seed: int = 0
    method: str = "rk4"
    rms_decay: float = 0.99
    rms_eps: float = 1e-8
    steps_per_epoch: int | None = None


def _taped_rollout(tape, mlp, s0_batch, action_batch, dt, n_state, method):
    """One integrator step for a batch of states on the tape.

    s0_batch (n, B), action_batch (m, B) held constant over the step.
    """

    def field(s_node, a):
        return tape.affine_field(mlp(s_node), a, n_state)

    s = s0_batch
    if method == "euler":
        k1 = field(s, action_batch)
        return tape.add(s, tape.scale(k1, dt))
    k1 = field(s, action_batch)
    k2 = field(tape.add(s, tape.scale(k1, 0.5 * dt)), action_batch)
    k3 = field(tape.add(s, tape.scale(k2, 0.5 * dt)), action_batch)
    k4 = field(tape.add(s, tape.scale(k3, dt)), action_batch)
    incr = tape.add(tape.add(k1, tape.scale(tape.add(k2, k3), 2.0)), k4)
    return tape.add(s, tape.scale(incr, dt / 6.0))


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
    if cfg.optimizer != "rmsprop":
        raise ValueError(f"unsupported optimizer {cfg.optimizer!r}")

    rng = np.random.default_rng(cfg.seed)
    params = model.params.copy()
    arrs = params.arrays()
    sq_avg = [np.zeros_like(a) for a in arrs]
    n_transitions = sum(len(d.actions) for d in demos)
    steps = cfg.steps_per_epoch or max(1, round(n_transitions / (cfg.batch * h)))
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

            tape = Tape()
            mlp = TapedMlp(tape, params)
            s = tape.const(s_batch[0])
            loss_node = None
            for t in range(h):
                s = _taped_rollout(tape, mlp, s, a_batch[t], dt, n, cfg.method)
                err = tape.sum_abs(tape.sub(s, tape.const(s_batch[t + 1])))
                loss_node = err if loss_node is None else tape.add(loss_node, err)
            loss_node = tape.scale(loss_node, 1.0 / (b * h))
            loss = float(loss_node.value)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            grads = backward(tape, loss_node)
            for arr, node, acc in zip(arrs, mlp.param_nodes(), sq_avg):
                g = grads[node.index]
                acc *= cfg.rms_decay
                acc += (1.0 - cfg.rms_decay) * g * g
                arr -= cfg.lr * g / (np.sqrt(acc) + cfg.rms_eps)
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


def _one_step_errors(model, S, A, S_next, dt, method: str = "rk4"):
    """Per-coordinate absolute errors of B transitions (S, A) -> S_next, each
    (B, n): of the field against the forward difference (S_next - S)/dt, and
    of one integrator step of size dt from the true state S. Every field
    evaluation is one drift_and_gain_batch call over the whole batch."""
    stepper = _stepper(method)

    def field(X, U):
        f, g = model.drift_and_gain_batch(X)
        return f + (g @ U[:, :, None])[:, :, 0]

    S = np.asarray(S, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    S_next = np.asarray(S_next, dtype=np.float64)
    d_err = np.abs((S_next - S) / dt - field(S, A))
    s_err = np.abs(S_next - stepper(field, S, A, dt))
    return d_err, s_err


@dataclass
class UncertaintyBounds:
    """Worst-case L1 model errors: e_sdot on the predicted derivative
    (state-units/s) and e_s on the one-step integration (state units), with
    coordinate-wise variants. Each scalar is the max over the transitions seen.

    Provenance, set by quantify_uncertainty: n_trajectories held-out
    trajectories were evaluated, and e_sdot_at / e_s_at give the (trajectory,
    t) attaining each bound, trajectory indexing the evaluated list. An online
    update that raises a bound clears its location."""

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

    def update_online(self, model: NeuralOdeModel, s, a, s_next, method="rk4"):
        """Running-max update from one executed transition (the online mode)."""
        d_err, s_err = _one_step_errors(
            model, np.atleast_2d(s), np.atleast_2d(a), np.atleast_2d(s_next), model.dt, method
        )
        d_err, s_err = d_err[0], s_err[0]
        if d_err.sum() > self.e_sdot:
            self.e_sdot, self.e_sdot_at = float(d_err.sum()), None
        if s_err.sum() > self.e_s:
            self.e_s, self.e_s_at = float(s_err.sum()), None
        if self.per_dim_sdot.size:
            np.maximum(self.per_dim_sdot, d_err, out=self.per_dim_sdot)
            np.maximum(self.per_dim_s, s_err, out=self.per_dim_s)
        return self

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


def quantify_uncertainty(
    model: NeuralOdeModel, eval_demos: list[Demonstration], method: str = "rk4"
) -> UncertaintyBounds:
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

    Raises ValueError on an empty evaluation set and on a method other than
    "rk4" or "euler".
    """
    if not eval_demos:
        raise ValueError("evaluation set is empty")
    _stepper(method)
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
        d_err, s_err = _one_step_errors(model, d.states[:-1], d.actions, d.states[1:], d.dt, method)
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
