"""The one-hidden-layer GELU MLP, its serialization, and a reverse-mode tape.

Values are float64 numpy arrays throughout (scalars are 0-d arrays). A Tape
records operations in construction order; backward() walks the node list in
reverse exactly once, accumulating vector-Jacobian products. Node values may
carry a trailing batch dimension, so one tape can differentiate a whole
minibatch rollout at once.

dynamics._rollout_loss_and_grad computes the rollout gradient in one fused
pass with the float64 operations the tape would perform. The tape and
TapedMlp are the tests' reference for that gradient, and the benchmark tracer
wraps dynamics' imported name `backward`.

Conventions fixed here and pinned by the tests:
- GELU is the tanh approximation, with its exact analytic derivative.
- The L1 subgradient at 0 is 0 (midpoint of [-1, 1]).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715


class DimensionError(ValueError):
    """Shape mismatch in a tape or MLP operation."""


def gelu_value_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU 0.5*x*(1 + tanh(c*(x + a*x^3))) and its exact
    analytic derivative, sharing the single tanh evaluation.

    x is a float64 array of any shape but 0-d. The derivative is
    0.5*(1 + t) + 0.5*x*(1 - t^2)*c*(1 + 3*a*x^2) with t the tanh; 1 + t and
    0.5*x are formed once and temporaries are reused in place, each product
    in the operand order of that expression written out left to right, so
    every element rounds as in the unfused expression."""
    x2 = x * x
    t = GELU_A * x2
    t += 1.0
    cx = GELU_C * x
    t *= cx
    np.tanh(t, out=t)
    half_x = np.multiply(x, 0.5, out=cx)
    one_t = 1.0 + t
    val = half_x * one_t
    t *= t
    np.subtract(1.0, t, out=t)
    t *= half_x
    t *= GELU_C
    x2 *= 3.0 * GELU_A
    x2 += 1.0
    t *= x2
    one_t *= 0.5
    one_t += t
    return val, one_t


def gelu(x: np.ndarray) -> np.ndarray:
    """0.5*x*(1 + tanh(c*x*(1 + a*x^2))), in place on the same operands: bitwise."""
    t = x * x
    t *= GELU_A
    t += 1.0
    t *= GELU_C * x
    t = np.tanh(t)
    t += 1.0
    t *= 0.5 * x
    return t


@dataclass
class Node:
    """One recorded value. parents holds (parent, vjp) pairs where vjp maps
    this node's adjoint to the parent's adjoint contribution."""

    value: np.ndarray
    parents: tuple = ()
    index: int = -1
    is_param: bool = False


class Tape:
    """Single-owner operation recorder. Nodes are appended in topological
    order by construction; backward() visits each node exactly once."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _register(self, node: Node) -> Node:
        node.index = len(self.nodes)
        self.nodes.append(node)
        return node

    def _wrap(self, value) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite value entering the tape")
        return arr

    def param(self, value) -> Node:
        """Leaf node flagged as a parameter; backward() reports its gradient."""
        return self._register(Node(self._wrap(value), is_param=True))

    def const(self, value) -> Node:
        """Leaf node with no gradient (gradient of a constant is zero)."""
        return self._register(Node(self._wrap(value)))

    # -- elementwise / linear ops -------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add: shapes {a.value.shape} vs {b.value.shape}")
        return self._register(
            Node(a.value + b.value, ((a, lambda g: g), (b, lambda g: g)))
        )

    def sub(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"sub: shapes {a.value.shape} vs {b.value.shape}")
        return self._register(
            Node(a.value - b.value, ((a, lambda g: g), (b, lambda g: -g)))
        )

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"mul: shapes {a.value.shape} vs {b.value.shape}")
        av, bv = a.value, b.value
        return self._register(
            Node(av * bv, ((a, lambda g: g * bv), (b, lambda g: g * av)))
        )

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self._register(Node(a.value * c, ((a, lambda g: g * c),)))

    def matmul(self, w: Node, x: Node) -> Node:
        """w @ x with w (m,n) and x (n,) or (n,B)."""
        wv, xv = w.value, x.value
        if wv.ndim != 2 or wv.shape[1] != xv.shape[0]:
            raise DimensionError(f"matmul: {wv.shape} @ {xv.shape}")
        if xv.ndim == 1:
            return self._register(
                Node(wv @ xv, ((w, lambda g: np.outer(g, xv)), (x, lambda g: wv.T @ g)))
            )
        return self._register(
            Node(wv @ xv, ((w, lambda g: g @ xv.T), (x, lambda g: wv.T @ g)))
        )

    def add_bias(self, x: Node, b: Node) -> Node:
        """x + b with b broadcast over a trailing batch dimension if present."""
        xv, bv = x.value, b.value
        if bv.shape[0] != xv.shape[0]:
            raise DimensionError(f"add_bias: {xv.shape} + {bv.shape}")
        if xv.ndim == 1:
            return self._register(
                Node(xv + bv, ((x, lambda g: g), (b, lambda g: g)))
            )
        return self._register(
            Node(xv + bv[:, None], ((x, lambda g: g), (b, lambda g: g.sum(axis=1))))
        )

    def gelu(self, x: Node) -> Node:
        val, grad = gelu_value_grad(x.value)
        return self._register(Node(val, ((x, lambda g: g * grad),)))

    # -- reductions ----------------------------------------------------------

    def sum(self, x: Node) -> Node:
        xv = x.value
        return self._register(
            Node(np.asarray(xv.sum()), ((x, lambda g: g * np.ones_like(xv)),))
        )

    def sum_abs(self, x: Node) -> Node:
        """L1 mass of all entries; subgradient at 0 resolved to 0 via sign()."""
        xv = x.value
        return self._register(
            Node(np.asarray(np.abs(xv).sum()), ((x, lambda g: g * np.sign(xv)),))
        )

    def affine_field(self, mlp_out: Node, actions: np.ndarray, n_state: int) -> Node:
        """Split an MLP output stacked as [drift; gain rows] and contract the
        gain with a constant action: out[i] = f[i] + sum_j G[i,j]*a[j].

        mlp_out is (n_state*(1+n_action),) or (..., B); actions is (n_action,)
        or (n_action, B) and is treated as a constant (no gradient w.r.t. a).
        """
        ov = mlp_out.value
        a = np.asarray(actions, dtype=np.float64)
        single = ov.ndim == 1
        o2 = ov[:, None] if single else ov
        a2 = a[:, None] if a.ndim == 1 else a
        n_action = a2.shape[0]
        if o2.shape[0] != n_state * (1 + n_action):
            raise DimensionError(
                f"affine_field: output rows {o2.shape[0]} != "
                f"{n_state}*(1+{n_action})"
            )
        f = o2[:n_state]
        gmat = o2[n_state:].reshape(n_state, n_action, -1)
        val = f + np.einsum("ijb,jb->ib", gmat, a2)

        def vjp(g):
            g2 = g[:, None] if g.ndim == 1 else g
            out = np.empty_like(o2)
            out[:n_state] = g2
            out[n_state:] = (g2[:, None, :] * a2[None, :, :]).reshape(
                n_state * n_action, -1
            )
            return out[:, 0] if single else out

        return self._register(Node(val[:, 0] if single else val, ((mlp_out, vjp),)))


def backward(tape: Tape, output: Node) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar output node.

    Returns {node.index: gradient} for every parameter node on the tape
    (zero-filled for parameters the output does not depend on).
    """
    if output.value.ndim != 0:
        raise ValueError(f"backward: output must be scalar, got shape {output.value.shape}")
    adjoint: dict[int, np.ndarray] = {output.index: np.asarray(1.0)}
    grads = {n.index: np.zeros_like(n.value) for n in tape.nodes if n.is_param}
    for node in reversed(tape.nodes[: output.index + 1]):
        g = adjoint.pop(node.index, None)
        if g is None:
            continue
        if node.is_param:
            grads[node.index] += g
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            if parent.index in adjoint:
                adjoint[parent.index] = adjoint[parent.index] + contrib
            else:
                adjoint[parent.index] = np.array(contrib, dtype=np.float64, copy=True)
    return grads


# -- MLP ----------------------------------------------------------------------


@dataclass
class MlpParams:
    """One-hidden-layer MLP: out = w2 @ gelu(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    seed: int = 0

    @property
    def layer_dims(self) -> tuple[int, int, int]:
        return (self.w1.shape[1], self.w1.shape[0], self.w2.shape[0])

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.seed
        )

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


def init_mlp(n_in: int, n_hidden: int, n_out: int, seed: int = 0) -> MlpParams:
    """Glorot-uniform weights, zero biases, from a private PCG64 stream."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n_in + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_out))
    return MlpParams(
        w1=rng.uniform(-lim1, lim1, size=(n_hidden, n_in)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-lim2, lim2, size=(n_out, n_hidden)),
        b2=np.zeros(n_out),
        seed=seed,
    )


def forward_mlp(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the MLP on the columns of x (n_in, B); returns (n_out, B)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != params.w1.shape[1]:
        # a 1-D x would broadcast against the bias columns into garbage
        raise DimensionError(f"forward_mlp: input shape {x.shape} != ({params.w1.shape[1]}, B)")
    return params.w2 @ gelu(params.w1 @ x + params.b1[:, None]) + params.b2[:, None]


class TapedMlp:
    """MLP whose parameters are registered once on a tape, so repeated calls
    (e.g. every integrator stage of a rollout) share the same param nodes."""

    def __init__(self, tape: Tape, params: MlpParams):
        self.tape = tape
        self.w1 = tape.param(params.w1)
        self.b1 = tape.param(params.b1)
        self.w2 = tape.param(params.w2)
        self.b2 = tape.param(params.b2)

    def __call__(self, x: Node) -> Node:
        t = self.tape
        h = t.gelu(t.add_bias(t.matmul(self.w1, x), self.b1))
        return t.add_bias(t.matmul(self.w2, h), self.b2)

    def param_nodes(self) -> list[Node]:
        return [self.w1, self.b1, self.w2, self.b2]


# -- serialization -------------------------------------------------------------
#
# Wire format: 8-byte little-endian header length, JSON header
# {"layer_dims": [in, hidden, out], "activation": "gelu_tanh", "seed": n, ...},
# then the parameters as one flat little-endian float64 array in
# (w1, b1, w2, b2) row-major order. Round-trips bit-exactly.

ACTIVATION_NAME = "gelu_tanh"


def save_mlp(path, params: MlpParams, extra: dict | None = None) -> None:
    n_in, n_hidden, n_out = params.layer_dims
    header = {
        "layer_dims": [n_in, n_hidden, n_out],
        "activation": ACTIVATION_NAME,
        "seed": params.seed,
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    flat = np.concatenate([a.ravel() for a in params.arrays()]).astype("<f8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(flat.tobytes())


def load_mlp(path) -> tuple[MlpParams, dict]:
    with open(path, "rb") as f:
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
        flat = np.frombuffer(f.read(), dtype="<f8").astype(np.float64)
    if header.get("activation") != ACTIVATION_NAME:
        raise ValueError(f"unsupported activation {header.get('activation')!r}")
    n_in, n_hidden, n_out = header["layer_dims"]
    sizes = [n_hidden * n_in, n_hidden, n_out * n_hidden, n_out]
    if flat.size != sum(sizes):
        raise ValueError(f"blob has {flat.size} doubles, expected {sum(sizes)}")
    offs = np.cumsum([0] + sizes)
    params = MlpParams(
        w1=flat[offs[0] : offs[1]].reshape(n_hidden, n_in).copy(),
        b1=flat[offs[1] : offs[2]].copy(),
        w2=flat[offs[2] : offs[3]].reshape(n_out, n_hidden).copy(),
        b2=flat[offs[3] : offs[4]].copy(),
        seed=int(header["seed"]),
    )
    return params, header
