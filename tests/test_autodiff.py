import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safectl.autodiff import (
    GELU_A,
    GELU_C,
    DimensionError,
    MlpParams,
    Tape,
    TapedMlp,
    backward,
    forward_mlp,
    gelu,
    gelu_value_grad,
    init_mlp,
    load_mlp,
    save_mlp,
)


def test_zero_weights_give_zero_output():
    p = MlpParams(w1=np.zeros((8, 3)), b1=np.zeros(8), w2=np.zeros((4, 8)), b2=np.zeros(4))
    for x in (np.zeros(3), np.ones(3), np.array([-2.0, 5.0, 0.1])):
        assert np.array_equal(forward_mlp(p, x[:, None]), np.zeros((4, 1)))


def test_identity_layer_applies_gelu_elementwise():
    # identity-like config: out = I @ gelu(I @ x + 0) + 0
    p = MlpParams(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2))
    x = np.array([1.0, 2.0])
    assert np.allclose(forward_mlp(p, x[:, None])[:, 0], gelu(x), atol=0, rtol=0)
    assert gelu(np.array(0.0)) == 0.0  # exactly


def test_forward_matches_straightline_recompute():
    # independent straight-line oracle, no tape involved
    rng = np.random.default_rng(11)
    for seed in range(5):
        p = init_mlp(4, 16, 6, seed=seed)
        x = rng.normal(size=4)
        h_pre = p.w1 @ x + p.b1
        inner = np.sqrt(2.0 / np.pi) * (h_pre + 0.044715 * h_pre**3)
        h = 0.5 * h_pre * (1.0 + np.tanh(inner))
        expected = p.w2 @ h + p.b2
        assert np.max(np.abs(forward_mlp(p, x[:, None])[:, 0] - expected)) < 1e-12
        tape = Tape()
        node = TapedMlp(tape, p)(tape.const(x))
        assert np.max(np.abs(node.value - expected)) < 1e-12


def test_backward_square():
    tape = Tape()
    x = tape.param(np.array(3.0))
    y = tape.mul(x, x)
    grads = backward(tape, y)
    assert grads[x.index] == pytest.approx(6.0, abs=1e-14)


def test_backward_l1_subgradient():
    tape = Tape()
    x = tape.param(np.array([1.0, -2.0]))
    y = tape.sum_abs(x)
    grads = backward(tape, y)
    assert np.array_equal(grads[x.index], np.array([1.0, -1.0]))
    # tie at zero resolves to 0
    tape2 = Tape()
    x2 = tape2.param(np.array([0.0, -1.0]))
    g2 = backward(tape2, tape2.sum_abs(x2))
    assert np.array_equal(g2[x2.index], np.array([0.0, -1.0]))


def _mlp_l1_loss(params: MlpParams, x, target, tape: Tape | None = None):
    if tape is None:
        return float(np.abs(forward_mlp(params, x[:, None])[:, 0] - target).sum())
    mlp = TapedMlp(tape, params)
    out = mlp(tape.const(x))
    return mlp, tape.sum_abs(tape.sub(out, tape.const(target)))


def test_mlp_gradient_vs_central_differences():
    # central-difference oracle, eps=1e-5, over 20 random parameter draws
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        p = init_mlp(3, 8, 4, seed=trial)
        x = rng.normal(size=3)
        target = rng.normal(size=4)
        tape = Tape()
        mlp, loss = _mlp_l1_loss(p, x, target, tape)
        grads = backward(tape, loss)
        eps = 1e-5
        for arr, node in zip(p.arrays(), mlp.param_nodes()):
            flat = arr.ravel()
            idx = rng.integers(0, flat.size, size=min(6, flat.size))
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up = _mlp_l1_loss(p, x, target)
                flat[i] = orig - eps
                dn = _mlp_l1_loss(p, x, target)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                g = grads[node.index].ravel()[i]
                rel = abs(fd - g) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-4


def test_gradient_determinism_bitwise():
    def run():
        p = init_mlp(4, 16, 5, seed=7)
        tape = Tape()
        mlp, loss = _mlp_l1_loss(p, np.arange(4.0), np.ones(5), tape)
        grads = backward(tape, loss)
        return [grads[n.index].copy() for n in mlp.param_nodes()]

    a, b = run(), run()
    for ga, gb in zip(a, b):
        assert np.array_equal(ga, gb)


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alpha, beta = rng.normal(size=2)
        tape = Tape()
        x = tape.param(rng.normal(size=5))
        f = tape.sum_abs(x)
        g = tape.sum(tape.mul(x, x))
        comb = tape.add(tape.scale(f, alpha), tape.scale(g, beta))
        gf = backward(tape, f)[x.index]
        gg = backward(tape, g)[x.index]
        gc = backward(tape, comb)[x.index]
        assert np.max(np.abs(gc - (alpha * gf + beta * gg))) < 1e-12


def test_backward_requires_scalar_output():
    tape = Tape()
    x = tape.param(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, x)


def test_forward_dimension_error_names_dims():
    p = init_mlp(3, 8, 2, seed=0)
    with pytest.raises(DimensionError, match="4.*3|3.*4"):
        forward_mlp(p, np.zeros((4, 2)))
    with pytest.raises(DimensionError, match=r"\(3,\).*\(3, B\)"):
        forward_mlp(p, np.zeros(3))  # one point is a (3, 1) column, not (3,)


def test_serialization_roundtrip_bitexact(tmp_path):
    p = init_mlp(4, 64, 20, seed=42)
    p.w1[0, 0] = np.nextafter(p.w1[0, 0], 1.0)  # perturb one ulp to catch rounding
    path = tmp_path / "params.bin"
    save_mlp(path, p, extra={"n_state": 4})
    q, header = load_mlp(path)
    for a, b in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b)
    assert header["layer_dims"] == [4, 64, 20]
    assert header["activation"] == "gelu_tanh"
    assert header["seed"] == 42
    assert header["n_state"] == 4
    # second round trip is byte-identical
    path2 = tmp_path / "params2.bin"
    save_mlp(path2, q, extra={"n_state": 4})
    assert path.read_bytes() == path2.read_bytes()


def test_constant_has_zero_gradient():
    tape = Tape()
    x = tape.param(np.array([2.0]))
    c = tape.const(np.array([5.0]))
    y = tape.sum(tape.mul(x, c))
    grads = backward(tape, y)
    assert np.array_equal(grads[x.index], np.array([5.0]))
    assert c.index not in grads  # constants carry no gradient entry


def gelu_value_grad_unfused(x):
    """gelu_value_grad as one expression per output, before its temporaries
    were shared and reused in place."""
    x2 = x * x
    t = np.tanh(GELU_C * x * (1.0 + GELU_A * x2))
    val = 0.5 * x * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x2)
    return val, grad


def assert_gelu_matches_unfused(x):
    before = x.copy()
    val, grad = gelu_value_grad(x)
    ref_val, ref_grad = gelu_value_grad_unfused(x)
    assert val.tobytes() == ref_val.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert x.tobytes() == before.tobytes()  # the input is not written


def test_gelu_value_grad_is_bitwise_the_unfused_expression():
    # magnitudes 1e-8..1e3 of both signs, signed zeros, and the tails past
    # |x| ~ 5 where tanh rounds to exactly +-1
    mags = np.logspace(-8, 3, 221)
    x = np.concatenate([mags, -mags, [0.0, -0.0, 5.0, -5.0, 19.0, -19.0, 1e3, -1e3]])
    assert_gelu_matches_unfused(x)
    assert_gelu_matches_unfused(x.reshape(-1, 3))
    assert np.all(gelu_value_grad(np.array([30.0, -30.0]))[1] == [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_gelu_value_grad_bitwise_on_random_arrays(x):
    assert_gelu_matches_unfused(x)
