import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safectl import dynamics as dyn
from safectl.autodiff import Tape, TapedMlp, backward
from safectl.dynamics import (
    AffineModel,
    Demonstration,
    NeuralOdeModel,
    TrainConfig,
    TrainingDiverged,
    UncertaintyBounds,
    integrate,
    quantify_uncertainty,
)


def linear_demos(rng, field, n_traj, steps=20, n=2, act_scale=0.3, state_scale=0.5, dt=0.1):
    demos = []
    for _ in range(n_traj):
        s0 = rng.uniform(-state_scale, state_scale, n)
        acts = rng.uniform(-act_scale, act_scale, size=(steps, n))
        demos.append(Demonstration(states=integrate(field, s0, acts, dt), actions=acts, dt=dt))
    return demos


class TestEvalField:
    def test_zero_params_zero_field(self):
        model = NeuralOdeModel(
            n_state=2, n_action=2, hidden=4,
            params=dyn.MlpParams(w1=np.zeros((4, 2)), b1=np.zeros(4),
                                 w2=np.zeros((6, 4)), b2=np.zeros(6)),
        )
        for _ in range(5):
            assert np.array_equal(model.field(np.ones(2), np.ones(2)), np.zeros(2))

    def test_zero_action_returns_drift(self):
        model = NeuralOdeModel.create(3, 2, hidden=8, seed=1)
        s = np.array([0.3, -0.1, 0.2])
        f, _ = model.drift_and_gain(s)
        assert np.array_equal(model.field(s, np.zeros(2)), f)

    def test_affine_in_action(self):
        rng = np.random.default_rng(0)
        model = NeuralOdeModel.create(3, 3, hidden=16, seed=2)
        for _ in range(20):
            s = rng.normal(size=3)
            a1, a2 = rng.normal(size=3), rng.normal(size=3)
            base = model.field(s, np.zeros(3))
            lhs = model.field(s, a1 + a2) - base
            rhs = (model.field(s, a1) - base) + (model.field(s, a2) - base)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        model = NeuralOdeModel.create(3, 2, seed=0)
        with pytest.raises(ValueError):
            model.field(np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError):
            model.field(np.zeros(3), np.zeros(3))


class TestIntegrate:
    def test_rk4_one_step_exponential(self):
        # sdot = -s from s0 = 1: rk4 with dt=0.1 gives the Taylor sum 0.9048375
        out = integrate(lambda s, a: -s, np.array([1.0]), np.zeros((1, 1)), dt=0.1)
        assert out[-1, 0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(out[-1, 0] - np.exp(-0.1)) < 1e-6

    def test_zero_field_constant_trajectory(self):
        out = integrate(lambda s, a: 0.0 * s, np.array([0.3, -0.2]), np.zeros((7, 2)), dt=0.1)
        assert np.array_equal(out, np.tile([0.3, -0.2], (8, 1)))

    def test_convergence_orders(self):
        # halving dt: euler error ~2x smaller, rk4 ~16x, over a fixed span
        def global_err(method, dt):
            n = int(round(1.0 / dt))
            s = integrate(lambda s, a: -s, np.array([1.0]), np.zeros((n, 1)), dt=dt, method=method)
            return abs(s[-1, 0] - np.exp(-1.0))

        euler_ratio = global_err("euler", 0.1) / global_err("euler", 0.05)
        rk4_ratio = global_err("rk4", 0.1) / global_err("rk4", 0.05)
        assert 1.8 <= euler_ratio <= 2.2
        assert 12.0 <= rk4_ratio <= 20.0

    def test_nonfinite_state_names_step(self):
        # overflow inside the very first rk4 stage -> error names step 0
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="step 0"):
            integrate(lambda s, a: s * 1e300, np.array([1.0]), np.zeros((10, 1)), dt=1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            integrate(lambda s, a: -s, np.array([1.0]), np.zeros((1, 1)), dt=0.1, method="rk2")


class TestDemonstration:
    def test_validation(self):
        with pytest.raises(ValueError, match="actions"):
            Demonstration(states=np.zeros((3, 2)), actions=np.zeros((3, 2)), dt=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            Demonstration(states=np.array([[0.0, np.nan], [0, 0]]), actions=np.zeros((1, 2)), dt=0.1)

    def test_jsonl_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        demos = linear_demos(rng, lambda s, a: a, 3, steps=5)
        path = tmp_path / "demos.jsonl"
        dyn.save_demos(path, demos)
        loaded = dyn.load_demos(path)
        assert len(loaded) == 3
        for a, b in zip(demos, loaded):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert a.dt == b.dt
        # rewriting the loaded demos is byte-identical
        path2 = tmp_path / "demos2.jsonl"
        dyn.save_demos(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


class TestTrain:
    def test_linear_system_loss_drops_below_tenth(self):
        rng = np.random.default_rng(0)
        A = np.array([[0.0, 0.2], [-0.2, 0.0]])
        B = np.array([[1.0, 0.1], [0.0, 0.9]])
        demos = linear_demos(rng, lambda s, a: A @ s + B @ a, 30)
        model = NeuralOdeModel.create(2, 2, hidden=32, dt=0.1, seed=0)
        trained, losses = dyn.train(model, demos, TrainConfig(epochs=120, seed=0))
        assert losses[-1] < 0.1 * losses[0]

    def test_constant_trajectory_zero_actions_fits_zero_drift(self):
        states = np.tile([0.3, -0.1], (31, 1))
        demo = Demonstration(states=states, actions=np.zeros((30, 2)), dt=0.1)
        model = NeuralOdeModel.create(2, 2, hidden=16, dt=0.1, seed=3)
        # smaller lr than the default: the RMSprop step size sets the loss
        # floor, and this degenerate target needs a tight fit; the 30-step
        # demo gives one gradient step per epoch
        trained, losses = dyn.train(model, [demo], TrainConfig(epochs=1000, lr=3e-4, seed=0))
        assert losses[-4:].mean() < 1e-3
        assert np.abs(trained.field(np.array([0.3, -0.1]), np.zeros(2))).sum() < 5e-2

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(1)
        demos = linear_demos(rng, lambda s, a: a, 10)
        model = NeuralOdeModel.create(2, 2, hidden=8, seed=0)
        _, l1 = dyn.train(model, demos, TrainConfig(epochs=10, seed=5))
        _, l2 = dyn.train(model, demos, TrainConfig(epochs=10, seed=5))
        assert np.array_equal(l1, l2)

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(2)
        demos = linear_demos(rng, lambda s, a: a, 5)
        model = NeuralOdeModel.create(2, 2, hidden=8, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
            dyn.train(model, demos, TrainConfig(epochs=5, lr=1e18, seed=0))

    def test_rejects_short_trajectories_and_empty_sets(self):
        model = NeuralOdeModel.create(2, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            dyn.train(model, [], TrainConfig())
        short = Demonstration(states=np.zeros((5, 2)), actions=np.zeros((4, 2)), dt=0.1)
        with pytest.raises(ValueError, match="rollout_h"):
            dyn.train(model, [short], TrainConfig(rollout_h=10))


class TestUncertainty:
    def test_perfect_model_zero_state_error(self):
        # eval data generated by the model's own one-step integrator
        model = AffineModel(A=np.array([[0.0, 0.1], [-0.1, 0.0]]), B=np.eye(2))
        rng = np.random.default_rng(0)
        acts = rng.uniform(-0.2, 0.2, size=(20, 2))
        states = integrate(model.field, np.array([0.5, -0.5]), acts, 0.1)
        demo = Demonstration(states=states, actions=acts, dt=0.1)
        bounds = quantify_uncertainty(model, [demo])
        assert bounds.e_s <= 1e-12

    def test_constant_drift_offset_recovered_exactly(self):
        # zero-field data; model drift offset by c in one coordinate -> e_sdot = |c|
        c = 0.37
        model = AffineModel(A=np.zeros((3, 3)), B=np.zeros((3, 3)), c=np.array([0.0, c, 0.0]))
        states = np.tile([0.1, 0.2, 0.3], (11, 1))
        demo = Demonstration(states=states, actions=np.zeros((10, 3)), dt=0.1)
        bounds = quantify_uncertainty(model, [demo])
        assert bounds.e_sdot == pytest.approx(c, abs=1e-12)
        assert np.allclose(bounds.per_dim_sdot, [0.0, c, 0.0], atol=1e-12)

    def test_bounds_monotone_in_eval_set(self):
        rng = np.random.default_rng(1)
        model = AffineModel.integrator(2)
        demos = linear_demos(rng, lambda s, a: a + 0.01, 6)
        prev = UncertaintyBounds(0.0, 0.0)
        for k in range(1, 7):
            b = quantify_uncertainty(model, demos[:k])
            assert b.e_sdot >= prev.e_sdot - 1e-15
            assert b.e_s >= prev.e_s - 1e-15
            prev = b

    def test_per_transition_errors_bounded_by_max(self):
        # Theorem precondition: every held-out transition error <= the bound
        rng = np.random.default_rng(2)
        model = AffineModel(A=np.zeros((2, 2)), B=0.9 * np.eye(2))
        demos = linear_demos(rng, lambda s, a: a, 5)
        bounds = quantify_uncertainty(model, demos)
        for d in demos:
            for t in range(len(d.actions)):
                sdot_star = (d.states[t + 1] - d.states[t]) / d.dt
                err = np.abs(sdot_star - model.field(d.states[t], d.actions[t])).sum()
                assert err <= bounds.e_sdot + 1e-12

    def test_empty_eval_set(self):
        with pytest.raises(ValueError, match="empty"):
            quantify_uncertainty(AffineModel.integrator(2), [])

    def test_roundtrip_dict(self):
        b = UncertaintyBounds(e_sdot=0.1, e_s=0.02,
                              per_dim_sdot=np.array([0.1, 0.05]),
                              per_dim_s=np.array([0.02, 0.01]),
                              n_trajectories=20, e_sdot_at=(3, 17), e_s_at=(0, 4))
        d = b.to_dict()
        assert d["coverage"] == pytest.approx(20 / 21)
        assert d["e_sdot_at"] == {"trajectory": 3, "t": 17}
        b2 = UncertaintyBounds.from_dict(json.loads(json.dumps(d)))
        assert b2.e_sdot == b.e_sdot and b2.e_s == b.e_s
        assert np.array_equal(b2.per_dim_sdot, b.per_dim_sdot)
        assert np.array_equal(b2.per_dim_s, b.per_dim_s)
        assert (b2.n_trajectories, b2.e_sdot_at, b2.e_s_at) == (20, (3, 17), (0, 4))
        assert b2.to_dict() == d

    def test_dict_without_provenance_keys_loads(self):
        # bound files written before n_trajectories/coverage/*_at existed
        old = {"e_sdot": 0.1, "e_s": 0.02, "per_dim_sdot": [0.1], "per_dim_s": [0.02]}
        b = UncertaintyBounds.from_dict(old)
        assert (b.e_sdot, b.e_s) == (0.1, 0.02)
        assert (b.n_trajectories, b.coverage, b.e_sdot_at, b.e_s_at) == (0, None, None, None)


def reference_quantify(model, demos):
    """Per-transition loop: the errors of every (trajectory, t) one at a time,
    with single-point field calls and the single-state rk4 step."""
    e_sdot = e_s = 0.0
    at_sdot = at_s = None
    pd_sdot = np.zeros(model.n_state)
    pd_s = np.zeros(model.n_state)
    for i, d in enumerate(demos):
        for t in range(len(d.actions)):
            s, a, s_next = d.states[t], d.actions[t], d.states[t + 1]
            d_err = np.abs((s_next - s) / d.dt - model.field(s, a))
            s_err = np.abs(s_next - dyn._step_rk4(model.field, s, a, d.dt))
            if at_sdot is None or d_err.sum() > e_sdot:
                e_sdot, at_sdot = float(d_err.sum()), (i, t)
            if at_s is None or s_err.sum() > e_s:
                e_s, at_s = float(s_err.sum()), (i, t)
            np.maximum(pd_sdot, d_err, out=pd_sdot)
            np.maximum(pd_s, s_err, out=pd_s)
    return e_sdot, e_s, pd_sdot, pd_s, at_sdot, at_s


def random_demos(rng, n, m, lengths, dts):
    demos = []
    for T, dt in zip(lengths, dts):
        actions = rng.uniform(-0.5, 0.5, size=(T, m))
        steps = dt * rng.uniform(-0.5, 0.5, size=(T, n))
        states = np.cumsum(np.vstack([rng.uniform(-1, 1, n), steps]), axis=0)
        demos.append(Demonstration(states=states, actions=actions, dt=dt))
    return demos


class TestBatchedQuantifyMatchesPerTransitionReference:
    RTOL = 1e-12

    def check(self, model, demos):
        b = quantify_uncertainty(model, demos)
        e_sdot, e_s, pd_sdot, pd_s, at_sdot, at_s = reference_quantify(model, demos)
        assert b.e_sdot == pytest.approx(e_sdot, rel=self.RTOL, abs=0)
        assert b.e_s == pytest.approx(e_s, rel=self.RTOL, abs=0)
        np.testing.assert_allclose(b.per_dim_sdot, pd_sdot, rtol=self.RTOL, atol=0)
        np.testing.assert_allclose(b.per_dim_s, pd_s, rtol=self.RTOL, atol=0)
        assert b.n_trajectories == len(demos)
        # the reported location attains the bound (ties may pick either)
        for at, bound, kind in ((b.e_sdot_at, b.e_sdot, "sdot"), (b.e_s_at, b.e_s, "s")):
            i, t = at
            d = demos[i]
            one = reference_quantify(model, [Demonstration(d.states[t : t + 2], d.actions[t : t + 1],
                                                           d.dt)])
            assert (one[0] if kind == "sdot" else one[1]) == pytest.approx(bound, rel=self.RTOL)
        return b, (at_sdot, at_s)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           hidden=st.integers(1, 16))
    def test_neural_ode_model(self, seed, lengths, hidden):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = NeuralOdeModel.create(n, m, hidden=hidden, seed=int(rng.integers(0, 1000)))
        dts = rng.choice([0.05, 0.1, 0.2], size=len(lengths))
        self.check(model, random_demos(rng, n, m, lengths, dts))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5))
    def test_affine_model(self, seed, lengths):
        rng = np.random.default_rng(seed)
        n, m = 3, 2
        model = AffineModel(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)),
                            c=rng.normal(size=n))
        dts = rng.uniform(0.01, 0.3, size=len(lengths))
        self.check(model, random_demos(rng, n, m, lengths, dts))

    def test_location_is_the_earliest_maximum(self):
        # identical trajectories: every bound is attained in each of them
        rng = np.random.default_rng(5)
        model = NeuralOdeModel.create(3, 3, hidden=8, seed=1)
        demo = random_demos(rng, 3, 3, [12], [0.1])[0]
        b, ref_at = self.check(model, [demo, demo, demo])
        assert (b.e_sdot_at, b.e_s_at) == ref_at
        assert b.e_sdot_at[0] == 0 and b.e_s_at[0] == 0

    def test_demo_without_transitions_is_skipped(self):
        rng = np.random.default_rng(6)
        model = AffineModel.integrator(2)
        demos = random_demos(rng, 2, 2, [5], [0.1])
        empty = Demonstration(states=np.zeros((1, 2)), actions=np.zeros((0, 2)), dt=0.1)
        b = quantify_uncertainty(model, [empty] + demos)
        ref = quantify_uncertainty(model, demos)
        assert (b.e_sdot, b.e_s) == (ref.e_sdot, ref.e_s)
        assert b.e_sdot_at == (1, ref.e_sdot_at[1]) and b.n_trajectories == 2


class TestPositionModel:
    def test_slice_matches_full_rows(self):
        rng = np.random.default_rng(0)
        demos = linear_demos(rng, lambda s, a: a, 4, n=4)
        sliced = dyn.slice_demos(demos, (0, 1, 2), (0, 1, 2))
        for full, sub in zip(demos, sliced):
            assert np.array_equal(sub.states, full.states[:, :3])
            assert np.array_equal(sub.actions, full.actions[:, :3])

    def test_dims_after_derivation(self):
        rng = np.random.default_rng(1)
        demos = linear_demos(rng, lambda s, a: a, 12, n=4, steps=20)
        model = NeuralOdeModel.create(4, 4, hidden=8, seed=0)
        pos, _ = dyn.derive_position_model(model, demos, TrainConfig(epochs=2, seed=0))
        assert pos.n_state == 3 and pos.n_action == 3

    def test_decoupled_system_position_error_comparable(self):
        # decoupled integrator: the position model sees the same dynamics the
        # full model does on those coordinates, so held-out e_s is no worse
        rng = np.random.default_rng(2)
        demos = linear_demos(rng, lambda s, a: a, 30, n=4, steps=20,
                             act_scale=0.05, state_scale=0.3)
        train_demos, held = dyn.split_demos(demos, 0.2, seed=0)
        cfg = TrainConfig(epochs=150, seed=0)
        model = NeuralOdeModel.create(4, 4, hidden=32, seed=0)
        full, _ = dyn.train(model, train_demos, cfg)
        pos, _ = dyn.derive_position_model(model, train_demos, cfg)
        e_full = quantify_uncertainty(full, held).e_s
        e_pos = quantify_uncertainty(pos, dyn.slice_demos(held, (0, 1, 2), (0, 1, 2))).e_s
        assert e_pos <= e_full + 1e-6

    def test_position_substate_not_configured(self):
        model = NeuralOdeModel.create(2, 2, hidden=4, seed=0)
        with pytest.raises(ValueError, match="substate"):
            dyn.derive_position_model(model, [], TrainConfig())


class TestModelIo:
    def test_save_load_roundtrip(self, tmp_path):
        model = NeuralOdeModel.create(4, 4, seed=9)
        path = tmp_path / "model.bin"
        model.save(path, extra={"train_seed": 3})
        loaded, header = NeuralOdeModel.load(path)
        assert loaded.n_state == 4 and loaded.n_action == 4 and loaded.dt == 0.1
        assert header["train_seed"] == 3
        for a, b in zip(model.params.arrays(), loaded.params.arrays()):
            assert np.array_equal(a, b)


# -- the taped rollout: the oracle for the fused gradient ------------------------


def _taped_rollout(tape, mlp, s0_batch, action_batch, dt, n_state):
    """One rk4 step for a batch of states on the tape.

    s0_batch (n, B), action_batch (m, B) held constant over the step.
    """

    def field(s_node, a):
        return tape.affine_field(mlp(s_node), a, n_state)

    s = s0_batch
    k1 = field(s, action_batch)
    k2 = field(tape.add(s, tape.scale(k1, 0.5 * dt)), action_batch)
    k3 = field(tape.add(s, tape.scale(k2, 0.5 * dt)), action_batch)
    k4 = field(tape.add(s, tape.scale(k3, dt)), action_batch)
    incr = tape.add(tape.add(k1, tape.scale(tape.add(k2, k3), 2.0)), k4)
    return tape.add(s, tape.scale(incr, dt / 6.0))


def taped_loss_and_grad(params, s_batch, a_batch, dt, n_state):
    """The mean L1 rollout loss and its gradient [w1, b1, w2, b2] on the
    reverse-mode tape; grads is None when the loss is not finite."""
    batch, h = s_batch.shape[2], a_batch.shape[0]
    tape = Tape()
    mlp = TapedMlp(tape, params)
    s = tape.const(s_batch[0])
    loss_node = None
    for t in range(h):
        s = _taped_rollout(tape, mlp, s, a_batch[t], dt, n_state)
        err = tape.sum_abs(tape.sub(s, tape.const(s_batch[t + 1])))
        loss_node = err if loss_node is None else tape.add(loss_node, err)
    loss_node = tape.scale(loss_node, 1.0 / (batch * h))
    loss = float(loss_node.value)
    if not np.isfinite(loss):
        return loss, None
    grads = backward(tape, loss_node)
    return loss, [grads[node.index] for node in mlp.param_nodes()]


def taped_train(model, demos, cfg):
    """dyn.train's sampling and RMSprop loop with the gradient taken on the
    tape; returns (params, losses)."""
    rng = np.random.default_rng(cfg.seed)
    params = model.params.copy()
    arrs = params.arrays()
    sq_avg = [np.zeros_like(a) for a in arrs]
    h, b = cfg.rollout_h, cfg.batch
    steps = max(1, round(sum(len(d) for d in demos) / (b * h)))
    losses = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for _ in range(steps):
            traj_idx = rng.integers(0, len(demos), size=b)
            starts = np.array([rng.integers(0, len(demos[j].actions) - h + 1) for j in traj_idx])
            s_batch = np.stack([demos[j].states[k : k + h + 1]
                                for j, k in zip(traj_idx, starts)], axis=2)
            a_batch = np.stack([demos[j].actions[k : k + h]
                                for j, k in zip(traj_idx, starts)], axis=2)
            loss, grads = taped_loss_and_grad(params, s_batch, a_batch, demos[0].dt,
                                              model.n_state)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            for arr, g, acc in zip(arrs, grads, sq_avg):
                acc *= dyn.RMS_DECAY
                acc += (1.0 - dyn.RMS_DECAY) * g * g
                arr -= cfg.lr * g / (np.sqrt(acc) + dyn.RMS_EPS)
            epoch_loss += loss
        losses[epoch] = epoch_loss / steps
    return params, losses


def assert_bitwise(loss_a, grads_a, loss_b, grads_b):
    assert np.float64(loss_a).tobytes() == np.float64(loss_b).tobytes()
    assert (grads_a is None) == (grads_b is None)
    for a, b in zip(grads_a or [], grads_b or []):
        assert a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


class TestFusedGradientMatchesTape:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4), m=st.integers(1, 4), hidden=st.integers(1, 16),
        batch=st.integers(1, 5), h=st.integers(1, 4),
        dt=st.floats(1e-3, 1.0), w_scale=st.floats(0.1, 40.0), zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loss_and_gradients_bitwise(self, n, m, hidden, batch, h, dt, w_scale,
                                        zeros, seed):
        # w_scale up to 40 on unit states drives the hidden pre-activations
        # deep into GELU's saturated tails; zeros starts the rollout at the
        # origin with zero biases, so signed zeros reach every sum
        rng = np.random.default_rng(seed)
        n_out = n * (1 + m)
        params = dyn.MlpParams(
            w1=rng.normal(size=(hidden, n)) * w_scale,
            b1=np.zeros(hidden) if zeros else rng.normal(size=hidden),
            w2=rng.normal(size=(n_out, hidden)) / np.sqrt(hidden),
            b2=np.zeros(n_out) if zeros else rng.normal(size=n_out),
        )
        s_batch = rng.normal(size=(h + 1, n, batch))
        if zeros:
            s_batch[0] = 0.0
        a_batch = rng.normal(size=(h, m, batch))
        with np.errstate(all="ignore"):
            expected = taped_loss_and_grad(params, s_batch, a_batch, dt, n)
            got = dyn._rollout_loss_and_grad(params, s_batch, a_batch, dt, n)
        assert_bitwise(*got, *expected)

    def test_default_stack_sizes(self):
        # the CLI's model: 4 states, 4 actions, 64 hidden, batch 20, h 10
        rng = np.random.default_rng(3)
        model = NeuralOdeModel.create(4, 4, hidden=64, seed=0)
        s_batch = np.cumsum(rng.normal(size=(11, 4, 20)) * 0.02, axis=0)
        a_batch = rng.uniform(-0.05, 0.05, size=(10, 4, 20))
        expected = taped_loss_and_grad(model.params, s_batch, a_batch, 0.1, 4)
        got = dyn._rollout_loss_and_grad(model.params, s_batch, a_batch, 0.1, 4)
        assert_bitwise(*got, *expected)

    def test_train_matches_the_taped_loop(self):
        rng = np.random.default_rng(4)
        demos = linear_demos(rng, lambda s, a: 0.3 * a - 0.1 * s, 6, steps=15, n=4)
        model = NeuralOdeModel.create(4, 4, hidden=16, seed=2)
        cfg = TrainConfig(epochs=3, batch=5, rollout_h=4, seed=7)
        trained, losses = dyn.train(model, demos, cfg)
        params, expected = taped_train(model, demos, cfg)
        assert losses.tobytes() == expected.tobytes()
        for a, b in zip(trained.params.arrays(), params.arrays()):
            assert a.tobytes() == b.tobytes()

    def test_position_model_matches_the_taped_loop(self):
        rng = np.random.default_rng(5)
        demos = linear_demos(rng, lambda s, a: a, 6, steps=15, n=4)
        model = NeuralOdeModel.create(4, 4, hidden=16, seed=3)
        cfg = TrainConfig(epochs=3, batch=5, rollout_h=4, seed=1)
        pos, losses = dyn.derive_position_model(model, demos, cfg)
        fresh = NeuralOdeModel.create(3, 3, hidden=16, seed=3)
        params, expected = taped_train(fresh, dyn.slice_demos(demos, (0, 1, 2), (0, 1, 2)), cfg)
        assert losses.tobytes() == expected.tobytes()
        for a, b in zip(pos.params.arrays(), params.arrays()):
            assert a.tobytes() == b.tobytes()

    def test_non_finite_loss_raises_training_diverged_at_that_epoch(self):
        rng = np.random.default_rng(6)
        demos = linear_demos(rng, lambda s, a: a, 3, n=2)
        model = NeuralOdeModel.create(2, 2, hidden=4, seed=0)
        model.params.w2[:] = 1e300  # finite weights whose rollout overflows
        cfg = TrainConfig(epochs=2, seed=0)
        for fit in (dyn.train, taped_train):
            with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch 0"):
                fit(model, demos, cfg)

    @pytest.mark.parametrize("where", ["w1", "b1", "w2", "b2", "state", "target"])
    def test_non_finite_parameter_or_state_raises_value_error(self, where):
        rng = np.random.default_rng(7)
        params = dyn.init_mlp(2, 4, 6, seed=0)
        s_batch = rng.normal(size=(3, 2, 2))
        a_batch = rng.normal(size=(2, 2, 2))
        if where == "state":
            s_batch[0, 1, 0] = np.inf
        elif where == "target":
            s_batch[2, 0, 1] = np.nan
        else:
            getattr(params, where).flat[0] = np.nan
        for grad_fn in (dyn._rollout_loss_and_grad, taped_loss_and_grad):
            with pytest.raises(ValueError, match="non-finite value"):
                grad_fn(params, s_batch, a_batch, 0.1, 2)

    def test_train_rejects_non_finite_parameters(self):
        rng = np.random.default_rng(8)
        demos = linear_demos(rng, lambda s, a: a, 3, n=2)
        model = NeuralOdeModel.create(2, 2, hidden=4, seed=0)
        model.params.b1[0] = np.nan
        with pytest.raises(ValueError, match="non-finite value"):
            dyn.train(model, demos, TrainConfig(epochs=1, seed=0))
