import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zone_on_path
from safectl import config, qp
from safectl.barriers import CylinderZone, SphereZone, TaskSpaceBarrier
from safectl.dynamics import (POSITION_DIMS, AffineModel, Demonstration, NeuralOdeModel,
                              UncertaintyBounds)
from safectl.sim import EnvConfig, compute_metrics, run_episode
from safectl.shield import ConstraintSpec, SafetyShield, ShieldConfig

ZERO = UncertaintyBounds(e_sdot=0.0, e_s=0.0)
SCENES = Path(__file__).resolve().parent.parent / "bench" / "scenes"


def rate(gamma, dt=0.1):
    """kappa / dt, the factor on b in every row, for kappa = 1 - exp(-gamma dt)."""
    return (1.0 - np.exp(-gamma * dt)) / dt


def sphere_shield(gamma=1.0, bounds=ZERO, a_box=1.0, zone=None):
    zone = zone or SphereZone([0.0, 0, 0], 1.0)
    cfg = ShieldConfig(gamma=gamma, constraints=[ConstraintSpec(zone, "position")],
                       lb=-a_box * np.ones(3), ub=a_box * np.ones(3))
    model = AffineModel.integrator(3)
    return SafetyShield(cfg, models={"position": model}, bounds={"position": bounds})


def one_row(shield, s):
    """The single CBF row (G, h) of a one-constraint shield."""
    G, h = shield.constraint_rows(s)
    assert G.shape[0] == 1
    return G[0], float(h[0])


class TestBuildConstraint:
    """One CBF row, as a one-constraint shield builds it."""

    def test_integrator_sphere_analytic(self):
        # b = 3, grad = (4,0,0), f=0, g=I, gamma=1, dt=0.1 -> 4 a1 + 3 kappa/dt >= 0
        G, h = one_row(sphere_shield(), np.array([2.0, 0, 0]))
        assert np.allclose(G, [-4.0, 0.0, 0.0], atol=1e-14)
        assert h == pytest.approx(3.0 * rate(1.0), abs=1e-14)

    def test_infinite_gamma_is_one_step_decay(self):
        # kappa = 1: the row asks only b(s') >= 0, so h = b / dt
        _, h = one_row(sphere_shield(gamma=np.inf), np.array([2.0, 0, 0]))
        assert h == pytest.approx(3.0 / 0.1, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            sphere_shield(gamma=gamma)

    def test_concave_barrier_needs_action_box(self):
        tsb = TaskSpaceBarrier(np.zeros((2, 3)), radius=0.5)
        with pytest.raises(ValueError, match="action box"):
            ShieldConfig(gamma=1.0, constraints=[ConstraintSpec(tsb, "full")])

    def test_derivative_error_shrinks_rhs_exactly(self):
        y = np.array([2.0, 0, 0])
        _, h0 = one_row(sphere_shield(), y)
        e = 0.123
        _, h1 = one_row(sphere_shield(bounds=UncertaintyBounds(e_sdot=e, e_s=0.0)), y)
        # ||grad||_inf = 4 at this point
        assert h1 == pytest.approx(h0 - 4.0 * e, abs=1e-12)

    def test_interior_point_feasible_at_zero_action(self):
        # far outside the zone, h >= 0 so a = 0 satisfies the row
        rng = np.random.default_rng(0)
        shield = sphere_shield(zone=SphereZone([0, 0, 0], 0.5))
        for _ in range(50):
            y = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
            G, h = one_row(shield, y)
            assert h >= 0.0


def reference_rows(shield, s):
    """(G, h, margins) built constraint by constraint from the single-point
    barrier and model methods: one row per constraint at its binding's state,
    with the task-space row's bound on ||s' - s||^2 / dt written out."""
    cfg = shield.config
    n_action = shield.models["full"].n_action
    a_max = np.linalg.norm(np.maximum(np.abs(cfg.lb), np.abs(cfg.ub)))
    rows, rhs, margins = [], [], []
    for spec in cfg.constraints:
        model, e_sdot = shield.models[spec.binding], shield.bounds[spec.binding].e_sdot
        if spec.binding == "position":
            y, cols = s[list(POSITION_DIMS)], list(POSITION_DIMS)
        else:
            y, cols = s, list(range(n_action))
        b, grad = spec.barrier.value_and_grad(y)
        f, g = model.drift_and_gain(y)
        row = np.zeros(n_action)
        row[cols] = -(grad @ g)
        h = float(grad @ f) - float(np.abs(grad).max() * e_sdot) + rate(cfg.gamma, model.dt) * b
        if isinstance(spec.barrier, TaskSpaceBarrier):
            h -= model.dt * (np.linalg.norm(f) + np.linalg.norm(g, 2) * a_max + e_sdot) ** 2
        rows.append(row)
        rhs.append(h)
        margins.append(spec.barrier.value(y))
    return np.array(rows), np.array(rhs), np.array(margins)


class TestBatchedRowsMatchPerPointReference:
    def test_rows_margins_and_action_on_default_stack(self, default_stack):
        stack = default_stack
        sphere = zone_on_path()
        cylinder = CylinderZone([0.12, 0.14, 0.08], [0, 0, 1], radius=0.02, length=0.08)
        constraints = [
            ConstraintSpec(SphereZone(sphere["center"], sphere["radius"]), "position"),
            ConstraintSpec(cylinder, "position"),
            ConstraintSpec(TaskSpaceBarrier(np.vstack([d.states for d in stack.demos]),
                                            radius=0.5), "full"),
        ]
        cfg = ShieldConfig(gamma=10.0, constraints=constraints,
                           lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4))
        shield = SafetyShield(cfg, models={"position": stack.pos, "full": stack.full},
                              bounds={"position": stack.bounds_pos, "full": stack.bounds_full})
        rng = np.random.default_rng(0)
        # demonstrations ignore the zones: keep the states outside both, where
        # the hard QP applies (the slack relaxation's penalty of 1e6 would
        # amplify last-digit row differences past 1e-12)
        states = [s for d in stack.held_demos for s in d.states[::5]
                  if min(spec.barrier.value(s[:3]) for spec in constraints[:2]) > 0.0]
        assert len(states) >= 50
        target = np.array(sphere["center"])
        intervened = 0
        for s in states:
            # aim at the sphere so steps near it intervene
            push = target - s[:3]
            a_des = np.append(0.05 * push / np.linalg.norm(push), rng.uniform(-0.05, 0.05))
            G_ref, h_ref, m_ref = reference_rows(shield, s)
            G, h = shield.constraint_rows(s)
            assert G.shape == G_ref.shape == (3, 4)
            assert np.max(np.abs(G - G_ref)) <= 1e-12
            assert np.max(np.abs(h - h_ref)) <= 1e-12
            rep = shield.filter(a_des, s)
            assert not rep.infeasible
            assert np.max(np.abs(rep.margins - m_ref)) <= 1e-12
            ref = qp.solve_with_slack(
                qp.QpProblem(P=np.eye(4), q=-a_des, G=G_ref, h=h_ref, lb=cfg.lb, ub=cfg.ub))
            assert np.max(np.abs(rep.a_safe - ref.a)) <= 1e-12
            intervened += rep.intervened
        assert intervened >= 5, "the states never brought the sphere row into play"


class TestRowsSharedPerBinding:
    def test_one_model_call_per_binding_and_rows_bitwise(self, monkeypatch):
        # two spatial constraints share the position model call, one
        # behavioral row uses the full-state one; the rows match each
        # constraint's row built alone, in a one-constraint shield, bit for
        # bit, and the reference built from the single-point methods
        rng = np.random.default_rng(3)
        demo_states = rng.uniform(-0.2, 0.4, size=(60, 4))
        constraints = [
            ConstraintSpec(SphereZone([0.15, 0.1, 0.05], 0.05), "position"),
            ConstraintSpec(TaskSpaceBarrier(demo_states, radius=0.3), "full"),
            ConstraintSpec(CylinderZone([0.1, 0.2, 0.0], [0.2, 0.1, 1.0], 0.03, 0.1), "position"),
        ]
        box = dict(lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4))
        cfg = ShieldConfig(gamma=8.0, constraints=constraints, **box)
        models = {"position": NeuralOdeModel.create(3, 3, hidden=16, seed=1),
                  "full": NeuralOdeModel.create(4, 4, hidden=16, seed=2)}
        bounds = {"position": UncertaintyBounds(e_sdot=0.02, e_s=0.004),
                  "full": UncertaintyBounds(e_sdot=0.03, e_s=0.006)}
        shield = SafetyShield(cfg, models=models, bounds=bounds)
        alone = [SafetyShield(ShieldConfig(gamma=8.0, constraints=[spec], **box), models=models,
                              bounds=bounds) for spec in constraints]
        calls = {}
        for binding, model in models.items():
            def counted(S, _model=model, _binding=binding):
                calls[_binding] = calls.get(_binding, 0) + 1
                return type(_model).drift_and_gain_batch(_model, S)

            monkeypatch.setattr(model, "drift_and_gain_batch", counted)
        for s in rng.uniform(-0.1, 0.3, size=(20, 4)):
            calls.clear()
            G, h, margins = shield.rows_and_margins(s)
            assert calls == {"position": 1, "full": 1}
            G_ref, h_ref, m_ref = zip(*(one.rows_and_margins(s) for one in alone))
            G_ref, h_ref, m_ref = np.vstack(G_ref), np.concatenate(h_ref), np.concatenate(m_ref)
            assert G.shape == (3, 4)
            assert G.tobytes() == G_ref.tobytes() and h.tobytes() == h_ref.tobytes()
            assert margins.tobytes() == m_ref.tobytes()
            G_ref, h_ref, m_ref = reference_rows(shield, s)
            assert np.max(np.abs(G - G_ref)) <= 1e-12 and np.max(np.abs(h - h_ref)) <= 1e-12
            assert np.max(np.abs(margins - m_ref)) <= 1e-12


def scene_shield(name):
    """The shield a benchmark scene builds, on integrator models and a few
    demonstration states."""
    cfg = config.validate(json.loads((SCENES / f"{name}.json").read_text()))
    demo = Demonstration(states=np.zeros((3, 4)), actions=np.zeros((2, 4)), dt=0.1)
    models = {"position": AffineModel.integrator(3), "full": AffineModel.integrator(4)}
    return config.build_shield(cfg, models, {"position": ZERO, "full": ZERO}, demos=[demo])


class TestOneRowPerConstraint:
    @pytest.mark.parametrize("scene,rows", [("reach_knn", 2), ("clutter_clf", 4)])
    def test_benchmark_scene_row_count(self, scene, rows):
        shield = scene_shield(scene)
        G, h = shield.constraint_rows(np.array([0.05, 0.05, 0.05, 0.0]))
        assert len(shield.config.constraints) == rows
        assert G.shape == (rows, 4) and h.shape == (rows,)

    def test_state_error_adds_no_rows(self):
        # e_s bounds the integration error, which no row reads
        s = np.array([2.0, 0, 0])
        G, h = sphere_shield().constraint_rows(s)
        rows, rhs = sphere_shield(bounds=UncertaintyBounds(e_sdot=0.0, e_s=0.01)).constraint_rows(s)
        assert G.shape == rows.shape == (1, 3)
        assert np.array_equal(rows, G) and np.array_equal(rhs, h)


class TestFrozenConfig:
    def test_assignment_raises_and_bounds_are_read_only_copies(self):
        lb, ub = -np.ones(3), np.ones(3)
        cfg = ShieldConfig(gamma=1.0,
                           constraints=[ConstraintSpec(SphereZone([0.0, 0, 0], 1.0), "position")],
                           lb=lb, ub=ub)
        for name, value in (("gamma", -1.0), ("ub", None), ("constraints", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.constraints[0].binding = "full"
        with pytest.raises(ValueError, match="read-only"):
            cfg.ub[0] = np.nan
        lb[0] = 5.0  # the caller's array is not the config's
        assert cfg.lb[0] == -1.0 and cfg.gamma == 1.0
        assert isinstance(cfg.constraints, tuple)


class TestFilterIsPure:
    def test_reports_do_not_depend_on_call_order_or_shield(self):
        # a run of states toward a sphere and a cylinder, some of them inside:
        # the steps intervene, and some need slack; every report must be the
        # same whichever order the states come in and whichever of two
        # shields built from one config filters them
        rng = np.random.default_rng(5)
        constraints = [
            ConstraintSpec(SphereZone([0.15, 0.1, 0.05], 0.05), "position"),
            ConstraintSpec(CylinderZone([0.1, 0.2, 0.0], [0.2, 0.1, 1.0], 0.03, 0.1), "position"),
            ConstraintSpec(TaskSpaceBarrier(rng.uniform(-0.2, 0.4, size=(60, 4)), radius=0.3),
                           "full"),
        ]
        cfg = ShieldConfig(gamma=8.0, constraints=constraints,
                           lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4))
        models = {"position": NeuralOdeModel.create(3, 3, hidden=16, seed=1),
                  "full": NeuralOdeModel.create(4, 4, hidden=16, seed=2)}
        bounds = {"position": UncertaintyBounds(e_sdot=0.02, e_s=0.0),
                  "full": UncertaintyBounds(e_sdot=0.03, e_s=0.0)}
        start, target = np.array([0.0, 0.0, 0.05, 0.0]), np.array([0.15, 0.1, 0.05, 0.0])
        states = [start + t * (target - start) + rng.normal(0.0, 0.01, 4)
                  for t in np.linspace(0.0, 1.2, 40)]
        a_des = [0.05 * (target - x) / np.linalg.norm(target - x) for x in states]
        one, two = SafetyShield(cfg, models, bounds), SafetyShield(cfg, models, bounds)

        def digest(rep):
            return (rep.a_safe.tobytes(), rep.margins.tobytes(), repr(rep.slack_used),
                    repr(rep.worst_margin), rep.intervened, rep.infeasible, rep.fallback)

        def run(shield, order):
            reports = {i: digest(shield.filter(a_des[i], states[i])) for i in order}
            return [reports[i] for i in range(len(states))]

        forward = run(one, range(len(states)))
        assert run(two, reversed(range(len(states)))) == forward  # a fresh shield, backward
        assert run(one, reversed(range(len(states)))) == forward
        assert run(two, rng.permutation(len(states))) == forward
        assert sum(d[4] for d in forward) >= 10
        assert any(d[5] for d in forward), "no step needed slack"


# drifting, coupled models at the benchmark scale: the condition must hold
# for any (f, g), not only for the integrator
POS_MODEL = AffineModel(A=[[-0.2, 0.1, 0.0], [0.05, -0.1, 0.2], [0.0, -0.15, 0.1]],
                        B=[[1.0, 0.2, 0.0], [-0.1, 0.9, 0.1], [0.05, 0.0, 1.1]],
                        c=[0.01, -0.02, 0.005])
FULL_MODEL = AffineModel(A=0.1 * np.array([[-1.0, 0.5, 0, 0.2], [0, -0.5, 1.0, 0],
                                           [0.3, 0, -1.0, 0], [0, 0.2, 0, -0.5]]),
                         B=np.eye(4) + 0.1 * np.array([[0, 1.0, 0, 0], [0, 0, 1.0, 0],
                                                       [-1.0, 0, 0, 0.5], [0, 0, 0.5, 0]]),
                         c=[0.005, 0.01, -0.01, 0.0])
SPHERE = SphereZone([0.0, 0.0, 0.0], 0.045)
CYLINDER = CylinderZone([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], radius=0.02, length=0.08)
TASK_SPACE = TaskSpaceBarrier(np.random.default_rng(0).uniform(-0.1, 0.1, (30, 4)), radius=0.05)
E_SDOT = 0.02
unit = st.floats(-1.0, 1.0)


def direction(v):
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    return v / n if n > 0.1 else np.eye(len(v))[0]


class TestDiscreteTimeSoundness:
    """Every filtered step keeps b(s') >= (1 - kappa) b(s), for each zone kind
    and the task-space barrier, whatever the model error e with
    ||e||_1 <= e_sdot, the worst-case e included."""

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["sphere", "cylinder_side", "cylinder_rim", "task_space"]),
           u=st.lists(unit, min_size=4, max_size=4), gap=st.floats(-0.003, 0.01),
           gap2=st.floats(0.0, 0.01), pick=st.integers(0, 29), push=st.floats(0.0, 3.0),
           noise=st.lists(unit, min_size=4, max_size=4),
           e_dir=st.lists(unit, min_size=4, max_size=4), e_scale=st.floats(0.0, 1.0),
           gamma=st.sampled_from([1.0, 10.0, 25.0, 40.0, np.inf]))
    def test_one_step_condition_holds(self, kind, u, gap, gap2, pick, push, noise, e_dir,
                                      e_scale, gamma):
        u = np.array(u)
        if kind == "sphere":
            barrier, binding, y = SPHERE, "position", (0.045 + gap) * direction(u[:3])
        elif kind == "task_space":
            barrier, binding = TASK_SPACE, "full"
            y = TASK_SPACE.states[pick] + (0.05 + gap) * direction(u)
        else:
            barrier, binding = CYLINDER, "position"
            radial = np.append(direction(u[:2]), 0.0)
            if kind == "cylinder_side":
                y = (0.02 + abs(gap)) * radial + np.array([0.0, 0.0, 0.036 * u[2]])
            else:
                y = (0.02 + gap) * radial + np.array([0.0, 0.0, np.copysign(0.04 + gap2, u[2])])
        models = {"position": POS_MODEL, "full": FULL_MODEL}
        bounds = UncertaintyBounds(e_sdot=E_SDOT, e_s=0.0)
        cfg = ShieldConfig(gamma=gamma, constraints=[ConstraintSpec(barrier, binding)],
                           lb=-0.05 * np.ones(4), ub=0.05 * np.ones(4))
        shield = SafetyShield(cfg, models=models, bounds={"position": bounds, "full": bounds})
        s = y if binding == "full" else np.append(y, 0.0)
        # aim down the barrier's gradient so that the row binds often
        b, grad = barrier.value_and_grad(y)
        a_des = 0.05 * (push * np.pad(-direction(grad), (0, 4 - len(y))) + np.array(noise))
        rep = shield.filter(a_des, s)
        if rep.infeasible:
            return
        model = models[binding]
        f, g = model.drift_and_gain(y)
        a = rep.a_safe[: len(y)]
        j = int(np.argmax(np.abs(grad)))
        worst = np.zeros(len(y))
        worst[j] = -E_SDOT * np.sign(grad[j])
        e_dir = np.array(e_dir[: len(y)])
        # the 1e-12 shrink keeps ||drawn||_1 <= e_sdot through the rounding of
        # the normalisation (e_dir = (1, 0.375, 0.4375) summed to e_sdot + 1 ulp)
        drawn = E_SDOT * (1.0 - 1e-12) * e_scale * e_dir / max(np.abs(e_dir).sum(), 1.0)
        kappa = 1.0 - np.exp(-gamma * model.dt)
        for e in (worst, drawn):
            assert np.abs(e).sum() <= E_SDOT
            b_next = barrier.value(y + model.dt * (f + g @ a + e))
            # b is of order 1e-3 here: 1e-15 is float rounding, not slack
            assert b_next >= (1.0 - kappa) * b - 1e-15, (kind, b, b_next, e)


class TestFilter:
    def test_passthrough_when_rows_inactive(self):
        shield = sphere_shield()
        a_des = np.array([0.5, 0.1, -0.2])
        rep = shield.filter(a_des, np.array([2.0, 0, 0]))
        assert np.array_equal(rep.a_safe, a_des)
        assert not rep.intervened
        assert rep.slack_used == 0.0

    def test_single_constraint_projection(self):
        # constraint 4 a1 + 3 kappa/dt >= 0; a_des = (-1,0,0) projects onto
        # a1 = -0.75 kappa/dt
        shield = sphere_shield()
        rep = shield.filter(np.array([-1.0, 0, 0]), np.array([2.0, 0, 0]))
        assert np.allclose(rep.a_safe, [-0.75 * rate(1.0), 0.0, 0.0], atol=1e-9)
        assert rep.intervened

    def test_worst_margin_is_min_barrier_value(self):
        zone_a = SphereZone([0.0, 0, 0], 1.0)
        zone_b = SphereZone([5.0, 0, 0], 1.0)
        model = AffineModel.integrator(3)
        cfg = ShieldConfig(gamma=1.0, constraints=[ConstraintSpec(zone_a, "position"),
                                                   ConstraintSpec(zone_b, "position")],
                           lb=-np.ones(3), ub=np.ones(3))
        shield = SafetyShield(cfg, models={"position": model}, bounds={"position": ZERO})
        s = np.array([2.0, 0, 0])
        rep = shield.filter(np.zeros(3), s)
        assert rep.margins == pytest.approx([zone_a.value(s), zone_b.value(s)])
        assert rep.worst_margin == pytest.approx(min(zone_a.value(s), zone_b.value(s)))

    def test_minimality_on_single_active_instances(self):
        # acceptance-style: 100 random instances with one active row match the
        # closed-form half-space projection to 1e-8
        rng = np.random.default_rng(7)
        shield = sphere_shield(gamma=1.0, a_box=10.0)
        done = 0
        while done < 100:
            s = rng.uniform(1.05, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
            a_des = rng.uniform(-2, 2, 3)
            G, h = one_row(shield, s)
            viol = float(G @ a_des - h)
            if abs(viol) < 1e-3:  # skip near-degenerate activations
                continue
            rep = shield.filter(a_des, s)
            if viol <= 0:
                expected = a_des
            else:
                expected = a_des - (viol / (G @ G)) * G
            assert np.max(np.abs(rep.a_safe - expected)) < 1e-8
            done += 1

    def test_deviation_nondecreasing_in_derivative_error(self):
        # binding instance: growing e_sdot only tightens the row
        s = np.array([1.2, 0, 0])
        a_des = np.array([-1.0, 0, 0])
        prev = -1.0
        for e in (0.0, 0.05, 0.1, 0.2, 0.4):
            shield = sphere_shield(gamma=1.0, bounds=UncertaintyBounds(e_sdot=e, e_s=0.0))
            rep = shield.filter(a_des, s)
            dev = float(np.linalg.norm(rep.a_safe - a_des))
            assert dev >= prev - 1e-12
            prev = dev
        assert prev > 0.0

    def test_infeasible_flag_and_slack(self):
        # zone around the state: b < 0 and the row cannot be met inside the box
        zone = SphereZone([0.0, 0, 0], 1.0)
        shield = sphere_shield(gamma=50.0, a_box=0.01, zone=zone)
        rep = shield.filter(np.zeros(3), np.array([0.2, 0, 0]))  # deep inside
        assert rep.infeasible and not rep.fallback
        assert rep.slack_used > 1e-6
        assert np.all(np.abs(rep.a_safe) <= 0.01 + 1e-12)  # box stays hard

    def test_failed_relaxation_reports_infeasible(self):
        # empty action box (lb > ub on the first axis): the hard QP and its
        # slack relaxation both fail, and the report must say so
        cfg = ShieldConfig(gamma=1.0, constraints=[ConstraintSpec(SphereZone([0.0, 0, 0], 1.0),
                                                                  "position")],
                           lb=np.array([0.05, -1.0, -1.0]), ub=np.array([-0.05, 1.0, 1.0]))
        shield = SafetyShield(cfg, models={"position": AffineModel.integrator(3)},
                              bounds={"position": ZERO})
        a_des = np.array([0.02, -0.3, 0.4])
        rep = shield.filter(a_des, np.array([2.0, 0, 0]))
        assert rep.infeasible and rep.fallback
        assert np.isnan(rep.slack_used)  # no relaxed optimum exists
        # the documented fallback: the zero (hold) velocity clipped to the box
        assert np.array_equal(rep.a_safe, np.clip(np.zeros(3), cfg.lb, cfg.ub))
        assert rep.intervened

        # every step of an episode under this shield falls back, and is
        # counted apart from slack steps, in the episode and the summary
        class Hold:
            def reset(self, seed=None):
                pass

            def act(self, obs, t):
                return a_des

        env = EnvConfig(n_state=3, n_action=3, horizon=4, task="reach", goal=np.ones(3),
                        start=np.array([2.0, 0.0, 0.0]), a_max=1.0)
        result, log = run_episode(Hold(), env, seed=0, shield=shield)
        assert result.fallback_events == 4 and result.slack_events == 0
        assert all(np.array_equal(a, rep.a_safe) for a in log.a_safe)
        summary = compute_metrics({0: [result, result]})
        assert summary["fallback_events"] == 8 and summary["slack_events"] == 0

    def test_nan_action_bound_falls_back(self):
        # a NaN actuator bound reaches the QP as a NaN row, so the filter
        # takes its fallback step instead of reporting an action past the box;
        # the hold action ignores the NaN bound side and stays finite
        cfg = ShieldConfig(gamma=1.0,
                           constraints=[ConstraintSpec(SphereZone([0.0, 0, 0], 1.0), "position")],
                           lb=-np.ones(3), ub=np.array([np.nan, 1.0, 1.0]))
        shield = SafetyShield(cfg, models={"position": AffineModel.integrator(3)},
                              bounds={"position": ZERO})
        rep = shield.filter(np.array([2.0, 0.0, 0.0]), np.array([3.0, 0, 0]))
        assert rep.fallback and rep.infeasible
        assert np.isnan(rep.slack_used)
        assert np.array_equal(rep.a_safe, np.zeros(3))

    def test_nan_model_falls_back_instead_of_raising(self):
        # a model whose drift is NaN gives NaN rows: the QP reports status
        # "nan" and the filter returns its documented fallback step
        cfg = ShieldConfig(gamma=1.0, constraints=[ConstraintSpec(SphereZone([0.0, 0, 0], 1.0),
                                                                  "position")],
                           lb=-np.ones(3), ub=np.ones(3))
        nan_model = AffineModel(A=np.zeros((3, 3)), B=np.eye(3), c=np.array([np.nan, 0, 0]))
        shield = SafetyShield(cfg, models={"position": nan_model}, bounds={"position": ZERO})
        a_des = np.array([-0.5, 0.2, 0.0])
        rep = shield.filter(a_des, np.array([2.0, 0, 0]))
        assert rep.fallback and rep.infeasible
        assert np.isnan(rep.slack_used)
        assert np.array_equal(rep.a_safe, np.zeros(3))
        assert rep.margins[0] == pytest.approx(3.0)  # the barrier itself is finite

        class Hold:
            def reset(self, seed=None):
                pass

            def act(self, obs, t):
                return a_des

        env = EnvConfig(n_state=3, n_action=3, horizon=3, task="reach", goal=np.ones(3),
                        start=np.array([2.0, 0.0, 0.0]), a_max=1.0)
        result, _ = run_episode(Hold(), env, seed=0, shield=shield)
        assert result.fallback_events == 3 and not result.aborted

    def test_nonfinite_inputs_rejected(self):
        shield = sphere_shield()
        with pytest.raises(ValueError, match="non-finite"):
            shield.filter(np.array([np.nan, 0, 0]), np.array([2.0, 0, 0]))

    def test_behavioral_row_uses_full_state_model(self):
        # spatial row padded into the linear block; behavioral row over all dims
        demo_states = np.tile(np.array([[0.0, 0.0, 0.0, 0.0]]), (4, 1))
        tsb = TaskSpaceBarrier(demo_states, radius=0.5)
        zone = SphereZone([1.0, 0, 0], 0.2)
        cfg = ShieldConfig(gamma=1.0,
                           constraints=[ConstraintSpec(zone, "position"),
                                        ConstraintSpec(tsb, "full")],
                           lb=-np.ones(4), ub=np.ones(4))
        shield = SafetyShield(cfg, models={"position": AffineModel.integrator(3),
                                           "full": AffineModel.integrator(4)},
                              bounds={"position": ZERO, "full": ZERO})
        G, h = shield.constraint_rows(np.array([0.1, 0.0, 0.0, 0.3]))
        assert G.shape == (2, 4)
        assert G[0, 3] == 0.0  # spatial row leaves the yaw column untouched
        assert G[1, 3] != 0.0  # behavioral row acts on it

