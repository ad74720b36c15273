import numpy as np
import pytest

from conftest import zone_on_path
from safectl import qp
from safectl.barriers import CylinderZone, SphereZone, TaskSpaceBarrier
from safectl.dynamics import POSITION_DIMS, AffineModel, NeuralOdeModel, UncertaintyBounds
from safectl.sim import EnvConfig, compute_metrics, run_episode
from safectl.shield import (
    MAX_BOX_CORNERS,
    ConstraintSpec,
    SafetyShield,
    ShieldConfig,
    box_vertices,
)

ZERO = UncertaintyBounds(e_sdot=0.0, e_s=0.0)


def sphere_shield(gamma=1.0, bounds=ZERO, a_box=1.0, zone=None):
    zone = zone or SphereZone([0.0, 0, 0], 1.0)
    cfg = ShieldConfig(gamma=gamma, constraints=[ConstraintSpec(zone, "position")],
                       lb=-a_box * np.ones(3), ub=a_box * np.ones(3))
    model = AffineModel.integrator(3)
    return SafetyShield(cfg, models={"position": model}, bounds={"position": bounds})


def one_row(shield, s):
    """The single CBF row (G, h) of a one-constraint shield whose bounds have
    e_s = 0, so the state box is the state alone."""
    G, h = shield.constraint_rows(s)
    assert G.shape[0] == 1
    return G[0], float(h[0])


class TestBuildConstraint:
    """One CBF row, as a one-constraint shield builds it when e_s = 0."""

    def test_integrator_sphere_analytic(self):
        # b = 3, grad = (4,0,0), f=0, g=I, gamma=1 -> 4 a1 + 3 >= 0
        G, h = one_row(sphere_shield(), np.array([2.0, 0, 0]))
        assert np.allclose(G, [-4.0, 0.0, 0.0], atol=1e-14)
        assert h == pytest.approx(3.0, abs=1e-14)

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


def corner_reference(center, half_width, budget):
    """Box points as enumerated corner by corner: center, then corner i with
    axis j positive iff bit j of the n-bit reversal of i is set."""
    n = center.shape[0]
    pts = [center]
    for i in range(min(1 << n, budget)):
        mask = int(format(i, f"0{n}b")[::-1], 2)
        pts.append(center + half_width * np.array([((mask >> j) & 1) * 2.0 - 1.0
                                                   for j in range(n)]))
    return np.array(pts)


def per_point_rows(shield, s):
    """(G, h, margins) from one barrier and one model evaluation per box point,
    the loop the batched rows replaced. Barriers enter through their
    single-point value_and_grad, which test_barriers checks against the
    per-point formulas."""
    cfg = shield.config
    n_action = shield.models["full"].n_action
    rows, rhs, margins = [], [], []
    for spec in cfg.constraints:
        model, bnd = shield.models[spec.binding], shield.bounds[spec.binding]
        if spec.binding == "position":
            y0, cols = s[list(POSITION_DIMS)], list(POSITION_DIMS)
        else:
            y0, cols = s, list(range(n_action))
        for y in corner_reference(y0, bnd.e_s, MAX_BOX_CORNERS):
            b, grad = spec.barrier.value_and_grad(y)
            f, g = model.drift_and_gain(y)
            row = np.zeros(n_action)
            row[cols] = -(grad @ g)
            rows.append(row)
            rhs.append(float(grad @ f) - float(np.abs(grad).max() * bnd.e_sdot) + cfg.gamma * b)
        margins.append(spec.barrier.value(y0))
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
                  if min(spec.barrier.hard_value(s[:3]) for spec in constraints[:2]) > 0.0]
        assert len(states) >= 50
        target = np.array(sphere["center"])
        intervened = 0
        for s in states:
            # aim at the sphere so steps near it intervene
            push = target - s[:3]
            a_des = np.append(0.05 * push / np.linalg.norm(push), rng.uniform(-0.05, 0.05))
            G_ref, h_ref, m_ref = per_point_rows(shield, s)
            G, h = shield.constraint_rows(s)
            assert G.shape == G_ref.shape == (9 + 9 + 17, 4)
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
        # two spatial constraints share the position box, one behavioral row
        # uses the full-state box; the reference builds each constraint's rows
        # alone, in a one-constraint shield
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
            assert G.shape == (9 + 17 + 9, 4)
            assert G.tobytes() == G_ref.tobytes() and h.tobytes() == h_ref.tobytes()
            assert margins.tobytes() == m_ref.tobytes()


class TestStateBoxRobustification:
    @pytest.mark.parametrize("n,cap", [(n, MAX_BOX_CORNERS) for n in (1, 3, 4, 7, 8)])
    def test_box_vertices_match_corner_enumeration(self, n, cap):
        center = np.linspace(-1.0, 1.0, n)
        assert np.array_equal(box_vertices(center, 0.1), corner_reference(center, 0.1, cap))

    def test_zero_state_error_degenerates_to_center_row(self):
        s = np.array([2.0, 0, 0])
        G, h = sphere_shield().constraint_rows(s)
        assert G.shape == (1, 3)
        rows, rhs = sphere_shield(bounds=UncertaintyBounds(e_sdot=0.0, e_s=0.01)).constraint_rows(s)
        assert np.array_equal(rows[0], G[0]) and rhs[0] == h[0]

    def test_vertex_count_and_center_first(self):
        bounds = UncertaintyBounds(e_sdot=0.0, e_s=0.01)
        rows, rhs = sphere_shield(bounds=bounds).constraint_rows(np.array([2.0, 0, 0]))
        assert rows.shape == (9, 3)  # 2^3 vertices + center

    def test_monotone_barrier_binding_vertex(self):
        # 1-D linear barrier b(y) = y with an integrator: rows at y = s +- e_s;
        # the binding (smallest rhs) row is the low vertex
        class Line:
            def value_and_grad_batch(self, Y):
                return Y[:, 0].copy(), np.ones_like(Y)

        cfg = ShieldConfig(gamma=2.0, constraints=[ConstraintSpec(Line(), "full")])
        shield = SafetyShield(cfg, models={"full": AffineModel.integrator(1)},
                              bounds={"full": UncertaintyBounds(e_sdot=0.0, e_s=0.25)})
        rows, rhs = shield.constraint_rows(np.array([1.0]))
        assert rows.shape == (3, 1)
        assert rhs.min() == pytest.approx(2.0 * (1.0 - 0.25), abs=1e-12)
        assert rhs.max() == pytest.approx(2.0 * (1.0 + 0.25), abs=1e-12)

    def test_budget_subsample_deterministic_prefix(self):
        # 2^n > MAX_BOX_CORNERS: the kept corners are the first ones of the
        # whole bit-reversed enumeration
        for n in (7, 8):
            center = np.zeros(n)
            v = box_vertices(center, 0.1)
            assert v.shape == (MAX_BOX_CORNERS + 1, n)
            assert np.array_equal(v, corner_reference(center, 0.1, 1 << n)[: MAX_BOX_CORNERS + 1])
            # deterministic across calls and all corners distinct
            assert np.array_equal(v, box_vertices(center, 0.1))
            assert len(np.unique(v, axis=0)) == MAX_BOX_CORNERS + 1


class TestFilter:
    def test_passthrough_when_rows_inactive(self):
        shield = sphere_shield()
        a_des = np.array([0.5, 0.1, -0.2])
        rep = shield.filter(a_des, np.array([2.0, 0, 0]))
        assert np.array_equal(rep.a_safe, a_des)
        assert not rep.intervened
        assert rep.slack_used == 0.0

    def test_single_constraint_projection(self):
        # constraint 4 a1 + 3 >= 0; a_des = (-1,0,0) projects to (-0.75,0,0)
        shield = sphere_shield()
        rep = shield.filter(np.array([-1.0, 0, 0]), np.array([2.0, 0, 0]))
        assert np.allclose(rep.a_safe, [-0.75, 0.0, 0.0], atol=1e-9)
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
        shield = sphere_shield()
        shield.config.ub = np.array([np.nan, 1.0, 1.0])
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

