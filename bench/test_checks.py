"""Each output check passes on a correct input and fails on a deliberately
broken one, and BENCHMARK.json names the metrics the runner prints. Run from
the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402

common.prepare()

from safectl import dynamics as dyn  # noqa: E402
from safectl import qp  # noqa: E402

GOAL = np.array([0.3, 0.3, 0.15])
A_MAX, DT, TOL = 0.05, 0.1, 0.005


def straight_demo(steps=80, speed=0.04):
    """Walk from the origin straight at the goal, stopping on it."""
    pos = [np.zeros(3)]
    for _ in range(steps):
        gap = GOAL - pos[-1]
        move = gap if np.abs(gap).max() <= speed * DT else np.clip(gap, -speed * DT, speed * DT)
        pos.append(pos[-1] + move)
    states = np.hstack([np.array(pos), np.zeros((steps + 1, 1))])
    return {"states": states, "actions": np.diff(states, axis=0) / DT, "dt": DT}


def test_demo_check_passes_a_good_demo():
    assert checks.check_demo(straight_demo(), GOAL, TOL, A_MAX) == []


def test_demo_check_flags_a_missed_goal():
    assert checks.check_demo(straight_demo(steps=20), GOAL, TOL, A_MAX)


def test_demo_check_flags_a_step_faster_than_the_actuators():
    demo = straight_demo()
    demo["states"][10:, 0] += 0.006  # one jump of 6 mm > a_max * dt = 5 mm
    assert checks.check_demo(demo, GOAL, TOL, A_MAX)


def test_loss_check():
    assert checks.check_losses(np.array([0.02, 0.012, 0.009])) == []
    assert checks.check_losses(np.array([0.02, 0.015, 0.011]))
    assert checks.check_losses(np.array([0.02, np.nan, 0.001]))


def fixture_model():
    return checks.read_model(common.FIXTURES / "model_full.bin")


def test_own_forward_pass_matches_the_program():
    """The independent reader and forward pass agree with the program on the
    committed fixture, so a bound mismatch means the program changed."""
    own = fixture_model()
    prog, _ = dyn.NeuralOdeModel.load(common.FIXTURES / "model_full.bin")
    rng = np.random.default_rng(0)
    S, A = rng.uniform(0, 0.3, (50, 4)), rng.uniform(-0.05, 0.05, (50, 4))
    want = np.array([prog.field(s, a) for s, a in zip(S, A)])
    np.testing.assert_allclose(checks.field(own, S, A), want, rtol=1e-12, atol=1e-15)


def test_bounds_check_matches_quantify_and_flags_a_drift():
    own = fixture_model()
    demos = [straight_demo(steps=60) for _ in range(3)]
    prog, _ = dyn.NeuralOdeModel.load(common.FIXTURES / "model_full.bin")
    b = dyn.quantify_uncertainty(prog, [dyn.Demonstration(**d) for d in demos])
    e_sdot, e_s = checks.error_bounds(own, demos)
    assert checks.check_bounds(b.to_dict(), e_sdot, e_s) == []
    drifted = {"e_sdot": b.e_sdot, "e_s": b.e_s * (1 + 1e-8)}
    assert checks.check_bounds(drifted, e_sdot, e_s)


def test_untrained_model_has_larger_one_step_error():
    own = fixture_model()
    demos = [straight_demo(steps=60)]
    untrained = checks.glorot_model(4, 4, 64, 0, DT)
    _, e_s = checks.error_bounds(own, demos)
    _, e_s_untrained = checks.error_bounds(untrained, demos)
    assert checks.check_beats_untrained(e_s, e_s_untrained) == []
    assert checks.check_beats_untrained(e_s_untrained, e_s)


def test_heldout_split_matches_the_program():
    demos = list(range(37))
    want = dyn.split_demos(demos, 0.2, seed=5)[1]
    assert checks.heldout(demos, 0.2, 5) == want


SPHERE = {"type": "sphere", "center": [0.1, 0.1, 0.1], "radius": 0.03}
CYL = {"type": "cylinder", "point": [0.2, 0.2, 0.1], "axis": [0, 0, 2], "radius": 0.02,
       "length": 0.08}


def test_zone_margins_geometry():
    pos = np.array([[0.1, 0.1, 0.14], [0.2, 0.23, 0.1], [0.2, 0.2, 0.15], [0.2, 0.21, 0.12]])
    m = checks.zone_margins(pos, [SPHERE, CYL])
    np.testing.assert_allclose(m[0, 0], 0.04**2 - 0.03**2)
    np.testing.assert_allclose(m[1:, 1], [0.01, 0.01, -0.01], atol=1e-15)


def episode(steps=30):
    """An episode that passes between the zones to the goal, never intervened."""
    t = np.linspace(0, 1, steps)[:, None]
    pos = (1 - t) * np.array([0.25, 0.05, 0.1]) + t * GOAL
    a = np.full((steps, 4), 0.01)
    return {"states": np.hstack([pos, np.zeros((steps, 1))]), "a_des": a, "a_safe": a.copy()}


def check(ep, intervened=None):
    flags = np.zeros(ep["a_safe"].shape[0], dtype=bool) if intervened is None else intervened
    return checks.check_episode(ep, flags, [SPHERE, CYL], GOAL, TOL, A_MAX)


def test_episode_check_passes_a_good_episode():
    assert check(episode()) == []


def test_episode_check_flags_a_collision():
    ep = episode()
    ep["states"][5, :3] = [0.2, 0.205, 0.1]  # inside the cylinder
    assert any("collision" in p for p in check(ep))
    ep = episode()
    ep["states"][7, :3] = [0.11, 0.1, 0.1]  # inside the sphere
    assert any("collision" in p for p in check(ep))


def test_episode_check_flags_a_missed_target():
    ep = episode()
    ep["states"][-1, :3] = ep["states"][-2, :3]
    ep["states"][:, 0] -= 0.01
    assert any("target" in p for p in check(ep))


def test_episode_check_flags_an_action_outside_the_box():
    ep = episode()
    ep["a_safe"][3, 1] = ep["a_des"][3, 1] = A_MAX + 1e-6
    assert any("box" in p for p in check(ep))


def test_episode_check_flags_a_changed_action_without_intervention():
    ep = episode()
    ep["a_safe"][4, 2] = np.nextafter(ep["a_safe"][4, 2], 1.0)
    assert check(ep)
    flags = np.zeros(ep["a_safe"].shape[0], dtype=bool)
    flags[4] = True
    assert check(ep, flags) == []


def projection_problem(seed):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(12, 4))
    inside = rng.uniform(-0.5 * A_MAX, 0.5 * A_MAX, 4)  # keeps the rows feasible
    h = G @ inside + rng.uniform(0.0, 0.02, 12)
    lb, ub = -A_MAX * np.ones(4), A_MAX * np.ones(4)
    return G, h, lb, ub, rng.uniform(-A_MAX, A_MAX, 4)


@pytest.mark.parametrize("seed", range(8))
def test_projection_matches_the_program_and_flags_a_perturbation(seed):
    G, h, lb, ub, a_des = projection_problem(seed)
    sol = qp.solve_with_slack(qp.QpProblem(P=np.eye(4), q=-a_des, G=G, h=h, lb=lb, ub=ub))
    assert sol.status == "optimal" and sol.slack_used == 0.0
    assert len(sol.active_set) > 0
    assert checks.check_projection(G, h, lb, ub, a_des, sol.a) == []
    assert checks.check_projection(G, h, lb, ub, a_des, sol.a + 1e-5)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import json

    import tracing
    import workloads

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SCENES)
