"""The program names the benchmark reaches by name still exist, and the
probe's readings mean what the benchmark takes them to mean.

bench/tracing.py patches methods and module functions through
`owner.__dict__[attr]`, so deleting or renaming one of them raises KeyError
in every traced benchmark run. These checks find that here, in well under a
second, without running the benchmark. The probe tests run the CLI in-process
as the benchmark does: unshielded, one timing per policy `act` call however
episodes are batched; shielded, one filter record per step, grouped by
episode in episode-file order.
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from safectl import cli, qp  # noqa: E402
from safectl.dynamics import NeuralOdeModel  # noqa: E402
from safectl.shield import SafetyShield  # noqa: E402


def target_id(target):
    owner, attr = target[0], target[1]
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("target", tracing.targets(), ids=target_id)
def test_tracer_target_is_defined_on_its_owner(target):
    owner, attr = target[0], target[1]
    assert attr in owner.__dict__, f"{owner.__name__} has no {attr} for the tracer to wrap"


class _Recorder:
    """Stands in for the probe's patch list: records what it would patch."""

    def __init__(self):
        self.seen = []

    def set(self, owner, attr, value):
        self.seen.append((owner, attr))


@pytest.mark.parametrize("shielded", [False, True])
def test_probe_patches_names_defined_on_their_owners(shielded):
    probe = tracing.Probe(shielded=shielded)
    probe._patches = _Recorder()
    probe.install()
    assert probe._patches.seen
    for owner, attr in probe._patches.seen:
        assert attr in owner.__dict__, f"{owner.__name__} has no {attr} for the probe to wrap"


def test_single_point_entry_points_exist():
    assert callable(SafetyShield.__dict__.get("constraint_rows"))
    assert callable(NeuralOdeModel.__dict__.get("field"))


@pytest.mark.parametrize("feasible,calls", [(True, 1), (False, 2)])
def test_slack_solve_calls_solve_through_the_module_name(monkeypatch, feasible, calls):
    # the tracer's qp.rows_per_solve and qp.active_rows_per_solve come from
    # _solve_counts on each wrapped qp.solve call (problem.G, result.active_set),
    # and qp.slack_fallbacks counts the qp.solve calls under one solve_with_slack
    seen = []
    original = qp.solve

    def counting(problem):
        result = original(problem)
        seen.append(tracing._solve_counts((problem,), result))
        return result

    monkeypatch.setattr(qp, "solve", counting)
    h = [0.0, 1.0] if feasible else [-1.0, -1.0]  # a1 <= 0 and -a1 <= 1, or a contradiction
    problem = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 0.0]), G=[[1.0, 0.0], [-1.0, 0.0]],
                           h=h, lb=-np.ones(2), ub=np.ones(2))
    sol = qp.solve_with_slack(problem)
    assert sol.status == "optimal"
    assert len(seen) == calls
    assert all(rows == 2 for rows, _ in seen)
    assert seen[-1][1] == (1 if feasible else 2)


def probed(shielded: bool, *argv, exit_code=cli.EXIT_OK):
    """Run one CLI stage with a probe installed; returns the probe."""
    probe = tracing.Probe(shielded=shielded)
    probe.install()
    try:
        code = cli.main([str(a) for a in argv])
    finally:
        probe.uninstall()
    assert code == exit_code
    return probe


def test_unshielded_probe_times_every_act_call_once(tmp_path):
    # ten steps reach no goal: the stage reports the failure rate and exits 4
    probe = probed(False, "gen-demos", "--config", BENCH / "scenes" / "fit.json",
                   "--out", tmp_path, "--n", 3, "--set", "env.horizon=10",
                   exit_code=cli.EXIT_THRESHOLD)
    assert len(probe.step_s) == 30
    assert probe.records == []


def test_shielded_probe_records_run_episode_by_episode_in_file_order(tmp_path):
    scene = BENCH / "scenes" / "reach_knn.json"
    common = ["--config", scene, "--out", tmp_path]
    assert cli.main(["gen-demos", *map(str, common), "--n", "20",
                     "--set", "env.horizon=100"]) == 0
    for name in (cli.MODEL_FULL, cli.MODEL_POS):
        shutil.copyfile(BENCH / "fixtures" / name, tmp_path / name)
    assert cli.main(["quantify", *map(str, common)]) == 0
    probe = probed(True, "run", *common, "--episodes", 2, "--set", "env.horizon=20")

    files = sorted((tmp_path / "episodes").glob("ep*_*.csv"))
    assert [f.name for f in files] == ["ep0_000.csv", "ep0_001.csv"]
    # columns: t, s0..s3, a_des0..a_des3, a_safe0..a_safe3, margins, slack, solve time
    logged = np.vstack([np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2) for f in files])
    assert len(probe.records) == len(probe.step_s) == logged.shape[0] == 40
    assert np.array_equal(np.array([r[1] for r in probe.records]), logged[:, 5:9])
    assert np.array_equal(np.array([r[2].a_safe for r in probe.records]), logged[:, 9:13])
