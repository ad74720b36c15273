import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from safectl import cli
from safectl import config as cfgmod
from safectl import dynamics as dyn
from safectl.sim import ClfPolicy, TrajectoryLog, compute_metrics, run_episode

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "version": 1,
    "seed": 0,
    "episodes": 3,
    "seeds": [0, 1],
    "env": {
        "task": "reach",
        "goal": [0.30, 0.30, 0.15],
        "start": [0.05, 0.05, 0.05, 0.0],
        "start_spread": 0.01,
        "zones": [{"type": "sphere", "center": [0.182, 0.168, 0.10], "radius": 0.05}],
    },
    "train": {"epochs": 8},
    "policy": {"type": "knn"},
}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SSP_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "safectl.cli", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny but complete pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    out = root / "out"
    for cmd in (
        ["gen-demos", "--n", "20"],
        ["train"],
        ["quantify"],
        ["run"],
    ):
        proc = run_cli(cmd[0], "--config", str(cfg_path), "--out", str(out), *cmd[1:])
        assert proc.returncode == 0, (cmd, proc.stderr, proc.stdout)
    return root, cfg_path, out


class TestGenDemos:
    def test_writes_n_trajectories_of_full_horizon(self, workdir):
        _, _, out = workdir
        lines = (out / "demos.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert len(rec["states"]) == 101
        assert len(rec["actions"]) == 100
        assert rec["dt"] == 0.1

    def test_single_demo_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        proc = run_cli("gen-demos", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n", "1")
        assert proc.returncode == 0
        lines = (tmp_path / "o" / "demos.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        root, cfg_path, out = workdir
        first = (out / "demos.jsonl").read_bytes()
        out2 = tmp_path / "out2"
        proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out2), "--n", "20")
        assert proc.returncode == 0
        assert (out2 / "demos.jsonl").read_bytes() == first


class TestTrainQuantify:
    def test_artifacts_exist(self, workdir):
        _, _, out = workdir
        for name in ("model_full.bin", "model_pos.bin", "loss_full.csv", "loss_pos.csv",
                     "bounds_full.json", "bounds_pos.json"):
            assert (out / name).exists(), name
        loss = (out / "loss_full.csv").read_text().splitlines()
        assert loss[0] == "epoch,loss"
        assert len(loss) == 1 + BASE_CONFIG["train"]["epochs"]
        bounds = json.loads((out / "bounds_full.json").read_text())
        assert set(bounds) >= {"e_sdot", "e_s", "per_dim_sdot", "per_dim_s"}
        assert bounds["e_sdot"] >= 0 and len(bounds["per_dim_sdot"]) == 4

    def test_train_without_demos_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        proc = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "empty"))
        assert proc.returncode == 3
        assert "demos.jsonl" in proc.stderr

    def test_quantify_without_model_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "o"
        assert run_cli("gen-demos", "--config", str(cfg), "--out", str(out), "--n", "12").returncode == 0
        proc = run_cli("quantify", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 3
        assert "model_full.bin" in proc.stderr


class TestRun:
    def test_summary_schema(self, workdir):
        _, _, out = workdir
        summary = json.loads((out / "summary.json").read_text())
        for key in ("success_rate_with_violation", "success_rate_without_violation",
                    "collision_rate", "inference_time_ms", "safe_margin"):
            assert key in summary, key
            assert set(summary[key]) == {"mean", "std"}
        assert summary["episodes"] == 6
        assert summary["sdot_error"] >= 0
        ep = out / "episodes"
        assert len(list(ep.glob("ep*_*.csv"))) == 6
        header = next(ep.glob("ep0_*.csv")).read_text().splitlines()[0]
        assert header.startswith("t,s0,s1,s2,s3,a_des0")
        assert header.endswith("slack,build_time_us,solve_time_us")

    def test_run_shield_off_flag(self, workdir, tmp_path):
        root, cfg_path, out = workdir
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out),
                       "--shield", "off", "--episodes", "2")
        assert proc.returncode == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["shield"] is False
        # restore the shielded summary for downstream tests
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)).returncode == 0

    def test_idempotent_rerun_modulo_timing(self, workdir, tmp_path):
        root, cfg_path, out = workdir

        def strip_timing(d):
            return {k: v for k, v in d.items() if "time" not in k}

        first = json.loads((out / "summary.json").read_text())
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0
        second = json.loads((out / "summary.json").read_text())
        assert strip_timing(first) == strip_timing(second)

    def test_ssp_seed_env_var_overrides(self, workdir, tmp_path):
        root, cfg_path, _ = workdir
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, env_extra in ((out_a, {"SSP_SEED": "7"}), (out_b, None)):
            proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out),
                           "--n", "3", env_extra=env_extra)
            assert proc.returncode == 0
        assert (out_a / "demos.jsonl").read_bytes() != (out_b / "demos.jsonl").read_bytes()

    def test_set_flag_overrides_config(self, workdir, tmp_path):
        root, cfg_path, _ = workdir
        out = tmp_path / "o"
        proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out),
                       "--n", "2", "--set", "env.horizon=150")
        assert proc.returncode == 0
        rec = json.loads((out / "demos.jsonl").read_text().splitlines()[0])
        assert len(rec["actions"]) == 150

    def test_expert_failure_rate_threshold_exits_4(self, workdir, tmp_path):
        root, cfg_path, _ = workdir
        out = tmp_path / "o4"
        # horizon too short for the expert to reach the goal
        proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out),
                       "--n", "2", "--set", "env.horizon=17")
        assert proc.returncode == 4
        assert "failure rate" in proc.stderr


class TestConfigValidation:
    @pytest.mark.parametrize("mutate,fragment", [
        (lambda c: c["env"].update(task="fly"), "task"),
        (lambda c: c["env"].update(dt=-0.1), "dt"),
        (lambda c: c.update(version=2), "version"),
        (lambda c: c["env"]["zones"].append({"type": "sphere", "center": [0, 0, 0]}), "zones"),
        (lambda c: c.update(unknown_field=1), "unknown_field"),
        (lambda c: c["env"].update(start=[0.05, 0.05, 0.05, 0.0, 0.0, 0.0]),
         "env/start: 6 entries"),
        (lambda c: c["env"].update(A=[[0.0] * 4] * 4), "'A' was unexpected"),
        (lambda c: c["env"].update(B=[[1.0] * 4] * 4), "'B' was unexpected"),
        (lambda c: c["policy"].update(c=2.0), "'c' was unexpected"),
        (lambda c: c["policy"].update(advance_threshold=0.01), "'advance_threshold' was unexpected"),
        (lambda c: c["policy"].update(advance_exponent=1.0), "'advance_exponent' was unexpected"),
        (lambda c: c.update(model={"hidden": 64}), "'model' was unexpected"),
        (lambda c: c.update(model={"seed": 0}), "'model' was unexpected"),
        (lambda c: c["train"].update(batch=20), "'batch' was unexpected"),
        (lambda c: c["train"].update(lr=1e-3), "'lr' was unexpected"),
        (lambda c: c["policy"].update(knn_neighbors=5), "'knn_neighbors' was unexpected"),
        (lambda c: c["policy"].update(expert_gain=2.0), "'expert_gain' was unexpected"),
        # these three ended in a traceback (exit 1) or an all-NaN path (exit 0)
        (lambda c: c["policy"].update(path={"type": "waypoints"}),
         "policy/path: 'waypoints' is a required property"),
        (lambda c: c["policy"].update(path={"waypoints": [[0.1, 0.1, 0.1]]}),
         "policy/path/waypoints: [[0.1, 0.1, 0.1]] is too short"),
        (lambda c: c["env"].update(task="path-follow", goal=[0.05, 0.05, 0.05]),
         "env/goal: equal to env.start[:3]"),
    ])
    def test_invalid_config_exits_2_before_work(self, tmp_path, mutate, fragment):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        mutate(cfg)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out), "--n", "1")
        assert proc.returncode == 2
        assert "config" in proc.stderr.lower()
        assert fragment in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "demos.jsonl").exists()

    def test_negative_ssp_seed_exits_2_before_work(self, tmp_path):
        # SSP_SEED is an override like --seed, so the schema sees it
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "o"
        proc = run_cli("gen-demos", "--config", str(cfg_path), "--out", str(out), "--n", "1",
                       "--seed", "3", env_extra={"SSP_SEED": "-1"})
        assert proc.returncode == 2
        assert "config invalid at seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        # SSP_SEED over --seed over the file's seed
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, seed=5)))

        def parse(*flags):
            return cli.make_parser().parse_args(
                ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])

        monkeypatch.delenv("SSP_SEED", raising=False)
        assert cli._load_config(parse())["seed"] == 5
        assert cli._load_config(parse("--seed", "3"))["seed"] == 3
        monkeypatch.setenv("SSP_SEED", "7")
        assert cli._load_config(parse("--seed", "3"))["seed"] == 7
        assert cli._load_config(parse())["seed"] == 7

    def test_missing_config_file_exits_2(self, tmp_path):
        proc = run_cli("gen-demos", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o"), "--n", "1")
        assert proc.returncode == 2


class TestSweepAndReport:
    def test_sweep_single_value_one_row(self, workdir):
        root, cfg_path, out = workdir
        proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(out),
                       "--param", "gamma", "--values", "10", "--episodes", "1")
        assert proc.returncode == 0, proc.stderr
        rows = (out / "sweep_gamma.csv").read_text().strip().splitlines()
        assert rows[0] == "gamma,mean_min_margin"
        assert len(rows) == 2

    def test_beta_sweep_requires_path(self, workdir, tmp_path):
        root, cfg_path, out = workdir
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["policy"] = {"type": "clf", "path": {"type": "straight"}}
        cfg["env"]["task"] = "path-follow"
        p = tmp_path / "clf.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("sweep", "--config", str(p), "--out", str(out),
                       "--param", "beta", "--values", "10,20", "--episodes", "1")
        assert proc.returncode == 0, proc.stderr
        rows = (out / "sweep_beta.csv").read_text().strip().splitlines()
        assert rows[0] == "beta,tracking_dev_m"
        assert len(rows) == 3

    @pytest.mark.parametrize("param,values,where", [
        ("gamma", "-1", "shield/gamma: -1.0 is less than or equal to the minimum of 0"),
        ("gamma", "abc", "shield/gamma: 'abc' is not of type 'number'"),
        ("gamma", "10,nan", "shield/gamma: nan is not a finite number"),
        ("beta", "5,0", "policy/beta: 0.0 is less than or equal to the minimum of 0"),
    ])
    def test_sweep_value_outside_the_schema_exits_2(self, workdir, param, values, where):
        root, cfg_path, out = workdir
        csv = out / f"sweep_{param}.csv"
        before = csv.read_bytes() if csv.exists() else None
        proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(out),
                       "--param", param, "--values", values, "--episodes", "1")
        assert proc.returncode == 2, proc.stderr
        assert f"config invalid at {where}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (csv.read_bytes() if csv.exists() else None) == before

    def test_report_aggregates(self, workdir):
        root, cfg_path, out = workdir
        proc = run_cli("report", "--out", str(out))
        assert proc.returncode == 0
        report = json.loads((out / "report.json").read_text())
        assert "summary" in report and "bounds_full" in report

    def test_report_on_empty_dir_exits_3(self, tmp_path):
        proc = run_cli("report", "--out", str(tmp_path / "nothing"))
        assert proc.returncode == 3


class TestDemoCounts:
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_gen_demos_rejects_a_count_below_one(self, tmp_path, n):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        proc = run_cli("gen-demos", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n", n)
        assert proc.returncode == 2
        assert f"the demo count must be at least 1, got {n}" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n,cmd,extra,side", [
        ("1", "quantify", [], "1 demonstration(s) at train.holdout_frac=0.2 leave no held-out"),
        ("2", "train", ["--set", "train.holdout_frac=0.9"],
         "2 demonstration(s) at train.holdout_frac=0.9 leave no training"),
    ])
    def test_empty_side_of_the_split_exits_2(self, tmp_path, n, cmd, extra, side):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "o"
        assert run_cli("gen-demos", "--config", str(cfg), "--out", str(out), "--n", n).returncode == 0
        proc = run_cli(cmd, "--config", str(cfg), "--out", str(out), *extra)
        assert proc.returncode == 2, proc.stderr
        assert side in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["demos.jsonl"]

    def test_rollout_longer_than_the_demos_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "o"
        assert run_cli("gen-demos", "--config", str(cfg), "--out", str(out), "--n", "2").returncode == 0
        proc = run_cli("train", "--config", str(cfg), "--out", str(out),
                       "--set", "train.rollout_h=150")
        assert proc.returncode == 2, proc.stderr
        assert ("train.rollout_h=150 exceeds the shortest training demonstration (100 steps)"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["demos.jsonl"]


# -- the shared episode loop against the nested loops it replaced ---------------

ARTIFACTS = ("demos.jsonl", "model_full.bin", "model_pos.bin", "bounds_full.json",
             "bounds_pos.json")


def variant(**changes):
    """BASE_CONFIG with the given sections updated and seed group 1 listed twice."""
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["seeds"] = [1, 0, 1]
    for key, value in changes.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    return cfg


KNN = variant()
KNN_PATH = variant(policy={"type": "knn", "path": {"type": "straight"}})
CLF_PATH = variant(env={"task": "path-follow"},
                   policy={"type": "clf", "path": {"type": "straight"}})


def load_stack(out):
    demos = dyn.load_demos(out / "demos.jsonl")
    models = {"full": dyn.NeuralOdeModel.load(out / "model_full.bin")[0],
              "position": dyn.NeuralOdeModel.load(out / "model_pos.bin")[0]}
    bounds = {k: dyn.UncertaintyBounds.from_dict(json.loads((out / name).read_text()))
              for k, name in (("full", "bounds_full.json"), ("position", "bounds_pos.json"))}
    return demos, models, bounds


def old_run(cfg, out, ep_dir):
    """`run` as a nested loop over seed groups and episodes, written before
    the commands shared one episode loop; a repeated seed group overwrites
    the earlier one. Returns the summary and writes the episode CSVs."""
    demos, models, bounds = load_stack(out)
    policy, path = cfgmod.build_policy(cfg, model_full=models["full"], demos=demos)
    shield = cfgmod.build_shield(cfg, models, bounds, demos=demos)
    env_cfg = cfgmod.build_env(cfg)
    results_by_seed = {}
    for seed_group in cfg["seeds"]:
        results = []
        for i in range(cfg["episodes"]):
            result, log = run_episode(policy, env_cfg, seed=(cfg["seed"], seed_group, i),
                                      shield=shield, path=path)
            cli._write_episode_csv(ep_dir / f"ep{seed_group}_{i:03d}.csv", log,
                                   env_cfg.n_state, env_cfg.n_action)
            results.append(result)
        results_by_seed[seed_group] = results
    payload = None
    if shield is not None:
        payload = {"e_sdot": bounds["full"].e_sdot, "e_s": bounds["full"].e_s}
    summary = compute_metrics(results_by_seed, bounds=payload)
    summary["policy"] = cfg["policy"]["type"]
    summary["shield"] = cfg["shield"]["enabled"]
    return summary


def old_sweep(cfg, out, param, values):
    """The beta and gamma branches of `sweep` as they were written before
    the shared loop; returns the CSV text."""
    demos, models, bounds = load_stack(out)
    env_cfg = cfgmod.build_env(cfg)
    rows = []
    if param == "beta":
        path = cfgmod.build_path(cfg)
        for beta in values:
            policy = ClfPolicy(models["full"], path, beta)
            devs = [run_episode(policy, env_cfg, seed=(cfg["seed"], g, i), path=path)[0]
                    .tracking_dev for g in cfg["seeds"] for i in range(cfg["episodes"])]
            rows.append((beta, float(np.mean(devs))))
        header = "beta,tracking_dev_m"
    else:
        policy, path = cfgmod.build_policy(cfg, model_full=models["full"], demos=demos)
        for gamma in values:
            cfg_g = json.loads(json.dumps(cfg))
            cfg_g["shield"]["gamma"] = gamma
            shield = cfgmod.build_shield(cfg_g, models, bounds, demos=demos)
            margins = [run_episode(policy, env_cfg, seed=(cfg["seed"], g, i), shield=shield,
                                   path=path)[0].min_margin
                       for g in cfg["seeds"] for i in range(cfg["episodes"])]
            rows.append((gamma, float(np.mean(margins))))
        header = "gamma,mean_min_margin"
    return header + "\n" + "\n".join(f"{v!r},{m!r}" for v, m in rows) + "\n"


def without_timing_columns(text):
    """The CSV lines without their last two columns, build_time_us and solve_time_us."""
    return [line.rsplit(",", 2)[0] for line in text.splitlines()]


@pytest.fixture
def staged(workdir, tmp_path):
    """A fresh --out holding the shared run's demos, models and bounds."""
    _, _, src = workdir
    out = tmp_path / "out"
    out.mkdir()
    for name in ARTIFACTS:
        shutil.copyfile(src / name, out / name)

    def write_config(cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    return out, write_config


class TestEpisodeLoop:
    @pytest.mark.parametrize("cfg,shield", [(KNN, "on"), (KNN, "off"), (CLF_PATH, "on")],
                             ids=["knn-shielded", "knn-unshielded", "clf-path-shielded"])
    def test_run_matches_the_nested_loop(self, staged, tmp_path, cfg, shield):
        out, write_config = staged
        proc = run_cli("run", "--config", str(write_config(cfg)), "--out", str(out),
                       "--shield", shield)
        assert proc.returncode == 0, proc.stderr

        ref_cfg = cfgmod.validate(copy.deepcopy(cfg))
        ref_cfg["shield"]["enabled"] = shield == "on"
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        expected = old_run(ref_cfg, out, ref_dir)
        summary = json.loads((out / "summary.json").read_text())
        for s in (summary, expected):
            s.pop("inference_time_ms")
        assert summary == json.loads(json.dumps(expected))
        # the repeated seed group counts once, as it always has
        assert summary["episodes"] == 2 * cfg["episodes"]

        names = sorted(p.name for p in ref_dir.iterdir())
        assert sorted(p.name for p in (out / "episodes").iterdir()) == names
        for name in names:
            assert (without_timing_columns((out / "episodes" / name).read_text())
                    == without_timing_columns((ref_dir / name).read_text())), name

    def test_knn_on_a_path_follow_task_is_scored_at_the_path_end(self, staged):
        # a straight path ends at the reach goal, so the same kNN episodes
        # succeed as a path-follow task once the policy's path is passed on
        out, write_config = staged
        cfg = write_config(KNN)
        rates = []
        for task in ([], ["--set", "env.task=path-follow",
                          "--set", 'policy.path={"type":"straight"}']):
            proc = run_cli("run", "--config", str(cfg), "--out", str(out), "--shield", "off",
                           "--episodes", "2", "--set", "seeds=[0]", *task)
            assert proc.returncode == 0, proc.stderr
            summary = json.loads((out / "summary.json").read_text())
            rates.append(summary["success_rate_with_violation"]["mean"])
        assert rates == [1.0, 1.0]

    def test_path_follow_without_a_path_follows_the_default_path(self, staged):
        # validate gives a path-follow config the straight path to the goal,
        # whatever the policy, so its last waypoint can score the episode
        out, write_config = staged
        proc = run_cli("run", "--config", str(write_config(KNN)), "--out", str(out),
                       "--shield", "off", "--episodes", "2", "--set", "seeds=[0]",
                       "--set", "env.task=path-follow")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["success_rate_with_violation"]["mean"] == 1.0

    @pytest.mark.parametrize("kind", ["straight", "circle", "triangle"])
    def test_scripted_path_follow_reports_tracking_on_each_path_type(self, staged, kind):
        out, write_config = staged
        proc = run_cli("run", "--config", str(write_config(KNN)), "--out", str(out),
                       "--shield", "off", "--episodes", "1", "--set", "seeds=[0]",
                       "--set", "policy.type=scripted", "--set", "env.task=path-follow",
                       "--set", f'policy.path={{"type":"{kind}"}}')
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["tracking_dev_m"]["mean"])

    @pytest.mark.parametrize("cfg,param,values", [
        (KNN, "gamma", [2.0, 20.0]),
        (CLF_PATH, "gamma", [5.0]),
        (CLF_PATH, "beta", [5.0, 25.0]),
        (KNN_PATH, "beta", [5.0, 25.0]),
    ], ids=["knn-gamma", "clf-gamma", "clf-beta", "knn-with-path-beta"])
    def test_sweep_matches_the_nested_loop(self, staged, cfg, param, values):
        out, write_config = staged
        proc = run_cli("sweep", "--config", str(write_config(cfg)), "--out", str(out),
                       "--param", param, "--values", ",".join(map(str, values)))
        assert proc.returncode == 0, proc.stderr
        text = (out / f"sweep_{param}.csv").read_text()
        assert text == old_sweep(cfgmod.validate(copy.deepcopy(cfg)), out, param, values)

    def test_beta_sweep_on_knn_config_runs_the_clf(self, staged):
        # a kNN policy would ignore beta and report no tracking deviation
        out, write_config = staged
        proc = run_cli("sweep", "--config", str(write_config(KNN_PATH)), "--out", str(out),
                       "--param", "beta", "--values", "5,25", "--episodes", "1")
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in (out / "sweep_beta.csv").read_text().splitlines()[1:]]
        devs = [float(d) for _, d in rows]
        assert all(np.isfinite(devs)) and devs[0] != devs[1]

    def test_beta_sweep_on_knn_config_without_a_path_follows_the_default_path(self, staged):
        # the validated CLF config gains the default straight path, as `run` does
        out, write_config = staged
        proc = run_cli("sweep", "--config", str(write_config(KNN)), "--out", str(out),
                       "--param", "beta", "--values", "5,25")
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep_beta.csv").read_text() == old_sweep(
            cfgmod.validate(copy.deepcopy(KNN_PATH)), out, "beta", [5.0, 25.0])

    def test_gen_demos_judges_path_follow_against_the_path(self, tmp_path):
        proc = run_cli("gen-demos", "--config", str(ROOT / "configs" / "path_gamma_sweep.json"),
                       "--out", str(tmp_path / "o"), "--n", "20")
        assert proc.returncode == 0, proc.stderr
        assert "(20/20 reached the goal)" in proc.stdout

    def test_gen_demos_on_path_follow_without_a_path_reaches_the_goal(self, tmp_path):
        proc = run_cli("gen-demos", "--config", str(ROOT / "bench" / "scenes" / "fit.json"),
                       "--out", str(tmp_path / "o"), "--n", "5", "--set", "env.task=path-follow")
        assert proc.returncode == 0, proc.stderr
        assert "(5/5 reached the goal)" in proc.stdout


# -- episode CSVs -------------------------------------------------------------


def old_write_episode_csv(path, log, n_state, n_action):
    """The episode CSV writer as it was, one float() and repr per value."""
    cols = ["t"]
    cols += [f"s{i}" for i in range(n_state)]
    cols += [f"a_des{i}" for i in range(n_action)]
    cols += [f"a_safe{i}" for i in range(n_action)]
    k = log.filter_margins.shape[1] if log.filter_margins is not None else log.margins.shape[1]
    cols += [f"margin{i}" for i in range(k)]
    cols += ["slack", "build_time_us", "solve_time_us"]
    lines = [",".join(cols)]
    for t in range(log.a_des.shape[0]):
        m = log.filter_margins[t] if log.filter_margins is not None else log.margins[t + 1]
        row = [str(t)]
        row += [repr(float(v)) for v in log.states[t + 1]]
        row += [repr(float(v)) for v in log.a_des[t]]
        row += [repr(float(v)) for v in log.a_safe[t]]
        row += [repr(float(v)) for v in m]
        row += [repr(float(log.slack[t])), repr(float(log.build_time_us[t])),
                repr(float(log.solve_time_us[t]))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


class TestEpisodeCsv:
    @pytest.mark.parametrize("shielded", [False, True])
    def test_bytes_match_the_per_value_writer(self, tmp_path, shielded):
        env_cfg = cfgmod.build_env(cfgmod.validate(copy.deepcopy(BASE_CONFIG)))
        policy, _ = cfgmod.build_policy(cfgmod.validate(
            {**copy.deepcopy(BASE_CONFIG), "policy": {"type": "scripted"}}))
        _, rec = run_episode(policy, env_cfg, seed=(0, 1))
        log = TrajectoryLog(**{k: v.copy() for k, v in vars(rec).items() if v is not None})
        if shielded:
            log.filter_margins = np.linspace(-1.0, 1.0, 2 * len(log.slack)).reshape(-1, 2)
            log.filter_margins[3] = [-0.0, 5e-324]
        # values whose text is easy to get wrong: signed zero, subnormals, extremes
        log.states[1, :3] = [-0.0, 5e-324, -2.2250738585072014e-308]
        log.a_des[0, :2] = [1e300, -1e-300]
        log.a_safe[2, 0] = -0.0
        log.margins[4] = -0.0
        log.slack[1], log.build_time_us[2], log.solve_time_us[0] = -0.0, 7.5e-3, 123.456
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_episode_csv(new, log, env_cfg.n_state, env_cfg.n_action)
        old_write_episode_csv(old, log, env_cfg.n_state, env_cfg.n_action)
        assert new.read_bytes() == old.read_bytes()
        assert new.read_text().splitlines()[1].startswith("0,")
        assert ",-0.0," in new.read_text() and "5e-324" in new.read_text()


# -- each stage parses only the demonstrations it uses ---------------------------


def count_parses(monkeypatch):
    """Count dyn.parse_demo calls from here on."""
    calls = []
    parse = dyn.parse_demo

    def counted(line):
        calls.append(line)
        return parse(line)

    monkeypatch.setattr(dyn, "parse_demo", counted)
    return calls


BASE_CONFIG_HOLDOUT = cfgmod.DEFAULTS["train"]["holdout_frac"]


def split_sizes(n):
    train, held = dyn.split_demos(list(range(n)), BASE_CONFIG_HOLDOUT, seed=BASE_CONFIG["seed"])
    return len(train), len(held)


def bounds_text(bounds):
    return json.dumps(bounds.to_dict(), indent=2, sort_keys=True) + "\n"


class TestStagesParseTheirSide:
    def test_quantify_parses_the_held_out_demos_alone(self, staged, monkeypatch):
        out, write_config = staged
        cfg = write_config(BASE_CONFIG)
        for name in ("bounds_full.json", "bounds_pos.json"):
            (out / name).unlink()
        calls = count_parses(monkeypatch)
        assert cli.main(["quantify", "--config", str(cfg), "--out", str(out)]) == 0
        n_train, n_held = split_sizes(20)
        assert (n_train, n_held) == (16, 4)
        assert len(calls) == n_held

        _, held = dyn.split_demos(dyn.load_demos(out / "demos.jsonl"), BASE_CONFIG_HOLDOUT,
                                  seed=BASE_CONFIG["seed"])
        full, _ = dyn.NeuralOdeModel.load(out / "model_full.bin")
        pos, _ = dyn.NeuralOdeModel.load(out / "model_pos.bin")
        expected = {
            "bounds_full.json": dyn.quantify_uncertainty(full, held),
            "bounds_pos.json": dyn.quantify_uncertainty(
                pos, dyn.slice_demos(held, dyn.POSITION_DIMS, dyn.POSITION_DIMS)),
        }
        for name, bounds in expected.items():
            assert (out / name).read_text() == bounds_text(bounds), name

    def test_train_parses_the_training_demos_alone(self, staged, monkeypatch, tmp_path):
        out, write_config = staged
        cfg_path = write_config(BASE_CONFIG)
        calls = count_parses(monkeypatch)
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls) == split_sizes(20)[0]
        monkeypatch.undo()

        cfg = cfgmod.validate(copy.deepcopy(BASE_CONFIG))
        train_demos, _ = dyn.split_demos(dyn.load_demos(out / "demos.jsonl"),
                                         BASE_CONFIG_HOLDOUT, seed=cfg["seed"])
        tc = cfgmod.build_train_config(cfg)
        e = cfg["env"]
        model = dyn.NeuralOdeModel.create(n_state=e["n_state"], n_action=e["n_action"], dt=e["dt"])
        trained, losses = dyn.train(model, train_demos, tc)
        extra = {"train_seed": tc.seed, "holdout_frac": BASE_CONFIG_HOLDOUT}
        ref = tmp_path / "reference"
        ref.mkdir()
        trained.save(ref / "model_full.bin", extra=extra)
        cli._write_loss_csv(ref / "loss_full.csv", losses)
        pos_model, pos_losses = dyn.derive_position_model(model, train_demos, tc)
        pos_model.save(ref / "model_pos.bin", extra=extra)
        cli._write_loss_csv(ref / "loss_pos.csv", pos_losses)
        for name in ("model_full.bin", "loss_full.csv", "model_pos.bin", "loss_pos.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def truncate_line(path, lineno):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1][: len(lines[lineno - 1]) // 2] + b"\n"
    path.write_bytes(b"".join(lines))


def bad_byte_in_line(path, lineno):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].replace(b"0.", b"0.\xff", 1)
    path.write_bytes(b"".join(lines))


class TestMalformedDemoLine:
    @pytest.mark.parametrize("corrupt", [truncate_line, bad_byte_in_line])
    def test_run_names_a_corrupt_last_line_and_exits_3(self, staged, corrupt):
        out, write_config = staged
        corrupt(out / "demos.jsonl", 20)
        proc = run_cli("run", "--config", str(write_config(BASE_CONFIG)), "--out", str(out),
                       "--episodes", "1")
        assert proc.returncode == 3, proc.stderr
        assert "demos.jsonl line 20 is not a demonstration" in proc.stderr
        assert "run gen-demos again" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("side", ["training", "held-out"])
    def test_quantify_reports_only_the_lines_it_parses(self, staged, capsys, side):
        out, write_config = staged
        train, held = dyn.split_demos(list(range(1, 21)), BASE_CONFIG_HOLDOUT,
                                      seed=BASE_CONFIG["seed"])
        lineno = (train if side == "training" else held)[-1]
        truncate_line(out / "demos.jsonl", lineno)
        code = cli.main(["quantify", "--config", str(write_config(BASE_CONFIG)),
                         "--out", str(out)])
        if side == "training":
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_MISSING
            assert f"demos.jsonl line {lineno} is not a demonstration" in capsys.readouterr().err
