"""Per-layer timings of the shielded control step.

Records one seed-1 `run` of each shielded benchmark scene (reach_knn and
clutter_clf, on the benchmark's fixture models, as the benchmark sets them
up), then times each layer of the control step on the recorded inputs:

- act:                the policy's `act`, replayed episode by episode
- model.<binding>:    one `drift_and_gain_batch` call at the binding's state
- barrier.<i>.<kind>: one `value_and_grad_batch` call of constraint i
- rows_and_margins:   `SafetyShield.rows_and_margins`, the whole row build
- row_assembly:       the same with every model and barrier call answered
                      from a table of its results, so the row arithmetic alone
- qp_problem:         `qp.QpProblem(...)` on the step's rows and action box
- solve_with_slack:   `qp.solve_with_slack` on that problem
- filter:             `SafetyShield.filter`, rows through the QP

Each layer is timed once per recorded step in a pass, and passes repeat,
layers interleaved, until --seconds are spent (at least one pass). The median
and quartiles of the per-call times (microseconds) go to
BENCH_control_step.json at the repo root, with the machine and library
versions. bench/scenes and bench/fixtures are read, never written; the set-up
stages run in a temporary directory. It imports safectl from this checkout's
src/.

    python tools/control_step_layers.py [--seconds 20] [--out BENCH_control_step.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "bench" / "scenes"
FIXTURES = ROOT / "bench" / "fixtures"
# the episodes one benchmark cycle runs on each shielded scene
EPISODES = {"reach_knn": 6, "clutter_clf": 5}
SEED = 1

if __name__ == "__main__":
    # one single-threaded process, as the benchmark runs: set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from safectl import cli, qp, sim  # noqa: E402
from safectl.dynamics import POSITION_DIMS  # noqa: E402
from safectl.shield import SafetyShield  # noqa: E402


def stage(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"safectl {argv[0]} exited with {code}")


def record(scene: str, work: Path) -> list:
    """Set the scene up as the benchmark does and run it once at seed 1.
    Returns one (policy, obs, t, a_des, s, shield) per filter call, in order."""
    common = ["--config", SCENES / f"{scene}.json", "--out", work, "--seed", SEED]
    stage("gen-demos", *common, "--n", 100, "--set", "env.task=reach",
          "--set", "env.horizon=100")
    for name in (cli.MODEL_FULL, cli.MODEL_POS):
        shutil.copyfile(FIXTURES / name, work / name)
    stage("quantify", *common)
    steps, acts = [], []
    originals = {cls: cls.__dict__["act"] for cls in (sim.KnnPolicy, sim.ClfPolicy)}
    filt = SafetyShield.__dict__["filter"]

    def make_act(act):
        def recorded_act(pol, obs, t):
            acts.append((pol, np.array(obs), t))
            return act(pol, obs, t)
        return recorded_act

    def recorded_filter(sh, a_des, s):
        steps.append((*acts[-1], np.array(a_des), np.array(s), sh))
        return filt(sh, a_des, s)

    try:
        for cls, act in originals.items():
            cls.act = make_act(act)
        SafetyShield.filter = recorded_filter
        stage("run", *common, "--episodes", EPISODES[scene])
    finally:
        for cls, act in originals.items():
            cls.act = act
        SafetyShield.filter = filt
    return steps


def binding_state(binding: str, s):
    return s[list(POSITION_DIMS)] if binding == "position" else s


def layer_calls(steps: list) -> dict:
    """name -> a function that times its layer once per recorded step and
    returns the per-call times in seconds."""
    clock = time.perf_counter
    sh = steps[0][5]
    cfg, m = sh.config, steps[0][3].shape[0]
    eye = np.eye(m)
    rows = [sh.rows_and_margins(s) for *_, s, _ in steps]
    problems = [qp.QpProblem(P=eye, q=-a_des, G=G, h=h, lb=cfg.lb, ub=cfg.ub)
                for (_, _, _, a_des, _, _), (G, h, _) in zip(steps, rows)]

    def timed(fn, args):
        out = []
        for a in args:
            t0 = clock()
            fn(*a)
            out.append(clock() - t0)
        return out

    def act():
        out = []
        for pol, obs, t, *_ in steps:
            if t == 0:
                pol.reset(None)
            t0 = clock()
            pol.act(obs, t)
            out.append(clock() - t0)
        return out

    def row_assembly():
        # answer each model and barrier call from its result at the step
        models = {b: sh.models[b] for b in {c.binding for c in cfg.constraints}}
        answers = [({b: model.drift_and_gain_batch(binding_state(b, s)[None, :])
                     for b, model in models.items()},
                    [c.barrier.value_and_grad_batch(binding_state(c.binding, s)[None, :])
                     for c in cfg.constraints]) for *_, s, _ in steps]
        out = []
        try:
            for (*_, s, _), (model_out, barrier_out) in zip(steps, answers):
                for b, model in models.items():
                    model.drift_and_gain_batch = lambda y, r=model_out[b]: r
                for c, r in zip(cfg.constraints, barrier_out):
                    c.barrier.value_and_grad_batch = lambda y, r=r: r
                t0 = clock()
                sh.rows_and_margins(s)
                out.append(clock() - t0)
        finally:
            for obj in [*models.values(), *(c.barrier for c in cfg.constraints)]:
                obj.__dict__.pop("drift_and_gain_batch", None)
                obj.__dict__.pop("value_and_grad_batch", None)
        return out

    calls = {"act": act}
    for b in sorted({c.binding for c in cfg.constraints}):
        ys = [(binding_state(b, s)[None, :],) for *_, s, _ in steps]
        calls[f"model.{b}"] = lambda fn=sh.models[b].drift_and_gain_batch, ys=ys: timed(fn, ys)
    for i, c in enumerate(cfg.constraints):
        ys = [(binding_state(c.binding, s)[None, :],) for *_, s, _ in steps]
        name = f"barrier.{i}.{type(c.barrier).__name__}"
        calls[name] = lambda fn=c.barrier.value_and_grad_batch, ys=ys: timed(fn, ys)
    calls["rows_and_margins"] = lambda: timed(sh.rows_and_margins, [(s,) for *_, s, _ in steps])
    calls["row_assembly"] = row_assembly
    calls["qp_problem"] = lambda: timed(
        lambda a_des, G, h: qp.QpProblem(P=eye, q=-a_des, G=G, h=h, lb=cfg.lb, ub=cfg.ub),
        [(a_des, G, h) for (_, _, _, a_des, _, _), (G, h, _) in zip(steps, rows)])
    calls["solve_with_slack"] = lambda: timed(qp.solve_with_slack, [(p,) for p in problems])
    calls["filter"] = lambda: timed(sh.filter, [(a_des, s) for *_, a_des, s, _ in steps])
    return calls


def summarize(times: list) -> dict:
    us = 1e6 * np.asarray(times)
    q1, med, q3 = np.percentile(us, [25, 50, 75])
    return {"median_us": round(float(med), 2), "q1_us": round(float(q1), 2),
            "q3_us": round(float(q3), 2), "calls": int(us.size)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timing budget per scene, after its set-up (default 20)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_control_step.json")
    args = ap.parse_args(argv)
    result = {"seed": SEED, "episodes": EPISODES, "seconds_per_scene": args.seconds,
              "machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "processor": platform.machine(),
                          "cpus": os.cpu_count()},
              "scenes": {}}
    for scene in EPISODES:
        with tempfile.TemporaryDirectory(prefix="control-step-") as work:
            steps = record(scene, Path(work))
            calls = layer_calls(steps)
            times = {name: [] for name in calls}
            end = time.perf_counter() + args.seconds
            passes = 0
            while passes == 0 or time.perf_counter() < end:
                for name, fn in calls.items():
                    times[name] += fn()
                passes += 1
        result["scenes"][scene] = {"steps": len(steps), "passes": passes,
                                   "layers": {k: summarize(v) for k, v in times.items()}}
        layers = result["scenes"][scene]["layers"]
        print(f"{scene}: {len(steps)} steps, {passes} passes; median us: "
              + ", ".join(f"{k} {v['median_us']:.1f}" for k, v in layers.items()))
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
