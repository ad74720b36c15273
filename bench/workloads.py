"""The three workloads. Each drives the program in-process through its CLI
stages (`safectl.cli.main`) and public API, in a work directory under
.bench_runs/ that is removed when the run ends.

Set-up (timed as setup_s, median of SETUP_REPS) validates the scene and runs
gen-demos; the shielded workloads also load the fixture models, run quantify
and build the policy and shield. The timed phase then repeats one cycle of
stages until --seconds are spent:

- fit:         gen-demos, train (both models, 5 epochs), quantify x2. No shield.
- reach_knn,
  clutter_clf: run (shield on, fixture models), train (2 epochs, into a side
               directory whose models nothing uses), quantify.

Every workload thus reports every end-to-end metric, each from a stage it
really runs; the machine's speed drifts within a run, so spreading each
metric's samples over the whole phase and reporting their median keeps it
steady. A cycle repeats the same operations on the same inputs, so every
cycle's outputs must be identical and the share of failed operations is the
same however many cycles a run fits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from safectl import cli
from safectl import config as cfgmod
from safectl import dynamics as dyn

import checks
import common
from tracing import Probe, Tracer, layer_metrics

SETUP_REPS = 3          # set-ups per run; setup_s is their median plus the import time
FIT_QUANTIFY_REPS = 2   # quantify calls per fit cycle
SIDE_TRAIN_EPOCHS = 2   # train budget timed for train_s on the shielded workloads
QP_SAMPLE = 30          # intervened steps re-solved independently per run
DEMOS = 100

SCENES = {"fit": "fit.json", "reach_knn": "reach_knn.json", "clutter_clf": "clutter_clf.json"}
EPISODES_PER_CYCLE = {"reach_knn": 6, "clutter_clf": 5}

END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("quantify_s", "s"),
    ("control_step_p50_us", "us"),
    ("control_step_p90_us", "us"),
    ("sim_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


class Failure(RuntimeError):
    """A stage exited non-zero or identical cycles produced different outputs."""


def stage(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise Failure(f"safectl {argv[0]} exited with {code}")


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def median(xs) -> float:
    return float(statistics.median(xs))


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, t_start: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = t_start
        self.scene = common.SCENES / SCENES[workload]
        self.cfg = cfgmod.load(self.scene)
        self.dir = common.RUNS / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.work = self.dir / "work"
        self.tracer = Tracer() if trace else None
        self.times: dict[str, list[float]] = {}
        self.hashes: list[str] = []
        self.notes: list[str] = []

    def cli(self, name: str, *argv, out: Path | None = None, key: str | None = None) -> float:
        """Run one CLI stage on this run's scene and seed; record its time under key."""
        t = timed(stage, name, "--config", self.scene, "--out", out or self.work,
                  "--seed", self.seed, *argv)
        if key is not None:
            self.times.setdefault(key, []).append(t)
        return t

    def gen_demos(self) -> float:
        return self.cli("gen-demos", "--n", DEMOS, *common.DEMO_SETTINGS)

    def setup(self, body) -> float:
        """SETUP_REPS timed set-ups (one, traced, in a traced run). Returns
        setup_s: the time from process start to the end of the set-ups, with
        the set-ups counted once at their median."""
        reps = []
        for _ in range(1 if self.trace else SETUP_REPS):
            with self.traced(self.trace):
                t0 = time.perf_counter()
                cfgmod.load(self.scene)
                body()
                reps.append(time.perf_counter() - t0)
        return (time.perf_counter() - self.t_start) - sum(reps) + median(reps)

    @contextmanager
    def traced(self, on: bool):
        """Install the tracer's wrappers for the body when `on`."""
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def cycles(self, cycle) -> tuple[list, list]:
        """Call cycle(traced) until --seconds are spent, starting a cycle only
        while the last one still fits. A traced run alternates untraced and
        traced cycles, at least one of each. Returns the (untraced, traced)
        cycle durations."""
        untraced, traced = [], []
        t0 = time.perf_counter()
        last = 0.0
        while (not untraced or (self.trace and not traced)
               or time.perf_counter() - t0 + last <= self.seconds):
            on = self.trace and len(untraced) > len(traced)
            with self.traced(on):
                last = timed(cycle, on)
            (traced if on else untraced).append(last)
        if len(set(self.hashes)) != 1:
            raise Failure("identical cycles produced different outputs")
        return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def step_percentiles(step_s: list) -> dict:
    us = 1e6 * np.asarray(step_s)
    return {"control_step_p50_us": float(np.percentile(us, 50)),
            "control_step_p90_us": float(np.percentile(us, 90))}


# -- fit -------------------------------------------------------------------------


def fit(run: Run) -> tuple[dict, int, int]:
    setup_s = run.setup(run.gen_demos)
    w = run.work
    outputs = [w / n for n in (cli.DEMOS, cli.MODEL_FULL, cli.MODEL_POS, cli.LOSS_FULL,
                               cli.LOSS_POS, cli.BOUNDS_FULL, cli.BOUNDS_POS)]
    probe = Probe(shielded=False)
    steps_per_s = []

    def cycle(traced: bool):
        n0 = len(probe.step_s)
        probe.install()
        try:
            g = run.gen_demos()
        finally:
            probe.uninstall()
        if traced:
            del probe.step_s[n0:]
        else:
            steps_per_s.append((len(probe.step_s) - n0) / g)
        run.cli("train", key=None if traced else "train")
        for _ in range(FIT_QUANTIFY_REPS):
            run.cli("quantify", key=None if traced else "quantify")
        run.hashes.append(digest(*outputs))

    untraced, traced = run.cycles(cycle)

    demos = checks.read_demos(w / cli.DEMOS)
    env = run.cfg["env"]
    demo_fail = 0
    for i, d in enumerate(demos):
        problems = checks.check_demo(d, env["goal"], env["goal_tol"], env["a_max"])
        demo_fail += bool(problems)
        run.notes += [f"demo {i}: {p}" for p in problems]
    train_fail, quant_fail = fit_stage_checks(run, demos)
    n = len(run.hashes)
    attempted = n * (len(demos) + 1 + FIT_QUANTIFY_REPS)
    failed = n * (demo_fail + train_fail + FIT_QUANTIFY_REPS * quant_fail)
    if run.trace:
        return trace_result(run, untraced, traced, csv_bytes=0.0), attempted, failed
    print(f"fit: {n} cycles; {len(probe.step_s)} scripted-expert steps timed")
    return {
        "setup_s": setup_s,
        "train_s": median(run.times["train"]),
        "quantify_s": median(run.times["quantify"]),
        **step_percentiles(probe.step_s),
        "sim_steps_per_s": median(steps_per_s),
        "peak_rss_mb": peak_rss_mb(),
    }, attempted, failed


def fit_stage_checks(run: Run, demos: list) -> tuple[int, int]:
    """(train failed, quantify failed): train fails unless both loss curves
    halve; quantify fails unless both bound files match the independent
    recomputation and each trained e_s beats its untrained model's."""
    w = run.work
    train_problems, quant_problems = [], []
    for loss in (cli.LOSS_FULL, cli.LOSS_POS):
        train_problems += checks.check_losses(checks.read_losses(w / loss))
    for model_name, bounds_name, dims in ((cli.MODEL_FULL, cli.BOUNDS_FULL, None),
                                          (cli.MODEL_POS, cli.BOUNDS_POS, [0, 1, 2])):
        model = checks.read_model(w / model_name)
        hdr = model["header"]
        held = checks.heldout(demos, float(hdr["holdout_frac"]), int(hdr["train_seed"]))
        e_sdot, e_s = checks.error_bounds(model, held, dims, dims)
        reported = json.loads((w / bounds_name).read_text())
        quant_problems += checks.check_bounds(reported, e_sdot, e_s)
        untrained = checks.glorot_model(model["n_state"], model["n_action"],
                                        model["w1"].shape[0], int(hdr["seed"]), model["dt"])
        _, e_s_untrained = checks.error_bounds(untrained, held, dims, dims)
        quant_problems += checks.check_beats_untrained(e_s, e_s_untrained)
    run.notes += train_problems + quant_problems
    return int(bool(train_problems)), int(bool(quant_problems))


# -- shielded workloads --------------------------------------------------------------


def shielded(run: Run) -> tuple[dict, int, int]:
    w = run.work

    def setup_body():
        run.gen_demos()
        for name in (cli.MODEL_FULL, cli.MODEL_POS):
            shutil.copyfile(common.FIXTURES / name, w / name)
        run.cli("quantify")
        build_stack(run.cfg, w)

    setup_s = run.setup(setup_body)
    side = run.dir / "side-train"
    side.mkdir()
    shutil.copyfile(w / cli.DEMOS, side / cli.DEMOS)
    probe = Probe(shielded=True)
    n_ep = EPISODES_PER_CYCLE[run.workload]
    steps_per_s = []

    def cycle(traced: bool):
        n0 = len(probe.step_s)
        probe.records.clear()
        probe.install()
        try:
            t = run.cli("run", "--episodes", n_ep)
        finally:
            probe.uninstall()
        if traced:
            del probe.step_s[n0:]
        else:
            steps_per_s.append(len(probe.records) / t)
        h = hashlib.sha256()
        for s, a_des, rep, _ in probe.records:
            h.update(s.tobytes() + a_des.tobytes() + rep.a_safe.tobytes())
        run.hashes.append(h.hexdigest())
        run.cli("train", "--set", f"train.epochs={SIDE_TRAIN_EPOCHS}", out=side,
                key=None if traced else "train")
        run.cli("quantify", key=None if traced else "quantify")

    untraced, traced = run.cycles(cycle)

    bad = episode_checks(run, probe.records)
    n = len(run.hashes)
    attempted, failed = n * n_ep, n * bad
    if run.trace:
        sizes = [p.stat().st_size for p in (w / "episodes").glob("*.csv")]
        return trace_result(run, untraced, traced, csv_bytes=float(np.mean(sizes))), \
            attempted, failed
    hit = sum(r[2].intervened for r in probe.records)
    print(f"{run.workload}: {n} cycles of {n_ep} episodes; {len(probe.step_s)} control "
          f"steps timed; the shield intervened on {hit} of {len(probe.records)} steps a cycle")
    return {
        "setup_s": setup_s,
        "train_s": median(run.times["train"]),
        "quantify_s": median(run.times["quantify"]),
        **step_percentiles(probe.step_s),
        "sim_steps_per_s": median(steps_per_s),
        "peak_rss_mb": peak_rss_mb(),
    }, attempted, failed


def build_stack(cfg: dict, out: Path):
    demos = dyn.load_demos(out / cli.DEMOS)
    models = {"full": dyn.NeuralOdeModel.load(out / cli.MODEL_FULL)[0],
              "position": dyn.NeuralOdeModel.load(out / cli.MODEL_POS)[0]}
    bounds = {k: dyn.UncertaintyBounds.from_dict(json.loads((out / f).read_text()))
              for k, f in (("full", cli.BOUNDS_FULL), ("position", cli.BOUNDS_POS))}
    cfgmod.build_policy(cfg, model_full=models["full"], demos=demos)
    cfgmod.build_shield(cfg, models, bounds, demos=demos)


def target_of(cfg: dict):
    env = cfg["env"]
    if env["task"] == "path-follow":
        return cfg["policy"]["path"]["waypoints"][-1]
    return env["goal"]


def episode_checks(run: Run, records: list) -> int:
    """Number of episodes of one cycle that fail a check. `records` holds the
    cycle's filter calls in order: (state, a_des, report, shield)."""
    env = run.cfg["env"]
    n, m = env["n_state"], env["n_action"]
    files = sorted((run.work / "episodes").glob("ep*_*.csv"))
    failed = set()
    owner = []
    pos = 0
    for i, path in enumerate(files):
        ep = checks.read_episode_csv(path, n, m)
        steps = ep["a_safe"].shape[0]
        recs = records[pos:pos + steps]
        owner += [i] * len(recs)
        pos += steps
        intervened = np.array([r[2].intervened for r in recs], dtype=bool)
        problems = checks.check_episode(ep, intervened, env["zones"], target_of(run.cfg),
                                        env["goal_tol"], env["a_max"])
        if problems:
            failed.add(i)
            run.notes.append(f"{path.name}: " + "; ".join(problems))
    if pos != len(records):
        raise Failure(f"{len(records)} filter calls for {pos} logged steps")
    hit = [j for j, r in enumerate(records) if r[2].intervened]
    for k in np.linspace(0, len(hit) - 1, min(QP_SAMPLE, len(hit))):
        j = hit[int(round(k))]
        s, a_des, rep, sh = records[j]
        G, h = sh.constraint_rows(s)
        problems = checks.check_projection(G, h, sh.config.lb, sh.config.ub, a_des, rep.a_safe)
        if rep.infeasible:
            problems.append("the shield fell back to the slack relaxation")
        if problems:
            failed.add(owner[j])
            run.notes.append(f"step {j}: " + "; ".join(problems))
    return len(failed)


# -- traced runs ------------------------------------------------------------------------


def trace_result(run: Run, untraced: list, traced: list, csv_bytes: float) -> dict:
    overhead = 100.0 * (median(traced) / median(untraced) - 1.0) if traced else 0.0
    metrics = layer_metrics(run.tracer, {"cli.episode_csv_bytes": csv_bytes,
                                         "trace.overhead_pct": overhead})
    path = common.RUNS / "traces" / f"{run.workload}-seed{run.seed}-pid{os.getpid()}.npz"
    run.tracer.save(path, {"workload": run.workload, "seed": run.seed,
                           "untraced_cycle_s": untraced, "traced_cycle_s": traced})
    print(f"{run.workload}: {len(run.tracer.start)} spans written to {path}; tracing "
          f"overhead {overhead:.1f}% ({len(traced)} traced, {len(untraced)} untraced cycles)")
    return metrics


WORKLOADS = {"fit": fit, "reach_knn": shielded, "clutter_clf": shielded}


def run(workload: str, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    r = Run(workload, seed, seconds, trace, t_start)
    r.work.mkdir(parents=True)
    try:
        values, attempted, failed = WORKLOADS[workload](r)
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)
    for note in r.notes:
        print(f"check failed: {note}")
    if not trace:
        values = {name: {"value": float(values[name]), "unit": unit}
                  for name, unit in END_TO_END}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": values}
