"""Spans recorded from outside the program, by wrapping its public functions.

A Tracer patches the functions `targets()` lists with wrappers that record
one span per call (name, start, end, parent span, and up to two counts taken
from the arguments or the result) in memory; `save` writes them out when the
run ends. `uninstall` puts the originals back, so untraced work in the same
process runs the program's own code. A span's self time is its duration minus
the durations of its direct children.

The Probe is the only wrapper an untraced run installs: it times observation
to safe action (policy `act` through `SafetyShield.filter`) and keeps each
step's filter inputs and report for the output checks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

NAN = float("nan")


def _rows(args, result):
    return float(result[0].shape[0]), NAN


def _intervened(args, result):
    return float(result.intervened), NAN


def _solve_counts(args, result):
    return float(args[0].G.shape[0]), float(len(result.active_set))


def _transitions(args, result):
    return float(sum(len(d.actions) for d in args[1])), NAN


def _tape_nodes(args, result):
    return float(len(args[0].nodes)), NAN


def targets():
    """(owner, attribute, span name, counts) for every wrapped call.

    Module functions are patched in the namespace their caller looks them up
    in: `cli` imports run_episode by name, `sim` imports clf_action by name and
    `dynamics` imports autodiff's backward by name."""
    from safectl import barriers, cli, config, dynamics, qp, shield, sim
    from safectl import control

    return [
        (shield.SafetyShield, "filter", "shield.filter", _intervened),
        (shield.SafetyShield, "constraint_rows", "shield.constraint_rows", _rows),
        (shield.SafetyShield, "margins", "shield.margins", None),
        (barriers.SphereZone, "value_and_grad", "barriers.sphere", None),
        (barriers.SphereZone, "value", "barriers.sphere", None),
        (barriers.CylinderZone, "value_and_grad", "barriers.cylinder", None),
        (barriers.CylinderZone, "value", "barriers.cylinder", None),
        (barriers.TaskSpaceBarrier, "value_and_grad", "barriers.task_space", None),
        (barriers.TaskSpaceBarrier, "value", "barriers.task_space", None),
        (dynamics.NeuralOdeModel, "drift_and_gain", "dynamics.drift_and_gain", None),
        (dynamics, "train", "dynamics.train", None),
        (dynamics, "quantify_uncertainty", "dynamics.quantify", _transitions),
        (dynamics, "backward", "autodiff.backward", _tape_nodes),
        (qp, "solve", "qp.solve", _solve_counts),
        (qp, "solve_with_slack", "qp.solve_with_slack", None),
        (sim, "clf_action", "control.clf", None),
        (control.KnnExpertPolicy, "action", "control.knn", None),
        (sim.KinematicEnv, "step", "sim.env_step", None),
        (cli, "run_episode", "sim.episode", None),
        (cli, "cmd_run", "cli.run", None),
        (cli, "cmd_gen_demos", "cli.gen_demos", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_quantify", "cli.quantify", None),
        (config, "build_shield", "config.build_shield", None),
    ]


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count1: list[float] = []
        self.count2: list[float] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, fn, name, counts):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack, rec_name, rec_parent = self._stack, self.name, self.parent
        rec_start, rec_end, c1, c2 = self.start, self.end, self.count1, self.count2

        def wrapper(*args, **kwargs):
            idx = len(rec_start)
            rec_name.append(nid)
            rec_parent.append(stack[-1] if stack else -1)
            rec_end.append(NAN)
            c1.append(NAN)
            c2.append(NAN)
            stack.append(idx)
            rec_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec_end[idx] = clock()
                stack.pop()
            if counts is not None:
                c1[idx], c2[idx] = counts(args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, counts in targets():
            self._patches.set(owner, attr, self._wrap(owner.__dict__[attr], name, counts))

    def uninstall(self):
        self._patches.restore()

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "count1": np.asarray(self.count1),
            "count2": np.asarray(self.count2),
        }

    def save(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(json.dumps(self.names)),
                            meta=np.asarray(json.dumps(meta)), **self.arrays())


class Probe:
    """Observation-to-safe-action timer. With a shield, a step runs from the
    policy's `act` call to the end of `SafetyShield.filter`; without one it is
    the `act` call alone."""

    def __init__(self, shielded: bool):
        self.shielded = shielded
        self.step_s: list[float] = []
        self.records: list[tuple] = []  # (s, a_des, report, shield) per filter call
        self._t_act = 0.0
        self._patches = _Patches()

    def install(self):
        from safectl import shield, sim

        clock = time.perf_counter
        steps = self.step_s
        for cls in (sim.KnnPolicy, sim.ClfPolicy, sim.ScriptedPolicy):
            act = cls.__dict__["act"]
            if self.shielded:
                def timed_act(pol, obs, t, _act=act):
                    self._t_act = clock()
                    return _act(pol, obs, t)
            else:
                def timed_act(pol, obs, t, _act=act):
                    t0 = clock()
                    a = _act(pol, obs, t)
                    steps.append(clock() - t0)
                    return a
            self._patches.set(cls, "act", timed_act)
        if self.shielded:
            filt = shield.SafetyShield.__dict__["filter"]
            records = self.records

            def timed_filter(sh, a_des, s):
                report = filt(sh, a_des, s)
                steps.append(clock() - self._t_act)
                records.append((s, a_des, report, sh))
                return report

            self._patches.set(shield.SafetyShield, "filter", timed_filter)

    def uninstall(self):
        self._patches.restore()


# -- per-layer metrics ---------------------------------------------------------------

PER_LAYER = [
    ("shield.filter.us", "us/call"),
    ("shield.constraint_rows.self_us", "us/call"),
    ("shield.margins.us", "us/call"),
    ("shield.rows_per_step", "count"),
    ("shield.interventions", "count/run"),
    ("barriers.task_space.calls_per_step", "count"),
    ("barriers.task_space.us_per_call", "us"),
    ("barriers.sphere.us_per_call", "us"),
    ("barriers.cylinder.us_per_call", "us"),
    ("dynamics.drift_and_gain.calls_per_step", "count"),
    ("dynamics.drift_and_gain.us_per_call", "us"),
    ("dynamics.train.ms_per_grad_step", "ms"),
    ("dynamics.quantify.us_per_transition", "us"),
    ("autodiff.tape_nodes_per_grad_step", "count"),
    ("autodiff.backward.ms_per_call", "ms"),
    ("qp.solve.calls_per_step", "count"),
    ("qp.solve.us_per_call", "us"),
    ("qp.rows_per_solve", "count"),
    ("qp.active_rows_per_solve", "count"),
    ("qp.slack_fallbacks", "count/run"),
    ("control.knn.us_per_call", "us"),
    ("control.clf.us_per_call", "us"),
    ("sim.env_step.us_per_call", "us"),
    ("sim.episode.self_ms", "ms/episode"),
    ("cli.run.self_s", "s"),
    ("cli.episode_csv_bytes", "B/episode"),
    ("cli.gen_demos_s", "s"),
    ("config.build_shield_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def _per(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER value from the recorded spans; `extra` supplies the
    ones measured outside spans (episode CSV size, tracing overhead). A layer
    the workload never calls reads 0."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def is_(n):
        return name == ids.get(n, -2)

    def under(*parents):
        return np.isin(pname, [ids.get(p, -2) for p in parents])

    in_shield = under("shield.constraint_rows", "shield.margins")
    steps = int(is_("shield.filter").sum())
    runs = int(is_("cli.run").sum())
    solve = is_("qp.solve")
    backward = is_("autodiff.backward")
    quant = is_("dynamics.quantify")
    ts = is_("barriers.task_space") & in_shield
    dg = is_("dynamics.drift_and_gain")
    out = {
        "shield.filter.us": 1e6 * _mean(dur[is_("shield.filter")]),
        "shield.constraint_rows.self_us": 1e6 * _mean(self_t[is_("shield.constraint_rows")]),
        "shield.margins.us": 1e6 * _mean(dur[is_("shield.margins")]),
        "shield.rows_per_step": _mean(a["count1"][is_("shield.constraint_rows")]),
        "shield.interventions": _per(np.nansum(a["count1"][is_("shield.filter")]), runs),
        "barriers.task_space.calls_per_step": _per(ts.sum(), steps),
        "barriers.task_space.us_per_call": 1e6 * _mean(dur[ts]),
        "barriers.sphere.us_per_call": 1e6 * _mean(dur[is_("barriers.sphere") & in_shield]),
        "barriers.cylinder.us_per_call": 1e6 * _mean(dur[is_("barriers.cylinder") & in_shield]),
        "dynamics.drift_and_gain.calls_per_step": _per(
            (dg & under("shield.constraint_rows", "control.clf")).sum(), steps),
        "dynamics.drift_and_gain.us_per_call": 1e6 * _mean(dur[dg]),
        "dynamics.train.ms_per_grad_step": 1e3 * _per(dur[is_("dynamics.train")].sum(),
                                                      backward.sum()),
        "dynamics.quantify.us_per_transition": 1e6 * _per(dur[quant].sum(),
                                                          a["count1"][quant].sum()),
        "autodiff.tape_nodes_per_grad_step": _mean(a["count1"][backward]),
        "autodiff.backward.ms_per_call": 1e3 * _mean(dur[backward]),
        "qp.solve.calls_per_step": _per(solve.sum(), steps),
        "qp.solve.us_per_call": 1e6 * _mean(dur[solve]),
        "qp.rows_per_solve": _mean(a["count1"][solve]),
        "qp.active_rows_per_solve": _mean(a["count2"][solve]),
        "qp.slack_fallbacks": _per((solve & under("qp.solve_with_slack")).sum()
                                   - is_("qp.solve_with_slack").sum(), runs),
        "control.knn.us_per_call": 1e6 * _mean(dur[is_("control.knn")]),
        "control.clf.us_per_call": 1e6 * _mean(dur[is_("control.clf")]),
        "sim.env_step.us_per_call": 1e6 * _mean(dur[is_("sim.env_step")]),
        "sim.episode.self_ms": 1e3 * _mean(self_t[is_("sim.episode") & under("cli.run")]),
        "cli.run.self_s": _mean(self_t[is_("cli.run")]),
        "cli.gen_demos_s": _mean(dur[is_("cli.gen_demos")]),
        "config.build_shield_ms": 1e3 * _mean(dur[is_("config.build_shield")]),
    }
    out.update(extra)
    return {n: {"value": float(out[n]), "unit": unit} for n, unit in PER_LAYER}
