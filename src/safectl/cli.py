"""Command-line entry point.

Subcommands: gen-demos, train, quantify, run, sweep, report. All artifact
paths are relative to --out. The environment variable SSP_SEED overrides the
master seed; explicit flags override config-file values which override
defaults. Exit codes: 0 success, 2 config error, 3 missing or unreadable
dependency artifact, 4 threshold failure.

train parses only the training side of demos.jsonl and quantify only the
held-out side; run and sweep parse every line.

gen-demos, run and sweep roll episodes through one loop, `_episodes`: episode
i of seed group g runs on seed (master, g, i), against the config's reference
path when it has one. Without a shield (gen-demos, run --shield off, the beta
sweep) a seed group steps in lockstep, each episode with its own copy of the
policy. With one, episodes run one at a time: a shielded step's cost is its
own QP, which a batch cannot share, and each episode's filter calls stay
one contiguous run.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dynamics as dyn
from .config import ConfigError
from .sim import compute_metrics, run_episode, run_episodes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_THRESHOLD = 4

DEMOS = "demos.jsonl"
MODEL_FULL = "model_full.bin"
MODEL_POS = "model_pos.bin"
LOSS_FULL = "loss_full.csv"
LOSS_POS = "loss_pos.csv"
BOUNDS_FULL = "bounds_full.json"
BOUNDS_POS = "bounds_pos.json"
SUMMARY = "summary.json"


class MissingArtifact(RuntimeError):
    pass


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing {path.name} ({hint}); looked in {path.parent}")
    return path


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_loss_csv(path: Path, losses):
    lines = ["epoch,loss"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(losses)]
    path.write_text("\n".join(lines) + "\n")


def _load_config(args) -> dict:
    overrides: dict = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw_val = item.partition("=")
        try:
            val = json.loads(raw_val)
        except json.JSONDecodeError:
            val = raw_val
        cfgmod.set_by_dotted_path(overrides, key, val)
    if args.seed is not None:
        overrides["seed"] = args.seed
    env_seed = os.environ.get("SSP_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SSP_SEED must be an integer, got {env_seed!r}")
    if getattr(args, "episodes", None) is not None:
        overrides["episodes"] = args.episodes
    return cfgmod.load(args.config, overrides)


def _episodes(policy, env_cfg, master: int, groups, n: int, shield=None, path=None):
    """Roll n episodes per seed group, in order: episode i of group g runs on
    seed (master, g, i), a group in lockstep when there is no shield.
    Yields (g, i, EpisodeResult, TrajectoryLog)."""
    for g in groups:
        seeds = [(master, g, i) for i in range(n)]
        if shield is None:
            episodes = run_episodes([copy.copy(policy) for _ in seeds], env_cfg, seeds,
                                    path=path)
        else:
            episodes = (run_episode(policy, env_cfg, s, shield, path) for s in seeds)
        for i, (result, log) in enumerate(episodes):
            yield g, i, result, log


def _demos(path: Path, lines) -> list:
    """Parse dyn.demo_lines entries; a line that is not a demonstration is an
    artifact to make again, named by its line number."""
    demos = []
    for lineno, line in lines:
        try:
            demos.append(dyn.parse_demo(line))
        except ValueError as e:
            raise MissingArtifact(f"{path.name} line {lineno} is not a demonstration ({e}); "
                                  f"run gen-demos again (in {path.parent})") from e
    return demos


def _demo_side(cfg, path: Path, need: str) -> list:
    """The demonstrations on side `need` ("training" or "held-out") of the
    config's split of the demos file, in file order; ConfigError when that
    side is empty. The split is taken on line numbers, so the other side's
    lines are neither parsed nor held."""
    numbers = [i for i, _ in dyn.demo_lines(path)]
    frac = cfg["train"]["holdout_frac"]
    train, held = dyn.split_demos(numbers, frac, seed=cfg["seed"])
    keep = set(train if need == "training" else held)
    if not keep:
        raise ConfigError(f"{len(numbers)} demonstration(s) at train.holdout_frac={frac} "
                          f"leave no {need} demonstration")
    return _demos(path, ((i, line) for i, line in dyn.demo_lines(path) if i in keep))


# -- commands --------------------------------------------------------------------


def cmd_gen_demos(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = args.n
    # demonstrations are collected in the zone-free environment
    env_cfg = cfgmod.build_env(cfg, with_zones=False)
    demos = []
    failures = 0
    policy, path = cfgmod.build_policy({**cfg, "policy": {**cfg["policy"], "type": "scripted"}})
    for _, _, result, log in _episodes(policy, env_cfg, cfg["seed"], [0], n, path=path):
        failures += not result.success
        demos.append(dyn.Demonstration(states=log.states, actions=log.a_safe, dt=env_cfg.dt))
    dyn.save_demos(out / DEMOS, demos)
    print(f"wrote {len(demos)} demonstrations to {out / DEMOS} "
          f"({n - failures}/{n} reached the goal)")
    if failures > 0.05 * n:
        print(f"expert failure rate {failures / n:.2%} exceeds 5%", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    train_demos = _demo_side(cfg, _need(out / DEMOS, "run gen-demos first"), "training")
    tc = cfgmod.build_train_config(cfg)
    shortest = min(len(d) for d in train_demos)
    if shortest < tc.rollout_h:
        raise ConfigError(f"train.rollout_h={tc.rollout_h} exceeds the shortest training "
                          f"demonstration ({shortest} steps)")
    e = cfg["env"]
    model = dyn.NeuralOdeModel.create(n_state=e["n_state"], n_action=e["n_action"], dt=e["dt"])
    trained, losses = dyn.train(model, train_demos, tc)
    trained.save(out / MODEL_FULL, extra={"train_seed": tc.seed,
                                          "holdout_frac": cfg["train"]["holdout_frac"]})
    _write_loss_csv(out / LOSS_FULL, losses)
    print(f"full model: final loss {losses[-1]:.3e} -> {out / MODEL_FULL}")

    pos_model, pos_losses = dyn.derive_position_model(model, train_demos, tc)
    pos_model.save(out / MODEL_POS, extra={"train_seed": tc.seed,
                                           "holdout_frac": cfg["train"]["holdout_frac"]})
    _write_loss_csv(out / LOSS_POS, pos_losses)
    print(f"position model: final loss {pos_losses[-1]:.3e} -> {out / MODEL_POS}")
    return EXIT_OK


def cmd_quantify(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    held = _demo_side(cfg, _need(out / DEMOS, "run gen-demos first"), "held-out")
    full, _ = dyn.NeuralOdeModel.load(_need(out / MODEL_FULL, "run train first"))
    pos, _ = dyn.NeuralOdeModel.load(_need(out / MODEL_POS, "run train first"))
    b_full = dyn.quantify_uncertainty(full, held)
    held_pos = dyn.slice_demos(held, dyn.POSITION_DIMS, dyn.POSITION_DIMS)
    b_pos = dyn.quantify_uncertainty(pos, held_pos)
    _write_json(out / BOUNDS_FULL, b_full.to_dict())
    _write_json(out / BOUNDS_POS, b_pos.to_dict())
    print(f"full:     e_sdot={b_full.e_sdot:.4e} e_s={b_full.e_s:.4e}")
    print(f"position: e_sdot={b_pos.e_sdot:.4e} e_s={b_pos.e_s:.4e}")
    return EXIT_OK


def _load_stack(cfg, out: Path, need_models: bool, need_bounds: bool):
    path = _need(out / DEMOS, "run gen-demos first")
    demos = _demos(path, dyn.demo_lines(path))  # the kNN policy and task space need them all
    models = bounds = None
    if need_models:
        models = {k: dyn.NeuralOdeModel.load(_need(out / f, "run train first"))[0]
                  for k, f in (("full", MODEL_FULL), ("position", MODEL_POS))}
    if need_bounds:
        bounds = {k: dyn.UncertaintyBounds.from_dict(
                      json.loads(_need(out / f, "run quantify first").read_text()))
                  for k, f in (("full", BOUNDS_FULL), ("position", BOUNDS_POS))}
    return demos, models, bounds


def _write_episode_csv(path: Path, log, n_state: int, n_action: int):
    margins = log.margins[1:] if log.filter_margins is None else log.filter_margins
    cols = ["t"] + [f"s{i}" for i in range(n_state)] + [f"a_des{i}" for i in range(n_action)]
    cols += [f"a_safe{i}" for i in range(n_action)]
    cols += [f"margin{i}" for i in range(margins.shape[1])]
    cols += ["slack", "build_time_us", "solve_time_us"]
    table = np.hstack([log.states[1:], log.a_des, log.a_safe, margins, log.slack[:, None],
                       log.build_time_us[:, None], log.solve_time_us[:, None]])
    # repr of tolist()'s Python floats is repr(float(v)) of each entry, -0.0 included
    lines = [",".join(cols)]
    lines += [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(table.tolist())]
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    shield_on = cfg["shield"]["enabled"] if args.shield is None else args.shield == "on"
    cfg["shield"]["enabled"] = shield_on
    need_models = shield_on or cfg["policy"]["type"] == "clf"
    demos, models, bounds = _load_stack(cfg, out, need_models, need_bounds=shield_on)

    policy, path = cfgmod.build_policy(
        cfg, model_full=models["full"] if models else None, demos=demos
    )
    shield = cfgmod.build_shield(cfg, models, bounds, demos=demos) if shield_on else None

    env_cfg = cfgmod.build_env(cfg)
    ep_dir = out / "episodes"
    ep_dir.mkdir(parents=True, exist_ok=True)
    results_by_seed = {}
    # a repeated seed group would roll the same episodes again: run it once
    groups = dict.fromkeys(cfg["seeds"])
    for g, i, result, log in _episodes(policy, env_cfg, cfg["seed"], groups, cfg["episodes"],
                                       shield, path):
        _write_episode_csv(ep_dir / f"ep{g}_{i:03d}.csv", log, env_cfg.n_state, env_cfg.n_action)
        results_by_seed.setdefault(g, []).append(result)

    bounds_payload = None
    if bounds is not None:
        bounds_payload = {"e_sdot": bounds["full"].e_sdot, "e_s": bounds["full"].e_s}
    summary = compute_metrics(results_by_seed, bounds=bounds_payload)
    summary["policy"] = cfg["policy"]["type"]
    summary["shield"] = shield_on
    _write_json(out / SUMMARY, summary)
    cr = summary["collision_rate"]["mean"]
    sr = summary["success_rate_without_violation"]["mean"]
    print(f"episodes={summary['episodes']} collision_rate={cr:.2f} "
          f"success(no violation)={sr:.2f} -> {out / SUMMARY}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    beta = args.param == "beta"
    swept = []
    for text in filter(str.strip, args.values.split(",")):
        try:
            v = float(text)
        except ValueError:
            v = text  # not a number: the schema says so below
        cfg_v = json.loads(json.dumps(cfg))
        if beta:
            cfg_v["policy"].update(type="clf", beta=v)
            cfg_v["shield"]["enabled"] = False
        else:
            cfg_v["shield"]["gamma"] = v
        swept.append((v, cfgmod.validate(cfg_v)))  # a CLF policy gains its default path
    if not swept:
        raise ConfigError("--values must list at least one number")

    demos, models, bounds = _load_stack(cfg, out, need_models=True, need_bounds=not beta)
    env_cfg = cfgmod.build_env(cfg)
    rows = []
    for v, cfg_v in swept:
        policy, path = cfgmod.build_policy(cfg_v, model_full=models["full"], demos=demos)
        shield = cfgmod.build_shield(cfg_v, models, bounds, demos=demos)
        episodes = _episodes(policy, env_cfg, cfg["seed"], cfg["seeds"], cfg["episodes"],
                             shield, path)
        metric = [r.tracking_dev if beta else r.min_margin for _, _, r, _ in episodes]
        rows.append((v, float(np.mean(metric))))
    csv_path = out / f"sweep_{args.param}.csv"
    header = "beta,tracking_dev_m" if beta else "gamma,mean_min_margin"
    csv_path.write_text(header + "\n" + "\n".join(f"{v!r},{m!r}" for v, m in rows) + "\n")
    for v, metric in rows:
        print(f"{args.param}={v:g}: {metric:.6e}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out)
    report = {}
    summary_path = out / SUMMARY
    if summary_path.exists():
        report["summary"] = json.loads(summary_path.read_text())
    for name in ("sweep_beta", "sweep_gamma"):
        p = out / f"{name}.csv"
        if p.exists():
            header, *rows = p.read_text().strip().splitlines()
            keys = header.split(",")
            report[name] = [dict(zip(keys, (float(x) for x in r.split(",")))) for r in rows]
    for name in (BOUNDS_FULL, BOUNDS_POS):
        p = out / name
        if p.exists():
            report[name.removesuffix(".json")] = json.loads(p.read_text())
    if not report:
        raise MissingArtifact(f"nothing to report in {out} (run the pipeline first)")
    _write_json(out / "report.json", report)
    if "summary" in report:
        s = report["summary"]
        print("metric                           mean      std")
        for key in ("success_rate_with_violation", "success_rate_without_violation",
                    "collision_rate", "inference_time_ms", "safe_margin", "tracking_dev_m"):
            if key in s and isinstance(s[key], dict):
                print(f"{key:32s} {s[key]['mean']:+.4f}  {s[key]['std']:.4f}")
    for name in ("sweep_beta", "sweep_gamma"):
        if name in report:
            print(f"{name}: " + "  ".join(
                f"{row[list(row)[0]]:g}:{row[list(row)[1]]:.4e}" for row in report[name]
            ))
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def _demo_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"the demo count must be at least 1, got {text}")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safectl",
        description="Learned-dynamics safety filtering: demos, training, "
                    "uncertainty bounds, shielded evaluation, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, episodes=False):
        p.add_argument("--config", required=True, help="run-config JSON file")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field by dotted path (JSON value)")
        if episodes:
            p.add_argument("--episodes", type=int, default=None)

    p = sub.add_parser("gen-demos", help="generate scripted-expert demonstrations")
    common(p)
    p.add_argument("--n", type=_demo_count, default=100, help="number of demonstrations")
    p.set_defaults(fn=cmd_gen_demos)

    p = sub.add_parser("train", help="train full and position dynamics models")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("quantify", help="held-out uncertainty bounds")
    common(p)
    p.set_defaults(fn=cmd_quantify)

    p = sub.add_parser("run", help="run evaluation episodes")
    common(p, episodes=True)
    p.add_argument("--shield", choices=("on", "off"), default=None,
                   help="override shield.enabled")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="hyperparameter sweep (beta or gamma)")
    common(p, episodes=True)
    p.add_argument("--param", choices=("beta", "gamma"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="aggregate artifacts into report.json")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as e:
        print(f"missing dependency: {e}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
