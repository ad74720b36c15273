"""Command-line entry point.

Subcommands: gen-demos, train, quantify, run, sweep, report. All artifact
paths are relative to --out. The environment variable SSP_SEED overrides the
master seed; explicit flags override config-file values which override
defaults. Exit codes: 0 success, 2 config error, 3 missing dependency,
4 threshold failure.

gen-demos, run and sweep roll episodes through one loop, `_episodes`: episode
i of seed group g runs on seed (master, g, i), against the config's reference
path when it has one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dynamics as dyn
from .config import ConfigError
from .sim import compute_metrics, run_episode

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
    if getattr(args, "episodes", None) is not None:
        overrides["episodes"] = args.episodes
    cfg = cfgmod.load(args.config, overrides)
    env_seed = os.environ.get("SSP_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SSP_SEED must be an integer, got {env_seed!r}")
    return cfg


def _episodes(policy, env_cfg, master: int, groups, n: int, shield=None, path=None):
    """Roll n episodes per seed group, in order: episode i of group g runs on
    seed (master, g, i). Yields (g, i, EpisodeResult, TrajectoryLog)."""
    for g in groups:
        for i in range(n):
            yield (g, i, *run_episode(policy, env_cfg, seed=(master, g, i), shield=shield,
                                      path=path))


def _split_from_cfg(cfg, demos, need: str):
    """(training, held-out) demonstrations; ConfigError when side `need` is empty."""
    frac = cfg["train"]["holdout_frac"]
    train, held = dyn.split_demos(demos, frac, seed=cfg["seed"])
    if not (train if need == "training" else held):
        raise ConfigError(f"{len(demos)} demonstration(s) at train.holdout_frac={frac} "
                          f"leave no {need} demonstration")
    return train, held


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
    demos = dyn.load_demos(_need(out / DEMOS, "run gen-demos first"))
    train_demos, _ = _split_from_cfg(cfg, demos, "training")
    tc = cfgmod.build_train_config(cfg)
    e = cfg["env"]

    model = dyn.NeuralOdeModel.create(
        n_state=e["n_state"], n_action=e["n_action"],
        hidden=cfg["model"]["hidden"], dt=e["dt"], seed=cfg["model"]["seed"],
    )
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
    demos = dyn.load_demos(_need(out / DEMOS, "run gen-demos first"))
    _, held = _split_from_cfg(cfg, demos, "held-out")
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
    demos = dyn.load_demos(_need(out / DEMOS, "run gen-demos first"))
    models = bounds = None
    if need_models:
        full, _ = dyn.NeuralOdeModel.load(_need(out / MODEL_FULL, "run train first"))
        pos, _ = dyn.NeuralOdeModel.load(_need(out / MODEL_POS, "run train first"))
        models = {"full": full, "position": pos}
    if need_bounds:
        b_full = dyn.UncertaintyBounds.from_dict(
            json.loads(_need(out / BOUNDS_FULL, "run quantify first").read_text())
        )
        b_pos = dyn.UncertaintyBounds.from_dict(
            json.loads(_need(out / BOUNDS_POS, "run quantify first").read_text())
        )
        bounds = {"full": b_full, "position": b_pos}
    return demos, models, bounds


def _write_episode_csv(path: Path, log, n_state: int, n_action: int):
    cols = ["t"]
    cols += [f"s{i}" for i in range(n_state)]
    cols += [f"a_des{i}" for i in range(n_action)]
    cols += [f"a_safe{i}" for i in range(n_action)]
    k = log.filter_margins.shape[1] if log.filter_margins is not None else log.margins.shape[1]
    cols += [f"margin{i}" for i in range(k)]
    cols += ["slack", "solve_time_us"]
    lines = [",".join(cols)]
    steps = log.a_des.shape[0]
    for t in range(steps):
        m = log.filter_margins[t] if log.filter_margins is not None else log.margins[t + 1]
        row = [str(t)]
        row += [repr(float(v)) for v in log.states[t + 1]]
        row += [repr(float(v)) for v in log.a_des[t]]
        row += [repr(float(v)) for v in log.a_safe[t]]
        row += [repr(float(v)) for v in m]
        row += [repr(float(log.slack[t])), repr(float(log.solve_time_us[t]))]
        lines.append(",".join(row))
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
        cfgmod.validate(cfg_v)  # for its errors: cfg_v already holds every default
        swept.append((v, cfg_v))
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
