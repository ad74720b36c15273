"""Run configuration: versioned JSON schema, validation, and object builders.

A RunConfig wires the whole pipeline: environment, model/training settings,
nominal policy, and shield. Validation happens before any work starts;
command-line flags override file values which override defaults.
"""

from __future__ import annotations

import copy
import functools
import json
import math

import jsonschema
import numpy as np

from .barriers import TaskSpaceBarrier, zone_from_config
from .control import ClfConfig, KnnExpertPolicy, ScriptedExpert, path_from_config
from .dynamics import TrainConfig
from .shield import ConstraintSpec, SafetyShield, ShieldConfig
from .sim import ClfPolicy, EnvConfig, KnnPolicy, ScriptedPolicy


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


ZONE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "sphere"},
                "center": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "center", "radius"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "cylinder"},
                "point": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                "axis": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "length": {"type": "number", "exclusiveMinimum": 0},
                "tau": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "point", "axis", "radius", "length"],
            "additionalProperties": False,
        },
    ]
}

PATH_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["straight", "circle", "triangle", "waypoints"]},
        "length": {"type": "number", "exclusiveMinimum": 0},
        "start": {"type": "array", "items": {"type": "number"}},
        "direction": {"type": "array", "items": {"type": "number"}},
        "center": {"type": "array", "items": {"type": "number"}},
        "n_points": {"type": "integer", "minimum": 2},
        "n_per_edge": {"type": "integer", "minimum": 2},
        "waypoints": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "seed": {"type": "integer", "minimum": 0},
        "episodes": {"type": "integer", "minimum": 1},
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "env": {
            "type": "object",
            "properties": {
                "n_state": {"type": "integer", "minimum": 3},
                "n_action": {"type": "integer", "minimum": 3},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "a_max": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "integer", "minimum": 1},
                "w_max": {"type": "number", "minimum": 0},
                "disturbance_mode": {"enum": ["step", "episode"]},
                "obs_noise": {"type": "number", "minimum": 0},
                "task": {"enum": ["reach", "transport", "path-follow"]},
                "goal": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                "start": {"type": "array", "items": {"type": "number"}},
                "start_spread": {"type": "number", "minimum": 0},
                "object": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                "goal_tol": {"type": "number", "exclusiveMinimum": 0},
                "latch_tol": {"type": "number", "exclusiveMinimum": 0},
                "A": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "B": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "zones": {"type": "array", "items": ZONE_SCHEMA},
            },
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": {
                "hidden": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "train": {
            "type": "object",
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "batch": {"type": "integer", "minimum": 1},
                "rollout_h": {"type": "integer", "minimum": 1},
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "holdout_frac": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "additionalProperties": False,
        },
        "policy": {
            "type": "object",
            "properties": {
                "type": {"enum": ["clf", "knn", "scripted"]},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "c": {"type": "number", "exclusiveMinimum": 0},
                "advance_threshold": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "advance_exponent": {"type": "number", "exclusiveMinimum": 0},
                "knn_neighbors": {"type": "integer", "minimum": 1},
                "dither": {"type": "number", "minimum": 0},
                "expert_gain": {"type": "number", "exclusiveMinimum": 0},
                "path": PATH_SCHEMA,
            },
            "additionalProperties": False,
        },
        "shield": {
            "type": "object",
            "properties": {
                "enabled": {"type": "boolean"},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "behavioral": {"type": "boolean"},
                "task_space_radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["version", "env"],
    "additionalProperties": False,
}

DEFAULTS = {
    "version": 1,
    "seed": 0,
    "episodes": 20,
    "seeds": [0, 1, 2],
    "env": {
        "n_state": 4,
        "n_action": 4,
        "dt": 0.1,
        "a_max": 0.05,
        "horizon": 100,
        "w_max": 0.0,
        "disturbance_mode": "step",
        "obs_noise": 0.0,
        "task": "reach",
        "goal": [0.30, 0.30, 0.15],
        "start": [0.05, 0.05, 0.05, 0.0],
        "start_spread": 0.01,
        "goal_tol": 0.005,
        "latch_tol": 0.005,
        "zones": [],
    },
    "model": {"hidden": 64, "seed": 0},
    "train": {
        "epochs": 200,
        "batch": 20,
        "rollout_h": 10,
        "lr": 1e-3,
        "holdout_frac": 0.2,
    },
    "policy": {
        "type": "knn",
        "beta": 15.0,
        "c": 1.0,
        "advance_threshold": None,
        "advance_exponent": 2.0,
        "knn_neighbors": 5,
        "dither": 0.02,
        "expert_gain": 2.0,
    },
    "shield": {
        "enabled": True,
        "gamma": 10.0,
        "behavioral": True,
        "task_space_radius": 0.5,
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


@functools.cache
def _validator():
    """The SCHEMA validator, built and checked against its metaschema once
    per process: SCHEMA never changes, and the metaschema check costs tens of
    milliseconds, far more than validating a config."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def _non_finite(node, path=""):
    """(path, value) of every NaN or infinite number in a parsed config, which
    the schema's numeric bounds let through (every comparison with NaN is false)."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path, node
    elif isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _non_finite(v, f"{path}/{k}" if path else str(k))


def validate(raw: dict) -> dict:
    """Validate a raw config dict against the schema and fill defaults.

    Reports the error jsonschema.validate would raise: the best match; past
    the schema, the first NaN or infinite number."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {error.message}") from error
    bad = next(_non_finite(raw), None)
    if bad is not None:
        raise ConfigError(f"config invalid at {bad[0]}: {bad[1]} is not a finite number")
    cfg = _deep_merge(DEFAULTS, raw)
    if cfg["policy"]["type"] == "clf" and "path" not in cfg["policy"]:
        # CLF needs a reference; default to the straight toy path from the start
        cfg["policy"]["path"] = {"type": "straight"}
    return cfg


def load(path, overrides: dict | None = None) -> dict:
    """Load, override (flag > file > default) and validate a config file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if overrides:
        raw = _deep_merge(raw, overrides)
    return validate(raw)


def set_by_dotted_path(raw: dict, dotted: str, value):
    """Apply one --set override like env.w_max=0.02 (value JSON-parsed)."""
    keys = dotted.split(".")
    node = raw
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {dotted!r}")
    node[keys[-1]] = value


# -- builders --------------------------------------------------------------------


def build_env(cfg: dict, with_zones: bool = True) -> EnvConfig:
    e = cfg["env"]
    start = np.asarray(e["start"], dtype=np.float64)
    if start.shape[0] < e["n_state"]:
        start = np.concatenate([start, np.zeros(e["n_state"] - start.shape[0])])
    return EnvConfig(
        n_state=e["n_state"],
        n_action=e["n_action"],
        dt=e["dt"],
        A=np.asarray(e["A"], dtype=np.float64) if "A" in e else None,
        B=np.asarray(e["B"], dtype=np.float64) if "B" in e else None,
        w_max=e["w_max"],
        disturbance_mode=e["disturbance_mode"],
        obs_noise=e["obs_noise"],
        a_max=e["a_max"],
        horizon=e["horizon"],
        task=e["task"],
        zones=e["zones"] if with_zones else [],
        goal=np.asarray(e["goal"], dtype=np.float64) if "goal" in e else None,
        start=start,
        start_spread=e["start_spread"],
        obj=np.asarray(e["object"], dtype=np.float64) if "object" in e else None,
        goal_tol=e["goal_tol"],
        latch_tol=e["latch_tol"],
    )


def build_train_config(cfg: dict, seed: int | None = None) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"],
        batch=t["batch"],
        rollout_h=t["rollout_h"],
        lr=t["lr"],
        seed=cfg["seed"] if seed is None else seed,
    )


def build_path(cfg: dict):
    p = cfg["policy"].get("path")
    if p is None:
        return None
    pc = dict(p)
    if pc.get("type") == "straight" and "start" not in pc:
        pc["start"] = list(cfg["env"]["start"][:3])
        if "direction" not in pc and "goal" in cfg["env"]:
            d = np.asarray(cfg["env"]["goal"]) - np.asarray(cfg["env"]["start"][:3])
            pc["direction"] = d.tolist()
            pc.setdefault("length", float(np.linalg.norm(d)))
    return path_from_config(pc, cfg["env"]["n_state"])


def build_expert(cfg: dict) -> ScriptedExpert:
    e, p = cfg["env"], cfg["policy"]
    if "goal" not in e:
        raise ConfigError("scripted expert requires env.goal")
    return ScriptedExpert(
        goal=np.asarray(e["goal"], dtype=np.float64),
        a_max=e["a_max"],
        gain=p["expert_gain"],
        obj=np.asarray(e["object"], dtype=np.float64) if "object" in e else None,
        latch_tol=e["latch_tol"],
        dither=p["dither"],
        seed=cfg["seed"],
    )


def build_policy(cfg: dict, model_full=None, demos=None):
    """Nominal policy per config; returns (policy, path or None)."""
    kind = cfg["policy"]["type"]
    path = build_path(cfg)
    if kind == "scripted":
        return ScriptedPolicy(build_expert(cfg)), path
    if kind == "knn":
        if not demos:
            raise ConfigError("knn policy requires demonstrations")
        expert = KnnExpertPolicy.from_demos(demos, cfg["policy"]["knn_neighbors"])
        return KnnPolicy(expert), path
    if kind == "clf":
        if model_full is None:
            raise ConfigError("clf policy requires the trained full-state model")
        if path is None:
            raise ConfigError("clf policy requires policy.path")
        clf_cfg = ClfConfig(
            c=cfg["policy"]["c"],
            beta=cfg["policy"]["beta"],
            threshold=cfg["policy"]["advance_threshold"],
            exponent=cfg["policy"]["advance_exponent"],
        )
        return ClfPolicy(model_full, path, clf_cfg), path
    raise ConfigError(f"unknown policy type {kind!r}")


def build_shield(cfg: dict, models: dict, bounds: dict, demos=None):
    """Assemble the safety shield from zones + the behavioral barrier."""
    s, e = cfg["shield"], cfg["env"]
    if not s["enabled"]:
        return None
    constraints = [ConstraintSpec(zone_from_config(z), "position") for z in e["zones"]]
    if s["behavioral"]:
        if not demos:
            raise ConfigError("behavioral constraint requires demonstrations")
        states = np.vstack([d.states for d in demos])
        constraints.append(
            ConstraintSpec(TaskSpaceBarrier(states, radius=s["task_space_radius"]), "full")
        )
    if not constraints:
        raise ConfigError("shield enabled but no zones and no behavioral constraint")
    a_max = e["a_max"]
    m = e["n_action"]
    shield_cfg = ShieldConfig(
        gamma=s["gamma"],
        constraints=constraints,
        lb=-a_max * np.ones(m),
        ub=a_max * np.ones(m),
    )
    return SafetyShield(shield_cfg, models, bounds)
