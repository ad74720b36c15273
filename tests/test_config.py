import copy
import json
from pathlib import Path

import jsonschema
import pytest

from safectl import config
from safectl.config import SCHEMA, ConfigError

GOOD = {"version": 1, "env": {"task": "reach"}}
ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("bench/scenes/*.json")])


def test_schema_passes_its_metaschema():
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def test_configs_are_shipped():
    assert len(SHIPPED) >= 6


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_config_loads(path):
    # a key the schema no longer has, left in a shipped config, fails here
    # rather than when the config is first run
    cfg = config.load(path)
    assert cfg["version"] == 1


def bad(path, value):
    raw = copy.deepcopy(GOOD)
    node = raw
    for k in path[:-1]:
        node = node.setdefault(k, {})
    node[path[-1]] = value
    return raw


BAD_CONFIGS = {
    "unknown root field": bad(["extra"], 1),
    "wrong version": bad(["version"], 2),
    "negative dt": bad(["env", "dt"], -0.1),
    "unknown task": bad(["env", "task"], "juggle"),
    "zone matching no oneOf branch": bad(["env", "zones"], [{"type": "sphere", "center": [0, 0]}]),
    "two errors at once": bad(["shield"], {"gamma": 0, "vertex_budget": "many"}),
    "missing env": {"version": 1},
    "not an object": [],
}


@pytest.mark.parametrize("raw", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_message_is_jsonschema_validates_error(raw):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, SCHEMA)
    e = expected.value
    path = "/".join(str(p) for p in e.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        config.validate(raw)
    assert str(got.value) == f"config invalid at {path}: {e.message}"
    assert isinstance(got.value.__cause__, jsonschema.ValidationError)


def test_bad_config_file_raises_with_path(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(bad(["env", "dt"], 0)))
    with pytest.raises(ConfigError, match=r"^config invalid at env/dt: 0 is less than or equal"):
        config.load(p)


REMOVED_KEYS = {"shield.per_dim": False, "shield.gamma_behavioral": 3.0, "shield.robust": True,
                "shield.vertex_budget": 64, "shield.slack_penalty": 1e6,
                "train.optimizer": "rmsprop", "train.steps_per_epoch": 4,
                "policy.c": 1.0, "policy.advance_threshold": None, "policy.advance_exponent": 2.0,
                "env.A": [[0.0]], "env.B": [[1.0]],
                "policy.path.start": [0.05, 0.05, 0.1], "policy.path.direction": [1.0, 1.0, 0.0],
                "policy.path.center": [0.2, 0.2, 0.1], "policy.path.n_points": 20,
                "policy.path.n_per_edge": 12,
                "model.hidden": 64, "model.seed": 0, "train.batch": 20, "train.lr": 1e-3,
                "policy.knn_neighbors": 5, "policy.expert_gain": 2.0}


def first_removed(keys):
    """The first of the dotted keys that SCHEMA does not have: the key a
    validation error names."""
    node = SCHEMA
    for k in keys:
        if k not in node.get("properties", {}):
            return k
        node = node["properties"][k]
    raise AssertionError(f"{'.'.join(keys)} is still in SCHEMA")


@pytest.mark.parametrize("dotted,value", REMOVED_KEYS.items(), ids=REMOVED_KEYS.keys())
def test_removed_key_is_rejected(dotted, value):
    # the shield has one behaviour: gamma on every row, one row per
    # constraint at the observed state with the robust margin always on, and
    # the default slack penalty; training is RMSprop at one epoch's worth of
    # gradient steps; the CLF follower has V = ||s - s_des||^2 and one advance
    # rule; the simulator's built-in truth is the integrator (KinematicEnv's
    # field_fn injects another); a reference path's geometry is
    # config.build_path's alone; the MLP width and init seed, RMSprop's batch
    # and rate, the kNN neighbour count and the expert's gain are the defaults
    # of NeuralOdeModel.create, TrainConfig, KnnExpertPolicy and ScriptedExpert
    keys = dotted.split(".")
    with pytest.raises(ConfigError, match=f"'{first_removed(keys)}' was unexpected"):
        config.validate(bad(keys, value))


def test_removed_shield_key_on_the_command_line_exits_2(tmp_path, capsys):
    from safectl import cli

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(GOOD))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--set", "shield.per_dim=true"])
    assert code == cli.EXIT_CONFIG == 2
    assert "per_dim" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


TAU_CYLINDER = {"type": "cylinder", "point": [0, 0, 0], "axis": [0, 0, 1], "radius": 0.03,
                "length": 0.1, "tau": 200}


def test_cylinder_tau_is_rejected(tmp_path, capsys):
    # a cylinder zone's value is the max of its pieces, with nothing to set
    with pytest.raises(ConfigError, match="^config invalid at env/zones/0"):
        config.validate(bad(["env", "zones"], [TAU_CYLINDER]))
    config.validate(bad(["env", "zones"], [{k: v for k, v in TAU_CYLINDER.items() if k != "tau"}]))
    from safectl import cli

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(bad(["env", "zones"], [TAU_CYLINDER])))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG == 2
    assert "config invalid at env/zones/0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SPHERE = {"type": "sphere", "center": [0.1, 0.1, 0.1], "radius": 0.05}
CYLINDER = {k: v for k, v in TAU_CYLINDER.items() if k != "tau"}
ZONE_ERRORS = {
    "sphere with a cylinder key": ({**SPHERE, "axis": [0, 0, 1]},
                                   r"env/zones/0: .*'axis' was unexpected"),
    "cylinder with tau": (TAU_CYLINDER, r"env/zones/0: .*'tau' was unexpected"),
    "sphere without a radius": ({"type": "sphere", "center": [0, 0, 0]},
                                r"env/zones/0: 'radius' is a required property"),
    "cylinder with a short axis": ({**CYLINDER, "axis": [0, 1]}, r"env/zones/0/axis: "),
    "unknown type": ({**SPHERE, "type": "cube"},
                     r"env/zones/0/type: 'cube' is not one of \['sphere', 'cylinder'\]"),
    "no type": ({"center": [0, 0, 0], "radius": 0.05},
                r"env/zones/0: 'type' is a required property"),
}


@pytest.mark.parametrize("zone,message", ZONE_ERRORS.values(), ids=ZONE_ERRORS.keys())
def test_zone_error_names_the_bad_key(zone, message):
    # the zone's type selects its schema, so the error names that kind's bad
    # key, never a mismatch with the other kind's type
    with pytest.raises(ConfigError, match=f"^config invalid at {message}"):
        config.validate(bad(["env", "zones"], [zone]))
    config.validate(bad(["env", "zones"], [SPHERE, CYLINDER]))


NON_FINITE = {
    "NaN gamma": (["shield", "gamma"], float("nan"), "shield/gamma: nan"),
    "infinite dt": (["env", "dt"], float("inf"), "env/dt: inf"),
    "-inf in a zone centre": (["env", "zones"],
                              [{"type": "sphere", "center": [0, float("-inf"), 0], "radius": 0.1}],
                              "env/zones/0/center/1: -inf"),
    "NaN in a matrix": (["policy", "path", "waypoints"], [[1.0, float("nan")], [0.0, 0.0]],
                        "policy/path/waypoints/0/1: nan"),
}


@pytest.mark.parametrize("path,value,where", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_number_is_rejected(path, value, where):
    # the schema's bounds are comparisons, and every comparison with NaN is
    # false, so a NaN passes exclusiveMinimum; validate rejects it after them
    with pytest.raises(ConfigError, match=f"^config invalid at {where} is not a finite number$"):
        config.validate(bad(path, value))


@pytest.mark.parametrize("argv", [
    ["run", "--set", "shield.gamma=NaN"],
    ["run", "--set", "shield.gamma=Infinity"],
    ["gen-demos", "--set", "env.dt=NaN"],
    ["gen-demos", "--set", "env.w_max=-Infinity"],
], ids=" ".join)
def test_non_finite_number_on_the_command_line_exits_2(tmp_path, capsys, argv):
    from safectl import cli

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(GOOD))
    out = tmp_path / "o"
    code = cli.main([argv[0], "--config", str(cfg_path), "--out", str(out), *argv[1:]])
    assert code == cli.EXIT_CONFIG
    assert "config invalid at " in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_number_in_a_config_file_is_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"version": 1, "env": {"task": "reach", "obs_noise": NaN}}')
    with pytest.raises(ConfigError, match="^config invalid at env/obs_noise: nan is not a finite"):
        config.load(p)


def test_start_longer_than_the_state_is_rejected():
    # build_env pads a short start with zeros but cannot fit a long one
    raw = bad(["env", "start"], [0.05, 0.05, 0.05, 0.0, 0.0, 0.0])
    with pytest.raises(ConfigError, match=r"^config invalid at env/start: 6 entries "
                                          r"for env\.n_state=4$"):
        config.validate(raw)
    raw["env"]["n_state"] = 6
    assert config.validate(raw)["env"]["start"] == [0.05, 0.05, 0.05, 0.0, 0.0, 0.0]
    short = config.validate(bad(["env", "start"], [0.05, 0.05, 0.05]))
    assert list(config.build_env(short).start) == [0.05, 0.05, 0.05, 0.0]


PATH_ERRORS = {
    "waypoints type without waypoints": ({"type": "waypoints"},
                                         r"policy/path: 'waypoints' is a required property"),
    "no type and no waypoints": ({}, r"policy/path: 'waypoints' is a required property"),
    "one waypoint": ({"type": "waypoints", "waypoints": [[0.1, 0.1, 0.1]]},
                     r"policy/path/waypoints: .* is too short"),
    "one waypoint and no type": ({"waypoints": [[0.1, 0.1, 0.1]]},
                                 r"policy/path/waypoints: .* is too short"),
}


@pytest.mark.parametrize("path,message", PATH_ERRORS.values(), ids=PATH_ERRORS.keys())
def test_waypoints_path_needs_two_waypoints(path, message):
    # build_path reads a path with no type as waypoints, and a path of fewer
    # than two waypoints has no segment to track
    with pytest.raises(ConfigError, match="^config invalid at " + message):
        config.validate(bad(["policy", "path"], path))
    two = {**path, "waypoints": [[0.1, 0.1, 0.1], [0.2, 0.1, 0.1]]}
    assert config.build_path(config.validate(bad(["policy", "path"], two))).waypoints.shape == (2, 4)


@pytest.mark.parametrize("policy", [{"type": "clf"}, {"path": {"type": "straight"}},
                                    {"path": {"type": "straight", "length": 0.1}}],
                         ids=["default path", "straight", "straight with a length"])
def test_straight_path_from_a_start_at_the_goal_is_rejected(policy):
    # the path's direction is goal - start[:3], which is zero
    raw = {"version": 1, "env": {"start": [0.1, 0.2, 0.3, 0.0], "goal": [0.1, 0.2, 0.3]},
           "policy": policy}
    with pytest.raises(ConfigError, match="^config invalid at env/goal: equal to env.start"):
        config.validate(raw)
    # the same start and goal with no straight path is a reach already done
    assert config.validate({**raw, "policy": {"type": "knn"}})["env"]["goal"] == [0.1, 0.2, 0.3]
