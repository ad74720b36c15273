import copy
import json

import jsonschema
import pytest

from safectl import config
from safectl.config import SCHEMA, ConfigError

GOOD = {"version": 1, "env": {"task": "reach"}}


def test_schema_passes_its_metaschema():
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


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


REMOVED_SHIELD_KEYS = {"per_dim": False, "gamma_behavioral": 3.0, "robust": True,
                       "vertex_budget": 64, "slack_penalty": 1e6}


@pytest.mark.parametrize("key,value", REMOVED_SHIELD_KEYS.items(), ids=REMOVED_SHIELD_KEYS.keys())
def test_removed_shield_key_is_rejected(key, value):
    # the shield has one behaviour: gamma on every row, the robust margin and
    # state box always on, MAX_BOX_CORNERS corners and the default slack penalty
    with pytest.raises(ConfigError, match=f"'{key}' was unexpected"):
        config.validate(bad(["shield", key], value))


def test_removed_shield_key_on_the_command_line_exits_2(tmp_path, capsys):
    from safectl import cli

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(GOOD))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--set", "shield.per_dim=true"])
    assert code == cli.EXIT_CONFIG == 2
    assert "per_dim" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
