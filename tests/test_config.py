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
