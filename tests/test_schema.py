"""The in-package config validator against the shipped schema."""
import copy

import pytest

from whichway._schema import _TYPES, IGNORED, KEYWORDS, schema_error
from whichway.cli import _SCHEMA, _SWEEP_SCHEMA

RUN = {
    "geometry": {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5},
    "detector": {"overlap": 0.6, "phase": 0.0},
    "grid": {"x_min": -0.025, "x_max": 0.025, "n_points": 8192},
    "eraser": {"enabled": True, "basis_angle": 0.7853981633974483},
    "output": {"format": "csv", "path": "out.csv"},
}
SWEEP = {"base": RUN, "sweep_param": "overlap", "values": [0.0, 0.5, 1.0]}


def _subschemas(node):
    yield node
    for key in ("$defs", "properties"):
        for sub in node.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in node:
        yield from _subschemas(node["items"])


def test_schema_uses_exactly_the_interpreted_keywords():
    seen = set()
    for node in _subschemas(_SCHEMA):
        seen |= set(node) - IGNORED
        assert isinstance(node.get("additionalProperties", False), bool)
        assert isinstance(node.get("items", {}), dict)
        assert node.get("$ref", "#/").startswith("#/")
        assert all(isinstance(option, str) for option in node.get("enum", []))
        assert node.get("type", "object") in _TYPES
    # an unknown keyword would go unchecked; an unused one is dead code
    assert seen == set(KEYWORDS)


def _with(config, path, value):
    config = copy.deepcopy(config)
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    if value is KeyError:
        del node[last]
    else:
        node[last] = value
    return config


@pytest.mark.parametrize(
    "path,value,ok",
    [
        (("grid", "n_points"), 64, True),
        (("grid", "n_points"), 64.0, True),
        (("grid", "n_points"), 63, False),
        (("grid", "n_points"), 64.5, False),
        (("grid", "n_points"), True, False),
        (("detector", "overlap"), 0, True),
        (("detector", "overlap"), 1, True),
        (("detector", "overlap"), 1.0000000000000002, False),
        (("detector", "overlap"), True, False),
        (("detector", "overlap"), None, False),
        (("detector", "overlap"), float("nan"), True),  # NaN fails no comparison
        (("geometry", "packet_width"), 0, False),
        (("geometry", "packet_width"), -0.0, False),
        (("geometry", "packet_width"), 5e-324, True),
        (("geometry", "slit_sep"), "1e-4", False),
        (("geometry", "screen_dist"), KeyError, False),
        (("geometry", "slit_width"), 1e-5, False),
        (("detector", "phase"), KeyError, True),
        (("eraser", "enabled"), 1, False),
        (("output", "format"), "xml", False),
        (("output", "format"), ["csv"], False),
        (("grid",), KeyError, True),
        (("grid",), [], False),
        (("detector",), KeyError, False),
    ],
)
def test_run_config_cases(path, value, ok):
    assert (schema_error(_with(RUN, path, value), _SCHEMA) is None) == ok


@pytest.mark.parametrize(
    "path,value,ok",
    [
        (("values",), [], False),
        (("values",), [1], True),
        (("values",), [0.5, False], False),
        (("values",), (0.5,), False),
        (("sweep_param",), "packet_width", True),
        (("sweep_param",), "wavelength", False),
        (("base", "grid", "n_points"), 63, False),
        (("base", "extra"), {}, False),
    ],
)
def test_sweep_config_cases(path, value, ok):
    assert (schema_error(_with(SWEEP, path, value), _SWEEP_SCHEMA) is None) == ok


@pytest.mark.parametrize("config", [None, [], "run", 3, True, {}])
def test_non_object_configs_are_rejected(config):
    assert schema_error(config, _SCHEMA) is not None
    assert schema_error(config, _SWEEP_SCHEMA) is not None


def test_message_names_the_location():
    message = schema_error(_with(SWEEP, ("base", "geometry", "slit_sep"), -1e-4), _SWEEP_SCHEMA)
    assert message == "$.base.geometry.slit_sep: -0.0001 is less than or equal to the minimum of 0"
