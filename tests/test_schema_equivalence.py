"""Differential test: the in-package validator accepts and rejects exactly
what jsonschema's Draft 2020-12 validator does, over mutated configs."""
import copy
import math

import pytest

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_schema import RUN, SWEEP  # noqa: E402
from whichway._schema import schema_error  # noqa: E402
from whichway.cli import _SCHEMA, _SWEEP_SCHEMA  # noqa: E402

# type swaps, the schema's boundaries and the names it knows
EDGE_VALUES = [
    True, False, None, [], {}, "", "csv", "json", "overlap", "screen_dist",
    0, 1, -1, 63, 64, 65, 0.0, -0.0, 1.0, 63.0, 64.0, 64.5, 5e-324, -5e-324,
    1.0000000000000002, 0.9999999999999999, math.inf, -math.inf, math.nan,
    10**400, [0.5], [True], [None], {"enabled": True},
]
KNOWN_KEYS = ["geometry", "detector", "grid", "eraser", "output", "base", "values",
              "sweep_param", "phase", "overlap", "enabled", "basis_angle", "format",
              "path", "n_points", "x_min", "lambda_d", "packet_width", "extra"]

scalars = st.one_of(
    st.sampled_from(EDGE_VALUES).map(copy.deepcopy),  # later mutations must not alias it
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (container path, key) in a JSON value."""
    if isinstance(node, dict):
        keys = node.keys()
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield path, key
        yield from _slots(node[key], path + (key,))


@st.composite
def mutated(draw, base):
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(config))
        if not slots or draw(st.integers(0, 19)) == 0:
            return draw(json_values)
        path, key = draw(st.sampled_from(slots))
        parent = config
        for step in path:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(scalars | json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KNOWN_KEYS))] = draw(json_values)
        else:
            parent.append(draw(json_values))
    return config


def _agree(config, schema):
    expected = jsonschema.Draft202012Validator(schema).is_valid(config)
    assert (schema_error(config, schema) is None) == expected, config


@settings(max_examples=600, deadline=None)
@given(mutated(RUN))
def test_run_configs_agree_with_jsonschema(config):
    _agree(config, _SCHEMA)


@settings(max_examples=600, deadline=None)
@given(mutated(SWEEP))
def test_sweep_configs_agree_with_jsonschema(config):
    _agree(config, _SWEEP_SCHEMA)


@pytest.mark.parametrize("schema", [_SCHEMA, _SWEEP_SCHEMA], ids=["run", "sweep"])
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_values_agree_everywhere(schema, value):
    base = SWEEP if schema is _SWEEP_SCHEMA else RUN
    for path, key in _slots(base):
        config = copy.deepcopy(base)
        parent = config
        for step in path:
            parent = parent[step]
        parent[key] = value
        _agree(config, schema)
