"""JSON Schema (Draft 2020-12) checks for the keywords ``config_schema.json`` uses.

The shipped schema is the single source of truth; this module interprets the
subset of the vocabulary it is written in, with Draft 2020-12 semantics for
JSON values: ``number`` and ``integer`` exclude booleans, ``integer`` admits
integral floats such as ``64.0``, and each keyword constrains only instances
of the kind it applies to (``minimum`` ignores strings, ``required`` ignores
arrays), as the specification says.  Within the subset, ``$ref`` takes local
JSON pointers, ``type`` one type name, ``enum`` string options and
``additionalProperties`` a boolean.  Keywords outside ``KEYWORDS`` and
``IGNORED`` are not interpreted; the test suite walks the shipped schema so
it cannot silently outgrow this module.
"""
from __future__ import annotations


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _ref(ref, inst, schema, root, where):
    target = root
    for part in ref.removeprefix("#/").split("/"):
        target = target[part]
    yield from _errors(inst, target, root, where)


def _type(name, inst, schema, root, where):
    if not _TYPES[name](inst):
        yield f"{where}: {inst!r} is not of type {name!r}"


def _enum(options, inst, schema, root, where):
    # options are strings, for which Python equality is JSON equality
    if inst not in options:
        yield f"{where}: {inst!r} is not one of {options!r}"


def _required(names, inst, schema, root, where):
    if isinstance(inst, dict):
        for name in names:
            if name not in inst:
                yield f"{where}: {name!r} is a required property"


def _properties(props, inst, schema, root, where):
    if isinstance(inst, dict):
        for name, sub in props.items():
            if name in inst:
                yield from _errors(inst[name], sub, root, f"{where}.{name}")


def _additional_properties(allowed, inst, schema, root, where):
    if allowed is False and isinstance(inst, dict):
        extra = sorted(set(inst) - set(schema.get("properties", {})))
        if extra:
            yield f"{where}: additional properties are not allowed ({', '.join(map(repr, extra))})"


def _bound(fails, text):
    def check(limit, inst, schema, root, where):
        if _is_number(inst) and fails(inst, limit):
            yield f"{where}: {inst!r} is {text} {limit!r}"
    return check


def _min_items(count, inst, schema, root, where):
    if isinstance(inst, list) and len(inst) < count:
        yield f"{where}: {inst!r} has fewer than {count} items"


def _items(sub, inst, schema, root, where):
    if isinstance(inst, list):
        for i, item in enumerate(inst):
            yield from _errors(item, sub, root, f"{where}[{i}]")


KEYWORDS = {
    "$ref": _ref,
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "minimum": _bound(lambda v, m: v < m, "less than the minimum of"),
    "maximum": _bound(lambda v, m: v > m, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda v, m: v <= m, "less than or equal to the minimum of"),
    "minItems": _min_items,
    "items": _items,
}
# annotations and containers that constrain nothing by themselves
IGNORED = frozenset({"$schema", "title", "description", "$defs"})


def _errors(inst, schema, root, where):
    for keyword, value in schema.items():
        check = KEYWORDS.get(keyword)
        if check is not None:
            yield from check(value, inst, schema, root, where)


def schema_error(instance, schema: dict) -> str | None:
    """The first violation of ``schema`` by the JSON value ``instance``, or None."""
    return next(_errors(instance, schema, schema, "$"), None)
