"""The base of the package's immutable records.

A record is a plain class: its ``__init__`` checks the arguments and sets
the fields, and this base makes the result immutable, comparable, hashable
and printable.  Building a record class costs one class statement; no code
is generated, and this module imports nothing.
"""

#: Sets an attribute of a record past its ``__setattr__``, which refuses
#: every assignment; only a record's ``__init__`` calls it.
init_field = object.__setattr__


class Record:
    """An immutable record whose fields are named, in order, by ``_fields``.

    A subclass's ``__init__`` sets each field with ``init_field`` and then
    ``_values`` to the tuple of the fields in ``_fields`` order.  Records
    equal when they are of one class and their ``_values`` are equal, and
    hash as their ``_values``: one tuple comparison, with no Python code per
    field.  A subclass declared with ``eq=False`` compares and hashes by
    identity instead, and keeps no ``_values``.  Setting or deleting an
    attribute raises AttributeError.  The repr names every field, as
    ``Name(field=value, ...)``.  A subclass declares ``__slots__``, so no
    record has a ``__dict__``.
    """

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        # pickle and copy hand back what object.__getstate__ gave them: no
        # __dict__ (None) and the slots' values
        _, slots = state
        for name, value in slots.items():
            init_field(self, name, value)
