"""Immutable result records.

A record is a value made of named fields, the `__slots__` of its class in
order: a decomposition, a report, a witness. The CLI prints a record as the
dict of its fields by name, which are its keys in schema.json.

The contract:
- a record is built from its fields, positionally or by keyword; the class
  gives defaults for trailing fields in `_defaults`; a missing, unknown or
  repeated field is a TypeError;
- assigning or deleting a field raises AttributeError;
- a record equals only a record of the same type with equal fields, and its
  hash is the hash of the tuple of its fields;
- its repr is `Name(field=value, ...)`.

These are the methods a frozen `dataclasses.dataclass` generates, with the
same hash values, so nothing kept in a set or dict moves. `dataclasses` is
not used because every CLI call is a fresh process that pays for building
the classes: on a 2-CPU x86 machine under Python 3.11, importing
`ahweyl.cli` took 17 ms with bytecode cached, of which about 7 ms went to
`dataclasses` generating and compiling the methods of 20 record classes
and 4 ms to importing `dataclasses` and `inspect`, which nothing else loads.
"""

_set = object.__setattr__


class Record:
    """Base of the result records; a subclass declares its fields as
    `__slots__` and is not subclassed further."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    def _arguments(self, args, kwargs) -> list:
        """The field values, in order, of a call that does not give every
        field positionally."""
        names = self.__slots__
        kind = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} has {len(names)} fields, got {len(args)} values")
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{kind} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{kind} got an unknown or repeated field {min(kwargs)!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
