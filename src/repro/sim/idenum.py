"""The enum base every protocol and configuration enum in ``repro`` uses.

CPython 3.11's ``Enum.__hash__`` is a Python function, ``hash(self._name_)``,
so every dict or set probe keyed by a member runs a Python frame: the
compiled dispatch's two ``.get`` calls, the ``(state, event)`` coverage
key, transient-state membership tests and the XG event maps all pay it
per message. Members are singletons compared by identity, so hashing by
identity keeps every dict and set semantics unchanged at C speed.

Set iteration over members already depended on ``PYTHONHASHSEED`` (the
name hash is salted), so no ordering the program relies on moves; every
digest that renders members sorts them by name.
"""

import enum


class IdEnum(enum.Enum):
    """An :class:`enum.Enum` whose members hash by identity."""

    __hash__ = object.__hash__


_MISSING = object()


def name_of(value):
    """Display name of ``value``: an enum member's name, else its ``name``
    attribute, else ``str(value)``.

    Equivalent to ``getattr(value, "name", str(value))`` without paying
    for the ``str()`` (a Python-level ``Enum.__str__``) when a name exists,
    nor for the ``Enum.name`` property when ``_name_`` is right there.
    """
    if isinstance(value, enum.Enum):
        return value._name_
    name = getattr(value, "name", _MISSING)
    return str(value) if name is _MISSING else name
