"""Logical state snapshots for the reachability explorer.

The explorer (:mod:`repro.verify.explorer`) hashes *logical* system
states: everything that determines future protocol behavior, and nothing
that merely records how we got here. These helpers turn live objects —
cache entries, TBEs, messages, per-protocol ``meta`` dicts — into plain,
hashable, deterministic tuples with the volatile parts stripped:

* tick values, message uids, span/lineage handles, LRU clocks and
  event-cancel tokens never enter a snapshot (two runs reaching the same
  protocol state at different ticks must hash identically);
* enums become their ``name``, sets become :class:`Multiset` values,
  data blocks become bytes, nested dicts become sorted key/value tuples;
* unknown objects fall back to ``repr`` — safe for the small config
  cells the explorer drives, and loud in a diff if something volatile
  ever leaks through.

:func:`canonical_text` renders such a snapshot as text that does not
depend on dict order; the explorer hashes it under every symmetry
renaming, and the golden ``state`` digest hashes it as is.

A renaming can reorder what a sort put in order. A snapshot therefore
holds an unordered collection (a set in ``meta``, a sequencer's
outstanding ops, the explorer's unordered channel) as a
:class:`Multiset`, which is sorted again *after* each renaming; dicts
are already rendered from their renamed, sorted items. Under the
identity renaming a multiset renders exactly as the sorted tuple it
holds, so identity texts do not depend on the marker.
"""

import enum

from repro.sim.idenum import name_of

#: TBE/entry ``meta`` keys that hold scheduling artifacts (event cancel
#: tokens, telemetry spans, lineage ids) rather than protocol state.
VOLATILE_META_KEYS = frozenset({
    "timeout_event",
    "span",
    "span_status",
    "probe_lid",
})


class Multiset(tuple):
    """An unordered collection in a snapshot, held sorted by ``sort_key``.

    :func:`rename` and :func:`canonical_text` rename the elements first
    and sort them again, so a state and its mirror image render alike.
    """

    __slots__ = ()

    #: ``sorted`` key; None is the elements' own order
    sort_key = None

    @classmethod
    def of(cls, values):
        """The multiset of ``values``."""
        return cls(sorted(values, key=cls.sort_key))


class ReprMultiset(Multiset):
    """A :class:`Multiset` whose elements need not compare: sorted by ``repr``."""

    __slots__ = ()
    sort_key = repr


def snap_value(value):
    """Convert one value to a deterministic, hashable representation."""
    if value is None or isinstance(value, (bool, int, str, bytes, float)):
        return value
    if isinstance(value, enum.Enum):
        return value._name_
    # Message carriers appear in meta ("accel_req", TBE.origin) and in
    # channel contents; duck-type on the Message slots.
    if hasattr(value, "mtype") and hasattr(value, "uid"):
        return snap_message(value)
    if hasattr(value, "to_bytes") and hasattr(value, "write"):  # DataBlock
        return bytes(value.to_bytes())
    if isinstance(value, (set, frozenset)):
        return Multiset.of(snap_value(v) for v in value)
    if isinstance(value, dict):
        return snap_meta(value)
    if isinstance(value, (list, tuple)):
        return tuple(snap_value(v) for v in value)
    return repr(value)


def snap_message(msg):
    """Logical content of a message: type/addr/parties/payload, no uid."""
    data = msg.data
    return (
        "msg",
        name_of(msg.mtype),
        msg.addr,
        msg.sender,
        msg.dest,
        msg.requestor,
        msg.value,
        msg.ack_count,
        bool(msg.dirty),
        bool(msg.shared_hint),
        None if data is None else bytes(data.to_bytes()),
    )


def snap_meta(meta):
    """Sorted (key, value) tuple of a ``meta`` dict, volatile keys dropped."""
    return tuple(sorted(
        (key, snap_value(value))
        for key, value in meta.items()
        if key not in VOLATILE_META_KEYS
    ))


def snap_cache_entry(entry):
    """Logical content of a resident cache entry (LRU clock excluded)."""
    return (
        name_of(entry.state),
        bytes(entry.data.to_bytes()) if entry.data is not None else None,
        bool(entry.dirty),
        getattr(entry.permission, "name", entry.permission),
        snap_meta(entry.meta),
    )


def snap_tbe(tbe):
    """Logical content of a TBE (``opened_at`` tick excluded)."""
    return (
        name_of(tbe.state),
        bytes(tbe.data.to_bytes()) if tbe.data is not None else None,
        bool(tbe.dirty),
        tbe.acks_needed,
        tbe.acks_received,
        tbe.responses_received,
        bool(tbe.data_received),
        tbe.requestor,
        None if tbe.origin is None else snap_message(tbe.origin),
        getattr(tbe.permission, "name", tbe.permission),
        snap_meta(tbe.meta),
    )


#: Types a snapshot holds as leaves; a tuple of only these, under the
#: identity renaming, renders as its own ``repr``.
_ATOMS = frozenset({str, int, bool, type(None), bytes, float})


def canonical_text(obj, name_map, addr_map):
    """Canonical text of one snapshot under one renaming (maps may be None).

    Strings go through ``name_map`` and ints through ``addr_map``; a dict
    renders as ``('dict', (items))`` with its ``(key, value)`` item texts
    sorted, a list or tuple as ``('tuple', (values))``, anything else as
    its ``repr``. That is the ``repr`` of the renamed snapshot with every
    dict frozen into a sorted item tuple, built bottom-up in one pass.

    A :class:`Multiset` under a renaming renders as its renamed elements
    sorted again; under the identity it renders as the tuple it holds.

    Dispatch is on the exact type, most frequent first; subclasses of the
    built-in types fall through to the ``isinstance`` checks at the end.
    """
    kind = type(obj)
    if kind is tuple or kind is list:
        if not name_map and not addr_map:
            for value in obj:
                if type(value) not in _ATOMS:
                    break
            else:
                return f"('tuple', {tuple(obj)!r})"
        parts = [canonical_text(v, name_map, addr_map) for v in obj]
        return f"('tuple', {_tuple_text(parts)})"
    if kind is str:
        return repr(name_map.get(obj, obj) if name_map else obj)
    if kind is int:
        return repr(addr_map.get(obj, obj) if addr_map else obj)
    if obj is None or kind is bool or kind is bytes or kind is float:
        return repr(obj)
    if kind is dict:
        return dict_text([
            f"({canonical_text(key, name_map, addr_map)}, "
            f"{canonical_text(value, name_map, addr_map)})"
            for key, value in obj.items()
        ])
    if isinstance(obj, str):
        return repr(name_map.get(obj, obj) if name_map else obj)
    if isinstance(obj, (bool, bytes, float)):
        return repr(obj)
    if isinstance(obj, int):
        return repr(addr_map.get(obj, obj) if addr_map else obj)
    if isinstance(obj, dict):
        return canonical_text(dict(obj), name_map, addr_map)
    if isinstance(obj, Multiset):
        if name_map or addr_map:
            obj = rename(obj, name_map, addr_map)
        return canonical_text(tuple(obj), None, None)
    if isinstance(obj, (list, tuple)):
        return canonical_text(tuple(obj), name_map, addr_map)
    return repr(obj)


def rename(obj, name_map, addr_map):
    """``obj`` with the renaming :func:`canonical_text` applies done to the data.

    Strings go through ``name_map`` and ints (not booleans) through
    ``addr_map``; lists become tuples, and a :class:`Multiset` is sorted
    again after its elements are renamed. Rendering the result under the
    identity gives the text ``obj`` renders under the maps.
    """
    if isinstance(obj, Multiset):
        return type(obj).of([rename(v, name_map, addr_map) for v in obj])
    if isinstance(obj, (list, tuple)):
        return tuple([rename(v, name_map, addr_map) for v in obj])
    if isinstance(obj, dict):
        return {rename(key, name_map, addr_map): rename(value, name_map, addr_map)
                for key, value in obj.items()}
    if isinstance(obj, str):
        return name_map.get(obj, obj) if name_map else obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return addr_map.get(obj, obj) if addr_map else obj
    return obj


def dict_text(items):
    """Text of a dict whose ``(key, value)`` items render as ``items``."""
    return f"('dict', {_tuple_text(sorted(items))})"


def _tuple_text(parts):
    """``repr`` of a tuple whose elements render as ``parts``."""
    if len(parts) == 1:
        return f"({parts[0]},)"
    return f"({', '.join(parts)})"
