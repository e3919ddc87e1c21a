"""Differential test: compiled dispatch table vs the legacy declared view.

The compiled fast path flattens ``transitions`` into a dense per-state
dict at ``recompile_dispatch`` time. These tests enumerate every compiled
(state, event) entry of every controller in every built system and check
it agrees with the legacy ``has_transition`` / ``possible_transitions``
view — same pairs, same bound handlers, nothing added, nothing dropped.

The declared tables themselves are pinned too (:data:`PINNED_TABLES`):
they are experiment E3's coverage denominators.
"""

import dataclasses
import functools

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system


def _small_config(host, org):
    return SystemConfig(
        host=host,
        org=org,
        n_cpus=2,
        n_accel_cores=2,
        cpu_l1_sets=2,
        cpu_l1_assoc=1,
        shared_l2_sets=4,
        shared_l2_assoc=2,
        accel_l1_sets=2,
        accel_l1_assoc=1,
        seed=7,
    )


def _compiled_pairs(ctrl):
    """Every (state, event) pair the compiled table will dispatch."""
    return {
        (state, event)
        for state, row in ctrl._dispatch.items()
        for event in row
    }


CASES = [(host, org) for host in HostProtocol for org in AccelOrg]


@pytest.mark.parametrize(
    "host,org", CASES,
    ids=[f"{h.name.lower()}-{o.name.lower()}" for h, o in CASES],
)
def test_compiled_table_matches_declared_transitions(host, org):
    system = build_system(_small_config(host, org))
    checked = 0
    for ctrl in system.controllers():
        compiled = _compiled_pairs(ctrl)
        declared = set(ctrl.transitions)
        # Same key set in both directions.
        assert compiled == declared, (
            f"{ctrl.name}: compiled table diverged from declared transitions "
            f"(extra={compiled - declared}, missing={declared - compiled})"
        )
        for state, row in ctrl._dispatch.items():
            for event, (handler, key) in row.items():
                # The flattened entry must bind the exact declared handler
                # and carry the pre-made coverage key.
                assert ctrl.has_transition(state, event)
                assert handler is ctrl.transitions[(state, event)], (
                    f"{ctrl.name}: ({state}, {event}) bound to a different handler"
                )
                assert key == (state, event)
                checked += 1
        # The coverage denominator view is unchanged by compilation.
        assert ctrl.possible_transitions() == declared - ctrl.coverage_exempt
    # Table-driven hosts contribute hundreds of pairs; XG controllers are
    # intentionally method-driven (empty tables) and contribute zero.
    assert checked == sum(len(c.transitions) for c in system.controllers())


@pytest.mark.parametrize("host", list(HostProtocol), ids=lambda h: h.name.lower())
def test_compiled_fire_installed_per_instance(host):
    system = build_system(_small_config(host, AccelOrg.XG))
    for ctrl in system.controllers():
        # Default mode is compiled: each instance shadows the class method
        # with its own closure over the flattened table.
        assert "fire" in ctrl.__dict__
        assert ctrl.fire is not type(ctrl).fire


def test_recompile_tracks_runtime_table_edits():
    """Mutating ``transitions`` then recompiling keeps the views in sync."""
    system = build_system(_small_config(HostProtocol.MESI, AccelOrg.XG))
    ctrl = system.cpu_caches[0]
    key = next(iter(ctrl.transitions))
    handler = ctrl.transitions.pop(key)
    ctrl.recompile_dispatch()
    assert key not in _compiled_pairs(ctrl)
    ctrl.transitions[key] = handler
    ctrl.recompile_dispatch()
    assert key in _compiled_pairs(ctrl)
    assert ctrl._dispatch[key[0]][key[1]][0] is handler


# -- pinned declared tables ------------------------------------------------------

#: Every table-driven controller type's declared transitions (its sorted
#: ``transition_relation()``, E3's coverage denominator) and its
#: ``coverage_exempt`` pairs, each as {state: "events in sorted order"}.
PINNED_TABLES = {
    "accel_l1": (
        {
            "B": "DataE DataM DataS Invalidate WBAck",
            "E": "Invalidate Load Replacement Store",
            "I": "Invalidate Load Store",
            "M": "Invalidate Load Replacement Store",
            "S": "Invalidate Load Replacement Store",
        },
        {},
    ),
    "accel_l2": (
        {
            "B_EVICT": "CleanWB DirtyWB InvAck",
            "B_FETCH": "DataE DataM DataS Invalidate",
            "B_LOCAL": "CleanWB DirtyWB InvAck",
            "B_PUT": "Invalidate WBAck",
            "NP": "GetM GetS Invalidate PutS",
            "O": "GetM GetS Invalidate PutE PutM PutS Replacement",
            "S": "GetM GetS Invalidate PutS Replacement",
        },
        {
            "B_EVICT": "Invalidate",
            "B_LOCAL": "Invalidate",
            "NP": "PutE PutM",
            "S": "PutE PutM",
        },
    ),
    "hammer_cache": (
        {
            "E": "Fwd_GetM Fwd_GetS Fwd_GetS_Only Load Replacement Store",
            "EI_A": "Fwd_GetM Fwd_GetS Fwd_GetS_Only WBAck",
            "I": "Fwd_GetM Fwd_GetS Fwd_GetS_Only Load Store",
            "II_A": "Fwd_GetM Fwd_GetS Fwd_GetS_Only WBNack",
            "IM_AD": "Fwd_GetM Fwd_GetS Fwd_GetS_Only MemData PeerAck PeerData",
            "IS_AD": "Fwd_GetM Fwd_GetS Fwd_GetS_Only MemData PeerAck PeerData PeerDataExcl",
            "M": "Fwd_GetM Fwd_GetS Fwd_GetS_Only Load Replacement Store",
            "MI_A": "Fwd_GetM Fwd_GetS Fwd_GetS_Only WBAck",
            "O": "Fwd_GetM Fwd_GetS Fwd_GetS_Only Load Replacement Store",
            "OI_A": "Fwd_GetM Fwd_GetS Fwd_GetS_Only WBAck",
            "OM_A": "Fwd_GetM Fwd_GetS Fwd_GetS_Only MemData PeerAck",
            "S": "Fwd_GetM Fwd_GetS Fwd_GetS_Only Load Replacement Store",
            "SM_AD": "Fwd_GetM Fwd_GetS Fwd_GetS_Only MemData PeerAck PeerData",
        },
        {
            "I": "WBNack",
            "IM_AD": "PeerDataExcl",
            "OM_A": "PeerData PeerDataExcl",
            "S": "WBNack",
            "SM_AD": "PeerDataExcl",
        },
    ),
    "hammer_directory": (
        {
            "BUSY": "UnblockE UnblockM UnblockS",
            "IDLE": "GetM GetS GetS_Only PutOwner PutStale",
            "WB": "WBData",
        },
        {},
    ),
    "mesi_l1": (
        {
            "E": "Fwd_GetM Fwd_GetS Load Recall Replacement Store",
            "EI_A": "Fwd_GetM Fwd_GetS Recall WBAck",
            "I": "Load Store",
            "II_A": "Inv WBNack",
            "IM_A": "InvAck",
            "IM_AD": "DataM InvAck",
            "IS_D": "DataE DataM DataS",
            "M": "Fwd_GetM Fwd_GetS Load Recall Replacement Store",
            "MI_A": "Fwd_GetM Fwd_GetS Recall WBAck",
            "S": "Inv Load Replacement Store",
            "SI_A": "Inv WBAck",
            "SM_A": "InvAck",
            "SM_AD": "DataM Inv InvAck",
        },
        {},
    ),
    "mesi_l2": (
        {
            "BUSY": "CopyBack UnblockS UnblockX",
            "EV_ACK": "InvAck",
            "EV_DATA": "CopyBackInv",
            "IV": "MemData",
            "NP": "GetM GetS GetS_Only PutStale",
            "V": "GetM GetS GetS_Only PutS PutStale Replacement",
            "X": "GetM GetS GetS_Only PutE PutM PutStale Replacement",
        },
        {
            "EV_ACK": "CopyBack",
        },
    ),
    "mesif_l1": (
        {
            "E": "Fwd_GetM Fwd_GetS Load Recall Replacement Store",
            "EI_A": "Fwd_GetM Fwd_GetS Recall WBAck",
            "F": "Fwd_GetS_F Inv Load Replacement Store",
            "I": "Fwd_GetS_F Inv Load Store",
            "II_A": "Inv WBNack",
            "IM_A": "Fwd_GetS_F Inv InvAck",
            "IM_AD": "DataM Fwd_GetS_F Inv InvAck",
            "IS_D": "DataE DataF DataM Fwd_GetS_F Inv",
            "M": "Fwd_GetM Fwd_GetS Load Recall Replacement Store",
            "MI_A": "Fwd_GetM Fwd_GetS Recall WBAck",
            "S": "Inv Load Replacement Store",
            "SM_A": "InvAck",
            "SM_AD": "DataM Fwd_GetS_F Inv InvAck",
        },
        {
            "IS_D": "DataS",
            "S": "Fwd_GetS_F",
        },
    ),
    "mesif_l2": (
        {
            "BUSY": "CopyBack FNack UnblockF UnblockS UnblockX",
            "EV_ACK": "InvAck",
            "EV_DATA": "CopyBackInv",
            "IV": "MemData",
            "NP": "GetM GetS GetS_Only PutStale",
            "V": "GetM GetS GetS_Only PutStale Replacement",
            "X": "GetM GetS GetS_Only PutE PutM PutStale Replacement",
        },
        {
            "EV_ACK": "CopyBack",
        },
    ),
}


def _by_state(pairs):
    grouped = {}
    for state, event in sorted(pairs):
        grouped.setdefault(state, []).append(event)
    return {state: " ".join(events) for state, events in grouped.items()}


@functools.lru_cache(maxsize=None)
def _tables_by_type():
    """{CONTROLLER_TYPE: (relation, exempt)} over every host, org and accel depth."""
    tables = {}
    for host, org in CASES:
        for levels in (1, 2):
            config = dataclasses.replace(_small_config(host, org), accel_levels=levels)
            for ctrl in build_system(config).controllers():
                if not ctrl.transitions:
                    continue  # XG ports are method-driven
                table = (
                    _by_state(ctrl.transition_relation()),
                    _by_state((s.name, e.name) for s, e in ctrl.coverage_exempt),
                )
                # one controller type declares one table in every system
                assert tables.setdefault(ctrl.CONTROLLER_TYPE, table) == table
    return tables


def test_every_table_driven_controller_type_is_pinned():
    assert sorted(_tables_by_type()) == sorted(PINNED_TABLES)


@pytest.mark.parametrize("ctype", sorted(PINNED_TABLES))
def test_declared_transition_table_pinned(ctype):
    """A refactor that adds, drops or exempts a row moves E3's coverage
    percentages; it must show up here first."""
    relation, exempt = _tables_by_type()[ctype]
    pinned_relation, pinned_exempt = PINNED_TABLES[ctype]
    assert relation == pinned_relation
    assert exempt == pinned_exempt
