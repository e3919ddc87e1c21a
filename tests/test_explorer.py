"""Tests for the concrete-state reachability explorer.

Tier-1 runs capped explorations (seconds); full cell enumerations are
marked ``explore_full`` and only run with ``--explore-full`` (CI's
explore-smoke job and local deep verification).
"""

import io
import json
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from itertools import permutations
from types import MethodType

import pytest

from repro.coherence.coverage import CoverageReport
from repro.coherence.snapshot import Multiset, canonical_text, rename
from repro.host.config import HostProtocol
from repro.host.system import build_system
from repro.obs.matrix import CellSummary, render_missing
from repro.obs import CoverageMatrix
from repro.testing.invariants import InvariantError
from repro.verify import explorer
from repro.verify.explorer import (
    ADDRESS_POOL,
    CHECKPOINT_BUDGET,
    CHECKS,
    HOSTS,
    VARIANTS,
    ExplorerHarness,
    authoritative_uncovered,
    cell_config,
    cross_check_coverage,
    explore_cell,
    load_reachable_report,
    replay_path,
    run_cell_stress,
    state_set_digest,
)
from repro.verify.model import reachable_projections

CELL = {"host": "mesi", "variant": "full_state", "addresses": 1}
ADDR = ADDRESS_POOL[0]


# -- snapshot / transition-relation hooks -------------------------------------


def test_controller_hooks_expose_relation_and_coverage():
    system = build_system(cell_config(**CELL))
    l2 = system.directory
    relation = l2.transition_relation()
    assert relation and all(
        isinstance(s, str) and isinstance(e, str) for s, e in relation)
    assert l2.covered_transitions() == []  # nothing ran yet
    snap = l2.snapshot_state()
    assert snap.get("cache", {}) == {}
    assert snap.get("tbes", {}) == {}


def test_sequencer_snapshot_tracks_outstanding():
    system = build_system(cell_config(**CELL))
    seq = system.cpu_seqs[0]
    assert seq.snapshot_state() == {"outstanding": ()}
    seq.load(ADDR)
    outstanding = seq.snapshot_state()["outstanding"]
    assert len(outstanding) == 1
    assert outstanding[0][0] == ADDR


def test_xg_snapshot_extra_has_mirror_and_quarantine():
    system = build_system(cell_config(**CELL))
    extra = system.xg.snapshot_extra()
    assert extra["quarantine"] == "healthy"
    assert extra["errors"] == 0
    assert extra["mirror"] == {}


def test_hammer_directory_snapshot_extra_owners():
    system = build_system(cell_config(host="hammer", variant="full_state"))
    assert system.directory.snapshot_extra() == {"owners": {}}


# -- harness basics -----------------------------------------------------------


def test_explorer_imports_no_campaign_code():
    """The explorer runs in one process: importing it loads nothing of
    ``repro.eval``."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(explorer.__file__)))
    code = ("import sys, repro.verify.explorer; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.eval')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_root_state_is_quiescent_and_clean():
    harness = ExplorerHarness(CELL)
    assert harness.is_quiescent()
    assert harness.state_problems() == []
    actions = harness.enabled_actions()
    # 3 sequencers (2 CPU + 1 accel) x {load, store} x 1 address
    assert len(actions) == 6
    assert all(action[0] == "issue" for action in actions)


def test_issue_parks_instead_of_delivering():
    harness = ExplorerHarness(CELL)
    harness.apply(("issue", 0, "load", ADDR))
    assert len(harness.parked) == 1
    parked = harness.parked[0]
    assert parked.msg.dest == "l2"
    assert not harness.is_quiescent()
    delivers = [a for a in harness.enabled_actions() if a[0] == "deliver"]
    assert len(delivers) == 1


def test_ordered_lane_exposes_only_oldest():
    harness = ExplorerHarness(CELL)
    # accel load parks GetS on the ordered accel net (accel_l1 -> xg)
    harness.apply(("issue", 2, "load", ADDR))
    lanes = {p.lane for p in harness.parked}
    assert len(harness.parked) == 1
    delivers = [a for a in harness.enabled_actions() if a[0] == "deliver"]
    assert len(delivers) == len(lanes) == 1


# -- canonical hashing and symmetry -------------------------------------------


def test_core_permutation_symmetry():
    """Issuing on cpu.0 and on cpu.1 must reach the same canonical state."""
    a = replay_path(CELL, [("issue", 0, "load", ADDR)])
    b = replay_path(CELL, [("issue", 1, "load", ADDR)])
    assert a.digest() == b.digest()
    assert a.canonical() == b.canonical()


def test_distinct_ops_hash_differently():
    load = replay_path(CELL, [("issue", 0, "load", ADDR)])
    store = replay_path(CELL, [("issue", 0, "store", ADDR)])
    assert load.digest() != store.digest()


def test_address_renaming_symmetry():
    cell2 = dict(CELL, addresses=2)
    a = replay_path(cell2, [("issue", 0, "load", ADDRESS_POOL[0])])
    b = replay_path(cell2, [("issue", 0, "load", ADDRESS_POOL[1])])
    assert a.digest() == b.digest()


def test_address_mirror_of_a_path_hashes_alike():
    """The parked bag, sorted before the renaming, once told these apart."""
    cell = {"host": "mesi", "variant": "full_state", "addresses": 2, "n_cpus": 1}
    low, high = ADDRESS_POOL
    a = replay_path(cell, [("issue", 1, "load", low), ("deliver", 0),
                           ("issue", 0, "load", high)])
    b = replay_path(cell, [("issue", 1, "load", high), ("deliver", 0),
                           ("issue", 0, "load", low)])
    assert a.digest() == b.digest()


def test_multisets_sort_after_renaming():
    system = build_system(cell_config(**CELL))
    seq = system.cpu_seqs[0]
    seq.load(ADDRESS_POOL[1])
    seq.load(ADDRESS_POOL[0])
    outstanding = seq.snapshot_state()["outstanding"]
    assert isinstance(outstanding, Multiset)
    swap = dict(zip(ADDRESS_POOL, reversed(ADDRESS_POOL)))
    assert rename(outstanding, {}, swap) == outstanding
    sharers = Multiset.of(["cpu_l1.1", "cpu_l1.0"])
    names = {"cpu_l1.0": "cpu_l1.1", "cpu_l1.1": "cpu_l1.0"}
    assert rename(sharers, names, {}) == sharers
    assert canonical_text(sharers, names, {}) == canonical_text(sharers, None, None)


def _mirror_action(harness, twin, action, name_map, addr_map):
    """The enabled action of ``twin`` that ``action`` becomes under the renaming."""
    key = rename(harness.action_key(action), name_map, addr_map)
    for candidate in twin.enabled_actions():
        if twin.action_key(candidate) == key:
            return candidate
    raise AssertionError(f"{action} has no mirror image in the twin")


def _check_mirrored_walks(host, variant, walks, steps):
    for n_cpus, addresses in ((1, 2), (2, 1), (2, 2)):
        cell = {"host": host, "variant": variant,
                "addresses": addresses, "n_cpus": n_cpus}
        maps = ExplorerHarness(cell)._symmetry_maps[1:]  # identity first
        for index, (name_map, addr_map) in enumerate(maps):
            for walk in range(walks):
                rng = random.Random(f"mirror/{host}/{variant}/{n_cpus}/"
                                    f"{addresses}/{index}/{walk}")
                harness, twin = ExplorerHarness(cell), ExplorerHarness(cell)
                for step in range(steps):
                    assert harness.digest() == twin.digest(), (cell, index, walk, step)
                    action = rng.choice(harness.enabled_actions())
                    twin.apply(_mirror_action(harness, twin, action,
                                              name_map, addr_map))
                    harness.apply(action)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_mirrored_walks_hash_alike(host, variant):
    """A seeded walk and its image under every core and address renaming
    hash equal at every step."""
    _check_mirrored_walks(host, variant, walks=2, steps=30)


def test_replay_is_deterministic():
    path = [("issue", 0, "store", ADDR), ("deliver", 0)]
    assert replay_path(CELL, path).digest() == replay_path(CELL, path).digest()


# The reference canonicalizer: rename every string and int through the
# symmetry maps, sort every multiset again, freeze dicts into item tuples
# sorted by their repr, and take the repr. ``ExplorerHarness.canonical``
# renders the same text in one pass; these stay here as its oracle.


def _rename(obj, name_map, addr_map):
    """Apply the symmetry renaming to every string and int in a snapshot."""
    if isinstance(obj, Multiset):
        return type(obj).of(_rename(value, name_map, addr_map) for value in obj)
    if isinstance(obj, str):
        return name_map.get(obj, obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (bytes, float)):
        return obj
    if isinstance(obj, int):
        return addr_map.get(obj, obj)
    if isinstance(obj, dict):
        return {
            _rename(key, name_map, addr_map): _rename(value, name_map, addr_map)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return tuple(_rename(value, name_map, addr_map) for value in obj)
    return obj


def _freeze(obj):
    """Deterministic hashable form: dicts become sorted item tuples."""
    if isinstance(obj, dict):
        items = [(_freeze(key), _freeze(value)) for key, value in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("tuple", tuple(_freeze(value) for value in obj))
    return obj


def _reference_canonical(harness):
    """Min over every CPU-core permutation x address permutation."""
    seqs = [seq.name for seq in harness.system.cpu_seqs]
    caches = [cache.name for cache in harness.system.cpu_caches]
    snap = harness.snapshot()
    texts = []
    for perm in permutations(range(len(seqs))):
        name_map = {}
        for source, target in enumerate(perm):
            name_map[seqs[source]] = seqs[target]
            name_map[caches[source]] = caches[target]
        for addr_perm in permutations(harness.addresses):
            addr_map = dict(zip(harness.addresses, addr_perm))
            texts.append(repr(_freeze(_rename(snap, name_map, addr_map))))
    return min(texts)


def _plain(value, seeded):
    """A decoded checkpoint value as comparable plain data: what the memo
    seeds (fixed objects, enum members, classes) by identity, copied
    objects by their attributes, sets as sets."""
    if id(value) in seeded:
        return ("seeded", id(value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_plain(item, seeded) for item in value))
    if isinstance(value, dict):
        return ("dict", type(value), tuple((_plain(key, seeded), _plain(item, seeded))
                                           for key, item in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return (type(value), tuple(_plain(item, seeded) for item in value))
    if isinstance(value, MethodType):
        return ("method", id(value.__self__), value.__func__)
    names = [name for klass in type(value).__mro__
             for name in getattr(klass, "__slots__", ()) if hasattr(value, name)]
    names.extend(getattr(value, "__dict__", ()))
    if not names:
        return value
    return (type(value), tuple((name, _plain(getattr(value, name), seeded))
                               for name in names))


def _decoded(checkpointer, data):
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.memo = checkpointer.load_memo
    return _plain(unpickler.load(), set(checkpointer.dump_memo.copy()))


def _assert_unmarked_groups_unchanged(harness):
    """Every group no action marked since the live checkpoint still
    pickles to that checkpoint's bytes: exactly, or up to the iteration
    order of a set, which refilling a set in place can change."""
    checkpointer = harness.system.checkpointer
    live = harness._live.system
    for index, data in enumerate(live.groups):
        if index not in harness._changed:
            now = checkpointer.dump(index)
            assert now == data or (_decoded(checkpointer, now)
                                   == _decoded(checkpointer, data)), (
                f"group {index} changed unmarked")


def _check_canonical_against_reference(host, variant, walks, steps):
    """Seeded walks that also checkpoint and jump back to earlier
    checkpoints, so most restores write back only some groups."""
    for n_cpus in (1, 2):
        for addresses in (1, 2):
            cell = {"host": host, "variant": variant,
                    "addresses": addresses, "n_cpus": n_cpus}
            for walk in range(walks):
                rng = random.Random(f"{host}/{variant}/{n_cpus}/{addresses}/{walk}")
                harness = ExplorerHarness(cell)
                saved = [harness.root]
                for step in range(steps):
                    assert harness.canonical() == _reference_canonical(harness), (
                        cell, walk, step)
                    roll = rng.random()
                    if roll < 0.2:
                        saved.append(harness.checkpoint())
                    elif roll < 0.35:
                        harness.restore(rng.choice(saved))
                        continue
                    harness.apply(rng.choice(harness.enabled_actions()))
                    _assert_unmarked_groups_unchanged(harness)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_canonical_matches_reference_oracle(host, variant):
    """Seeded random walks with checkpoint and restore jumps, 1-2 CPUs x
    1-2 addresses: byte-identical text, and no group changes unmarked."""
    _check_canonical_against_reference(host, variant, walks=3, steps=40)


# -- capped BFS ---------------------------------------------------------------


def test_capped_bfs_finds_no_violations():
    result = explore_cell(**CELL, max_states=120)
    assert result["ok"]
    assert result["truncated"]
    assert result["states"] == 120
    assert result["transitions"] > 0
    assert len(result["digest"]) == 64
    assert result["reachable"]  # transitions were harvested
    assert result["counterexample"] is None


#: Capped explorations whose output bytes must never drift: cell ->
#: (visited-set digest, states, transitions, quiescent states) at
#: ``max_states=120``. A change to expansion or hashing that alters a
#: single explored state moves the digest.
PINNED_CAPPED = {
    ("mesi", "full_state", 1): (
        "8c300b724bdb3e1e889dc08c0148d7c63f7e41799865335c2fed1c746edded32",
        120, 501, 3),
    ("hammer", "transactional", 2): (
        "915f28f4841851bf0e21cb76055859e70cf1f9a10abd572af5e7b66649844939",
        120, 740, 1),
    ("mesif", "full_state", 2): (
        "07eea070057a42914ad7818b5bb3d931e3e69e4c0d25a7cde1961926ed1fad40",
        120, 617, 1),
}


@pytest.mark.parametrize("host,variant,addresses", sorted(PINNED_CAPPED))
def test_capped_exploration_output_is_pinned(host, variant, addresses):
    result = explore_cell(host=host, variant=variant, addresses=addresses,
                          max_states=120)
    got = (result["digest"], result["states"], result["transitions"],
           result["quiescent_states"])
    assert got == PINNED_CAPPED[(host, variant, addresses)]


# -- counterexamples (satellite: replay byte-for-byte) ------------------------


def test_counterexample_replays_byte_for_byte():
    result = explore_cell(**CELL, max_states=5000,
                          check="demo_accel_never_owns")
    counterexample = result["counterexample"]
    assert counterexample is not None
    assert not result["ok"]
    assert "demo_accel_never_owns" in counterexample["reason"]
    assert counterexample["digest"] == (
        "9448758afec50f6c71c0dcc3fb0af97c93038937f3efa290369df2e256725976")
    replayed = replay_path(counterexample["cell"],
                           [tuple(a) for a in counterexample["path"]])
    assert replayed.canonical() == counterexample["canonical"]
    assert replayed.digest() == counterexample["digest"]
    assert replayed.state_problems("demo_accel_never_owns")


def _accel_store_outstanding(harness):
    for seq in harness.system.accel_seqs:
        if any(op == "Store" for _addr, op, _value
               in seq.snapshot_state()["outstanding"]):
            return f"{seq.name} has a store in flight"
    return None


def test_violation_on_last_action_replays_byte_for_byte(monkeypatch):
    """The root's last enabled action is the accelerator store, so the
    flagged child is the harness that took over the expanded parent."""
    monkeypatch.setitem(CHECKS, "accel_store_outstanding",
                        _accel_store_outstanding)
    *earlier, last = ExplorerHarness(CELL).enabled_actions()
    assert last == ("issue", 2, "store", ADDR)
    result = explore_cell(**CELL, check="accel_store_outstanding")
    counterexample = result["counterexample"]
    assert counterexample["path"] == [list(last)]
    replayed = replay_path(CELL, [tuple(a) for a in counterexample["path"]])
    assert replayed.canonical() == counterexample["canonical"]
    assert replayed.digest() == counterexample["digest"]
    assert replayed.state_problems("accel_store_outstanding")
    # reachable = the parent's and the clean children's coverage, never
    # the failing child's
    expected = {}
    for path in [[]] + [[action] for action in earlier]:
        for comp in replay_path(CELL, path).system.controllers():
            expected.setdefault(comp.CONTROLLER_TYPE, set()).update(
                comp.covered_transitions())
    reachable = {ctype: set(pairs) for ctype, pairs in result["reachable"].items()}
    assert reachable == expected


def test_exception_on_last_action_reports_unmodified_parent(monkeypatch):
    """``apply`` raising after it changed the harness still reports the
    parent's own canonical text, not the half-applied child's."""
    last = ExplorerHarness(CELL).enabled_actions()[-1]
    real_apply = ExplorerHarness.apply

    def apply_then_raise(self, action):
        real_apply(self, action)
        if tuple(action) == last:
            raise InvariantError("injected after apply")

    monkeypatch.setattr(ExplorerHarness, "apply", apply_then_raise)
    result = explore_cell(**CELL)
    counterexample = result["counterexample"]
    assert counterexample["path"] == [list(last)]
    assert counterexample["reason"] == "InvariantError: injected after apply"
    parent = ExplorerHarness(CELL)
    assert counterexample["canonical"] == parent.canonical()
    assert counterexample["digest"] == parent.digest()


def test_counterexample_path_is_json_round_trippable():
    result = explore_cell(**CELL, max_states=5000,
                          check="demo_accel_never_owns")
    wire = json.loads(json.dumps(result["counterexample"]))
    replayed = replay_path(wire["cell"], [tuple(a) for a in wire["path"]])
    assert replayed.digest() == wire["digest"]


# -- differential vs the abstract model (satellite) ---------------------------


def test_concrete_projections_subset_of_abstract_model():
    abstract = reachable_projections()
    result = explore_cell(**CELL, max_states=2500)
    concrete = {tuple(pair) for pair in result["projections"]}
    assert concrete, "explorer observed no XG-link projections"
    assert concrete <= abstract, (
        f"concrete XG-link states unreachable in the abstract model: "
        f"{sorted(concrete - abstract)}")


def test_transactional_cell_has_no_projection():
    result = explore_cell(host="mesi", variant="transactional",
                          addresses=1, max_states=60)
    assert result["projections"] == []
    assert result["ok"]


# -- coverage cross-check machinery -------------------------------------------


def test_cross_check_flags_unreachable_covered():
    result = {"reachable": {"l2": [("A", "X"), ("B", "Y")]}}
    ok = cross_check_coverage(result, {"l2": [("A", "X")]})
    assert ok == []
    bad = cross_check_coverage(result, {"l2": [("C", "Z")]})
    assert bad == [("l2", [("C", "Z")])]


def test_authoritative_uncovered_is_reachable_minus_covered():
    result = {"reachable": {"l2": [("A", "X"), ("B", "Y")]}}
    out = authoritative_uncovered(result, {"l2": [("A", "X")]})
    assert out == {"l2": [("B", "Y")]}
    assert authoritative_uncovered(result, {"l2": [("A", "X"), ("B", "Y")]}) == {}


def test_stress_runs_on_cell_config_produce_coverage():
    covered = run_cell_stress(CELL, seed=1, ops=40)
    assert covered
    assert any(pairs for pairs in covered.values())


def test_load_reachable_report_skips_truncated(tmp_path):
    path = tmp_path / "explore_report.json"
    payload = {"cells": [
        {"truncated": False, "reachable": {"l2": [["A", "X"]]}},
        {"truncated": True, "reachable": {"l2": [["B", "Y"]]}},
    ]}
    shapes = {
        "report": payload,
        "bare list": payload["cells"],
    }
    for shape, content in shapes.items():
        path.write_text(json.dumps(content))
        assert load_reachable_report(path) == {"l2": {("A", "X")}}, shape
        both = load_reachable_report(path, include_partial=True)
        assert both == {"l2": {("A", "X"), ("B", "Y")}}, shape
    path.write_text(json.dumps(payload["cells"][0]))
    assert load_reachable_report(path) == {"l2": {("A", "X")}}


# -- report integration -------------------------------------------------------


def _summary_with_holes():
    cell = CellSummary("mesi/xg-full-L1")
    report = CoverageReport("l2")
    report.possible = {("A", "X"), ("B", "Y"), ("C", "Z")}
    report.visited[("A", "X")] += 1
    cell.coverage["l2"] = report
    return cell


def test_missing_transitions_reachability_filter():
    cell = _summary_with_holes()
    assert cell.missing_transitions() == [
        ("l2", "B", "Y"), ("l2", "C", "Z")]
    reachable = {"l2": {("A", "X"), ("B", "Y")}}
    assert cell.missing_transitions(reachable) == [("l2", "B", "Y")]
    # unknown ctypes pass through unfiltered
    assert cell.missing_transitions({"other": set()}) == [
        ("l2", "B", "Y"), ("l2", "C", "Z")]


def test_render_missing_reports_unreachable_excluded():
    matrix = CoverageMatrix()
    matrix.cells["mesi/xg-full-L1"] = _summary_with_holes()
    text = render_missing(matrix, reachable={"l2": {("B", "Y")}})
    assert "1 uncovered reachable transition(s)" in text
    assert "1 proven unreachable excluded" in text


# -- exhaustive proofs (explore-full only) ------------------------------------


@pytest.mark.explore_full
def test_full_mesi_full_state_cell_proved():
    """The acceptance cell: complete enumeration, zero violations."""
    result = explore_cell(**CELL, max_states=100_000)
    assert result["complete"]
    assert result["ok"]
    assert result["quiescent_states"] >= 2
    assert result["states"] > 10_000


@pytest.mark.explore_full
def test_full_cell_stress_coverage_is_reachable_subset():
    result = explore_cell(**CELL, max_states=100_000)
    assert result["complete"]
    for seed in range(3):
        covered = run_cell_stress(CELL, seed=seed, ops=150)
        assert cross_check_coverage(result, covered) == []


@pytest.mark.explore_full
@pytest.mark.parametrize("host", ["hammer", "mesif"])
def test_other_hosts_capped_exploration_clean(host):
    result = explore_cell(host=host, variant="full_state",
                          addresses=1, max_states=5000)
    assert result["ok"]


#: Complete 1-CPU proofs: (states, transitions) per host x variant cell.
ONE_CPU_PROOFS = {
    ("mesi", "full_state"): (1029, 2787),
    ("mesi", "transactional"): (1035, 2791),
    ("hammer", "full_state"): (1882, 4932),
    ("hammer", "transactional"): (1880, 4900),
    ("mesif", "full_state"): (1101, 2983),
    ("mesif", "transactional"): (1119, 3013),
}


@pytest.mark.explore_full
@pytest.mark.parametrize("host,variant", sorted(ONE_CPU_PROOFS))
def test_one_cpu_cell_proved(host, variant):
    result = explore_cell(host=host, variant=variant, addresses=1, n_cpus=1)
    assert result["complete"]
    assert result["ok"]
    assert (result["states"], result["transitions"]) == ONE_CPU_PROOFS[(host, variant)]


#: Complete 2-CPU, 1-address proofs: (visited-set digest, states,
#: transitions, quiescent states) per host x variant cell, recorded with
#: every action explored in every order. The hammer cells take about four
#: minutes each on a 2-vCPU VM.
TWO_CPU_PROOFS = {
    ("hammer", "full_state"): (
        "03f18d6d099c1760ddec2ce0553c38b5177d0c57bbcf66d9bbba0cd22e768f15",
        83573, 303868, 23),
    ("hammer", "transactional"): (
        "ff31942950d6ed917c25ea566b1ccc5b5ab1e6cb18e34c4984b36dff4dab7c34",
        82681, 302754, 23),
    ("mesi", "full_state"): (
        "cbaec20fe825eb9b0321a04f376a528e198eb6e80c31b7e718d15e43c32b3074",
        15708, 53029, 17),
    ("mesi", "transactional"): (
        "f4bd65e6781f1c6ebcaf16059e96522071bdc7f7ad9b7c7b03eb3958723e05a4",
        15276, 51903, 17),
    ("mesif", "full_state"): (
        "2cc78553a0d1e3c977eb7a66e98b155ff9dc0ddb05433e8c8116481b925405f8",
        24720, 83409, 19),
    ("mesif", "transactional"): (
        "b0bf4ccebf65fbd978560ab1c1648e5733bd2cf714e3d8e6e119891fc433acce",
        24004, 81621, 19),
}


@pytest.mark.explore_full
@pytest.mark.parametrize("host,variant", sorted(TWO_CPU_PROOFS))
def test_two_cpu_cell_proved(host, variant):
    result = explore_cell(host=host, variant=variant, addresses=1, n_cpus=2)
    assert result["complete"]
    assert result["ok"]
    got = (result["digest"], result["states"], result["transitions"],
           result["quiescent_states"])
    assert got == TWO_CPU_PROOFS[(host, variant)]


@pytest.mark.explore_full
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_canonical_matches_reference_oracle_deep(host, variant):
    _check_canonical_against_reference(host, variant, walks=20, steps=30)


# -- checkpoint/restore cost model ----------------------------------------------


@pytest.mark.parametrize("host,variant", sorted(ONE_CPU_PROOFS))
def test_serial_bfs_restores_instead_of_replaying(host, variant):
    """Entering a state restores its checkpoint, and so does every
    executed child after the first: no path replays, and one restore per
    executed transition. A state whose every action sleeps is not entered."""
    result = explore_cell(host=host, variant=variant, addresses=1, n_cpus=1,
                          max_states=300)
    assert result["replays"] == 0
    assert result["restores"] == result["transitions"] - result["slept"]
    assert 1 <= result["checkpoints_peak"] <= CHECKPOINT_BUDGET


def test_one_cpu_proof_without_replays():
    result = explore_cell(**CELL, n_cpus=1)
    assert result["complete"]
    assert (result["states"], result["transitions"]) == ONE_CPU_PROOFS[("mesi", "full_state")]
    assert result["replays"] == 0


def test_over_budget_states_replay_to_the_same_result(monkeypatch):
    """Past the checkpoint budget a state replays its path from the root
    checkpoint; the explored set does not change. A replayed state is
    entered by its one replay, and every executed child after the first
    restores it."""
    full = explore_cell(**CELL, max_states=120)
    monkeypatch.setattr(explorer, "CHECKPOINT_BUDGET", 3)
    tight = explore_cell(**CELL, max_states=120)
    assert tight["replays"] > 0
    assert tight["checkpoints_peak"] <= 3
    assert tight["restores"] + tight["replays"] == (
        tight["transitions"] - tight["slept"])
    for key in ("digest", "states", "transitions", "quiescent_states",
                "reachable", "projections"):
        assert tight[key] == full[key]


# -- sleep sets -------------------------------------------------------------------


def _unreduced(monkeypatch, **kwargs):
    """The reference: one agent for every action makes every pair of
    actions dependent, so no sleep set ever holds a key."""
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "action_agent", lambda key: "one agent")
        result = explore_cell(**kwargs)
    assert result["slept"] == 0
    return result


def _assert_same_exploration(reduced, unreduced):
    keys = set(reduced) - {"slept", "restores"}
    assert keys == set(unreduced) - {"slept", "restores"}
    assert {key: reduced[key] for key in keys} == {
        key: unreduced[key] for key in keys}


@pytest.mark.parametrize("n_cpus,addresses", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_sleep_sets_match_unreduced_capped(host, variant, n_cpus, addresses,
                                           monkeypatch):
    """Same result dict, capped at two sizes, on every host x variant x
    1-2 CPU x 1-2 address cell."""
    for cap in (60, 500):
        kwargs = dict(host=host, variant=variant, n_cpus=n_cpus,
                      addresses=addresses, max_states=cap)
        reduced = explore_cell(**kwargs)
        assert reduced["slept"] > 0
        _assert_same_exploration(reduced, _unreduced(monkeypatch, **kwargs))


@pytest.mark.parametrize("host,variant", sorted(ONE_CPU_PROOFS))
def test_sleep_sets_match_unreduced_one_cpu_proofs(host, variant, monkeypatch):
    kwargs = dict(host=host, variant=variant, addresses=1, n_cpus=1)
    reduced = explore_cell(**kwargs)
    assert reduced["complete"]
    assert reduced["slept"] > 0
    assert reduced["restores"] < reduced["transitions"]
    _assert_same_exploration(reduced, _unreduced(monkeypatch, **kwargs))


def test_counterexample_under_sleep_sets_matches_unreduced(monkeypatch):
    kwargs = dict(**CELL, max_states=5000, check="demo_accel_never_owns")
    _assert_same_exploration(explore_cell(**kwargs),
                             _unreduced(monkeypatch, **kwargs))


def test_action_agent_is_the_controller_an_action_changes():
    harness = ExplorerHarness(CELL)
    harness.apply(("issue", 0, "store", ADDR))
    agents = {explorer.action_agent(harness.action_key(action))
              for action in harness.enabled_actions()}
    # cpu.0 is busy: cpu.1 and the accelerator issue into their own
    # caches, and the parked GetM is delivered to the L2
    assert agents == {"cpu_l1.1", "accel_l1", "l2"}
