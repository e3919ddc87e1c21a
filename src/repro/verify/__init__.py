"""Exhaustive verification of the Crossing Guard accelerator interface.

The paper stress-tests with a random tester and notes that "an industrial
implementation of Crossing Guard would likely include formal verification
to complement stress testing" (Section 4.1), while full-system model
checking (Murphi) is intractable. This package does what *is* tractable,
at two levels of abstraction:

* :mod:`repro.verify.model` — an exhaustive breadth-first exploration of
  an abstract single-address model of the interface: the Table 1
  accelerator automaton, the ordered accelerator link, and Crossing
  Guard's per-block transaction rules with a nondeterministic host;
* :mod:`repro.verify.explorer` — reachability exploration of the **real
  simulator** on small concrete cells (2 host cores × 1 accelerator ×
  1-2 addresses, every host × XG-variant combination): all message
  interleavings enumerated, states canonically hashed under core/address
  symmetry, G0-G2 plus quiescent invariants checked at every state, and
  counterexamples emitted as replayable traces.

Both prove, for every reachable interleaving: no unspecified receptions,
every request answered exactly once, races resolve, quiescent states
agree (XG's mirror matches the accelerator), and no deadlock. The
differential tests tie the two together: the abstract model's reachable
interface states must be a projection-superset of the concrete
explorer's.
"""

from repro.verify.explorer import (
    ExplorationError,
    ExplorerHarness,
    authoritative_uncovered,
    cell_config,
    cross_check_coverage,
    explore_cell,
    load_reachable_report,
    register_check,
    replay_path,
    run_cell_stress,
    state_set_digest,
)
from repro.verify.model import (
    InterfaceModel,
    VerificationError,
    explore,
    reachable_projections,
)

__all__ = [
    "ExplorationError",
    "ExplorerHarness",
    "InterfaceModel",
    "VerificationError",
    "authoritative_uncovered",
    "cell_config",
    "cross_check_coverage",
    "explore",
    "explore_cell",
    "load_reachable_report",
    "reachable_projections",
    "register_check",
    "replay_path",
    "run_cell_stress",
    "state_set_digest",
]
