"""Transition-coverage accounting (paper Section 4.1).

The paper counts the state/event pairs the random tester visits at each
cache controller and compares against the pairs believed possible. Here
"possible" is exactly the declared transition table, so coverage is the
fraction of declared transitions executed at least once.
"""

from collections import defaultdict

from repro.sim.idenum import name_of


class CoverageReport:
    """Coverage for one controller type, possibly many instances."""

    def __init__(self, controller_type):
        self.controller_type = controller_type
        self.visited = defaultdict(int)
        self.possible = set()

    def add_instance(self, controller):
        self.possible |= controller.possible_transitions()
        for pair, count in controller.coverage.items():
            self.visited[pair] += count

    @property
    def visited_pairs(self):
        return set(self.visited)

    @property
    def missing(self):
        """Declared transitions never executed."""
        return self.possible - self.visited_pairs

    @property
    def fraction(self):
        if not self.possible:
            return 1.0
        return len(self.visited_pairs & self.possible) / len(self.possible)

    def merge(self, other):
        if other.controller_type != self.controller_type:
            raise ValueError("cannot merge coverage across controller types")
        self.possible |= other.possible
        for pair, count in other.visited.items():
            self.visited[pair] += count

    def rows(self):
        """(state, event, count) rows sorted by name for reporting."""
        out = []
        for (state, event), count in self.visited.items():
            out.append((name_of(state), name_of(event), count))
        return sorted(out)

    def __repr__(self):
        return (
            f"CoverageReport({self.controller_type}, "
            f"{len(self.visited_pairs & self.possible)}/{len(self.possible)} "
            f"= {self.fraction:.1%})"
        )


def collect_coverage(controllers):
    """Group controllers by CONTROLLER_TYPE into CoverageReports."""
    reports = {}
    for controller in controllers:
        ctype = controller.CONTROLLER_TYPE
        report = reports.get(ctype)
        if report is None:
            report = CoverageReport(ctype)
            reports[ctype] = report
        report.add_instance(controller)
    return reports
