"""Per-configuration coverage matrix and span-latency percentile report.

The stress campaign exercises the paper's (host protocol × accelerator
organization) configuration matrix; each run produces per-controller
:class:`~repro.coherence.coverage.CoverageReport` objects and, when
telemetry is on, a :meth:`~repro.obs.spans.Telemetry.summary` digest.
This module folds those per-run results into one :class:`CoverageMatrix`
— merged through the same submission-order campaign merge as everything
else, so parallel and serial campaigns produce identical matrices — and
renders it as a text heatmap plus per-cell span-latency percentiles.
"""

from repro.coherence.coverage import CoverageReport
from repro.eval.report import format_table
from repro.sim.idenum import name_of
from repro.sim.stats import Histogram

#: Shading ramp for the heatmap, indexed by coverage fraction.
_SHADES = " ░▒▓█"


def shade(fraction):
    """One shading character for a coverage fraction in [0, 1]."""
    if fraction >= 1.0:
        return _SHADES[-1]
    return _SHADES[int(fraction * (len(_SHADES) - 1))]


class CellSummary:
    """Aggregated results for one (host, organization) cell."""

    def __init__(self, key):
        self.key = key
        self.runs = 0
        #: controller type -> merged CoverageReport
        self.coverage = {}
        #: span kind -> merged latency Histogram
        self.span_hists = {}
        #: (span kind, status) -> count
        self.span_statuses = {}
        self.spans_closed = 0
        self.spans_dropped = 0
        self.transitions = 0
        self.faults = 0

    def add_coverage(self, reports):
        """Merge a per-run {ctype: CoverageReport} map."""
        for ctype, report in reports.items():
            mine = self.coverage.get(ctype)
            if mine is None:
                mine = CoverageReport(ctype)
                self.coverage[ctype] = mine
            mine.merge(report)

    def add_telemetry(self, summary):
        """Merge one :meth:`Telemetry.summary` digest."""
        for kind, hist in summary.get("span_hists", {}).items():
            mine = self.span_hists.get(kind)
            if mine is None:
                mine = Histogram(hist.bucket_width)
                self.span_hists[kind] = mine
            mine.merge(hist)
        for key, count in summary.get("span_statuses", {}).items():
            self.span_statuses[key] = self.span_statuses.get(key, 0) + count
        self.spans_closed += summary.get("spans_closed", 0)
        self.spans_dropped += summary.get("spans_dropped", 0)
        self.transitions += summary.get("transitions", 0)
        self.faults += summary.get("faults", 0)

    def add_run(self, coverage=None, telemetry_summary=None):
        self.runs += 1
        if coverage:
            self.add_coverage(coverage)
        if telemetry_summary:
            self.add_telemetry(telemetry_summary)

    def merge(self, other):
        self.runs += other.runs
        self.add_coverage(other.coverage)
        for kind, hist in other.span_hists.items():
            mine = self.span_hists.get(kind)
            if mine is None:
                mine = Histogram(hist.bucket_width)
                self.span_hists[kind] = mine
            mine.merge(hist)
        for key, count in other.span_statuses.items():
            self.span_statuses[key] = self.span_statuses.get(key, 0) + count
        self.spans_closed += other.spans_closed
        self.spans_dropped += other.spans_dropped
        self.transitions += other.transitions
        self.faults += other.faults

    @property
    def fraction(self):
        """Pooled coverage fraction across all controller types."""
        possible = 0
        visited = 0
        for report in self.coverage.values():
            possible += len(report.possible)
            visited += len(report.visited_pairs & report.possible)
        if not possible:
            return 1.0
        return visited / possible

    def missing_transitions(self, reachable=None):
        """(ctype, state name, event name) tuples never executed.

        ``reachable`` — an optional ``{ctype: {(state, event), ...}}``
        mapping from the reachability explorer
        (:func:`repro.verify.explorer.load_reachable_report`) — filters
        the list down to transitions *proven reachable*: declared table
        rows the explorer showed no run can ever execute are dead code,
        not coverage holes. Controller types the explorer has no data
        for pass through unfiltered.
        """
        out = []
        for ctype, report in sorted(self.coverage.items()):
            known = None if reachable is None else reachable.get(ctype)
            for state, event in report.missing:
                names = (name_of(state), name_of(event))
                if known is not None and names not in known:
                    continue
                out.append((ctype,) + names)
        return sorted(out)

    def __repr__(self):
        return (f"CellSummary({self.key!r}, runs={self.runs}, "
                f"coverage={self.fraction:.1%}, spans={self.spans_closed})")


class CoverageMatrix:
    """All cells of one campaign, keyed by config label ("host/org")."""

    def __init__(self):
        self.cells = {}

    def cell(self, key):
        cell = self.cells.get(key)
        if cell is None:
            cell = CellSummary(key)
            self.cells[key] = cell
        return cell

    def add_run(self, key, coverage=None, telemetry_summary=None):
        self.cell(key).add_run(coverage, telemetry_summary)

    def merge(self, other):
        for key, cell in other.cells.items():
            self.cell(key).merge(cell)

    def axes(self):
        """Sorted (hosts, orgs) split out of the "host/org" cell keys."""
        hosts = set()
        orgs = set()
        for key in self.cells:
            host, _, org = key.partition("/")
            hosts.add(host)
            orgs.add(org)
        return sorted(hosts), sorted(orgs)

    def __len__(self):
        return len(self.cells)


def render_heatmap(matrix):
    """Coverage heatmap: hosts as rows, accel organizations as columns."""
    hosts, orgs = matrix.axes()
    if not hosts:
        return "coverage matrix: no cells recorded"
    rows = []
    for host in hosts:
        row = [host]
        for org in orgs:
            cell = matrix.cells.get(f"{host}/{org}")
            if cell is None:
                row.append("-")
            else:
                row.append(f"{shade(cell.fraction)} {cell.fraction:6.1%}")
        rows.append(row)
    return format_table(["host"] + orgs, rows,
                        title="transition coverage by configuration")


def render_latencies(matrix, percentiles=(50, 90, 99)):
    """Per-cell span-latency percentile table (ticks)."""
    headers = ["config", "span kind", "count"] + [f"p{p}" for p in percentiles]
    rows = []
    for key in sorted(matrix.cells):
        cell = matrix.cells[key]
        for kind in sorted(cell.span_hists):
            hist = cell.span_hists[kind]
            rows.append([key, kind, hist.count]
                        + [f"{hist.percentile(p / 100):.1f}" for p in percentiles])
    if not rows:
        return "span latencies: no telemetry recorded (run with telemetry on)"
    return format_table(headers, rows, title="span latency percentiles (ticks)")


def render_statuses(matrix):
    """Per-cell span outcome table — timeouts and orphans jump out here."""
    rows = []
    for key in sorted(matrix.cells):
        cell = matrix.cells[key]
        for (kind, status), count in sorted(cell.span_statuses.items()):
            rows.append([key, kind, status, count])
    if not rows:
        return ""
    return format_table(["config", "span kind", "status", "count"], rows,
                        title="span outcomes")


def render_missing(matrix, limit=12, reachable=None):
    """The transitions each cell never executed (coverage holes).

    With ``reachable`` (explorer output) the list becomes authoritative:
    only reachable-but-uncovered transitions are reported, and the count
    of proven-unreachable table rows is shown separately.
    """
    lines = []
    for key in sorted(matrix.cells):
        cell = matrix.cells[key]
        missing = cell.missing_transitions(reachable)
        excluded = 0
        if reachable is not None:
            excluded = len(cell.missing_transitions()) - len(missing)
        if not missing:
            if excluded:
                lines.append(f"{key}: 0 reachable uncovered transition(s) "
                             f"({excluded} proven unreachable excluded)")
            continue
        shown = missing[:limit]
        label = ("uncovered reachable transition(s)" if reachable is not None
                 else "uncovered transition(s)")
        tail = (f" ({excluded} proven unreachable excluded)"
                if excluded else "")
        lines.append(f"{key}: {len(missing)} {label}{tail}")
        for ctype, state, event in shown:
            lines.append(f"    {ctype}: {state} x {event}")
        if len(missing) > len(shown):
            lines.append(f"    ... and {len(missing) - len(shown)} more")
    if not lines:
        return "no coverage holes: every declared transition executed"
    return "\n".join(lines)


def render_dropped_warning(matrix):
    """Warning when any cell's span ring evicted closed spans.

    Dropped spans mean the latency percentiles and outcome counts above
    under-sample the *early* part of the affected runs; the warning names
    the cells so truncated numbers are never read as complete ones.
    """
    dropped = {
        key: cell.spans_dropped
        for key, cell in sorted(matrix.cells.items())
        if cell.spans_dropped
    }
    if not dropped:
        return ""
    total = sum(dropped.values())
    cells = ", ".join(f"{key} ({count})" for key, count in dropped.items())
    return (f"WARNING: {total} closed span(s) evicted from bounded recorder "
            f"rings — latency percentiles under-sample early-run spans.\n"
            f"  affected cells: {cells}\n"
            f"  raise Telemetry(span_capacity=...) to record longer runs fully")


def render_blame(blame, top=5):
    """Blame breakdown + slowest transactions from a ``BlameMatrix``.

    ``blame`` may be a live :class:`~repro.obs.lineage.BlameMatrix` or its
    ``as_dict()`` payload (the form campaign results carry). Per-cell
    rows show what fraction of total span ticks each segment claimed;
    the tail lists the top-N slowest transactions with their critical
    paths.
    """
    from repro.obs.lineage import SEGMENTS, BlameMatrix

    if isinstance(blame, dict):
        blame = BlameMatrix.from_dict(blame)
    rows = blame.rows()
    if not rows:
        return ("blame: no lineage recorded "
                "(enable Telemetry(sim, lineage=True) / --lineage)")
    headers = (["config", "span kind", "spans", "p50", "p99"]
               + list(SEGMENTS))
    table_rows = []
    for row in rows:
        total = row["total_ticks"]
        segments = row["segments"]
        cells = []
        for segment in SEGMENTS:
            ticks = segments.get(segment, 0)
            cells.append(f"{100.0 * ticks / total:5.1f}%" if total and ticks
                         else "-")
        table_rows.append(
            [row["config"], row["kind"], row["spans"],
             f"{row['p50']:.0f}", f"{row['p99']:.0f}"] + cells
        )
    sections = [format_table(headers, table_rows,
                             title="blame breakdown (% of span ticks)")]
    top_entries = blame.top_spans()[:top]
    if top_entries:
        lines = [f"slowest {len(top_entries)} transaction(s) with critical paths:"]
        for entry in top_entries:
            addr = (f"{entry['addr']:#x}" if isinstance(entry["addr"], int)
                    else str(entry["addr"]))
            lines.append(
                f"  {entry['duration']:>8} ticks  {entry['config']}"
                f"  seed={entry['seed']}  {entry['kind']} {addr}"
                f" [{entry['status']}]"
            )
            path = " -> ".join(
                f"{bucket}:{ticks}" for bucket, ticks in entry["path"]
            )
            lines.append(f"      {path or '(no path recorded)'}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def render_matrix(matrix, percentiles=(50, 90, 99), missing_limit=12,
                  reachable=None):
    """Full report: heatmap, latency percentiles, outcomes, holes.

    ``reachable`` (see :meth:`CellSummary.missing_transitions`) upgrades
    the coverage-hole section to the explorer-authoritative uncovered
    list.
    """
    sections = [render_heatmap(matrix), render_latencies(matrix, percentiles)]
    statuses = render_statuses(matrix)
    if statuses:
        sections.append(statuses)
    warning = render_dropped_warning(matrix)
    if warning:
        sections.append(warning)
    sections.append(render_missing(matrix, limit=missing_limit,
                                   reachable=reachable))
    return "\n\n".join(sections)
