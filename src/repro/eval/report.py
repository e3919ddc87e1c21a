"""Plain-text table formatting and campaign dashboard output."""

import glob
import json
import os


def format_table(headers, rows, title=None):
    """Render an aligned text table."""
    columns = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(columns[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in columns[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_error_log(log, limit=15):
    """Render an :class:`~repro.xg.errors.XGErrorLog` as an aligned table.

    Built on the log's machine-readable ``as_dict()`` records — the same
    payload an OS driver would consume — showing the newest ``limit``.
    """
    report = log.as_dict()
    records = report["errors"][-limit:]
    skipped = report["count"] - len(records)
    title = (
        f"OS error log: {report['count']} records, "
        f"accel_disabled={report['accel_disabled']}"
        + (f" (showing last {len(records)})" if skipped > 0 else "")
    )
    rows = [
        (
            r["tick"],
            r["guarantee"],
            f"{r['addr']:#x}" if isinstance(r["addr"], int) else r["addr"],
            r["accel"] or "-",
            r["description"],
        )
        for r in records
    ]
    return format_table(["tick", "guarantee", "addr", "accel", "description"], rows,
                        title=title)


#: Containment outcomes worst-first; a matrix cell shows the worst
#: outcome across its seeds. Mirrors repro.testing.scenario's
#: CONTAINMENT_OUTCOMES (kept literal here so the formatter stays
#: import-free).
_CONTAINMENT_ORDER = ("escaped", "quarantined", "throttled", "timed_out", "absorbed")


def format_rogue_matrix(rows):
    """Pivot rogue campaign rows into a plan x host/variant containment matrix.

    Each cell is the *worst* containment outcome any seed of that
    (plan, host, variant) cell reached, ``escaped`` being worst — the
    outcome a sweep must never show.
    """

    def severity(outcome):
        try:
            return _CONTAINMENT_ORDER.index(outcome)
        except ValueError:
            return 0  # unknown reads as worst

    columns = []
    plans = []
    cells = {}
    for row in rows:
        column = f"{row['host'].lower()}/{row['variant'].lower()}"
        if column not in columns:
            columns.append(column)
        plan = row["plan"]
        if plan not in plans:
            plans.append(plan)
        outcome = row.get("containment") or "escaped"
        key = (plan, column)
        if key not in cells or severity(outcome) < severity(cells[key]):
            cells[key] = outcome
    table_rows = [
        [plan] + [cells.get((plan, column), "-") for column in columns]
        for plan in plans
    ]
    escaped = sum(1 for row in rows if (row.get("containment") or "escaped") == "escaped")
    title = f"rogue containment matrix ({len(rows)} campaigns, {escaped} escaped)"
    return format_table(["plan"] + columns, table_rows, title=title)


def format_fabric_summary(summary):
    """Render a :meth:`~repro.obs.fabric.FabricCollector.summary` as text.

    Shows campaign totals, per-worker throughput/liveness, and latency
    percentiles from the merged sketches — the after-the-fact view of
    what ``--live`` showed while the campaign ran.
    """
    from repro.sim.stats import Histogram

    lines = [
        "campaign fabric summary",
        f"  jobs: {summary['jobs_done']}/{summary['jobs_total']} done, "
        f"{summary['jobs_failed']} failed, {summary['jobs_lost']} lost",
        f"  frames: {summary['frames_seen']} collected, "
        f"{summary['frames_dropped']} dropped worker-side",
        f"  coverage visited: {summary['coverage_visited']}",
        f"  elapsed: {summary['elapsed']:.1f}s",
    ]
    workers = summary.get("workers", [])
    if workers:
        rows = [
            [
                f"w{w['id']}",
                "STALLED" if w["stalled"] else "live",
                w["jobs_done"],
                f"{w['events_per_sec']:.0f}",
                f"{w['heartbeat_age']:.1f}s",
                w["dropped"],
            ]
            for w in workers
        ]
        lines.append("")
        lines.append(format_table(
            ["worker", "state", "jobs", "ev/s", "hb age", "dropped"], rows,
            title="workers"))
    sketches = summary.get("sketches", {})
    if sketches:
        rows = []
        for name in sorted(sketches):
            sketch = Histogram.from_dict(sketches[name])
            if not sketch.count:
                continue
            rows.append([
                name, sketch.count, f"{sketch.mean:.1f}",
                f"{sketch.percentile(0.5):.1f}",
                f"{sketch.percentile(0.9):.1f}",
                f"{sketch.percentile(0.99):.1f}",
                f"{sketch.max:.1f}" if sketch.max is not None else "-",
            ])
        if rows:
            lines.append("")
            lines.append(format_table(
                ["sketch", "count", "mean", "p50", "p90", "p99", "max"], rows,
                title="latency sketches (job_ms in milliseconds, "
                      "span.* in ticks)"))
    return "\n".join(lines)


def build_campaign_dashboard(summary, bench_dir="."):
    """The ``campaign_dash.json`` payload: fabric summary + bench history.

    Folds any ``BENCH_*.json`` files in ``bench_dir`` in alongside the
    fabric summary, so one artifact answers both "what did the campaign
    do" and "what did this version's benchmarks say" — the CI perf-smoke
    job archives it next to the BENCH files it summarizes.
    """
    bench = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path) as fh:
                bench[name] = json.load(fh)
        except (OSError, ValueError) as exc:
            bench[name] = {"error": f"unreadable: {exc}"}
    return {
        "schema": "repro.campaign_dash/1",
        "fabric": summary,
        "bench": bench,
    }


def write_campaign_dashboard(path, summary, bench_dir="."):
    """Write the dashboard JSON; returns the payload."""
    payload = build_campaign_dashboard(summary, bench_dir=bench_dir)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def normalize_rows(rows, key, baseline_label, label_key="config"):
    """Add ``<key>_norm`` = value / baseline's value to each row dict."""
    baseline = None
    for row in rows:
        if row[label_key] == baseline_label:
            baseline = row[key]
            break
    if not baseline:
        raise ValueError(f"no baseline row {baseline_label!r}")
    for row in rows:
        row[f"{key}_norm"] = row[key] / baseline
    return rows
