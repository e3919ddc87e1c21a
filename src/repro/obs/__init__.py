"""Unified observability: spans, traces, metrics, coverage, campaign fabric.

* :mod:`repro.obs.spans` — :class:`Telemetry` (the per-simulation hub)
  and :class:`SpanRecorder`/:class:`Span` (transaction lifecycles with
  phase timestamps);
* :mod:`repro.obs.perfetto` — Chrome/Perfetto trace-event JSON export
  of a recording (:func:`build_trace` / :func:`write_trace` /
  :func:`validate_trace`);
* :mod:`repro.obs.matrix` — per-(protocol, accel-mode) coverage
  heatmaps and span-latency percentiles (:class:`CoverageMatrix`,
  :func:`render_matrix`);
* :mod:`repro.obs.sketch` — the mergeable per-tick
  :class:`CounterSeries`, whose folds (like those of the latency
  :class:`~repro.sim.stats.Histogram`) are byte-identical regardless of
  merge order;
* :mod:`repro.obs.lineage` — causal message lineage and per-span
  critical-path blame (:class:`LineageTracker`, :class:`BlameMatrix`):
  every closed span's duration decomposed exactly into wire / queue /
  stall / service / translation segments;
* :mod:`repro.obs.recorder` — the per-job :class:`FlightRecorder` black
  box shipped in ``CampaignOutcome.forensics`` on failure;
* :mod:`repro.obs.fabric` — the cross-process campaign telemetry fabric
  (:class:`FabricCollector`, :class:`FabricEmitter`,
  :class:`LiveRenderer`, :func:`use_fabric`, :func:`live_fabric`).

Everything here is opt-in: a simulator with ``sim.obs`` unset pays one
attribute load + identity check per hook site, nothing more.
"""

from repro.obs.fabric import (
    FabricCollector,
    FabricEmitter,
    LiveRenderer,
    live_fabric,
    use_fabric,
)
from repro.obs.lineage import SEGMENTS, BlameMatrix, LineageTracker
from repro.obs.matrix import CellSummary, CoverageMatrix, render_blame, render_matrix
from repro.obs.perfetto import build_trace, validate_trace, write_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.sketch import CounterSeries
from repro.obs.spans import Span, SpanRecorder, Telemetry, sample_counters

__all__ = [
    "BlameMatrix",
    "CellSummary",
    "CounterSeries",
    "CoverageMatrix",
    "FabricCollector",
    "FabricEmitter",
    "FlightRecorder",
    "LineageTracker",
    "LiveRenderer",
    "SEGMENTS",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "build_trace",
    "live_fabric",
    "render_blame",
    "render_matrix",
    "sample_counters",
    "use_fabric",
    "validate_trace",
    "write_trace",
]
