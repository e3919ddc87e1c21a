"""Load/store sequencer.

The sequencer is the CPU- (or accelerator-core-) side of a cache
controller's mandatory queue: workloads issue byte loads and stores, the
sequencer tracks outstanding requests and completion latency, and delivers
completions back to workload callbacks. It replaces gem5-gpu's timing CPU
models — instruction semantics are irrelevant to coherence behavior, the
load/store stream is what exercises the protocols.
"""

from repro.coherence.snapshot import Multiset
from repro.protocols.common import CpuOp
from repro.sim.component import Component
from repro.sim.message import Message


class OutstandingOp:
    """Bookkeeping for one in-flight load or store."""

    __slots__ = ("msg", "callback", "issued_at", "span")

    def __init__(self, msg, callback, issued_at, span=None):
        self.msg = msg
        self.callback = callback
        self.issued_at = issued_at
        self.span = span


class Sequencer(Component):
    """Issues loads/stores into an attached cache controller.

    Any number of requests may be outstanding (subject to
    ``max_outstanding``); the attached controller completes them in any
    order via :meth:`request_done`.
    """

    PORTS = ()

    def __init__(self, sim, name, issue_latency=1, response_latency=0, max_outstanding=16):
        super().__init__(sim, name)
        self.cache = None
        self.issue_latency = issue_latency
        self.response_latency = response_latency
        self.max_outstanding = max_outstanding
        self.outstanding = {}
        # pre-bound hot-path counters (no-ops when metrics are off)
        self._issued_sink = self.stats.sink("ops_issued")
        self._completed_sink = self.stats.sink("ops_completed")

    def attach(self, cache_controller):
        """Bind to the L1-like controller this sequencer feeds."""
        self.cache = cache_controller
        cache_controller.attach_sequencer(self)

    # -- issue -----------------------------------------------------------------

    def can_issue(self):
        return self.cache is not None and len(self.outstanding) < self.max_outstanding

    def load(self, addr, callback=None):
        """Issue a byte load. Returns the request message."""
        return self._issue(CpuOp.Load, addr, None, callback)

    def store(self, addr, value, callback=None):
        """Issue a byte store of ``value``. Returns the request message."""
        return self._issue(CpuOp.Store, addr, value, callback)

    def _issue(self, op, addr, value, callback):
        if not self.can_issue():
            raise RuntimeError(f"{self.name}: cannot issue (full or unattached)")
        msg = Message(op, addr, sender=self.name, dest=self.cache.name, value=value)
        now = self.sim.tick
        span = None
        obs = self.sim.obs
        if obs is not None:
            span = obs.spans.start(f"op_{op.name.lower()}", self.name, addr, now)
        self.outstanding[msg.uid] = OutstandingOp(msg, callback, now, span=span)
        lineage = self.sim.lineage
        if lineage is not None:
            # Synthetic chain root: the mandatory-queue delivery bypasses
            # the Network hook. cause is pinned to 0 because _issue may run
            # inside a completion callback (i.e. while another message's
            # handler is the current cause) and a new CPU op is not caused
            # by the op that just finished.
            lineage.record_send(msg, now, now + self.issue_latency,
                                self.issue_latency, site="issue", cause=0)
        self.cache.deliver("mandatory", now + self.issue_latency, msg)
        self._issued_sink.inc()
        return msg

    # -- completion ----------------------------------------------------------------

    def request_done(self, msg, data):
        """Called by the cache controller when ``msg`` completes.

        ``response_latency`` models a return link (the host-side-cache
        organization pays it on every access).
        """
        record = self.outstanding.pop(msg.uid)
        if record.span is not None:
            obs = self.sim.obs
            if obs is not None:
                obs.spans.phase(record.span, "cache_answered", self.sim.tick)
        if self.response_latency:
            self.sim.schedule(self.response_latency, self._complete, record, msg, data)
        else:
            self._complete(record, msg, data)

    def _complete(self, record, msg, data):
        latency = self.sim.tick - record.issued_at
        self._completed_sink.inc()
        self.stats.observe("op_latency", latency)
        if record.span is not None:
            obs = self.sim.obs
            if obs is not None:
                obs.spans.finish(record.span, self.sim.tick, status="ok")
        if record.callback is not None:
            record.callback(msg, data)

    def drained(self):
        return not self.outstanding

    def oldest_pending_tick(self, now):
        """Outstanding ops count as pending work for the deadlock watchdog."""
        if not self.outstanding:
            return None
        return min(record.issued_at for record in self.outstanding.values())

    def snapshot_state(self):
        """Logical outstanding-op set for the reachability explorer.

        Issue ticks and message uids are history, not state: two runs
        with the same ops in flight must snapshot identically.
        """
        return {
            "outstanding": Multiset.of(
                (record.msg.addr, record.msg.mtype.name, record.msg.value)
                for record in self.outstanding.values()
            ),
        }
