"""OS-visible error reporting for Crossing Guard.

When a guarantee is violated Crossing Guard never disturbs the host
protocol; it blocks/corrects the offending message and appends a
machine-readable error record here. The OS policy hook models the
recovery actions the paper lists (terminate the accelerator process,
disable the accelerator, alert the user).
"""

import enum

from repro.sim.idenum import IdEnum


class Guarantee(IdEnum):
    """The guarantees of Figure 1."""

    G0A_READ_PERMISSION = enum.auto()  # request without page access
    G0B_WRITE_PERMISSION = enum.auto()  # exclusive request/data without write perm
    G1A_STABLE_REQUEST = enum.auto()  # request inconsistent with stable state
    G1B_TRANSIENT_REQUEST = enum.auto()  # request while one is already pending
    G2A_STABLE_RESPONSE = enum.auto()  # response inconsistent with stable state
    G2B_TRANSIENT_RESPONSE = enum.auto()  # response with no pending request
    G2C_TIMEOUT = enum.auto()  # no response within the timeout
    G3_MALFORMED = enum.auto()  # message the interface cannot even parse


class XGError:
    """One recorded guarantee violation."""

    __slots__ = ("tick", "guarantee", "addr", "description", "accel")

    def __init__(self, tick, guarantee, addr, description, accel=""):
        self.tick = tick
        self.guarantee = guarantee
        self.addr = addr
        self.description = description
        self.accel = accel

    def as_dict(self):
        """Machine-readable record (what an OS driver would log)."""
        return {
            "tick": self.tick,
            "guarantee": self.guarantee.name,
            "addr": self.addr,
            "description": self.description,
            "accel": self.accel,
        }

    def __repr__(self):
        return (
            f"XGError(t={self.tick}, {self.guarantee.name}, addr={self.addr:#x}, "
            f"{self.description!r})"
        )


#: Quarantine ladder rungs, mildest first.
QUARANTINE_STATES = ("healthy", "warned", "throttled", "disabled")


class XGErrorLog:
    """The OS's view of accelerator misbehavior.

    The three thresholds form an escalating quarantine ladder over the
    cumulative violation count:

    * ``warn_after``      — advisory rung: the OS is alerted (a mark in
      the telemetry stream), nothing else changes;
    * ``throttle_after``  — the Crossing Guard clamps the accelerator's
      request rate limiter to its punitive setting;
    * ``disable_after``   — further requests are dropped (Nack'd) at the
      Crossing Guard and probes are answered by surrogate.

    Each may be None to skip that rung; ``disable_after`` alone
    reproduces the original binary enable/disable policy.
    """

    def __init__(self, disable_after=None, warn_after=None, throttle_after=None):
        self.errors = []
        self.disable_after = disable_after
        self.warn_after = warn_after
        self.throttle_after = throttle_after
        self.accel_disabled = False

    @property
    def quarantine_state(self):
        """Current rung of the quarantine ladder."""
        count = len(self.errors)
        if self.accel_disabled:
            return "disabled"
        if self.throttle_after is not None and count >= self.throttle_after:
            return "throttled"
        if self.warn_after is not None and count >= self.warn_after:
            return "warned"
        return "healthy"

    def report(self, tick, guarantee, addr, description, accel=""):
        error = XGError(tick, guarantee, addr, description, accel=accel)
        self.errors.append(error)
        if self.disable_after is not None and len(self.errors) >= self.disable_after:
            self.accel_disabled = True
        return error

    def count(self, guarantee=None):
        if guarantee is None:
            return len(self.errors)
        return sum(1 for error in self.errors if error.guarantee is guarantee)

    def by_guarantee(self):
        counts = {}
        for error in self.errors:
            counts[error.guarantee] = counts.get(error.guarantee, 0) + 1
        return counts

    def as_dict(self):
        """The whole log as plain data: summary plus every record."""
        return {
            "count": len(self.errors),
            "accel_disabled": self.accel_disabled,
            "disable_after": self.disable_after,
            "warn_after": self.warn_after,
            "throttle_after": self.throttle_after,
            "quarantine_state": self.quarantine_state,
            "by_guarantee": {g.name: n for g, n in self.by_guarantee().items()},
            "errors": [error.as_dict() for error in self.errors],
        }

    def __len__(self):
        return len(self.errors)

    def __iter__(self):
        return iter(self.errors)

    def __repr__(self):
        return f"XGErrorLog(errors={len(self.errors)}, disabled={self.accel_disabled})"
