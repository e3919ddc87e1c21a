"""System configuration for the paper's evaluated organizations.

Section 3 evaluates 12 configurations: {Hammer, MESI} hosts × (
accelerator-side cache [unsafe, Figure 2a], host-side cache [Figure 2b],
XG Full State × {1, 2}-level accel caches, XG Transactional × {1, 2}-level
accel caches).
"""

import enum
from dataclasses import dataclass, field

from repro.sim.idenum import IdEnum
from repro.xg.interface import XGVariant


class HostProtocol(IdEnum):
    MESI = enum.auto()
    HAMMER = enum.auto()
    MESIF = enum.auto()  # Intel-like inclusive MESI(F)


class AccelOrg(IdEnum):
    ACCEL_SIDE = enum.auto()  # Figure 2a: accel cache speaks raw host protocol
    HOST_SIDE = enum.auto()  # Figure 2b: no accel cache; loads cross the link
    XG = enum.auto()  # Figure 2c/2d: Crossing Guard


@dataclass
class SystemConfig:
    """Everything needed to build one simulated system."""

    host: HostProtocol = HostProtocol.MESI
    org: AccelOrg = AccelOrg.XG
    xg_variant: XGVariant = XGVariant.FULL_STATE
    accel_levels: int = 1  # 1 = Table 1 L1 only; 2 = L1s + shared accel L2
    accel_mode: str = "mesi"  # "mesi" | "msi" | "vi" (Section 2.1 degenerate designs)
    accel_prefetch_depth: int = 0  # >0: streaming accel cache with prefetch

    n_cpus: int = 2
    n_accel_cores: int = 1  # cores per accelerator
    n_accelerators: int = 1  # one Crossing Guard instance per accelerator

    # cache geometry (sets, assoc)
    cpu_l1_sets: int = 64
    cpu_l1_assoc: int = 4
    shared_l2_sets: int = 256
    shared_l2_assoc: int = 8
    accel_l1_sets: int = 64
    accel_l1_assoc: int = 4
    accel_l2_sets: int = 128
    accel_l2_assoc: int = 8
    block_size: int = 64

    # timing
    host_net_bandwidth: float = None  # msgs/tick (None = unlimited)
    crossing_latency: int = 40  # host<->accelerator boundary
    mem_latency: int = 100

    # XG knobs
    accel_timeout: int = 50000
    probe_retries: int = 1  # Invalidate re-issues before the G2c surrogate
    # quarantine ladder (cumulative violation counts; None skips a rung)
    disable_after: int = None  # OS policy: quarantine accel after N violations
    warn_after: int = None  # advisory rung: telemetry mark only
    throttle_after: int = None  # clamp the rate limiter to throttle_rate
    throttle_rate: tuple = None  # punitive (rate, period) for the throttled rung
    suppress_puts: bool = False
    rate_limit: tuple = None  # (rate, period) or None
    permissions_default: str = "rw"  # "rw" | "read" | "none"

    # online invariant watchdog sampling period in ticks; 0 disables
    invariant_interval: int = 0

    # fault injection (repro.sim.faults.FaultPlan, consulted by every
    # network on every send; None = perfectly reliable interconnect)
    fault_plan: object = None

    # simulation
    seed: int = 0
    deadlock_threshold: int = 1_000_000
    # False hands every component the shared NullStats: all counter and
    # histogram work becomes a no-op (pure-speed campaign mode)
    metrics: bool = True
    # forensic trace-ring depth; 0 disables recording entirely (fast
    # campaign mode — replay the seed with a nonzero depth for forensics)
    trace_depth: int = 64

    # set True by the stress harness: every message latency is drawn
    # uniformly from [1, 15] ticks instead of the fixed 2 (host network)
    # and 4 (accelerator network)
    randomize_latencies: bool = False

    tags: dict = field(default_factory=dict)

    @property
    def label(self):
        if self.org is AccelOrg.ACCEL_SIDE:
            org = "accel-side"
        elif self.org is AccelOrg.HOST_SIDE:
            org = "host-side"
        else:
            variant = "full" if self.xg_variant is XGVariant.FULL_STATE else "txn"
            org = f"xg-{variant}-L{self.accel_levels}"
        return f"{self.host.name.lower()}/{org}"


def all_evaluated_configs(hosts=(HostProtocol.HAMMER, HostProtocol.MESI), **overrides):
    """The paper's 12-configuration matrix (Section 3).

    Pass ``hosts=(..., HostProtocol.MESIF)`` to include the Intel-like
    MESI(F) host this reproduction adds beyond the paper's two.
    """
    configs = []
    for host in hosts:
        configs.append(SystemConfig(host=host, org=AccelOrg.ACCEL_SIDE, **overrides))
        configs.append(SystemConfig(host=host, org=AccelOrg.HOST_SIDE, **overrides))
        for variant in (XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL):
            for levels in (1, 2):
                configs.append(
                    SystemConfig(
                        host=host,
                        org=AccelOrg.XG,
                        xg_variant=variant,
                        accel_levels=levels,
                        **overrides,
                    )
                )
    return configs
