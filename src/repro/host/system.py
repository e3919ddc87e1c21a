"""System builder: assemble any of the paper's evaluated configurations.

``build_system(config)`` wires up the host protocol, the chosen
accelerator organization, the networks (unordered host interconnect,
ordered XG<->accelerator link), sequencers for every CPU and accelerator
core, and — for XG organizations — the Crossing Guard with its permission
table, rate limiter, and OS error log.
"""

from repro.accel.buggy import DeafAccel, FloodingAccel, FuzzingAccel, WrongResponderAccel
from repro.accel.l1_single import AccelL1, AccelL1Mode
from repro.accel.rogue import RogueAccel
from repro.accel.streaming import StreamingAccelL1
from repro.accel.two_level import AccelL2Shared
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.cpu import Sequencer
from repro.memory.main_memory import MainMemory
from repro.protocols.hammer.cache import HammerCache
from repro.protocols.hammer.directory import HammerDirectory
from repro.protocols.mesi.l1 import MesiL1
from repro.protocols.mesi.l2 import MesiL2
from repro.protocols.mesif.l1 import MesifL1
from repro.protocols.mesif.l2 import MesifL2
from repro.sim.network import FixedLatency, Network, RandomLatency
from repro.sim.simulator import Simulator
from repro.xg.errors import XGErrorLog
from repro.xg.hammer_xg import HammerCrossingGuard
from repro.xg.mesi_xg import MesiCrossingGuard
from repro.xg.mesif_xg import MesifCrossingGuard
from repro.xg.permissions import PagePermission, PermissionTable
from repro.xg.rate_limiter import RateLimiter


class System:
    """A built simulation: simulator, networks, controllers, sequencers."""

    def __init__(self, config):
        self.config = config
        self.sim = None
        self.host_net = None
        self.accel_net = None
        self.memory = None
        self.cpu_seqs = []
        self.accel_seqs = []
        self.cpu_caches = []
        self.accel_caches = []
        self.accel_l2 = None
        self.accel_l2s = []
        self.xgs = []
        self.error_logs = []
        self.permissions_list = []
        #: per-accelerator (xg, [accel caches], accel_l2 or None)
        self.xg_groups = []
        self.directory = None  # hammer dir or mesi L2
        #: online invariant watchdog (None unless config.invariant_interval)
        self.watchdog = None
        self._checkpointer = None

    # first-accelerator conveniences (the common single-accel case)
    @property
    def xg(self):
        return self.xgs[0] if self.xgs else None

    @property
    def error_log(self):
        return self.error_logs[0] if self.error_logs else None

    @property
    def permissions(self):
        return self.permissions_list[0] if self.permissions_list else None

    @property
    def sequencers(self):
        return self.cpu_seqs + self.accel_seqs

    def controllers(self):
        """Every coherence controller, for coverage collection."""
        out = list(self.cpu_caches) + list(self.accel_caches)
        if self.accel_l2 is not None:
            out.append(self.accel_l2)
        out.extend(self.accel_l2s[1:])  # first is in accel_l2 handling below
        out.extend(self.xgs)
        out.append(self.directory)
        return out

    @property
    def checkpointer(self):
        """The :class:`~repro.host.checkpoint.SystemCheckpointer` behind
        :meth:`checkpoint`, planned on first use."""
        if self._checkpointer is None:
            # imported on first use: building and running never need it
            from repro.host.checkpoint import SystemCheckpointer

            self._checkpointer = SystemCheckpointer(self)
        return self._checkpointer

    def checkpoint(self):
        """Capture the system's physical state for a later :meth:`restore`.

        See :mod:`repro.host.checkpoint` for what a checkpoint carries.
        """
        return self.checkpointer.checkpoint()

    def restore(self, checkpoint):
        """Write ``checkpoint`` back into this system's live objects.

        Components, buffers, the event queue and every other fixed object
        keep their identity, so compiled dispatch closures and network
        route caches stay valid: nothing is rebuilt or recompiled.
        """
        if self._checkpointer is None:
            from repro.host.checkpoint import CheckpointError

            raise CheckpointError("checkpoint was taken from another system")
        self._checkpointer.restore(checkpoint)

    def run_until_drained(self, max_ticks=100_000_000):
        reason = self.sim.run(max_ticks=max_ticks)
        if reason != "idle":
            raise RuntimeError(f"system did not drain: {reason}")
        return self

    def stats_summary(self):
        """The numbers a report needs, in one flat dict."""

        def latency(seqs):
            total = count = 0
            for seq in seqs:
                hist = seq.stats.histogram("op_latency")
                total += hist.total
                count += hist.count
            return (total / count if count else 0.0), count

        cpu_latency, cpu_ops = latency(self.cpu_seqs)
        accel_latency, accel_ops = latency(self.accel_seqs)
        summary = {
            "config": self.config.label,
            "ticks": self.sim.tick,
            "cpu_ops": cpu_ops,
            "cpu_mean_latency": cpu_latency,
            "accel_ops": accel_ops,
            "accel_mean_latency": accel_latency,
            "host_net_messages": self.sim.stats_for("network.host").get("messages"),
            "accel_net_messages": self.sim.stats_for("network.accel").get("messages"),
        }
        if self.xgs:
            summary["xg_to_host_msgs"] = sum(
                xg.stats.get("xg_to_host_msgs") for xg in self.xgs
            )
            summary["guarantee_violations"] = sum(len(log) for log in self.error_logs)
            summary["xg_storage_bits"] = sum(
                xg.storage_report()["total_bits"] for xg in self.xgs
            )
        return summary


def _latency(lo, hi):
    return FixedLatency(lo) if lo == hi else RandomLatency(lo, hi)


def build_system(config: SystemConfig) -> System:
    system = System(config)
    sim = Simulator(
        seed=config.seed,
        deadlock_threshold=config.deadlock_threshold,
        trace_depth=config.trace_depth,
        metrics=config.metrics,
    )
    system.sim = sim
    # Records only flow once Telemetry attaches a LineageTracker; this
    # default just makes a later `Telemetry(sim)` honor the config.
    sim.lineage_default = config.lineage
    system.memory = MainMemory(block_size=config.block_size, latency=config.mem_latency)

    if config.randomize_latencies:
        host_lat = RandomLatency(config.random_lat_lo, config.random_lat_hi)
        accel_lat = RandomLatency(config.random_lat_lo, config.random_lat_hi)
    else:
        host_lat = _latency(config.host_net_lo, config.host_net_hi)
        accel_lat = _latency(config.accel_net_lo, config.accel_net_hi)
    host_net = Network(
        sim, host_lat, ordered=False, name="host",
        bandwidth=config.host_net_bandwidth, fault_plan=config.fault_plan,
    )
    # The XG<->accelerator network must be ordered (Section 2.1). XG sits
    # at the host edge of the physical crossing, so traffic to/from it
    # pays the crossing while intra-accelerator traffic stays fast.
    accel_net = Network(
        sim, accel_lat, ordered=True, name="accel", fault_plan=config.fault_plan
    )
    system.host_net = host_net
    system.accel_net = accel_net

    # Each accelerator is one agent on the host fabric regardless of
    # organization: an accel-side cache, a host-side cache, or an XG.
    xg_present = config.org is AccelOrg.XG
    n_agents = config.n_accelerators if xg_present else 1
    n_host_caches = config.n_cpus + n_agents

    # -- host protocol fabric ----------------------------------------------------
    if config.host in (HostProtocol.MESI, HostProtocol.MESIF):
        l2_cls = MesiL2 if config.host is HostProtocol.MESI else MesifL2
        l1_cls = MesiL1 if config.host is HostProtocol.MESI else MesifL1
        directory = l2_cls(
            sim,
            "l2",
            host_net,
            system.memory,
            num_sets=config.shared_l2_sets,
            assoc=config.shared_l2_assoc,
            block_size=config.block_size,
            xg_tolerant=xg_present,
        )
        host_net.attach(directory)
        dir_name = "l2"

        def make_host_cache(name, sets, assoc):
            cache = l1_cls(
                sim, name, host_net, dir_name,
                num_sets=sets, assoc=assoc, block_size=config.block_size,
            )
            host_net.attach(cache)
            return cache

    else:
        directory = HammerDirectory(
            sim, "dir", host_net, system.memory, block_size=config.block_size
        )
        host_net.attach(directory)
        dir_name = "dir"
        n_peers = n_host_caches - 1

        def make_host_cache(name, sets, assoc):
            cache = HammerCache(
                sim, name, host_net, dir_name, n_peers,
                num_sets=sets, assoc=assoc, block_size=config.block_size,
                xg_tolerant=xg_present,
            )
            host_net.attach(cache)
            directory.add_cache(name)
            return cache

    directory.occupancy = config.directory_occupancy
    system.directory = directory

    # -- CPU cores -------------------------------------------------------------------
    for i in range(config.n_cpus):
        cache = make_host_cache(f"cpu_l1.{i}", config.cpu_l1_sets, config.cpu_l1_assoc)
        seq = Sequencer(sim, f"cpu.{i}")
        seq.attach(cache)
        system.cpu_caches.append(cache)
        system.cpu_seqs.append(seq)

    # -- accelerator organization ----------------------------------------------------------
    if config.org is AccelOrg.ACCEL_SIDE:
        # Unsafe: the accelerator's cache speaks the raw host protocol
        # across the crossing (Figure 2a). One cache, shared by the
        # accelerator's cores, physically at the accelerator.
        cache = make_host_cache(
            "accel_hostproto", config.accel_l1_sets, config.accel_l1_assoc
        )
        host_net.set_endpoint_delay("accel_hostproto", config.crossing_latency)
        system.accel_caches.append(cache)
        for i in range(config.n_accel_cores):
            seq = Sequencer(sim, f"accel.{i}")
            seq.attach(cache)
            system.accel_seqs.append(seq)
    elif config.org is AccelOrg.HOST_SIDE:
        # Safe but slow: no cache at the accelerator; every access pays
        # the crossing both ways (Figure 2b).
        cache = make_host_cache("hostside", config.accel_l1_sets, config.accel_l1_assoc)
        system.accel_caches.append(cache)
        for i in range(config.n_accel_cores):
            seq = Sequencer(
                sim,
                f"accel.{i}",
                issue_latency=config.crossing_latency,
                response_latency=config.crossing_latency,
            )
            seq.attach(cache)
            system.accel_seqs.append(seq)
    else:
        # Crossing Guard (Figure 2c/2d): one XG instance per accelerator.
        default = {
            "rw": PagePermission.READ_WRITE,
            "read": PagePermission.READ,
            "none": PagePermission.NONE,
        }[config.permissions_default]
        for accel_index in range(config.n_accelerators):
            suffix = "" if accel_index == 0 else f".{accel_index}"
            xg_name = f"xg{suffix}"
            permissions = PermissionTable(default=default)
            error_log = XGErrorLog(
                disable_after=config.disable_after,
                warn_after=config.warn_after,
                throttle_after=config.throttle_after,
            )
            if config.rate_limit is not None:
                rate, period = config.rate_limit
                limiter = RateLimiter(rate=rate, period=period)
            else:
                limiter = RateLimiter()
            xg_kwargs = dict(
                variant=config.xg_variant,
                permissions=permissions,
                error_log=error_log,
                rate_limiter=limiter,
                accel_timeout=config.accel_timeout,
                probe_retries=config.probe_retries,
                suppress_puts=config.suppress_puts,
                throttle_rate=config.throttle_rate,
                block_size=config.block_size,
            )
            if config.host is HostProtocol.MESI:
                xg = MesiCrossingGuard(
                    sim, xg_name, host_net, accel_net, dir_name, **xg_kwargs
                )
            elif config.host is HostProtocol.MESIF:
                xg = MesifCrossingGuard(
                    sim, xg_name, host_net, accel_net, dir_name, **xg_kwargs
                )
            else:
                xg = HammerCrossingGuard(
                    sim, xg_name, host_net, accel_net, dir_name, n_peers, **xg_kwargs
                )
                directory.add_cache(xg_name)
            host_net.attach(xg)
            accel_net.attach(xg)
            if not config.randomize_latencies:
                accel_net.set_endpoint_delay(xg_name, config.crossing_latency)
            system.xgs.append(xg)
            system.error_logs.append(error_log)
            system.permissions_list.append(permissions)
            group_caches = []

            adversary = config.tags.get("adversary")
            if adversary is not None:
                if config.n_accelerators != 1:
                    raise ValueError("adversary tag supports a single accelerator")
                kind, kwargs = adversary
                cls = {
                    "fuzz": FuzzingAccel,
                    "deaf": DeafAccel,
                    "wrong": WrongResponderAccel,
                    "flood": FloodingAccel,
                    "rogue": RogueAccel,
                }[kind]
                accel = cls(
                    sim, "adversary", accel_net, xg_name,
                    block_size=config.block_size, **kwargs,
                )
                accel_net.attach(accel)
                xg.attach_accelerator("adversary")
                system.accel_caches.append(accel)
                system.xg_groups.append((xg, [accel], None))
                continue
            accel_mode = AccelL1Mode[config.accel_mode.upper()]
            core_base = accel_index * config.n_accel_cores
            if config.accel_levels == 1:
                if config.accel_prefetch_depth > 0:
                    l1 = StreamingAccelL1(
                        sim, f"accel_l1{suffix}", accel_net, xg_name,
                        num_sets=config.accel_l1_sets, assoc=config.accel_l1_assoc,
                        block_size=config.block_size, mode=accel_mode,
                        prefetch_depth=config.accel_prefetch_depth,
                    )
                else:
                    l1 = AccelL1(
                        sim, f"accel_l1{suffix}", accel_net, xg_name,
                        num_sets=config.accel_l1_sets, assoc=config.accel_l1_assoc,
                        block_size=config.block_size, mode=accel_mode,
                    )
                accel_net.attach(l1)
                xg.attach_accelerator(l1.name)
                system.accel_caches.append(l1)
                group_caches.append(l1)
                for i in range(config.n_accel_cores):
                    seq = Sequencer(sim, f"accel.{core_base + i}")
                    seq.attach(l1)
                    system.accel_seqs.append(seq)
                system.xg_groups.append((xg, group_caches, None))
            else:
                al2 = AccelL2Shared(
                    sim, f"accel_l2{suffix}", accel_net, accel_net, xg_name,
                    num_sets=config.accel_l2_sets, assoc=config.accel_l2_assoc,
                    block_size=config.block_size,
                )
                accel_net.attach(al2)
                xg.attach_accelerator(al2.name)
                if system.accel_l2 is None:
                    system.accel_l2 = al2
                system.accel_l2s.append(al2)
                for i in range(config.n_accel_cores):
                    l1 = AccelL1(
                        sim, f"accel_l1{suffix}.{i}", accel_net, al2.name,
                        num_sets=config.accel_l1_sets, assoc=config.accel_l1_assoc,
                        block_size=config.block_size,
                    )
                    accel_net.attach(l1)
                    seq = Sequencer(sim, f"accel.{core_base + i}")
                    seq.attach(l1)
                    system.accel_caches.append(l1)
                    group_caches.append(l1)
                    system.accel_seqs.append(seq)
                system.xg_groups.append((xg, group_caches, al2))

    if config.invariant_interval:
        # Imported lazily: repro.testing.invariants imports the protocol
        # state enums, which would cycle back through this module at
        # import time.
        from repro.testing.invariants import InvariantWatchdog

        system.watchdog = sim.attach_monitor(
            InvariantWatchdog(system, interval=config.invariant_interval)
        )

    return system
