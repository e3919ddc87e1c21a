"""Programmable Byzantine accelerators driven by a serializable plan.

The fuzz adversaries (:mod:`repro.accel.buggy`) each hard-code one
misbehavior. A :class:`RogueAccel` instead executes a :class:`RoguePlan`:
a seeded, serializable mix of protocol-legal-but-adversarial and
outright-illegal moves — spurious/unsolicited responses, wrong-address
acks, stale-uid replays, malformed messages, request floods, silence, and
mid-transaction death. The plan owns its own RNG, so a rogue campaign
replays move-for-move from ``(plan, addr_pool)`` alone, independent of
simulator RNG consumption by networks or CPU testers.

Like every adversary, a rogue is watchdog-exempt: the rogue may wedge
itself; the *host* must stay safe, live, and invariant-clean.
"""

import json
import random
from collections import deque

from repro.memory.datablock import DataBlock
from repro.sim.component import Component
from repro.sim.message import Message
from repro.xg.interface import AccelMsg

#: Scheduled move behaviors a plan may weight.
ROGUE_MOVES = (
    "legal_get",           # well-formed GetS/GetM on a free block
    "legal_put",           # well-formed Put of a held block
    "spurious_response",   # InvAck/WB with no pending probe (G2b)
    "wrong_addr_response", # response aimed at an address nobody probed
    "stale_replay",        # resend an old message: same uid (wire replay)
    "stale_response",      # fresh-uid copy of an old, long-closed response
    "malformed",           # non-int addr / unknown mtype / missing payload
    "flood_burst",         # burst of same-tick requests (DoS)
    "silence",             # deliberately do nothing this move
)

#: Reactions a plan may weight for an incoming Invalidate.
ROGUE_INV_RESPONSES = (
    "correct",    # honest WB/InvAck per held state
    "wrong_type", # owner answers InvAck, sharer answers DirtyWB garbage
    "wrong_addr", # answer, but for a different block
    "ignore",     # never answer (G2c timeout path)
    "double",     # answer twice (trailing echo)
)

_MALFORMED_KINDS = ("bad_addr", "bad_type", "missing_data", "resp_on_req")


class RoguePlan:
    """One deterministic Byzantine behavior mix.

    ``moves`` and ``inv_responses`` are ``{behavior: weight}`` dicts over
    :data:`ROGUE_MOVES` / :data:`ROGUE_INV_RESPONSES`. ``die_at`` stops
    the rogue cold (mid-transaction, unread mail and all) that many ticks
    after ``start()``. The plan round-trips through JSON so a failing
    campaign cell can be re-run from its serialized row.
    """

    def __init__(self, name, seed=0, moves=None, inv_responses=None,
                 mean_gap=20, burst=6, die_at=None):
        self.name = name
        self.seed = seed
        self.moves = dict(moves or {"legal_get": 1.0})
        self.inv_responses = dict(inv_responses or {"correct": 1.0})
        self.mean_gap = mean_gap
        self.burst = burst
        self.die_at = die_at
        unknown = set(self.moves) - set(ROGUE_MOVES)
        if unknown:
            raise ValueError(f"unknown rogue moves {sorted(unknown)}")
        unknown = set(self.inv_responses) - set(ROGUE_INV_RESPONSES)
        if unknown:
            raise ValueError(f"unknown invalidate responses {sorted(unknown)}")
        if not self.moves:
            raise ValueError("a plan needs at least one move behavior")

    def as_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "moves": dict(self.moves),
            "inv_responses": dict(self.inv_responses),
            "mean_gap": self.mean_gap,
            "burst": self.burst,
            "die_at": self.die_at,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def reseed(self, seed):
        """The same behavior mix under a different RNG stream."""
        data = self.as_dict()
        data["seed"] = seed
        return RoguePlan.from_dict(data)

    def __eq__(self, other):
        return isinstance(other, RoguePlan) and self.as_dict() == other.as_dict()

    def __repr__(self):
        return f"RoguePlan({self.name!r}, seed={self.seed}, moves={sorted(self.moves)})"


class RogueAccel(Component):
    """Executes a :class:`RoguePlan` against one Crossing Guard.

    Keeps a FloodingAccel-style view of which blocks it (believes it)
    holds so "legal" moves stay interface-legal, while the adversarial
    moves draw on a bounded log of previously sent messages for replay.
    ``recent_actions`` keeps the last few dozen ``(tick, behavior, mtype,
    addr)`` tuples for forensics; :meth:`diagnose_extra` feeds them into
    :meth:`~repro.sim.simulator.DeadlockError.diagnose`.
    """

    PORTS = ("fromxg",)
    watchdog_exempt = True

    ACTION_LOG_DEPTH = 64
    SENT_LOG_DEPTH = 32

    def __init__(self, sim, name, net, xg_name, addr_pool, plan=None, block_size=64):
        super().__init__(sim, name)
        self.net = net
        self.xg_name = xg_name
        self.block_size = block_size
        self.addr_pool = list(addr_pool)
        self.plan = plan if plan is not None else RoguePlan("default")
        #: plan-owned RNG: rogue behavior replays independently of sim.rng
        self.rng = random.Random(self.plan.seed)
        self._move_names = sorted(self.plan.moves)
        self._move_weights = [self.plan.moves[n] for n in self._move_names]
        self._inv_names = sorted(self.plan.inv_responses)
        self._inv_weights = [self.plan.inv_responses[n] for n in self._inv_names]
        self.held = {}     # addr -> 'S' | 'O' (what we believe we hold)
        self.pending = set()
        self.sent_log = deque(maxlen=self.SENT_LOG_DEPTH)  # (msg, port)
        self.recent_actions = deque(maxlen=self.ACTION_LOG_DEPTH)
        self.messages_sent = 0
        self.stopped = False
        self.dead = False
        self.died_at = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self):
        self.sim.schedule(1, self._tick)
        if self.plan.die_at is not None:
            self.sim.schedule(self.plan.die_at, self._die)

    def stop(self):
        self.stopped = True

    def _die(self):
        # Mid-transaction death: open Gets stay open, probes go unanswered,
        # delivered mail rots in the in-port. The host must not care.
        if not self.dead:
            self.dead = True
            self.died_at = self.sim.tick
            self._note("die", None, None)

    @property
    def active(self):
        return not (self.stopped or self.dead)

    # -- plumbing ------------------------------------------------------------------

    def _note(self, behavior, mtype, addr):
        name = getattr(mtype, "name", mtype)
        self.recent_actions.append((self.sim.tick, behavior, name, addr))

    def _emit(self, mtype, addr, port, data=None, dirty=False, behavior=""):
        msg = Message(
            mtype, addr, sender=self.name, dest=self.xg_name, data=data, dirty=dirty
        )
        self.net.send(msg, port)
        # Log a private clone: once sent, the live instance belongs to
        # the fabric and the XG (a corrupting link rewrites its payload),
        # and stale_replay must re-send the original contents.
        self.sent_log.append((msg.clone(), port))
        self.messages_sent += 1
        self.stats.inc("adversary_msgs")
        self._note(behavior or "emit", mtype, addr)
        return msg

    def _random_block(self):
        data = DataBlock(self.block_size)
        for offset in range(0, self.block_size, 8):
            data.write_byte(offset, self.rng.randrange(256))
        return data

    # -- scheduled moves -----------------------------------------------------------

    def _tick(self):
        if not self.active:
            return
        behavior = self.rng.choices(self._move_names, weights=self._move_weights)[0]
        getattr(self, f"_move_{behavior}")()
        self.sim.schedule(self.rng.randint(1, 2 * self.plan.mean_gap), self._tick)

    def _move_legal_get(self):
        free = [a for a in self.addr_pool if a not in self.held and a not in self.pending]
        if not free:
            self._note("legal_get_skipped", None, None)
            return
        addr = self.rng.choice(free)
        mtype = AccelMsg.GetM if self.rng.random() < 0.5 else AccelMsg.GetS
        self.pending.add(addr)
        self._emit(mtype, addr, "accel_request", behavior="legal_get")

    def _move_legal_put(self):
        if not self.held:
            return self._move_legal_get()
        addr = self.rng.choice(sorted(self.held))
        state = self.held.pop(addr)
        if state == "O":
            self._emit(AccelMsg.PutM, addr, "accel_request",
                       data=self._random_block(), dirty=True, behavior="legal_put")
        else:
            self._emit(AccelMsg.PutS, addr, "accel_request", behavior="legal_put")

    def _move_spurious_response(self):
        addr = self.rng.choice(self.addr_pool)
        mtype = self.rng.choice((AccelMsg.InvAck, AccelMsg.CleanWB, AccelMsg.DirtyWB))
        data = self._random_block() if mtype is not AccelMsg.InvAck else None
        self._emit(mtype, addr, "accel_response", data=data,
                   dirty=mtype is AccelMsg.DirtyWB, behavior="spurious_response")

    def _move_wrong_addr_response(self):
        # Aim at a block far outside the granted pool: exercises the
        # no-pending-probe and permission paths at once.
        addr = self.rng.choice(self.addr_pool) + 64 * self.rng.randint(64, 128)
        self._emit(AccelMsg.DirtyWB, addr, "accel_response",
                   data=self._random_block(), dirty=True,
                   behavior="wrong_addr_response")

    def _move_stale_replay(self):
        if not self.sent_log:
            return self._move_legal_get()
        msg, port = self.rng.choice(list(self.sent_log))
        # clone() keeps the uid: a wire-level replay XG must dedupe-sink.
        self.net.send(msg.clone(), port)
        self.messages_sent += 1
        self.stats.inc("adversary_msgs")
        self._note("stale_replay", msg.mtype, msg.addr)

    def _move_stale_response(self):
        # A *fresh-uid* copy of long-dead response traffic: not a wire
        # duplicate, so it must land in the G2b accounting instead.
        addr = self.rng.choice(self.addr_pool)
        self._emit(AccelMsg.InvAck, addr, "accel_response",
                   behavior="stale_response")

    def _move_malformed(self):
        kind = self.rng.choice(_MALFORMED_KINDS)
        if kind == "bad_addr":
            # non-integer address: must be rejected before alignment math
            self._emit(AccelMsg.GetM, "0xBAD", "accel_request",
                       behavior="malformed_bad_addr")
        elif kind == "bad_type":
            port = self.rng.choice(("accel_request", "accel_response"))
            self._emit("Bogus", self.rng.choice(self.addr_pool), port,
                       behavior="malformed_bad_type")
        elif kind == "missing_data":
            self._emit(AccelMsg.PutM, self.rng.choice(self.addr_pool),
                       "accel_request", data=None, dirty=True,
                       behavior="malformed_missing_data")
        else:  # resp_on_req
            self._emit(AccelMsg.InvAck, self.rng.choice(self.addr_pool),
                       "accel_request", behavior="malformed_resp_on_req")

    def _move_flood_burst(self):
        for _ in range(self.plan.burst):
            addr = self.rng.choice(self.addr_pool)
            self._emit(AccelMsg.GetM, addr, "accel_request", behavior="flood_burst")

    def _move_silence(self):
        self._note("silence", None, None)

    # -- reactions -----------------------------------------------------------------

    def wakeup(self):
        if self.dead:
            return  # unread mail piles up; that is the point
        while True:
            msg = self.in_ports["fromxg"].pop(self.sim.tick)
            if msg is None:
                return
            self._handle_from_xg(msg)

    def _handle_from_xg(self, msg):
        mtype = msg.mtype
        if mtype in (AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM):
            self.pending.discard(msg.addr)
            self.held[msg.addr] = "S" if mtype is AccelMsg.DataS else "O"
            self._note("granted", mtype, msg.addr)
        elif mtype is AccelMsg.WBAck:
            self._note("wback_acked", mtype, msg.addr)
        elif mtype is AccelMsg.Nack:
            self.pending.discard(msg.addr)
            self.stats.inc("nacks_seen")
            self._note("nacked", mtype, msg.addr)
        elif mtype is AccelMsg.Invalidate:
            self._answer_invalidate(msg.addr)
        else:
            self._note("ignored_from_xg", mtype, msg.addr)

    def _answer_correct(self, addr, state):
        if state == "O":
            self._emit(AccelMsg.DirtyWB, addr, "accel_response",
                       data=self._random_block(), dirty=True, behavior="inv_correct")
        else:
            self._emit(AccelMsg.InvAck, addr, "accel_response", behavior="inv_correct")

    def _answer_invalidate(self, addr):
        reaction = self.rng.choices(self._inv_names, weights=self._inv_weights)[0]
        state = self.held.pop(addr, None)
        if reaction == "ignore":
            self.stats.inc("invalidates_ignored")
            self._note("inv_ignored", AccelMsg.Invalidate, addr)
        elif reaction == "wrong_type":
            if state == "O":
                self._emit(AccelMsg.InvAck, addr, "accel_response",
                           behavior="inv_wrong_type")
            else:
                self._emit(AccelMsg.DirtyWB, addr, "accel_response",
                           data=self._random_block(), dirty=True,
                           behavior="inv_wrong_type")
        elif reaction == "wrong_addr":
            self._emit(AccelMsg.InvAck, addr + self.block_size, "accel_response",
                       behavior="inv_wrong_addr")
        elif reaction == "double":
            self._answer_correct(addr, state)
            self._answer_correct(addr, state)
        else:
            self._answer_correct(addr, state)

    # -- forensics -----------------------------------------------------------------

    def diagnose_extra(self, last=8):
        """Self-describing lines for :meth:`DeadlockError.diagnose`."""
        status = "dead" if self.dead else ("stopped" if self.stopped else "active")
        lines = [
            f"rogue plan={self.plan.name!r} seed={self.plan.seed} status={status}"
            + (f" died_at={self.died_at}" if self.died_at is not None else "")
            + f" sent={self.messages_sent} held={len(self.held)} "
            f"pending={len(self.pending)}"
        ]
        for tick, behavior, mtype, addr in list(self.recent_actions)[-last:]:
            addr_s = f"{addr:#x}" if isinstance(addr, int) else str(addr)
            lines.append(f"t={tick} {behavior} {mtype or '-'} {addr_s}")
        return lines
