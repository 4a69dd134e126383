"""Segment-level TCP: one reliable, congestion-controlled byte stream
over a :class:`~repro.packet.link.PacketLink`.

Implements the sender/receiver pair at the fidelity the fluid model
abstracts away: per-segment transmission, cumulative ACKs, duplicate-ACK
fast retransmit (NewReno-style recovery), retransmission timeouts with
exponential backoff, Karn's rule for RTT sampling, and an out-of-order
reassembly buffer.  Connections start established (the three-way
handshake adds one RTT and nothing else to the dynamics under study).

Data is supplied by an *assigner* — ``assign(max_bytes)`` returning a
``(dsn, size)`` chunk or ``None`` — so the same sender serves
single-path TCP (DSN == sequence number) and an MPTCP subflow (DSNs
handed out by the connection-level scheduler, bounded by the shared
receive buffer).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.errors import ConfigurationError
from repro.packet.link import PacketLink, Segment
from repro.sim.engine import EventHandle, Simulator
from repro.tcp.rtt import RttEstimator

Assigner = Callable[[float], Optional[Tuple[float, float]]]
DeliverCallback = Callable[[float, float], None]  # (dsn, size)

#: Maximum segment size, bytes.
MSS = 1448.0

#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3


SackBlocks = Tuple[Tuple[float, float], ...]

#: Maximum SACK blocks carried per ACK (RFC 2018 allows 3-4).
MAX_SACK_BLOCKS = 4


class SubflowReceiver:
    """In-order reassembly, cumulative ACKs, and SACK blocks."""

    def __init__(self, deliver: DeliverCallback):
        self.rcv_nxt = 0.0
        self._deliver = deliver
        self._buffered: Dict[float, Segment] = {}
        self._starts: List[float] = []  # buffered coverage as disjoint
        self._ends: List[float] = []  # ranges [_starts[i], _ends[i]), ascending
        self._last_ooo_seq = -1.0  # seq of the latest out-of-order arrival
        self.duplicate_segments = 0

    def on_segment(self, segment: Segment) -> Tuple[float, SackBlocks]:
        """Absorb one segment; return (cumulative ACK, SACK blocks)."""
        if segment.seq + segment.size <= self.rcv_nxt:
            self.duplicate_segments += 1
        elif segment.seq > self.rcv_nxt:
            self._buffered.setdefault(segment.seq, segment)
            self._last_ooo_seq = start = segment.seq
            end = start + segment.size
            # Merge [start, end) into the ranges; touching ranges join.
            lo, hi = bisect_left(self._ends, start), bisect_right(self._starts, end)
            if lo < hi:
                start, end = min(start, self._starts[lo]), max(end, self._ends[hi - 1])
            self._starts[lo:hi], self._ends[lo:hi] = [start], [end]
        else:
            # In order (possibly overlapping the left edge).
            self._advance(segment)
            while self.rcv_nxt in self._buffered:
                self._advance(self._buffered.pop(self.rcv_nxt))
            delivered = bisect_right(self._ends, self.rcv_nxt)
            del self._starts[:delivered], self._ends[:delivered]
        return self.rcv_nxt, self.sack_blocks()

    def sack_blocks(self) -> SackBlocks:
        """Out-of-order coverage, merged into ranges.

        RFC 2018 ordering: the block containing the most recently
        received segment comes first, so across a stream of ACKs the
        sender's scoreboard accumulates coverage of *every* range, not
        just the lowest few — essential when loss is heavy and only a
        handful of blocks fit per ACK.
        """
        starts, ends = self._starts, self._ends
        blocks = list(zip(starts[:MAX_SACK_BLOCKS], ends[:MAX_SACK_BLOCKS]))
        last = self._last_ooo_seq
        i = bisect_right(starts, last) - 1
        if i >= 0 and last < ends[i]:
            if i < MAX_SACK_BLOCKS:
                del blocks[i]
            blocks.insert(0, (starts[i], ends[i]))
        return tuple(blocks[:MAX_SACK_BLOCKS])

    def _advance(self, segment: Segment) -> None:
        self.rcv_nxt = max(self.rcv_nxt, segment.seq + segment.size)
        self._deliver(segment.dsn, segment.size)


class PacketTcpConnection:
    """A segment-level TCP sender with its receiver and ACK path."""

    def __init__(
        self,
        sim: Simulator,
        link: PacketLink,
        assigner: Assigner,
        deliver: DeliverCallback,
        ack_delay: Optional[float] = None,
        mss: float = MSS,
        init_cwnd_segments: int = 10,
        coupling: Optional[Callable[[], float]] = None,
        name: str = "ptcp",
    ):
        if mss <= 0:
            raise ConfigurationError("mss must be positive")
        self.sim = sim
        self.link = link
        self.assigner = assigner
        self.mss = mss
        self.coupling = coupling
        self.name = name
        self.ack_delay = link.one_way_delay if ack_delay is None else ack_delay

        self.snd_una = 0.0
        self.snd_nxt = 0.0
        self.cwnd = init_cwnd_segments * mss
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = 0.0
        self.rtt = RttEstimator()
        self.receiver = SubflowReceiver(deliver)

        self._segments: Dict[float, Segment] = {}  # seq -> unacked segment
        self._order: List[float] = []  # unacked seqs, ascending
        self._sacked: set = set()  # seqs covered by SACK blocks
        self._rtx_done: set = set()  # lost seqs already retransmitted
        self._rtx_bytes = 0.0  # bytes of the unSACKed ones among them
        self._rtx_from = 0.0  # every seq below is SACKed or retransmitted
        self._highest_sacked = 0.0
        self._all_lost = False  # post-RTO: every unSACKed segment is lost
        self._rto_handle: Optional[EventHandle] = None
        self._rto_backoff = 1.0
        self._prof = _obs.profiler_or_none()
        self.fast_retransmits = 0
        self.timeouts = 0
        self.bytes_acked_total = 0.0
        self.closed = False
        self.paused = False

        link.attach(sim)

    # ------------------------------------------------------------------
    # sending

    def start(self) -> None:
        """Begin transmitting (connection assumed established)."""
        self._try_send()

    def notify_data(self) -> None:
        """New application data may be available."""
        if not self.closed:
            self._try_send()

    def close(self) -> None:
        """Stop all activity."""
        self.closed = True
        self._cancel_rto()

    def pause(self) -> None:
        """Stop sending *new* data (MP_PRIO suspension).  In-flight
        segments still complete and retransmissions still repair losses
        — suspension must not strand assigned DSNs."""
        self.paused = True

    def resume(self) -> None:
        """Resume sending after :meth:`pause`."""
        if not self.paused:
            return
        self.paused = False
        self._try_send()

    @property
    def flight_size(self) -> float:
        """Unacknowledged bytes."""
        return self.snd_nxt - self.snd_una

    def _pipe(self) -> float:
        """Bytes in flight (RFC 6675's pipe, simplified): unacked, not
        SACKed, and not a lost segment awaiting its retransmission.  No
        scan: DESIGN.md (``packet/``) states the invariants used."""
        if self._all_lost:  # after an RTO every unSACKed segment is lost
            return self._rtx_bytes
        hs, una = self._highest_sacked, self.snd_una
        pipe = max(0.0, self.snd_nxt - max(hs, una)) + self._rtx_bytes
        if una in self._rtx_done and una not in self._sacked:
            size = self._segments[una].size
            if una + size > hs:  # the forced retransmission: counted once
                pipe -= size
        return pipe

    def _try_send(self) -> None:
        if self.closed:
            return
        budget = 512  # safety valve against pathological loops
        while budget > 0:
            budget -= 1
            pipe = self._pipe() if self.in_recovery else self.flight_size
            if pipe + self.mss > self.cwnd + 1e-9:
                break
            if self.in_recovery:
                outcome = self._retransmit_next_lost()
                if outcome is True:
                    continue
                if outcome is False:
                    break  # queue congested; retry on the next ACK
            if self.paused:
                break  # suspended: repair losses but take no new data
            chunk = self.assigner(self.mss)
            if chunk is None:
                break
            dsn, size = chunk
            if size <= 0:
                break
            segment = Segment(seq=self.snd_nxt, size=size, dsn=dsn, sent_at=self.sim.now)
            self._segments[segment.seq] = segment
            self._order.append(segment.seq)
            self.snd_nxt += size
            self.link.send(segment, self._segment_arrived)
            self._arm_rto()

    def _segment_arrived(self, segment: Segment) -> None:
        ack_no, sacks = self.receiver.on_segment(segment)
        self.sim.schedule(self.ack_delay, self._on_ack, ack_no, sacks)

    # ------------------------------------------------------------------
    # ACK clock

    def _on_ack(self, ack_no: float, sacks: "SackBlocks" = ()) -> None:
        if self._prof is not None:
            with self._prof.span("packet.tcp.ack"):
                self._ack_clock(ack_no, sacks)
            return
        self._ack_clock(ack_no, sacks)

    def _ack_clock(self, ack_no: float, sacks: "SackBlocks") -> None:
        if self.closed:
            return
        self._absorb_sacks(sacks)
        if ack_no > self.snd_una:
            self._on_new_ack(ack_no)
        elif self.flight_size > 0:
            self._on_dup_ack()
        self._try_send()

    def _absorb_sacks(self, sacks: "SackBlocks") -> None:
        order, segments, sacked = self._order, self._segments, self._sacked
        for start, end in sacks:
            self._highest_sacked = max(self._highest_sacked, end)
            for i in range(bisect_left(order, start), len(order)):
                seq = order[i]
                size = segments[seq].size
                if seq + size > end:
                    break
                if seq not in sacked:
                    sacked.add(seq)
                    if seq in self._rtx_done:
                        self._rtx_bytes -= size

    def _on_new_ack(self, ack_no: float) -> None:
        acked = ack_no - self.snd_una
        self.bytes_acked_total += acked
        self.snd_una = ack_no
        self.dup_acks = 0
        self._drop_acked(ack_no)
        if self.in_recovery and ack_no >= self.recovery_point:
            self.in_recovery = False
            self._all_lost = False
            self._rtx_done.clear()
            self._rtx_bytes = self._rtx_from = 0.0
        if not self.in_recovery or self._all_lost:
            # Post-RTO recovery is slow start: the window grows while
            # the scoreboard paces the retransmissions.
            self._grow_window(acked)
        self._rto_backoff = 1.0
        if self.flight_size > 0:
            self._arm_rto()
        else:
            self._cancel_rto()

    def _grow_window(self, acked: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked, self.mss * 2)  # RFC 3465, L=2
        else:
            factor = self.coupling() if self.coupling is not None else 1.0
            self.cwnd += max(0.0, factor) * self.mss * acked / self.cwnd

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.dup_acks == DUPACK_THRESHOLD and not self.in_recovery:
            self.fast_retransmits += 1
            self.in_recovery = True
            self.recovery_point = self.snd_nxt
            self.ssthresh = max(self.flight_size / 2.0, 2 * self.mss)
            self.cwnd = self.ssthresh
            self._retransmit_next_lost(force_first=True)

    def _retransmit_next_lost(self, force_first: bool = False):
        """Retransmit the lowest lost, not-yet-retransmitted segment.

        Returns True when one was sent, False when the queue rejected
        it (caller should back off until the next ACK), and None when
        nothing is pending retransmission.  ``force_first`` retransmits
        the segment at ``snd_una`` even if the SACK scoreboard has no
        evidence yet (classic 3-dupack fast retransmit before any SACK
        arrived)."""
        order = self._order
        for i in range(bisect_left(order, self._rtx_from), len(order)):
            seq = order[i]
            if seq in self._sacked or seq in self._rtx_done:
                continue
            self._rtx_from = seq
            if self._all_lost or (force_first and seq == self.snd_una):
                return self._retransmit(seq)
            if seq + self._segments[seq].size <= self._highest_sacked:
                return self._retransmit(seq)
            return None  # nothing beyond the highest SACK can be "lost" yet
        self._rtx_from = self.snd_nxt
        return None

    def _retransmit(self, seq: float) -> bool:
        """Retransmit one segment; False if the queue rejected it (the
        segment stays eligible for a later attempt)."""
        resend = replace(self._segments[seq], sent_at=self.sim.now, retransmit=True)
        accepted = self.link.send(resend, self._segment_arrived)
        if accepted:
            self._segments[seq] = resend
            self._rtx_done.add(seq)
            if seq not in self._sacked:
                self._rtx_bytes += resend.size
            self._arm_rto()
        return accepted

    # ------------------------------------------------------------------
    # RTO

    def _arm_rto(self) -> None:
        self._cancel_rto()
        delay = self.rtt.rto * self._rto_backoff
        self._rto_handle = self.sim.schedule(delay, self._rto_fired)

    def _cancel_rto(self) -> None:
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _rto_fired(self) -> None:
        self._rto_handle = None
        if self._prof is not None:
            with self._prof.span("packet.tcp.rto"):
                self._timeout()
            return
        self._timeout()

    def _timeout(self) -> None:
        if self.closed or self.flight_size <= 0:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2 * self.mss)
        self.cwnd = 2 * self.mss
        self.dup_acks = 0
        # Re-enter SACK loss recovery with everything unSACKed marked
        # lost (RFC 6675): subsequent ACKs clock out the retransmissions
        # instead of one hole per RTO.
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self._all_lost = True
        self._rtx_done.clear()  # everything may be retransmitted again
        self._rtx_bytes = self._rtx_from = 0.0
        self._rto_backoff = min(64.0, self._rto_backoff * 2.0)
        if self._order:
            self._retransmit(self._order[0])
        # Always re-arm: if the retransmission was itself dropped (dead
        # or saturated link) the next backoff must still fire.
        self._arm_rto()

    # ------------------------------------------------------------------
    # bookkeeping

    def _drop_acked(self, ack_no: float) -> None:
        """Drop the segments ``ack_no`` covers; the RTT sample is the most
        recently sent original among them (Karn's rule; earliest of equals)."""
        order, segments = self._order, self._segments
        acked = bisect_left(order, ack_no)
        candidate: Optional[Segment] = None
        for i in range(acked):
            seq = order[i]
            segment = segments.pop(seq)
            if seq + segment.size <= ack_no and not segment.retransmit:
                if candidate is None or segment.sent_at > candidate.sent_at:
                    candidate = segment
            if seq in self._rtx_done and seq not in self._sacked:
                self._rtx_bytes -= segment.size
            self._rtx_done.discard(seq)
            self._sacked.discard(seq)
        del order[:acked]
        if candidate is not None and self.sim.now > candidate.sent_at:
            self.rtt.observe(self.sim.now - candidate.sent_at)
