"""The SACK scoreboard of ``PacketTcpConnection`` against a scanning
reference.

The sender keeps pipe, SACK marking, the RTT sample and the next lost
segment without rescanning every outstanding segment.  The reference
functions below are the scanning versions, written straight from
RFC 6675: pipe sums every unacked, unSACKed segment that is not a lost
hole awaiting retransmission; a hole is lost when it ends at or below
the highest SACKed byte, or after an RTO.  A probe connection runs both
on the same state and fails on the first disagreement.

Byte counts here are whole or quarter bytes, as on the real paths, so
every sum the reference and the sender form is exact in floating point
and the comparison can be ``==``.
"""

import random
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import PiecewiseTraceCapacity
from repro.packet.link import PacketLink, Segment
from repro.packet.tcp import PacketTcpConnection
from repro.sim.engine import Simulator
from repro.tcp.rtt import RttEstimator
from repro.units import mbps_to_bytes_per_sec

# -- the scanning reference ---------------------------------------------


def ref_is_lost(conn, seq: float) -> bool:
    if seq in conn._sacked:
        return False
    if conn._all_lost:
        return True
    return seq + conn._segments[seq].size <= conn._highest_sacked


def ref_pipe(conn) -> float:
    pipe = 0.0
    for seq in conn._order:
        if seq in conn._sacked:
            continue
        if ref_is_lost(conn, seq) and seq not in conn._rtx_done:
            continue
        pipe += conn._segments[seq].size
    return pipe


def ref_absorb_sacks(conn, sacks):
    """The SACKed set and highest SACK after ``sacks``, from a copy."""
    sacked, highest = set(conn._sacked), conn._highest_sacked
    for start, end in sacks:
        highest = max(highest, end)
        for seq in conn._order:
            if seq in sacked:
                continue
            if start <= seq and seq + conn._segments[seq].size <= end:
                sacked.add(seq)
    return sacked, highest


def ref_rtt_candidate(conn, ack_no: float) -> Optional[Segment]:
    candidate = None
    for seq, segment in list(conn._segments.items()):
        if seq + segment.size <= ack_no and not segment.retransmit:
            if candidate is None or segment.sent_at > candidate.sent_at:
                candidate = segment
    return candidate


def ref_next_lost(conn, force_first: bool) -> Optional[float]:
    """The segment the scanning sender would retransmit next."""
    for seq in conn._order:
        forced = force_first and seq == conn.snd_una
        if not conn._all_lost and seq >= conn._highest_sacked and not forced:
            return None
        if seq in conn._sacked or seq in conn._rtx_done:
            continue
        if ref_is_lost(conn, seq) or forced:
            return seq
    return None


# -- the probe ------------------------------------------------------------


class RecordingRtt(RttEstimator):
    def __init__(self):
        super().__init__()
        self.samples: List[float] = []

    def observe(self, sample: float) -> None:
        self.samples.append(sample)
        super().observe(sample)


class Probe(PacketTcpConnection):
    """Checks every scoreboard step against the reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rtt = RecordingRtt()
        self.acks = 0
        # How often each hard case was met: pipe after an RTO, with the
        # highest SACK below snd_una, and with the forced retransmission
        # above the highest SACK; a retransmitted segment later SACKed.
        self.pipes_all_lost = 0
        self.pipes_stale_hs = 0
        self.pipes_forced_above = 0
        self.rtx_sacked = 0
        self._chosen: Optional[float] = None

    def _pipe(self) -> float:
        got = super()._pipe()
        assert got == ref_pipe(self), (self.sim.now, got, ref_pipe(self))
        first = self._segments.get(self.snd_una)
        if self._all_lost:
            self.pipes_all_lost += 1
        elif first is not None and first.seq + first.size > self._highest_sacked:
            self.pipes_stale_hs += self._highest_sacked < self.snd_una
            self.pipes_forced_above += first.seq in self._rtx_done
        return got

    def _on_ack(self, ack_no, sacks=()):
        super()._on_ack(ack_no, sacks)
        self.acks += 1
        self._pipe()

    def _absorb_sacks(self, sacks):
        want_sacked, want_highest = ref_absorb_sacks(self, sacks)
        before = set(self._sacked)
        super()._absorb_sacks(sacks)
        self.rtx_sacked += len((self._sacked - before) & self._rtx_done)
        assert self._sacked == want_sacked
        assert self._highest_sacked == want_highest

    def _drop_acked(self, ack_no):
        candidate = ref_rtt_candidate(self, ack_no)
        want = []
        if candidate is not None and self.sim.now - candidate.sent_at > 0:
            want = [self.sim.now - candidate.sent_at]
        before = len(self.rtt.samples)
        super()._drop_acked(ack_no)
        assert self.rtt.samples[before:] == want

    def _retransmit_next_lost(self, force_first=False):
        want = ref_next_lost(self, force_first)
        self._chosen = None
        outcome = super()._retransmit_next_lost(force_first)
        assert self._chosen == want
        assert (outcome is None) == (want is None)
        return outcome

    def _retransmit(self, seq):
        self._chosen = seq
        return super()._retransmit(seq)


def drive(size_bytes, mss, loss, buffer_bytes, mbps, seed, drop=None) -> Probe:
    """One transfer over a lossy link, fully checked.  ``drop`` is
    ``(at_s, mbps)``: the capacity falls then, so the queue outgrows the
    RTO and spurious retransmissions come back as SACKs and duplicates."""
    sim = Simulator()
    trace = [(0.0, mbps_to_bytes_per_sec(mbps))]
    if drop is not None:
        trace.append((drop[0], mbps_to_bytes_per_sec(drop[1])))
    link = PacketLink(
        sim,
        PiecewiseTraceCapacity(trace),
        one_way_delay=0.02,
        buffer_bytes=buffer_bytes,
        loss_rate=loss,
        rng=random.Random(seed),
    )
    assigned = [0.0]

    def assign(max_bytes):
        left = size_bytes - assigned[0]
        if left <= 0:
            return None
        chunk = min(max_bytes, left)
        assigned[0] += chunk
        return assigned[0] - chunk, chunk

    received = []
    conn = Probe(sim, link, assign, lambda dsn, size: received.append(size), mss=mss)
    conn.start()
    sim.run(until=5_000.0, max_events=5_000_000)
    assert sum(received) == size_bytes
    assert conn.snd_una == size_bytes
    return conn


@settings(max_examples=40, deadline=None)
@given(
    size_bytes=st.integers(min_value=1, max_value=500_000).map(
        lambda n: n / 4.0 if n % 3 == 0 else float(n)
    ),
    mss=st.sampled_from([536.0, 1000.0, 1448.0]),
    loss=st.floats(min_value=0.0, max_value=0.15),
    buffer_segments=st.integers(min_value=2, max_value=160),
    mbps=st.floats(min_value=1.0, max_value=40.0),
    drop=st.none() | st.tuples(
        st.floats(min_value=0.01, max_value=0.4), st.floats(min_value=0.3, max_value=2.0)
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_scoreboard_matches_reference(
    size_bytes, mss, loss, buffer_segments, mbps, drop, seed
):
    drive(size_bytes, mss, loss, buffer_segments * mss, mbps, seed, drop)


def test_reference_cases_are_reached():
    """Fixed transfers that reach each hard case: forced first
    retransmission (also above the highest SACK), post-RTO recovery with
    every unSACKed segment lost, a highest SACK left below ``snd_una``,
    and a retransmitted segment SACKed afterwards."""
    conns = [
        drive(300_000.0, 1448.0, loss, 6 * 1448.0, 20.0, seed)
        for loss in (0.02, 0.1)
        for seed in range(3)
    ]
    conns += [
        drive(500_000.0, 1448.0, 0.01, 160 * 1448.0, 4.0, 104, drop=(0.15, 0.5)),
        drive(500_000.0, 1448.0, 0.03, 80 * 1448.0, 8.0, 153, drop=(0.272, 0.5)),
    ]
    assert sum(c.acks for c in conns) > 1000
    assert sum(c.fast_retransmits for c in conns) > 0
    assert sum(c.timeouts for c in conns) > 0
    assert sum(c.pipes_all_lost for c in conns) > 0
    assert sum(c.pipes_stale_hs for c in conns) > 0
    assert sum(c.pipes_forced_above for c in conns) > 0
    assert sum(c.rtx_sacked for c in conns) > 0
