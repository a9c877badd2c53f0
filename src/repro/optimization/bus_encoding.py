"""Bus encoding for low power (Section III-G).

Encoders transform the word stream driven onto a bus so fewer lines
toggle; the receiving end inverts the transform.  Implemented codes:

- :class:`BinaryCode`      -- unencoded baseline,
- :class:`BusInvertCode`   -- Stan-Burleson bus-invert [77]: invert
  the word when Hamming distance > N/2 (one redundant INV line;
  guarantees <= N/2 + 1 transitions per cycle counting INV),
- :class:`GrayCode`        -- Gray-mapped addresses [78]: one
  transition per consecutive address,
- :class:`T0Code`          -- freeze the bus on in-sequence addresses
  and let the receiver increment (redundant INC line) [80],
- :class:`T0BusInvertCode` -- T0 composed with bus-invert [81],
- :class:`WorkingZoneCode` -- per-zone reference registers with
  one-hot zone announcement and Gray-coded offsets [82],
- :class:`BeachCode`       -- trace-driven cluster re-encoding [83]:
  bus lines are clustered by pairwise correlation on a training
  trace and each cluster's value stream is re-mapped (most frequent
  transition pairs at Hamming distance 1).

Every encoder is exercised through :func:`count_transitions`, and each
decodes back to the original stream (``decode``), which the tests
verify — the codes are real, not just transition counters.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend.core import resolve_engine
from repro.rtl import faststreams
from repro.rtl.streams import WordStream
from repro.util.bits import hamming


class BusCode:
    """Stateful encoder/decoder pair for an N-bit bus.

    ``stateless = True`` marks purely combinational codes (the bus
    value depends only on the current word): their transition counts
    can be evaluated on the packed word-stream path.
    """

    name = "base"
    extra_lines = 0
    stateless = False

    def __init__(self, width: int) -> None:
        self.width = width

    def reset(self) -> None:
        """Reset transmitter and receiver state."""

    def encode(self, word: int) -> int:
        """Bus value (data lines plus any redundant lines as MSBs)."""
        raise NotImplementedError

    def decode(self, bus_value: int) -> int:
        """Receiver's reconstruction of the original word."""
        raise NotImplementedError

    @property
    def total_lines(self) -> int:
        return self.width + self.extra_lines


class BinaryCode(BusCode):
    name = "binary"
    stateless = True

    def encode(self, word: int) -> int:
        return word

    def decode(self, bus_value: int) -> int:
        return bus_value


class BusInvertCode(BusCode):
    name = "bus-invert"
    extra_lines = 1

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self._bus = 0

    def reset(self) -> None:
        self._bus = 0

    def encode(self, word: int) -> int:
        mask = (1 << self.width) - 1
        prev_data = self._bus & mask
        if hamming(prev_data, word) > self.width // 2:
            value = (~word & mask) | (1 << self.width)
        else:
            value = word
        self._bus = value
        return value

    def decode(self, bus_value: int) -> int:
        mask = (1 << self.width) - 1
        data = bus_value & mask
        if bus_value >> self.width:
            return ~data & mask
        return data


class PartitionedBusInvertCode(BusCode):
    """Bus-invert applied per partition of the bus lines [77].

    Stan-Burleson note that for wide busses the single-INV decision
    dilutes: partitioning into independent groups, each with its own
    INV line, recovers most of the loss at k extra lines.
    """

    name = "partitioned-bi"

    def __init__(self, width: int, partitions: int = 2) -> None:
        super().__init__(width)
        self.partitions = partitions
        self.extra_lines = partitions
        bounds = [round(i * width / partitions)
                  for i in range(partitions + 1)]
        self._groups = [(bounds[i], bounds[i + 1])
                        for i in range(partitions)]
        self._subcodes = [BusInvertCode(hi - lo)
                          for lo, hi in self._groups]

    def reset(self) -> None:
        for code in self._subcodes:
            code.reset()

    def encode(self, word: int) -> int:
        value = 0
        inv_bits = 0
        for g, ((lo, hi), code) in enumerate(zip(self._groups,
                                                 self._subcodes)):
            chunk = (word >> lo) & ((1 << (hi - lo)) - 1)
            encoded = code.encode(chunk)
            data = encoded & ((1 << (hi - lo)) - 1)
            inv = encoded >> (hi - lo)
            value |= data << lo
            inv_bits |= inv << g
        return value | (inv_bits << self.width)

    def decode(self, bus_value: int) -> int:
        word = 0
        inv_bits = bus_value >> self.width
        for g, ((lo, hi), code) in enumerate(zip(self._groups,
                                                 self._subcodes)):
            chunk = (bus_value >> lo) & ((1 << (hi - lo)) - 1)
            sub_value = chunk | (((inv_bits >> g) & 1) << (hi - lo))
            word |= code.decode(sub_value) << lo
        return word


def to_gray(word: int) -> int:
    return word ^ (word >> 1)


def from_gray(gray: int) -> int:
    word = 0
    while gray:
        word ^= gray
        gray >>= 1
    return word


class GrayCode(BusCode):
    name = "gray"
    stateless = True

    def encode(self, word: int) -> int:
        return to_gray(word & ((1 << self.width) - 1))

    def decode(self, bus_value: int) -> int:
        return from_gray(bus_value)


class T0Code(BusCode):
    name = "t0"
    extra_lines = 1

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self.reset()

    def reset(self) -> None:
        self._last_sent = 0           # data lines currently on the bus
        self._tx_expected: Optional[int] = None
        self._rx_last: Optional[int] = None

    def encode(self, word: int) -> int:
        mask = (1 << self.width) - 1
        word &= mask
        if self._tx_expected is not None and word == self._tx_expected:
            value = self._last_sent | (1 << self.width)   # INC high
        else:
            value = word
            self._last_sent = word
        self._tx_expected = (word + 1) & mask
        return value

    def decode(self, bus_value: int) -> int:
        mask = (1 << self.width) - 1
        inc = bus_value >> self.width
        if inc and self._rx_last is not None:
            self._rx_last = (self._rx_last + 1) & mask
        else:
            self._rx_last = bus_value & mask
        return self._rx_last


class T0BusInvertCode(BusCode):
    """T0 for in-sequence addresses, bus-invert otherwise [81]."""

    name = "t0-bi"
    extra_lines = 2

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self.reset()

    def reset(self) -> None:
        self._bus_data = 0
        self._tx_expected: Optional[int] = None
        self._rx_last: Optional[int] = None

    def encode(self, word: int) -> int:
        mask = (1 << self.width) - 1
        word &= mask
        if self._tx_expected is not None and word == self._tx_expected:
            value = self._bus_data | (1 << self.width)    # INC line
        else:
            if hamming(self._bus_data, word) > self.width // 2:
                data = ~word & mask
                value = data | (1 << (self.width + 1))    # INV line
            else:
                data = word
                value = data
            self._bus_data = value & mask
        self._tx_expected = (word + 1) & mask
        return value

    def decode(self, bus_value: int) -> int:
        mask = (1 << self.width) - 1
        inc = (bus_value >> self.width) & 1
        inv = (bus_value >> (self.width + 1)) & 1
        if inc and self._rx_last is not None:
            self._rx_last = (self._rx_last + 1) & mask
        else:
            data = bus_value & mask
            self._rx_last = (~data & mask) if inv else data
        return self._rx_last


class WorkingZoneCode(BusCode):
    """Working-zone encoding [82].

    The receiver keeps ``n_zones`` reference registers.  A hit in zone
    z transmits the Gray-coded offset on the data lines with a one-hot
    zone announcement on ``n_zones`` extra lines (offset relative to
    the zone's reference, which both sides then update).  A miss
    transmits the full address with all zone lines low, replacing the
    least-recently-used zone.
    """

    name = "working-zone"

    def __init__(self, width: int, n_zones: int = 2,
                 offset_bits: int = 4) -> None:
        super().__init__(width)
        self.n_zones = n_zones
        self.offset_bits = offset_bits
        self.extra_lines = n_zones
        self.reset()

    def reset(self) -> None:
        self._tx_refs: List[Optional[int]] = [None] * self.n_zones
        self._rx_refs: List[Optional[int]] = [None] * self.n_zones
        self._tx_lru: List[int] = list(range(self.n_zones))
        self._rx_lru: List[int] = list(range(self.n_zones))

    def _find_zone(self, refs: Sequence[Optional[int]],
                   word: int) -> Optional[int]:
        limit = 1 << self.offset_bits
        for z, ref in enumerate(refs):
            if ref is not None and 0 <= word - ref < limit:
                return z
        return None

    @staticmethod
    def _touch(lru: List[int], zone: int) -> None:
        lru.remove(zone)
        lru.append(zone)

    def encode(self, word: int) -> int:
        mask = (1 << self.width) - 1
        word &= mask
        zone = self._find_zone(self._tx_refs, word)
        if zone is not None:
            offset = word - self._tx_refs[zone]          # type: ignore
            value = to_gray(offset) | (1 << (self.width + zone))
            self._tx_refs[zone] = word                    # ref follows
            self._touch(self._tx_lru, zone)
            return value
        victim = self._tx_lru[0]
        self._tx_refs[victim] = word
        self._touch(self._tx_lru, victim)
        return word

    def decode(self, bus_value: int) -> int:
        mask = (1 << self.width) - 1
        zone_bits = bus_value >> self.width
        if zone_bits:
            zone = zone_bits.bit_length() - 1
            offset = from_gray(bus_value & mask)
            word = ((self._rx_refs[zone] or 0) + offset) & mask
            self._rx_refs[zone] = word
            self._touch(self._rx_lru, zone)
            return word
        word = bus_value & mask
        # Mirror the transmitter's LRU replacement.
        victim = self._rx_lru[0]
        self._rx_refs[victim] = word
        self._touch(self._rx_lru, victim)
        return word


class BeachCode(BusCode):
    """Trace-driven clustered re-encoding [83].

    Training: bus lines are grouped into clusters of up to
    ``cluster_bits`` lines by pairwise correlation of their bit
    streams; within each cluster, observed values are re-encoded so
    that the most frequent consecutive value pairs sit at Hamming
    distance 1 (a greedy embedding of the cluster's transition graph
    into the code hypercube).  The resulting per-cluster permutations
    are fixed combinational encode/decode functions, as in the paper.
    """

    name = "beach"
    stateless = True

    def __init__(self, width: int, cluster_bits: int = 4) -> None:
        super().__init__(width)
        self.cluster_bits = cluster_bits
        self.clusters: List[List[int]] = [
            list(range(i, min(i + cluster_bits, width)))
            for i in range(0, width, cluster_bits)
        ]
        self.maps: List[Dict[int, int]] = [
            {v: v for v in range(1 << len(c))} for c in self.clusters]
        self.inverse: List[Dict[int, int]] = [dict(m) for m in self.maps]

    # -- training ------------------------------------------------------
    def train(self, trace: Sequence[int]) -> None:
        self.clusters = self._cluster_lines(trace)
        self.maps = []
        self.inverse = []
        for cluster in self.clusters:
            values = [self._extract(word, cluster) for word in trace]
            mapping = self._embed(values, len(cluster))
            # Validate on the training trace: an uncorrelated cluster
            # gains nothing from re-mapping, so keep it unencoded
            # (fewer XOR stages at the bus terminals, too).
            plain = faststreams.transition_count(values, len(cluster))
            mapped = faststreams.transition_count(
                [mapping[v] for v in values], len(cluster))
            if mapped >= 0.9 * plain:
                mapping = {v: v for v in range(1 << len(cluster))}
            self.maps.append(mapping)
            self.inverse.append({v: k for k, v in mapping.items()})

    def _cluster_lines(self, trace: Sequence[int]) -> List[List[int]]:
        planes = faststreams.pack_planes(trace, self.width)
        counts = faststreams.one_counts(planes)
        n = len(trace)
        # Packed lane–lane correlation (one popcount per lane pair)
        # replaces the n x width float matrix of the reference path.
        # Constant lines have no variance and correlate exactly 0.
        corr = np.abs(faststreams.correlation_matrix(planes))
        # With constant lines in the trace, the surviving entries of
        # their rows sit at the sampling-noise floor (~1/sqrt(n)), and
        # letting that noise steer the greedy growth splits genuinely
        # co-varying groups.  Zero out sub-significance correlations
        # and break ties toward adjacent bus lines — the locality bias
        # of the Beach clustering itself — so the result is
        # deterministic.
        degenerate = n > 0 and any(c in (0, n) for c in counts)
        sig = 2.0 / math.sqrt(n) if n else 0.0
        unassigned = set(range(self.width))
        clusters: List[List[int]] = []
        while unassigned:
            seed_line = max(unassigned)
            cluster = [seed_line]
            unassigned.discard(seed_line)
            while len(cluster) < self.cluster_bits and unassigned:
                if degenerate:
                    def _key(j):
                        peak = max(corr[j][k] for k in cluster)
                        if peak < sig:
                            peak = 0.0
                        return (peak,
                                -min(abs(j - k) for k in cluster), j)
                else:
                    def _key(j):
                        return max(corr[j][k] for k in cluster)
                best = max(unassigned, key=_key)
                cluster.append(best)
                unassigned.discard(best)
            clusters.append(sorted(cluster))
        return clusters

    @staticmethod
    def _extract(word: int, cluster: Sequence[int]) -> int:
        value = 0
        for pos, line in enumerate(cluster):
            value |= ((word >> line) & 1) << pos
        return value

    @staticmethod
    def _insert(value: int, cluster: Sequence[int]) -> int:
        word = 0
        for pos, line in enumerate(cluster):
            word |= ((value >> pos) & 1) << line
        return word

    def _embed(self, values: Sequence[int], n_bits: int) -> Dict[int, int]:
        """Greedy low-switching re-encoding of a cluster value stream."""
        pairs = Counter(zip(values, values[1:]))
        frequency = Counter(values)
        mapping: Dict[int, int] = {}
        free = set(range(1 << n_bits))
        # Place values in decreasing frequency; each next to the code
        # minimizing weighted distance to already-placed partners.
        for value, _count in frequency.most_common():
            if not mapping:
                code = 0
            else:
                def cost(candidate: int) -> float:
                    total = 0.0
                    for other, other_code in mapping.items():
                        w = pairs.get((value, other), 0) \
                            + pairs.get((other, value), 0)
                        if w:
                            total += w * hamming(candidate, other_code)
                    return total
                code = min(free, key=cost)
            mapping[value] = code
            free.discard(code)
        # Unseen values map to remaining codes (identity-ish order).
        for value in range(1 << n_bits):
            if value not in mapping:
                mapping[value] = min(free)
                free.discard(mapping[value])
        return mapping

    # -- coding --------------------------------------------------------
    def encode(self, word: int) -> int:
        out = 0
        for cluster, mapping in zip(self.clusters, self.maps):
            out |= self._insert(mapping[self._extract(word, cluster)],
                                cluster)
        return out

    def decode(self, bus_value: int) -> int:
        out = 0
        for cluster, inverse in zip(self.clusters, self.inverse):
            out |= self._insert(inverse[self._extract(bus_value, cluster)],
                                cluster)
        return out


# ----------------------------------------------------------------------
# Evaluation harness
# ----------------------------------------------------------------------

@dataclass
class BusReport:
    code: str
    transitions: int
    cycles: int
    lines: int

    @property
    def per_cycle(self) -> float:
        return self.transitions / max(1, self.cycles - 1)


def count_transitions(code: BusCode, stream: WordStream,
                      check_decode: bool = True,
                      engine: Optional[str] = None) -> BusReport:
    """Drive the stream through the code; count bus-line transitions.

    Stateless (combinational) codes take the packed path on the fast
    engine: the encoded word list is counted with one shifted-xor
    popcount instead of a per-cycle Hamming loop.  Stateful codes
    always run the scalar reference loop (their encode order *is* the
    state).  Both engines return identical counts.
    """
    code.reset()
    mask = (1 << code.width) - 1
    if resolve_engine(engine) == "fast" and code.stateless:
        encoded = [code.encode(word) for word in stream.words]
        if check_decode:
            for word, bus_value in zip(stream.words, encoded):
                decoded = code.decode(bus_value)
                if decoded != word & mask:
                    raise AssertionError(
                        f"{code.name}: decode mismatch "
                        f"{decoded} != {word}")
        transitions = faststreams.transition_count(encoded,
                                                   code.total_lines)
        return BusReport(code.name, transitions, len(stream.words),
                         code.total_lines)
    prev: Optional[int] = None
    transitions = 0
    for word in stream.words:
        bus_value = code.encode(word)
        if check_decode:
            decoded = code.decode(bus_value)
            if decoded != word & mask:
                raise AssertionError(
                    f"{code.name}: decode mismatch {decoded} != {word}")
        if prev is not None:
            transitions += hamming(prev, bus_value)
        prev = bus_value
    return BusReport(code.name, transitions, len(stream.words),
                     code.total_lines)


def _count_job(code: BusCode, ctx) -> BusReport:
    """Search-pool job: transition count for one candidate code."""
    return count_transitions(code, ctx.stimulus("stream"),
                             check_decode=ctx.extras["check_decode"],
                             engine=ctx.engine)


def default_survey_codes(width: int,
                         stream: Optional[WordStream] = None,
                         train_prefix: int = 800) -> List[BusCode]:
    """The standard candidate set for :func:`survey_codes`.

    One instance of every implemented code; the Beach code is trained
    on the first ``train_prefix`` words of ``stream`` when given (its
    clustering needs representative traffic before encoding).
    """
    beach = BeachCode(width)
    if stream is not None and stream.words:
        beach.train(stream.words[:train_prefix])
    return [BinaryCode(width), BusInvertCode(width), GrayCode(width),
            T0Code(width), T0BusInvertCode(width),
            WorkingZoneCode(width, n_zones=4, offset_bits=4), beach]


def survey_codes(stream: WordStream,
                 codes: Optional[Sequence[BusCode]] = None,
                 check_decode: bool = True,
                 engine: Optional[str] = None
                 ) -> List[BusReport]:
    """Count transitions for every candidate code over one stream.

    The scheme-survey candidate loop: each code is an independent
    candidate of one walk
    (:func:`repro.optimization.search.evaluate_candidates`).  Reports
    come back in code order, identical to calling
    :func:`count_transitions` per code.
    """
    from repro.optimization import search

    if codes is None:
        codes = default_survey_codes(stream.width, stream)
    return search.evaluate_candidates(
        _count_job, list(codes),
        stimuli={"stream": stream},
        extras={"check_decode": check_decode},
        engine=engine, label="bus_encoding")


# ----------------------------------------------------------------------
# Address stream generators
# ----------------------------------------------------------------------

def sequential_addresses(width: int, length: int,
                         start: int = 0) -> WordStream:
    return WordStream([start + t for t in range(length)], width,
                      "sequential")


def interleaved_array_addresses(width: int, length: int,
                                n_arrays: int = 3, seed: int = 0,
                                base_stride: int = 256) -> WordStream:
    """Interleaved sequential accesses to several arrays (working
    zones): the pattern Gray/T0 lose on and working-zone wins on."""
    rng = random.Random(seed)
    offsets = [0] * n_arrays
    bases = [k * base_stride for k in range(n_arrays)]
    words = []
    for _t in range(length):
        k = rng.randrange(n_arrays)
        words.append(bases[k] + offsets[k])
        offsets[k] = (offsets[k] + 1) % (base_stride // 2)
    return WordStream(words, width, f"interleaved({n_arrays})")


def random_addresses(width: int, length: int, seed: int = 0) -> WordStream:
    rng = random.Random(seed)
    return WordStream([rng.randrange(1 << width) for _ in range(length)],
                      width, "random")


def correlated_block_addresses(width: int, length: int, seed: int = 0,
                               blocks: int = 4) -> WordStream:
    """Addresses whose high lines exhibit block correlation (the Beach
    code's target): a few hot regions with locally varying low bits."""
    rng = random.Random(seed)
    region_bits = max(2, width - 6)
    regions = [rng.randrange(1 << region_bits) << 6
               for _ in range(blocks)]
    words = []
    region = regions[0]
    for _t in range(length):
        if rng.random() < 0.05:
            region = rng.choice(regions)
        words.append(region | rng.randrange(1 << 4))
    return WordStream(words, width, "block-correlated")
