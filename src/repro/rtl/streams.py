"""Word-level stimulus streams and their statistics.

The accuracy ladder of RT-level macro-models (Section II-C1) is driven
entirely by input statistics: average activity, per-bit activity,
sign-bit correlation, and signal probability.  This module generates
streams with controllable statistics and computes the statistics the
models consume.

Streams are plain lists of non-negative ints interpreted as ``width``-
bit words (two's complement for the signed generators), wrapped with
their width in :class:`WordStream`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import store as artifact_store
from repro.backend.core import resolve_engine

#: Streams below this many bits skip the artifact store entirely —
#: repacking is cheaper than a disk round trip.
_STORE_MIN_BITS = 1 << 15


@dataclass
class WordStream:
    """A sequence of ``width``-bit words.

    Packed representations (bit planes and the word-concatenated
    bignum, see :mod:`repro.rtl.faststreams`) are cached on the
    stream.  Appending or removing words invalidates the cache
    automatically (the cached length no longer matches); mutating a
    word *in place* requires an explicit :meth:`invalidate`.
    """

    words: List[int]
    width: int
    name: str = "stream"
    _cache: Dict[str, Tuple[int, int, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: Bumped by :meth:`invalidate`; part of every cache entry's
    #: validity, so invalidation can never be undone by restoring the
    #: stream to its old length.
    _version: int = field(default=0, init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        mask = (1 << self.width) - 1
        self.words = [w & mask for w in self.words]

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __getitem__(self, i):
        return self.words[i]

    def invalidate(self) -> None:
        """Drop *every* cached derivation after in-place edits.

        Clears all length-keyed entries — bit planes, the packed
        word, and the content :meth:`fingerprint` — and bumps the
        stream version so no stale entry can resurface (entries are
        validated against both length and version).  The fingerprint
        is the critical one: it keys the artifact-store bit-plane
        round trip and the estimator's packed-stimulus memo, so a
        stale fingerprint would serve another stream's cached lanes.
        """
        self._cache.clear()
        self._version += 1

    def _cached(self, key: str, build):
        entry = self._cache.get(key)
        if entry is not None and entry[0] == len(self.words) \
                and entry[1] == self._version:
            return entry[2]
        value = build()
        self._cache[key] = (len(self.words), self._version, value)
        return value

    def fingerprint(self) -> str:
        """Content hash of the stream (width + words, hex, stable).

        Keys the stream's packed representations in the
        content-addressed artifact store, same contract as
        :meth:`repro.logic.netlist.Circuit.fingerprint`: identical
        across copies, pickling, and process boundaries.
        """

        def build() -> str:
            nb = max(1, (self.width + 7) // 8)
            h = hashlib.sha256(
                f"stream/1:{self.width}:{len(self.words)}".encode())
            chunk = 4096
            for i in range(0, len(self.words), chunk):
                h.update(b"".join(
                    w.to_bytes(nb, "little")
                    for w in self.words[i:i + chunk]))
            return h.hexdigest()

        return self._cached("fingerprint", build)

    def bit_planes(self):
        """Cached bit-plane transpose (one bignum per bit lane).

        Long streams additionally round-trip through the
        content-addressed artifact store when a disk root is
        configured (``REPRO_STORE``), so bench subprocesses and
        server workers replaying a known stream skip the transpose.
        """
        from repro.rtl import faststreams

        def build():
            st = artifact_store.get_store()
            use_store = (st.root is not None
                         and len(self.words) * self.width
                         >= _STORE_MIN_BITS)
            if use_store:
                fp = self.fingerprint()
                payload = st.get(fp, "bitplanes")
                if payload is not None:
                    try:
                        if (int(payload["n"]) == len(self.words)
                                and int(payload["width"]) == self.width):
                            return faststreams.BitPlanes(
                                [int(h, 16) if h else 0
                                 for h in payload["lanes"]],
                                len(self.words), self.width)
                    except Exception:
                        pass
            planes = faststreams.pack_planes(self.words, self.width)
            if use_store:
                st.put(fp, "bitplanes", {
                    "n": planes.n,
                    "width": planes.width,
                    "lanes": [format(lane, "x") for lane in planes.lanes],
                })
            return planes

        return self._cached("planes", build)

    def packed_words(self) -> int:
        """Cached word-concatenated bignum at stride ``width``."""
        from repro.rtl import faststreams

        return self._cached(
            "packed",
            lambda: faststreams.pack_words(self.words, self.width))

    def bit(self, word: int, i: int) -> int:
        return (word >> i) & 1

    def bits_of(self, t: int) -> List[int]:
        return [(self.words[t] >> i) & 1 for i in range(self.width)]

    def as_vectors(self, prefix: str) -> List[Dict[str, int]]:
        """Per-cycle input dicts for a gate-level bus ``prefix``.

        The packed gate-level handoff (:func:`repro.logic.fastsim.
        pack_streams`) consumes :meth:`bit_planes` directly and skips
        this per-cycle dict materialization entirely.
        """
        return [{f"{prefix}{i}": (w >> i) & 1 for i in range(self.width)}
                for w in self.words]


def random_stream(width: int, length: int, seed: int = 0,
                  bit_prob: float = 0.5) -> WordStream:
    """Temporally independent words; each bit is 1 w.p. ``bit_prob``."""
    rng = random.Random(seed)
    words = []
    for _ in range(length):
        w = 0
        for i in range(width):
            if rng.random() < bit_prob:
                w |= 1 << i
        words.append(w)
    return WordStream(words, width, f"random(p={bit_prob})")


def correlated_stream(width: int, length: int, rho: float = 0.9,
                      seed: int = 0, amplitude: float = 0.6) -> WordStream:
    """AR(1) Gaussian process quantized to two's complement.

    This is the "speech-like" data of the dual-bit-type model [40]:
    strong lag-1 correlation makes the high-order (sign) bits switch
    rarely and together, while low-order bits stay essentially random.
    """
    rng = random.Random(seed)
    scale = amplitude * (1 << (width - 1))
    sigma = math.sqrt(max(1e-12, 1.0 - rho * rho))
    x = 0.0
    words = []
    top = (1 << (width - 1)) - 1
    for _ in range(length):
        x = rho * x + sigma * rng.gauss(0.0, 1.0)
        value = int(max(-top - 1, min(top, round(x * scale / 3.0))))
        words.append(value & ((1 << width) - 1))
    return WordStream(words, width, f"ar1(rho={rho})")


def sinusoid_stream(width: int, length: int, period: float = 64.0,
                    amplitude: float = 0.9, phase: float = 0.0
                    ) -> WordStream:
    """Deterministic sinusoid, the classic DSP stimulus."""
    top = (1 << (width - 1)) - 1
    words = []
    for t in range(length):
        value = int(round(amplitude * top
                          * math.sin(2 * math.pi * t / period + phase)))
        words.append(value & ((1 << width) - 1))
    return WordStream(words, width, f"sin(T={period})")


def constant_stream(width: int, length: int, value: int = 0) -> WordStream:
    return WordStream([value] * length, width, f"const({value})")


def counter_stream(width: int, length: int, start: int = 0,
                   stride: int = 1) -> WordStream:
    """Arithmetic sequence (sequential addresses for bus-code studies)."""
    return WordStream([start + stride * t for t in range(length)], width,
                      f"count(+{stride})")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
# Each statistic keeps its scalar loop as the ``engine="reference"``
# cross-check; the fast engine (the default) runs on the cached bit
# planes (one popcount per lane) with bit-identical results — the
# integer counts are equal, and the derived rates are the same
# integers through the same final division.

def bit_activities(stream: WordStream, engine: Optional[str] = None
                   ) -> List[float]:
    """Per-bit toggles per cycle (E_i of the bitwise macro-model).

    Streams of length <= 1 have no transitions: all-zero activities.
    """
    if len(stream) < 2:
        return [0.0] * stream.width
    if resolve_engine(engine) == "fast":
        from repro.rtl import faststreams

        counts = faststreams.toggle_counts(stream.bit_planes())
    else:
        counts = _bit_toggle_counts_reference(stream)
    return [c / (len(stream) - 1) for c in counts]


def _bit_toggle_counts_reference(stream: WordStream) -> List[int]:
    counts = [0] * stream.width
    for prev, cur in zip(stream.words, stream.words[1:]):
        diff = prev ^ cur
        for i in range(stream.width):
            if (diff >> i) & 1:
                counts[i] += 1
    return counts


def average_activity(stream: WordStream,
                     engine: Optional[str] = None) -> float:
    acts = bit_activities(stream, engine=engine)
    return sum(acts) / len(acts) if acts else 0.0


def bit_probabilities(stream: WordStream, engine: Optional[str] = None
                      ) -> List[float]:
    if not len(stream):
        return [0.0] * stream.width
    if resolve_engine(engine) == "fast":
        from repro.rtl import faststreams

        counts = faststreams.one_counts(stream.bit_planes())
    else:
        counts = _bit_one_counts_reference(stream)
    return [c / len(stream) for c in counts]


def _bit_one_counts_reference(stream: WordStream) -> List[int]:
    counts = [0] * stream.width
    for w in stream.words:
        for i in range(stream.width):
            if (w >> i) & 1:
                counts[i] += 1
    return counts


def _entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bit_entropy(stream: WordStream) -> float:
    """Average per-bit entropy, the upper bound h of Section II-B1."""
    probs = bit_probabilities(stream)
    if not probs:
        return 0.0
    return sum(_entropy(p) for p in probs) / len(probs)


def word_entropy(stream: WordStream) -> float:
    """Empirical word-level (sectional) entropy of the stream."""
    if not len(stream):
        return 0.0
    counts: Dict[int, int] = {}
    for w in stream.words:
        counts[w] = counts.get(w, 0) + 1
    n = len(stream)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def sign_transition_counts(stream: WordStream,
                           engine: Optional[str] = None
                           ) -> Dict[str, int]:
    """Counts of sign transitions ++, +-, -+, -- (DBT model inputs)."""
    sign_bit = stream.width - 1
    counts = {"++": 0, "+-": 0, "-+": 0, "--": 0}
    if len(stream) < 2:
        return counts
    n = len(stream)
    if resolve_engine(engine) == "fast":
        from repro.util.bits import popcount

        # Bit t of the sign lane is the sign of word t; shifting by
        # one aligns each word's sign with its successor's.
        lane = stream.bit_planes().lanes[sign_bit]
        mask = (1 << (n - 1)) - 1
        nxt = lane >> 1
        counts["--"] = popcount(lane & nxt & mask)
        counts["-+"] = popcount(lane & ~nxt & mask)
        counts["+-"] = popcount(~lane & nxt & mask)
        counts["++"] = (n - 1) - counts["--"] - counts["-+"] \
            - counts["+-"]
        return counts
    for prev, cur in zip(stream.words, stream.words[1:]):
        a = "-" if (prev >> sign_bit) & 1 else "+"
        b = "-" if (cur >> sign_bit) & 1 else "+"
        counts[a + b] += 1
    return counts


def lag1_correlation(stream: WordStream) -> float:
    """Lag-1 autocorrelation of the signed word values."""
    if len(stream) < 3:
        return 0.0
    half = 1 << (stream.width - 1)
    values = [w - (w & half) * 2 for w in stream.words]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    if var == 0:
        return 0.0
    cov = sum((values[t] - mean) * (values[t + 1] - mean)
              for t in range(n - 1)) / (n - 1)
    return cov / var


def breakpoints(stream: WordStream, threshold: float = 0.1
                ) -> int:
    """DBT boundary: first bit (from MSB) whose activity is 'random'.

    Returns the index of the lowest sign-region bit; bits below it are
    treated as white noise, bits at or above as sign bits [40].
    """
    acts = bit_activities(stream)
    random_level = 0.5
    boundary = stream.width
    for i in reversed(range(stream.width)):
        if abs(acts[i] - random_level) <= threshold * random_level:
            boundary = i + 1
            break
        boundary = i
    return boundary
