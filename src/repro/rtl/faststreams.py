"""Bit-plane word-stream engine: packed statistics and vectorized
switched-activity costs.

Every word-level technique in the survey — RT-level macro-model
characterization (II-C1), bus encoding (III-G), register/FU
allocation, memory mapping and FSM encoding cost functions (III-H) —
consumes the same handful of primitives over word streams: per-bit
activities and probabilities, Hamming transition counts, pairwise
toggle matrices, lane–lane correlations, and probability-weighted
Hamming objectives.  The scalar reference implementations walk Python
lists word by word and bit by bit; this module evaluates whole streams
per primitive operation, the same batching idea that powers the
compiled gate-level engines (:mod:`repro.logic.fastsim`,
:mod:`repro.logic.fasttimer`) and the hardware-accelerated estimators
they are modeled on.

Two packed representations, both arbitrary-precision Python integers
so a single C-level operation touches the whole stream:

- **bit planes** (:class:`BitPlanes`): one bignum per bit lane, bit
  ``t`` of lane ``i`` is bit ``i`` of word ``t``.  Per-bit statistics
  are one shift/xor/popcount per lane.
- **word-packed** (:func:`pack_words`): the words concatenated at a
  fixed stride, so the total Hamming distance between two streams is
  a single ``popcount(a ^ b)`` and the within-stream transition count
  is ``popcount((p ^ (p >> width)) & mask)``.

Both representations are cached on :class:`~repro.rtl.streams.WordStream`
(see ``WordStream.bit_planes`` / ``WordStream.packed_words``) and
invalidated on mutation.  Every kernel here is numerically identical
to its scalar reference for integer counts (and identical after the
same final division for the derived rates); the float-weighted
objectives (:func:`weighted_hamming`, :func:`correlation_matrix`)
agree to float round-off.  ``tests/test_faststreams.py`` cross-checks
all of them property-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.util.bits import popcount

__all__ = [
    "BitPlanes", "pack_planes", "pack_words",
    "one_counts", "toggle_counts",
    "transition_count", "cross_hamming", "pairwise_hamming_matrix",
    "correlation_matrix", "popcount_array", "weighted_hamming",
    "lane_transition_probs",
]


# ----------------------------------------------------------------------
# Packed representations
# ----------------------------------------------------------------------

@dataclass
class BitPlanes:
    """A word stream transposed into per-bit-lane bignums.

    ``lanes[i]`` holds bit ``i`` of every word: bit ``t`` of the lane
    is ``(words[t] >> i) & 1``.  ``n`` is the stream length in cycles.
    """

    lanes: List[int]
    n: int
    width: int


def pack_planes(words: Sequence[int], width: int) -> BitPlanes:
    """Transpose ``words`` into one bignum per bit lane."""
    with obs.span("faststreams.pack_planes", words=len(words),
                  width=width):
        obs.inc("faststreams.pack_planes")
        if width <= 64:
            return _pack_planes_numpy(words, width)
        lanes = [0] * width
        bit = 1
        for w in words:
            while w:
                lsb = w & -w
                lanes[lsb.bit_length() - 1] |= bit
                w ^= lsb
            bit <<= 1
        return BitPlanes(lanes, len(words), width)


def _pack_planes_numpy(words: Sequence[int], width: int) -> BitPlanes:
    arr = np.asarray(words, dtype=np.uint64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    lanes = []
    one = np.uint64(1)
    for i in range(width):
        bits = ((arr >> np.uint64(i)) & one).astype(np.uint8)
        lanes.append(int.from_bytes(
            np.packbits(bits, bitorder="little").tobytes(), "little"))
    return BitPlanes(lanes, len(words), width)


def pack_words(words: Sequence[int], width: int) -> int:
    """Concatenate ``words`` into one bignum at stride ``width``.

    Bits ``[t * width, (t + 1) * width)`` of the result hold word
    ``t``, so stream-level Hamming arithmetic becomes single bignum
    operations.  Words must already be masked to ``width`` bits
    (``WordStream.__post_init__`` guarantees this).
    """
    with obs.span("faststreams.pack_words", words=len(words),
                  width=width):
        obs.inc("faststreams.pack_words")
        if not words:
            return 0
        if width <= 64 and width % 8 == 0:
            arr = np.asarray(words, dtype=np.uint64)
            raw = np.frombuffer(arr.astype("<u8").tobytes(),
                                dtype=np.uint8)
            return int.from_bytes(
                raw.reshape(-1, 8)[:, :width // 8].tobytes(), "little")
        # Balanced-tree merge: O(log n) rounds of C-level big-int ors.
        chunks = list(words)
        shift = width
        while len(chunks) > 1:
            merged = [chunks[i] | (chunks[i + 1] << shift)
                      for i in range(0, len(chunks) - 1, 2)]
            if len(chunks) % 2:
                merged.append(chunks[-1])
            chunks = merged
            shift <<= 1
        return chunks[0]


# ----------------------------------------------------------------------
# Integer kernels (bit-identical to the scalar references)
# ----------------------------------------------------------------------

def one_counts(planes: BitPlanes) -> List[int]:
    """Per-lane count of ones across the stream."""
    return [popcount(lane) for lane in planes.lanes]


def toggle_counts(planes: BitPlanes) -> List[int]:
    """Per-lane count of transitions between consecutive cycles."""
    if planes.n < 2:
        return [0] * planes.width
    mask = (1 << (planes.n - 1)) - 1
    return [popcount((lane ^ (lane >> 1)) & mask)
            for lane in planes.lanes]


def transition_count(words: Sequence[int], width: int,
                     packed: Optional[int] = None) -> int:
    """Total Hamming distance between consecutive words of a stream."""
    n = len(words)
    if n < 2:
        return 0
    if packed is None:
        packed = pack_words(words, width)
    mask = (1 << ((n - 1) * width)) - 1
    return popcount((packed ^ (packed >> width)) & mask)


def cross_hamming(words_a: Sequence[int], words_b: Sequence[int],
                  width: int,
                  packed_a: Optional[int] = None,
                  packed_b: Optional[int] = None) -> int:
    """Sum over cycles of the Hamming distance between two streams.

    Streams of different lengths are compared over the common prefix,
    matching the scalar ``zip`` convention.
    """
    n = min(len(words_a), len(words_b))
    if n == 0:
        return 0
    if packed_a is None:
        packed_a = pack_words(words_a, width)
    if packed_b is None:
        packed_b = pack_words(words_b, width)
    diff = packed_a ^ packed_b
    if len(words_a) != len(words_b):
        diff &= (1 << (n * width)) - 1
    return popcount(diff)


def pairwise_hamming_matrix(traces: Sequence[Sequence[int]],
                            width: int) -> List[List[int]]:
    """Symmetric matrix of total pairwise Hamming distances.

    ``matrix[i][j]`` is the sum over cycles of ``hamming(traces[i][t],
    traces[j][t])`` — the O(n^2 * T) inner loop of activity-aware
    allocation, evaluated as one xor+popcount per pair.
    """
    with obs.span("faststreams.pairwise_hamming_matrix",
                  traces=len(traces), width=width):
        obs.inc("faststreams.pairwise_matrix")
        packs = [pack_words(t, width) for t in traces]
        lengths = [len(t) for t in traces]
        k = len(traces)
        matrix = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                n = min(lengths[i], lengths[j])
                if n == 0:
                    continue
                diff = packs[i] ^ packs[j]
                if lengths[i] != lengths[j]:
                    # Unequal lengths: truncate to the common prefix.
                    # Equal-length packs carry no bits above n * width,
                    # so the mask (two more stream-sized bignum ops)
                    # is skipped on the hot all-equal case.
                    diff &= (1 << (n * width)) - 1
                matrix[i][j] = matrix[j][i] = popcount(diff)
        return matrix


# ----------------------------------------------------------------------
# Float kernels (agree with the references to round-off)
# ----------------------------------------------------------------------

def correlation_matrix(planes: BitPlanes):
    """Lane–lane Pearson correlation of the bit streams.

    Computed from popcounts of lane pairs: for 0/1 variables
    ``E[x y] = popcount(x & y) / n`` and ``E[x^2] = E[x]``, so the
    whole matrix needs ``width * (width + 1) / 2`` popcounts instead
    of materializing an ``n x width`` float matrix.  Lanes with zero
    variance correlate 0 with everything (1 with themselves).
    """
    with obs.span("faststreams.correlation_matrix",
                  width=planes.width, cycles=planes.n):
        obs.inc("faststreams.correlation_matrix")
        w = planes.width
        n = planes.n
        if n == 0:
            return np.eye(w)
        ones = np.array([popcount(lane) for lane in planes.lanes],
                        dtype=np.float64)
        co = np.zeros((w, w), dtype=np.float64)
        for i in range(w):
            li = planes.lanes[i]
            co[i, i] = ones[i]
            for j in range(i + 1, w):
                co[i, j] = co[j, i] = popcount(li & planes.lanes[j])
        mean = ones / n
        cov = co / n - np.outer(mean, mean)
        var = mean - mean * mean
        std = np.sqrt(var)
        denom = np.outer(std, std)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0),
                            0.0)
        np.fill_diagonal(corr, 1.0)
        return corr


def popcount_array(arr):
    """Vectorized popcount over an unsigned numpy integer array."""
    arr = np.asarray(arr, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    # SWAR fallback for older numpy.      pragma: no cover
    x = arr.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) \
        + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101))
            >> np.uint64(56)).astype(np.int64)


def lane_transition_probs(codes: Sequence[int], ia, ib, p,
                          n_bits: int):
    """Per-lane transition-probability vector of a weighted pair set.

    Element ``l`` is the total probability mass of pairs whose codes
    differ in bit lane ``l``; its sum is the weighted-Hamming
    objective.  ``ia``/``ib`` index into ``codes``; ``p`` carries the
    pair probabilities.
    """
    codes_arr = np.asarray(codes, dtype=np.uint64)
    diff = codes_arr[ia] ^ codes_arr[ib]
    p = np.asarray(p, dtype=np.float64)
    lanes = np.empty(n_bits, dtype=np.float64)
    one = np.uint64(1)
    for l in range(n_bits):
        lanes[l] = p[((diff >> np.uint64(l)) & one).astype(bool)].sum()
    return lanes


def weighted_hamming(codes: Sequence[int], ia, ib, p) -> float:
    """Probability-weighted Hamming objective sum(p * H(c_a, c_b))."""
    codes_arr = np.asarray(codes, dtype=np.uint64)
    diff = codes_arr[ia] ^ codes_arr[ib]
    return float(np.dot(np.asarray(p, dtype=np.float64),
                        popcount_array(diff)))
