"""Property-based cross-checks of the bit-plane word-stream engine.

Every packed kernel in :mod:`repro.rtl.faststreams` (and every
consumer rewired onto it) is asserted against its scalar
``engine="reference"`` implementation: exactly equal for the integer
counts and integer-derived rates, ``isclose``/``allclose`` for the
float-weighted objectives whose summation order differs.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fsm import encoding as fsm_encoding
from repro.fsm import markov
from repro.fsm.stg import STG
from repro.logic.fastsim import pack_streams
from repro.optimization import allocation, bus_encoding, memory_map
from repro.rtl import faststreams
from repro.rtl import streams as rtl_streams
from repro.rtl.streams import WordStream
from repro.util.bits import hamming, popcount

# Widths straddle the numpy fast paths (<=64, %8==0) and the
# pure-python fallbacks; lengths include the 0/1 degenerate edges.
widths = st.integers(min_value=1, max_value=70)
lengths = st.integers(min_value=0, max_value=120)
seeds = st.integers(min_value=0, max_value=2**31)


def make_words(width, length, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(length)]


# ----------------------------------------------------------------------
# Packed representations and integer kernels
# ----------------------------------------------------------------------

@given(widths, lengths, seeds)
@settings(max_examples=60, deadline=None)
def test_pack_planes_roundtrip(width, length, seed):
    words = make_words(width, length, seed)
    planes = faststreams.pack_planes(words, width)
    assert planes.n == length and planes.width == width
    for i, lane in enumerate(planes.lanes):
        for t, w in enumerate(words):
            assert (lane >> t) & 1 == (w >> i) & 1


@given(widths, lengths, seeds)
@settings(max_examples=60, deadline=None)
def test_pack_words_roundtrip(width, length, seed):
    words = make_words(width, length, seed)
    packed = faststreams.pack_words(words, width)
    mask = (1 << width) - 1
    for t, w in enumerate(words):
        assert (packed >> (t * width)) & mask == w
    assert packed >> (length * width) == 0


@given(widths, lengths, seeds)
@settings(max_examples=60, deadline=None)
def test_transition_and_cross_counts(width, length, seed):
    words = make_words(width, length, seed)
    other = make_words(width, max(0, length - 3), seed + 1)
    assert faststreams.transition_count(words, width) == \
        sum(hamming(a, b) for a, b in zip(words, words[1:]))
    assert faststreams.cross_hamming(words, other, width) == \
        sum(hamming(a, b) for a, b in zip(words, other))


@given(widths, seeds, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_pairwise_hamming_matrix(width, seed, k):
    rng = random.Random(seed)
    traces = [make_words(width, rng.randrange(0, 40), seed + i)
              for i in range(k)]
    matrix = faststreams.pairwise_hamming_matrix(traces, width)
    for i in range(k):
        assert matrix[i][i] == 0
        for j in range(k):
            assert matrix[i][j] == sum(
                hamming(a, b) for a, b in zip(traces[i], traces[j]))


# ----------------------------------------------------------------------
# Stream statistics: packed == scalar exactly
# ----------------------------------------------------------------------

@given(widths, lengths, seeds)
@settings(max_examples=60, deadline=None)
def test_stream_statistics_match_reference(width, length, seed):
    stream = WordStream(make_words(width, length, seed), width)
    assert rtl_streams.bit_activities(stream) == \
        rtl_streams.bit_activities(stream, engine="reference")
    assert rtl_streams.bit_probabilities(stream) == \
        rtl_streams.bit_probabilities(stream, engine="reference")
    assert rtl_streams.average_activity(stream) == \
        rtl_streams.average_activity(stream, engine="reference")
    assert rtl_streams.sign_transition_counts(stream) == \
        rtl_streams.sign_transition_counts(stream, engine="reference")


def test_degenerate_streams_are_zero():
    for length in (0, 1):
        stream = WordStream(make_words(8, length, 3), 8)
        assert rtl_streams.bit_activities(stream) == [0.0] * 8
        assert rtl_streams.average_activity(stream) == 0.0
        assert rtl_streams.sign_transition_counts(stream) == \
            {"++": 0, "+-": 0, "-+": 0, "--": 0}
    assert rtl_streams.bit_probabilities(WordStream([], 8)) == [0.0] * 8


def test_stream_cache_invalidation():
    stream = WordStream([1, 2, 3], 4)
    first = stream.bit_planes()
    assert stream.bit_planes() is first          # cached
    stream.words.append(12)                      # length change -> rebuilt
    assert stream.bit_planes() is not first
    assert rtl_streams.bit_probabilities(stream) == \
        rtl_streams.bit_probabilities(stream, engine="reference")
    stream.words[0] = 9                          # in-place edit
    stream.invalidate()
    assert rtl_streams.bit_probabilities(stream) == \
        rtl_streams.bit_probabilities(stream, engine="reference")


def test_pack_streams_uses_cached_planes():
    stream = WordStream(make_words(6, 37, 11), 6)

    class Plain:
        def __init__(self, words):
            self.words = list(words)

        def __len__(self):
            return len(self.words)

    fast = pack_streams([("a", 6)], [stream])
    slow = pack_streams([("a", 6)], [Plain(stream.words)])
    assert fast.words == slow.words and fast.n == slow.n
    # Port wider than the stream: missing lanes are zero.
    wide = pack_streams([("a", 9)], [stream])
    assert all(wide.words[f"a{i}"] == 0 for i in range(6, 9))


# ----------------------------------------------------------------------
# Correlation / weighted-Hamming float kernels
# ----------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=12), st.integers(2, 60), seeds)
@settings(max_examples=40, deadline=None)
def test_correlation_matrix_matches_numpy(width, length, seed):
    words = make_words(width, length, seed)
    planes = faststreams.pack_planes(words, width)
    corr = faststreams.correlation_matrix(planes)
    bits = np.array([[(w >> i) & 1 for i in range(width)]
                     for w in words], dtype=float)
    std = bits.std(axis=0)
    live = std > 0
    if live.any():
        expected = np.corrcoef(bits[:, live].T)
        expected = np.atleast_2d(expected)
        assert np.allclose(corr[np.ix_(live, live)], expected,
                           atol=1e-9)
    # Zero-variance lanes: 0 off-diagonal, 1 on the diagonal.
    assert np.allclose(corr[~live][:, live], 0.0)
    assert np.allclose(np.diag(corr), 1.0)


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=30), seeds)
@settings(max_examples=40, deadline=None)
def test_weighted_hamming_and_lane_probs(n_bits, n_pairs, seed):
    rng = random.Random(seed)
    codes = [rng.randrange(1 << n_bits) for _ in range(2 * n_pairs)]
    p = [rng.random() for _ in range(n_pairs)]
    ia = np.arange(n_pairs)
    ib = np.arange(n_pairs, 2 * n_pairs)
    fast = faststreams.weighted_hamming(codes, ia, ib, p)
    ref = sum(w * hamming(codes[i], codes[j])
              for i, j, w in zip(ia, ib, p))
    assert math.isclose(fast, ref, rel_tol=1e-9, abs_tol=1e-12)
    lanes = faststreams.lane_transition_probs(codes, ia, ib, p, n_bits)
    assert math.isclose(float(lanes.sum()), ref, rel_tol=1e-9,
                        abs_tol=1e-12)


def test_popcount_array_matches_scalar():
    rng = random.Random(0)
    values = [rng.randrange(1 << 64) for _ in range(200)] + [0, 2**64 - 1]
    out = faststreams.popcount_array(np.array(values, dtype=np.uint64))
    assert list(out) == [popcount(v) for v in values]


def test_util_bits_helpers():
    assert popcount(0) == 0
    assert popcount((1 << 200) | 7) == 4
    assert hamming(0b1010, 0b0110) == 2


def _pure_python_lanes(words, width):
    lanes = [0] * width
    bit = 1
    for w in words:
        for i in range(width):
            if (w >> i) & 1:
                lanes[i] |= bit
        bit <<= 1
    return lanes


@given(st.integers(min_value=1, max_value=64), lengths, seeds)
@settings(max_examples=40, deadline=None)
def test_pack_planes_numpy_matches_pure_python(width, length, seed):
    words = make_words(width, length, seed)
    planes = faststreams._pack_planes_numpy(words, width)
    assert planes.n == length and planes.width == width
    assert planes.lanes == _pure_python_lanes(words, width)


@pytest.mark.parametrize("width,length", [
    (1, 0),    # narrowest stream, empty
    (1, 5),    # single lane
    (64, 0),   # widest numpy path, empty
    (64, 3),
])
def test_pack_planes_numpy_edges(width, length):
    words = make_words(width, length, seed=7)
    planes = faststreams._pack_planes_numpy(words, width)
    assert planes.n == length and planes.width == width
    assert planes.lanes == _pure_python_lanes(words, width)


# ----------------------------------------------------------------------
# Rewired consumers: fast == reference
# ----------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=16), st.integers(0, 80), seeds)
@settings(max_examples=30, deadline=None)
def test_bus_codes_match_reference(width, length, seed):
    stream = WordStream(make_words(width, length, seed), width)
    for code_cls in (bus_encoding.BinaryCode, bus_encoding.GrayCode):
        fast = bus_encoding.count_transitions(code_cls(width), stream)
        ref = bus_encoding.count_transitions(code_cls(width), stream,
                                             engine="reference")
        assert fast.transitions == ref.transitions
        assert fast.lines == ref.lines


@given(st.integers(min_value=2, max_value=10), seeds)
@settings(max_examples=20, deadline=None)
def test_beach_code_roundtrip_and_counts(width, seed):
    rng = random.Random(seed)
    # Correlated trace so clustering has something to find.
    words, value = [], 0
    for _ in range(80):
        if rng.random() < 0.3:
            value = rng.randrange(1 << width)
        words.append(value)
    code = bus_encoding.BeachCode(width)
    code.train(words)
    stream = WordStream(words, width)
    fast = bus_encoding.count_transitions(code, stream)
    ref = bus_encoding.count_transitions(code, stream,
                                         engine="reference")
    assert fast.transitions == ref.transitions


@given(st.integers(min_value=1, max_value=20), st.integers(0, 60), seeds)
@settings(max_examples=40, deadline=None)
def test_bus_transitions_match_reference(width, length, seed):
    addresses = make_words(width, length, seed)
    assert memory_map.bus_transitions(addresses) == \
        memory_map.bus_transitions(addresses, engine="reference")


@given(widths, st.integers(0, 50), seeds)
@settings(max_examples=40, deadline=None)
def test_switch_fractions_match_reference(width, length, seed):
    a = make_words(width, length, seed)
    b = make_words(width, length + 2, seed + 1)
    assert allocation.average_switch_fraction(a, b, width) == \
        allocation.average_switch_fraction(a, b, width,
                                           engine="reference")
    traces = {0: a, 1: b, 2: make_words(width, length, seed + 2)}
    fractions = allocation.pairwise_switch_fractions([0, 1, 2],
                                                     traces, width)
    for (x, y), value in fractions.items():
        assert value == allocation.average_switch_fraction(
            traces[x], traces[y], width, engine="reference")


# ----------------------------------------------------------------------
# FSM consumers: encoding costs and Markov matrices
# ----------------------------------------------------------------------

def _random_stg(seed, n_states=8, n_inputs=2):
    rng = random.Random(seed)
    stg = STG("hyp", n_inputs, 1)
    states = [f"s{i}" for i in range(n_states)]
    for s in states:
        stg.add_state(s)
    for s in states:
        for _ in range(rng.randrange(1, 4)):
            cube = "".join(rng.choice("01-") for _ in range(n_inputs))
            stg.add_transition(cube, s, rng.choice(states), "0")
    return stg


@given(seeds, st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_markov_matrices_match_reference(seed, n_states, n_inputs):
    stg = _random_stg(seed, n_states, n_inputs)
    bit_probs = [random.Random(seed + 1).random()
                 for _ in range(n_inputs)]
    for bp in (None, bit_probs):
        fast, idx = markov.transition_matrix(stg, bp)
        ref, idx_ref = markov.transition_matrix(stg, bp,
                                                engine="reference")
        assert idx == idx_ref
        assert np.allclose(fast, ref, atol=1e-12)
    codes = {s: random.Random(seed + i).randrange(1 << 6)
             for i, s in enumerate(stg.states)}
    fast_sw = markov.expected_state_line_switching(stg, codes)
    ref_sw = markov.expected_state_line_switching(stg, codes,
                                                  engine="reference")
    assert math.isclose(fast_sw, ref_sw, rel_tol=1e-9, abs_tol=1e-12)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_encoding_costs_match_reference(seed):
    stg = _random_stg(seed)
    for enc in (fsm_encoding.binary_encoding(stg),
                fsm_encoding.gray_encoding(stg),
                fsm_encoding.one_hot_encoding(stg),
                fsm_encoding.random_encoding(stg, seed=seed)):
        fast = fsm_encoding.encoding_switching_cost(stg, enc)
        ref = fsm_encoding.encoding_switching_cost(stg, enc,
                                                   engine="reference")
        assert math.isclose(fast, ref, rel_tol=1e-9, abs_tol=1e-12)


@given(seeds)
@example(seed=77)
@example(seed=227)
@example(seed=246)
@example(seed=434)
@settings(max_examples=8, deadline=None)
def test_low_power_encoding_engines_agree(seed):
    stg = _random_stg(seed)
    greedy_fast = fsm_encoding.low_power_encoding(
        stg, seed=seed, use_annealing=False)
    greedy_ref = fsm_encoding.low_power_encoding(
        stg, seed=seed, use_annealing=False, engine="reference")
    assert greedy_fast.codes == greedy_ref.codes
    # Annealed trajectories may diverge on rare accept/reject
    # decisions sitting exactly on a float-rounding boundary (the
    # vectorized np.dot delta and the scalar sum round differently)
    # and then land in different local minima — per-move delta
    # agreement is pinned by test_anneal_deltas_match_reference.
    # What both engines do guarantee is best-so-far tracking from the
    # same greedy start: neither may end worse than greedy.
    greedy_cost = fsm_encoding.encoding_switching_cost(
        stg, greedy_ref, engine="reference")
    for engine in ("fast", "reference"):
        annealed = fsm_encoding.low_power_encoding(
            stg, seed=seed, anneal_steps=300, engine=engine)
        assert len(set(annealed.codes.values())) == stg.n_states
        cost = fsm_encoding.encoding_switching_cost(
            stg, annealed, engine="reference")
        assert cost <= greedy_cost + 1e-9


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_anneal_deltas_match_reference(seed):
    """Vectorized move/swap deltas agree with the scalar walks."""
    from repro.fsm.markov import transition_probabilities

    stg = _random_stg(seed)
    weight = {}
    for (a, b), p in transition_probabilities(stg, None).items():
        if a != b:
            key = (a, b) if a < b else (b, a)
            weight[key] = weight.get(key, 0.0) + p
    enc = fsm_encoding.random_encoding(stg, seed=seed)
    states = list(stg.states)
    codes = dict(enc.codes)
    vectors = fsm_encoding._WeightVectors(states, weight)
    codes_arr = np.array([codes[s] for s in states], dtype=np.uint64)
    free = sorted(set(range(1 << enc.n_bits)) - set(codes.values()))
    rng = random.Random(seed)
    for _ in range(6):
        a, b = rng.sample(states, 2)
        fast_d = vectors.swap_delta(codes_arr, vectors.index[a],
                                    vectors.index[b])
        ref_d = fsm_encoding._pair_swap_delta(codes, weight, a, b)
        assert math.isclose(fast_d, ref_d, rel_tol=1e-9, abs_tol=1e-9)
        if free:
            new_code = rng.choice(free)
            fast_d = vectors.move_delta(codes_arr, vectors.index[a],
                                        new_code)
            ref_d = fsm_encoding._swap_delta(codes, weight, a,
                                             new_code)
            assert math.isclose(fast_d, ref_d, rel_tol=1e-9,
                                abs_tol=1e-9)


def test_wide_codes_fall_back_to_reference():
    stg = _random_stg(1, n_states=6)
    wide = fsm_encoding.Encoding(
        {s: 1 << (70 + i) for i, s in enumerate(stg.states)}, 76,
        "wide")
    fast = fsm_encoding.encoding_switching_cost(stg, wide)
    ref = fsm_encoding.encoding_switching_cost(stg, wide,
                                               engine="reference")
    assert math.isclose(fast, ref, rel_tol=1e-12)


@pytest.mark.parametrize("bits", [63, 64, 65])
def test_code_width_boundary_pinned(bits):
    """Widths straddling MAX_UINT64_CODE_BITS: 63 rides the packed
    uint64 path, 64 and 65 must take the scalar fallback — all three
    agree with the reference."""
    from repro.util.bits import MAX_UINT64_CODE_BITS

    assert MAX_UINT64_CODE_BITS == 63
    assert fsm_encoding._MAX_VECTOR_BITS == MAX_UINT64_CODE_BITS

    stg = _random_stg(2, n_states=7)
    rng = random.Random(bits)
    codes = {s: rng.randrange(1 << (bits - 1), 1 << bits)
             for s in stg.states}
    enc = fsm_encoding.Encoding(codes, bits, f"w{bits}")
    fast = fsm_encoding.encoding_switching_cost(stg, enc)
    ref = fsm_encoding.encoding_switching_cost(stg, enc,
                                               engine="reference")
    assert math.isclose(fast, ref, rel_tol=1e-9, abs_tol=1e-12)

    fast_sw = markov.expected_state_line_switching(stg, codes)
    ref_sw = markov.expected_state_line_switching(stg, codes,
                                                  engine="reference")
    assert math.isclose(fast_sw, ref_sw, rel_tol=1e-9, abs_tol=1e-12)
