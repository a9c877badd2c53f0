"""State assignment (encoding) for low power.

Implements the family of encoding strategies compared in Section
III-H: the problem is embedding the STG into a hypercube so that
high-probability transitions connect states at low Hamming distance
([90]-[95]).  Besides the classical baselines (binary, Gray order,
one-hot, random), :func:`low_power_encoding` performs the
probability-weighted embedding with a greedy constructive phase
followed by simulated-annealing improvement — the "standard search
techniques" the paper refers to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.core import resolve_engine
from repro.fsm.markov import transition_probabilities
from repro.fsm.stg import STG
from repro.rtl import faststreams
from repro.util.bits import MAX_UINT64_CODE_BITS
from repro.util.bits import hamming as _hamming

#: Codes wider than this cannot be held in a uint64 lane; the
#: vectorized cost paths fall back to the scalar reference.  Shared
#: with the Markov switching objective (repro.util.bits).
_MAX_VECTOR_BITS = MAX_UINT64_CODE_BITS


@dataclass
class Encoding:
    """Assignment of binary codes to states."""

    codes: Dict[str, int]
    n_bits: int
    strategy: str = "custom"

    def code_string(self, state: str) -> str:
        return format(self.codes[state], f"0{self.n_bits}b")[::-1]

    def hamming(self, a: str, b: str) -> int:
        return _hamming(self.codes[a], self.codes[b])


def min_bits(n_states: int) -> int:
    return max(1, (n_states - 1).bit_length())


def binary_encoding(stg: STG) -> Encoding:
    """States numbered in declaration order."""
    bits = min_bits(stg.n_states)
    return Encoding({s: i for i, s in enumerate(stg.states)}, bits, "binary")


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def gray_encoding(stg: STG) -> Encoding:
    """States assigned consecutive Gray codes in declaration order."""
    bits = min_bits(stg.n_states)
    return Encoding({s: _gray(i) for i, s in enumerate(stg.states)}, bits,
                    "gray")


def one_hot_encoding(stg: STG) -> Encoding:
    return Encoding({s: 1 << i for i, s in enumerate(stg.states)},
                    stg.n_states, "one-hot")


def random_encoding(stg: STG, seed: int = 0,
                    n_bits: Optional[int] = None) -> Encoding:
    bits = n_bits or min_bits(stg.n_states)
    if (1 << bits) < stg.n_states:
        raise ValueError("not enough code bits for the state count")
    rng = random.Random(seed)
    codes = rng.sample(range(1 << bits), stg.n_states)
    return Encoding(dict(zip(stg.states, codes)), bits, "random")


def encoding_switching_cost(stg: STG, encoding: Encoding,
                            bit_probs: Optional[Sequence[float]] = None,
                            probs: Optional[Dict[Tuple[str, str], float]]
                            = None,
                            engine: Optional[str] = None) -> float:
    """Expected state-line Hamming switching per cycle.

    This is the canonical cost  sum_ij p_ij H(E(i), E(j))  that all the
    cited encoding papers minimize (and that the Tyagi bound lower
    bounds).  The fast engine evaluates it as one vectorized popcount
    over the pair set (agreeing with the scalar reference to float
    round-off); codes wider than
    :data:`repro.util.bits.MAX_UINT64_CODE_BITS` (e.g. one-hot beyond
    64 states) fall back to the reference.
    """
    if probs is None:
        probs = transition_probabilities(stg, bit_probs)
    if resolve_engine(engine) == "fast" \
            and encoding.n_bits <= MAX_UINT64_CODE_BITS:
        pairs = [(a, b) for (a, b) in probs if a != b]
        if not pairs:
            return 0.0
        codes = [encoding.codes[a] for a, _b in pairs] \
            + [encoding.codes[b] for _a, b in pairs]
        n = len(pairs)
        return faststreams.weighted_hamming(
            codes, range(n), range(n, 2 * n),
            [probs[pair] for pair in pairs])
    return sum(p * encoding.hamming(a, b) for (a, b), p in probs.items()
               if a != b)


class _WeightVectors:
    """Index-space view of the symmetric pair weights.

    Per-state neighbour arrays (indices + probabilities) let the
    greedy placement and the annealing deltas evaluate weighted
    Hamming sums as vectorized popcounts instead of dict walks — the
    per-lane transition-probability formulation of the packed engine.
    """

    def __init__(self, states: Sequence[str],
                 weight: Dict[Tuple[str, str], float]) -> None:
        self.index = {s: i for i, s in enumerate(states)}
        neighbours: List[List[Tuple[int, float]]] = \
            [[] for _ in states]
        for (a, b), p in weight.items():
            ia, ib = self.index[a], self.index[b]
            neighbours[ia].append((ib, p))
            neighbours[ib].append((ia, p))
        self.nb_idx = [np.array([i for i, _p in nb], dtype=np.intp)
                       for nb in neighbours]
        self.nb_p = [np.array([p for _i, p in nb], dtype=np.float64)
                     for nb in neighbours]
        self.pair_ia = np.array([self.index[a] for a, _b in weight],
                                dtype=np.intp)
        self.pair_ib = np.array([self.index[b] for _a, b in weight],
                                dtype=np.intp)
        self.pair_p = np.array(list(weight.values()), dtype=np.float64)

    def total_cost(self, codes_arr) -> float:
        diff = codes_arr[self.pair_ia] ^ codes_arr[self.pair_ib]
        return float(np.dot(self.pair_p,
                            faststreams.popcount_array(diff)))

    def move_delta(self, codes_arr, si: int,
                   new_code: int) -> float:
        """Cost change of moving state ``si`` to ``new_code``."""
        idx = self.nb_idx[si]
        if not len(idx):
            return 0.0
        others = codes_arr[idx]
        h_new = faststreams.popcount_array(others ^ np.uint64(new_code))
        h_old = faststreams.popcount_array(others ^ codes_arr[si])
        return float(np.dot(self.nb_p[si], h_new - h_old))

    def swap_delta(self, codes_arr, sa: int,
                   sb: int) -> float:
        """Cost change of exchanging the codes of two states."""
        ca, cb = codes_arr[sa], codes_arr[sb]
        delta = 0.0
        for si, mine, theirs, other_state in ((sa, ca, cb, sb),
                                              (sb, cb, ca, sa)):
            idx = self.nb_idx[si]
            if not len(idx):
                continue
            keep = idx != other_state   # the (a, b) pair itself is
            idx = idx[keep]             # unchanged by the swap
            if not len(idx):
                continue
            others = codes_arr[idx]
            h_new = faststreams.popcount_array(others ^ theirs)
            h_old = faststreams.popcount_array(others ^ mine)
            delta += float(np.dot(self.nb_p[si][keep], h_new - h_old))
        return delta


def _anneal_restart(candidate, ctx):
    """Search-pool job: one simulated-annealing run from the greedy
    codes.

    ``candidate`` is ``(restart_index, seed)``; the shared greedy
    embedding, pair weights and schedule ride ``ctx.extras`` (shipped
    once per worker).  Returns ``(best_cost, best_codes)``; runs are
    fully determined by their seed, so parallel restarts return
    bit-identical results to the serial walk.
    """
    _k, run_seed = candidate
    ex = ctx.extras
    return _anneal(ex["states"], ex["weight"], ex["codes"], ex["free"],
                   ex["bits"], run_seed, ex["anneal_steps"],
                   ex["engine"])


def _anneal(states: Sequence[str],
            weight: Dict[Tuple[str, str], float],
            codes: Dict[str, int], free: Sequence[int], bits: int,
            seed: Optional[int], anneal_steps: int,
            engine: str) -> Tuple[float, Dict[str, int]]:
    """Pairwise code-swap annealing under geometric cooling.

    Extracted verbatim from the historical in-line loop so the RNG
    stream (and hence every committed expected encoding) is
    unchanged; shared by the single-run path and the parallel-restart
    fan-out.
    """
    fast = engine != "reference" and bits <= MAX_UINT64_CODE_BITS
    vectors = _WeightVectors(states, weight) if fast else None
    codes = dict(codes)

    def total_cost(assign: Dict[str, int]) -> float:
        if fast:
            codes_arr = np.array([assign[s] for s in states],
                                 dtype=np.uint64)
            return vectors.total_cost(codes_arr)
        return sum(p * _hamming(assign[a], assign[b])
                   for (a, b), p in weight.items())

    rng = random.Random(seed)
    states = list(states)
    pool = states + [None] * len(free)   # None slots are unused codes
    free_codes = sorted(free)
    codes_arr = np.array([codes[s] for s in states], dtype=np.uint64) \
        if fast else None
    current = total_cost(codes)
    best = dict(codes)
    best_cost = current
    t0 = max(current, 1e-6)
    for step in range(anneal_steps):
        temp = t0 * (0.995 ** step) + 1e-9
        a = rng.choice(states)
        b = rng.choice(pool)
        if b is a:
            continue
        if b is None:
            if not free_codes:
                continue
            idx = rng.randrange(len(free_codes))
            new_code = free_codes[idx]
            old_code = codes[a]
            if fast:
                delta = vectors.move_delta(codes_arr, vectors.index[a],
                                           new_code)
            else:
                delta = _swap_delta(codes, weight, a, new_code)
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                codes[a] = new_code
                if fast:
                    codes_arr[vectors.index[a]] = new_code
                free_codes[idx] = old_code
                current += delta
        else:
            if fast:
                delta = vectors.swap_delta(codes_arr, vectors.index[a],
                                           vectors.index[b])
            else:
                delta = _pair_swap_delta(codes, weight, a, b)
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                codes[a], codes[b] = codes[b], codes[a]
                if fast:
                    ia, ib = vectors.index[a], vectors.index[b]
                    codes_arr[ia], codes_arr[ib] = \
                        codes_arr[ib], codes_arr[ia]
                current += delta
        if current < best_cost - 1e-12:
            best_cost = current
            best = dict(codes)
    return best_cost, best


def low_power_encoding(stg: STG,
                       bit_probs: Optional[Sequence[float]] = None,
                       n_bits: Optional[int] = None,
                       seed: int = 0,
                       anneal_steps: int = 4000,
                       use_annealing: bool = True,
                       engine: Optional[str] = None,
                       restarts: int = 1,
                       workers: Union[int, str, None] = None
                       ) -> Encoding:
    """Probability-weighted hypercube embedding.

    Greedy phase: states in decreasing total edge weight claim the free
    code at minimum weighted Hamming distance from already-placed
    neighbours.  Annealing phase: pairwise code swaps (including swaps
    with unused codes) under a geometric cooling schedule.

    ``restarts > 1`` runs that many independent annealing chains from
    the greedy embedding — restart ``k`` is seeded with the spawn key
    ``seeding.child_seed(seed, k)`` (restart 0 keeps ``seed`` itself,
    so the default single run reproduces the historical encoding) —
    and keeps the lowest-cost result, ties broken by restart index.
    ``workers`` fans the restarts over the shared search pool
    (:mod:`repro.optimization.search`); the winner is identical for
    any worker count.

    Set ``use_annealing=False`` for the greedy-only ablation.  The
    default fast engine evaluates candidate costs and swap deltas as
    vectorized popcounts over the per-state transition-probability
    vectors; ``engine="reference"`` keeps the scalar dict walks.  The
    greedy phase sums each candidate's cost in the same order on both
    engines (neighbour by neighbour, in placement order), so the two
    pick identical codes; annealing deltas agree to round-off.  The
    vectorized path steps aside — to the identical-math scalar walks,
    not an error — when the codes exceed
    :data:`repro.util.bits.MAX_UINT64_CODE_BITS`.
    """
    bits = n_bits or min_bits(stg.n_states)
    if (1 << bits) < stg.n_states:
        raise ValueError("not enough code bits for the state count")
    probs = transition_probabilities(stg, bit_probs)

    # Symmetric weights between distinct states.
    weight: Dict[Tuple[str, str], float] = {}
    for (a, b), p in probs.items():
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        weight[key] = weight.get(key, 0.0) + p

    engine = resolve_engine(engine)
    fast = engine != "reference" and bits <= MAX_UINT64_CODE_BITS

    def w(a: str, b: str) -> float:
        return weight.get((a, b) if a < b else (b, a), 0.0)

    # ---- greedy constructive phase ----
    totals = {s: 0.0 for s in stg.states}
    for (a, b), p in weight.items():
        totals[a] += p
        totals[b] += p
    order = sorted(stg.states, key=lambda s: -totals[s])
    free = set(range(1 << bits))
    codes: Dict[str, int] = {}
    for state in order:
        placed = [(other, codes[other]) for other in codes
                  if w(state, other) > 0]
        if not placed:
            code = min(free)
        elif fast:
            # Column-by-column accumulation in placement order: the
            # exact float sum of the reference loop below (a BLAS
            # matrix-vector product would reorder it and flip ties).
            candidates = sorted(free)
            cand_arr = np.array(candidates, dtype=np.uint64)
            costs = np.zeros(len(candidates))
            for other, c in placed:
                costs += w(state, other) * faststreams.popcount_array(
                    cand_arr ^ np.uint64(c))
            code = candidates[int(np.argmin(costs))]
        else:
            def cost_of(candidate: int) -> float:
                total = 0.0
                for other, c in placed:
                    total += w(state, other) * _hamming(candidate, c)
                return total
            code = min(sorted(free), key=cost_of)
        codes[state] = code
        free.discard(code)

    if not use_annealing:
        return Encoding(codes, bits, "low-power-greedy")

    # ---- simulated-annealing improvement ----
    from repro.optimization import search
    from repro.util import seeding

    n_restarts = max(1, int(restarts))
    run_seeds = [seed] + [seeding.child_seed(seed, k)
                          for k in range(1, n_restarts)]
    extras = {"states": list(stg.states), "weight": weight,
              "codes": codes, "free": sorted(free), "bits": bits,
              "anneal_steps": anneal_steps, "engine": engine}
    results = search.evaluate_candidates(
        _anneal_restart, list(enumerate(run_seeds)),
        extras=extras, workers=workers, label="fsm_encoding")
    best_i = min(range(n_restarts), key=lambda i: (results[i][0], i))
    return Encoding(results[best_i][1], bits, "low-power-annealed")


def _swap_delta(codes: Dict[str, int],
                weight: Dict[Tuple[str, str], float],
                state: str, new_code: int) -> float:
    old_code = codes[state]
    delta = 0.0
    for (a, b), p in weight.items():
        if a == state:
            other = codes[b]
        elif b == state:
            other = codes[a]
        else:
            continue
        delta += p * (_hamming(new_code, other)
                      - _hamming(old_code, other))
    return delta


def _pair_swap_delta(codes: Dict[str, int],
                     weight: Dict[Tuple[str, str], float],
                     sa: str, sb: str) -> float:
    ca, cb = codes[sa], codes[sb]
    delta = 0.0
    for (a, b), p in weight.items():
        old = _hamming(codes[a], codes[b])
        na = cb if a == sa else (ca if a == sb else codes[a])
        nb = cb if b == sa else (ca if b == sb else codes[b])
        new = _hamming(na, nb)
        if new != old:
            delta += p * (new - old)
    return delta
