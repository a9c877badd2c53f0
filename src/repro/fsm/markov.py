"""Markovian analysis of finite-state machines.

Computes the state-occupation and transition probabilities of an STG
driven by (independent, possibly biased) random inputs — the analysis
of Hachtel et al. [96] that feeds every low-power encoding cost
function (Section III-H) and the Tyagi entropy bounds (Section II-B1).

Two solvers are provided:

- :func:`stationary_distribution` -- exact, via the normalized linear
  system pi (P - I) = 0, sum pi = 1 (numpy least squares keeps it
  robust for reducible chains),
- :func:`stationary_power_iteration` -- the approximate iterative
  method the paper cites for very large machines [31], with Cesaro
  averaging so periodic chains converge too.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backend.core import resolve_engine
from repro.fsm.stg import STG
from repro.util.bits import popcount

#: The batched minterm path materializes a (transitions, 2^n_inputs)
#: match matrix; beyond this many input bits it falls back to the
#: per-cube scalar products.
_MAX_MINTERM_BITS = 16


def _minterm_fractions(stg: STG,
                       bit_probs: Sequence[float]) -> np.ndarray:
    """Input-cube probabilities of every transition, batched.

    Enumerates the ``2^n_inputs`` minterm space once: minterm
    probabilities are the product of per-bit probabilities, each
    transition's fraction is the probability mass of the minterms its
    cube matches.  Equal to the per-cube product of
    ``Transition.input_fraction`` (to float round-off), evaluated as
    two numpy matmuls instead of ``transitions * n_inputs`` scalar
    multiplies.
    """
    m = 1 << stg.n_inputs
    bits = (np.arange(m)[:, None] >> np.arange(stg.n_inputs)) & 1
    q = np.asarray(bit_probs, dtype=np.float64)
    minterm_p = np.prod(np.where(bits == 1, q, 1.0 - q), axis=1)
    match = np.ones((len(stg.transitions), m), dtype=bool)
    for k, t in enumerate(stg.transitions):
        for i, ch in enumerate(t.input_cube):
            if ch == "1":
                match[k] &= bits[:, i] == 1
            elif ch == "0":
                match[k] &= bits[:, i] == 0
    return match @ minterm_p


def transition_matrix(stg: STG,
                      bit_probs: Optional[Sequence[float]] = None,
                      engine: Optional[str] = None
                      ) -> Tuple[np.ndarray, Dict[str, int]]:
    """Row-stochastic matrix P[i, j] = P(next = j | current = i).

    Unspecified input minterms follow the STG completion convention
    (self-loop).  ``bit_probs[i]`` is the probability input bit i is 1.

    The default engine batches the per-state minterm enumeration into
    vectorized numpy (one pass over the ``2^n_inputs`` space for all
    transitions at once); ``engine="reference"`` walks each cube with
    scalar products.  Both agree to float round-off; machines with
    more than ``_MAX_MINTERM_BITS`` input bits always use the scalar
    cube products.
    """
    index = {s: i for i, s in enumerate(stg.states)}
    n = len(stg.states)
    matrix = np.zeros((n, n))
    if bit_probs is None:
        bit_probs = [0.5] * stg.n_inputs

    if resolve_engine(engine) == "fast" \
            and stg.n_inputs <= _MAX_MINTERM_BITS \
            and stg.transitions:
        fracs = _minterm_fractions(stg, bit_probs)
        src = np.array([index[t.src] for t in stg.transitions])
        dst = np.array([index[t.dst] for t in stg.transitions])
        np.add.at(matrix, (src, dst), fracs)
        remaining = np.ones(n)
        np.subtract.at(remaining, src, fracs)
        fill = np.where(remaining > 1e-12, remaining, 0.0)
        matrix[np.arange(n), np.arange(n)] += fill
    else:
        for state in stg.states:
            i = index[state]
            remaining = 1.0
            outgoing = stg.transitions_from(state)
            # Deterministic STGs have disjoint cubes, so fractions
            # add up.
            for t in outgoing:
                frac = t.input_fraction(bit_probs)
                matrix[i, index[t.dst]] += frac
                remaining -= frac
            if remaining > 1e-12:
                matrix[i, i] += remaining  # completion self-loop
    # Normalize tiny numerical drift.
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix, index


def stationary_distribution(stg: STG,
                            bit_probs: Optional[Sequence[float]] = None
                            ) -> Dict[str, float]:
    """Exact steady-state state probabilities.

    Solves pi P = pi with the normalization constraint by least
    squares; for reducible chains this returns a valid stationary
    distribution concentrated on closed recurrent classes reachable
    under the solver's weighting.
    """
    matrix, index = transition_matrix(stg, bit_probs)
    n = matrix.shape[0]
    # (P^T - I) pi = 0 plus sum(pi) = 1.
    a = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise RuntimeError("stationary distribution collapsed to zero")
    pi /= total
    return {state: float(pi[i]) for state, i in index.items()}


def stationary_power_iteration(stg: STG,
                               bit_probs: Optional[Sequence[float]] = None,
                               iterations: int = 2000,
                               tol: float = 1e-10) -> Dict[str, float]:
    """Approximate steady state by (Cesaro-averaged) power iteration."""
    matrix, index = transition_matrix(stg, bit_probs)
    n = matrix.shape[0]
    pi = np.zeros(n)
    start = index.get(stg.reset_state or stg.states[0], 0)
    pi[start] = 1.0
    average = np.zeros(n)
    for k in range(1, iterations + 1):
        nxt = pi @ matrix
        average += nxt
        if np.abs(nxt - pi).max() < tol and k > 10:
            pi = nxt
            average = pi * k  # converged pointwise; no averaging needed
            break
        pi = nxt
    average /= max(1, k)
    average /= average.sum()
    return {state: float(average[i]) for state, i in index.items()}


def transition_probabilities(stg: STG,
                             bit_probs: Optional[Sequence[float]] = None
                             ) -> Dict[Tuple[str, str], float]:
    """Steady-state edge probabilities p_ij = pi_i P[i, j].

    These are the weights low-power encoders minimize against: the
    expected per-cycle Hamming switching of an encoding E is
    sum_ij p_ij * H(E(i), E(j)).
    """
    matrix, index = transition_matrix(stg, bit_probs)
    pi = stationary_distribution(stg, bit_probs)
    result: Dict[Tuple[str, str], float] = {}
    for si, i in index.items():
        for sj, j in index.items():
            p = pi[si] * matrix[i, j]
            if p > 0:
                result[(si, sj)] = float(p)
    return result


def transition_entropy(stg: STG,
                       bit_probs: Optional[Sequence[float]] = None) -> float:
    """Entropy h(p_ij) of the steady-state edge distribution (bits)."""
    probs = transition_probabilities(stg, bit_probs)
    total = sum(probs.values())
    h = 0.0
    for p in probs.values():
        q = p / total
        if q > 0:
            h -= q * np.log2(q)
    return float(h)


def expected_state_line_switching(stg: STG, codes: Dict[str, int],
                                  bit_probs: Optional[Sequence[float]] = None,
                                  engine: Optional[str] = None) -> float:
    """Expected state-register bit flips per cycle for an encoding.

    The fast engine evaluates the pair set with one vectorized
    popcount (:func:`repro.rtl.faststreams.weighted_hamming`); codes
    wider than :data:`repro.util.bits.MAX_UINT64_CODE_BITS` use the
    scalar reference.
    """
    from repro.util.bits import MAX_UINT64_CODE_BITS

    probs = transition_probabilities(stg, bit_probs)
    if resolve_engine(engine) == "fast" and probs and \
            max(codes.values(), default=0).bit_length() \
            <= MAX_UINT64_CODE_BITS:
        from repro.rtl import faststreams
        pairs = list(probs)
        code_list = [codes[a] for a, _b in pairs] \
            + [codes[b] for _a, b in pairs]
        k = len(pairs)
        return faststreams.weighted_hamming(
            code_list, range(k), range(k, 2 * k),
            [probs[pair] for pair in pairs])
    total = 0.0
    for (si, sj), p in probs.items():
        total += p * popcount(codes[si] ^ codes[sj])
    return total
