"""One spawn-key scheme for every fan-out.

Three subsystems fan work out and need per-child seeds that are (a)
deterministic, (b) distinct per child, and (c) stable across worker
counts and completion order: the estimation service's stimulus shards
(:mod:`repro.serve`), the learned characterization stimulus mix
(:mod:`repro.estimation.learned.characterize`), and the parallel
candidate-search executor (:mod:`repro.optimization.search`), which
also seeds the learned population sweep.  Each used to derive child
seeds its own way; this module is the single shared derivation.

The scheme is the affine spawn key the characterization flow has
always used::

    child = (base * STRIDE + index) & MASK

``STRIDE`` is fixed forever — committed characterization datasets
record their per-run seeds and must stay reproducible — and ``MASK``
keeps seeds in the non-negative 31-bit range every stdlib and numpy
RNG accepts.  Chaining is well-defined: a child seed is itself a
valid base (``child_seed(child_seed(s, i), j)`` gives grandchildren),
which is how nested fan-outs (service shards inside a batch, restarts
inside a search) stay collision-resistant without coordination.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["STRIDE", "MASK", "child_seed", "spawn_seeds"]

#: Spawn-key multiplier (any odd constant; fixed forever so committed
#: datasets that recorded derived seeds stay reproducible).
STRIDE = 1000003

#: Derived seeds live in [0, 2**31): the range every consumer RNG
#: (random.Random, numpy) accepts as-is.
MASK = 0x7FFFFFFF


def child_seed(base: Optional[int], index: int) -> Optional[int]:
    """The ``index``-th child seed of ``base`` (None passes through).

    ``None`` means "unseeded" everywhere in the repo (fresh entropy
    per run); deriving children from it stays ``None`` so unseeded
    parents get unseeded children rather than accidentally-fixed ones.
    """
    if base is None:
        return None
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    return (int(base) * STRIDE + index) & MASK


def spawn_seeds(base: Optional[int], n: int) -> List[Optional[int]]:
    """Child seeds 0..n-1 of ``base``, in index order."""
    return [child_seed(base, k) for k in range(n)]
