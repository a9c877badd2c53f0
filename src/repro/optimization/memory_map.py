"""Memory mapping and hierarchy exploration for low power
(Section III-A, [52]-[57]).

Two surveyed directions:

- :func:`optimize_array_placement` -- Panda-Dutt memory mapping
  [53], [54]: choose base addresses for data arrays so the address
  stream of a known access pattern toggles fewer address-bus lines
  (off-chip drivers and decode logic dominate),
- :class:`MemoryHierarchy` / :func:`explore_data_reuse` -- the
  Catthoor methodology [52], [56], [57]: given loop-nest access
  counts, decide which arrays (or reused blocks) to copy into small
  low-energy buffers; higher hierarchy levels are cheap per access but
  capacity-limited, so the optimizer assigns the hottest data upward.

Access patterns are modeled as the sequence of (array, index)
references a compiled loop nest would emit; energy uses the parametric
memory model of :mod:`repro.estimation.parametric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backend.core import resolve_engine
from repro.estimation.parametric import MemoryArray
from repro.rtl import faststreams
from repro.util.bits import hamming


def bus_transitions(addresses: Sequence[int],
                    engine: Optional[str] = None) -> int:
    """Total address-bus line toggles over an access trace."""
    if resolve_engine(engine) == "fast":
        width = max((a.bit_length() for a in addresses), default=0) or 1
        return faststreams.transition_count(addresses, width)
    total = 0
    for a, b in zip(addresses, addresses[1:]):
        total += hamming(a, b)
    return total


@dataclass(frozen=True)
class Access:
    """One memory reference of a traced loop nest."""

    array: str
    index: int
    is_write: bool = False


# ----------------------------------------------------------------------
# Panda-Dutt address-bus-aware array placement
# ----------------------------------------------------------------------

@dataclass
class PlacementResult:
    bases: Dict[str, int]
    transitions: int
    baseline_transitions: int

    @property
    def saving(self) -> float:
        if self.baseline_transitions == 0:
            return 0.0
        return 1.0 - self.transitions / self.baseline_transitions


def _addresses(accesses: Sequence[Access],
               bases: Dict[str, int]) -> List[int]:
    return [bases[a.array] + a.index for a in accesses]


def optimize_array_placement(accesses: Sequence[Access],
                             array_sizes: Dict[str, int],
                             alignment: int = 16,
                             candidate_slots: int = 8
                             ) -> PlacementResult:
    """Greedy base-address assignment minimizing address-bus toggles.

    The paper extracts the access pattern at compile time and places
    arrays in memory accordingly.  Arrays are placed one at a time
    (most-accessed first); each tries a set of aligned candidate bases
    after the already-placed arrays and keeps the one minimizing the
    toggles of the partial trace, exactly the greedy flavour of [53].
    """
    order = sorted(array_sizes,
                   key=lambda a: -sum(1 for x in accesses
                                      if x.array == a))
    # Baseline: declaration-order contiguous placement.
    baseline_bases: Dict[str, int] = {}
    cursor = 0
    for array in array_sizes:
        baseline_bases[array] = cursor
        cursor += _aligned(array_sizes[array], alignment)
    baseline = bus_transitions(_addresses(accesses, baseline_bases))

    placed: Dict[str, int] = {}
    regions: List[Tuple[int, int]] = []   # (base, end) occupied

    def conflicts(base: int, size: int) -> bool:
        end = base + size
        return any(not (end <= lo or base >= hi)
                   for lo, hi in regions)

    for array in order:
        size = _aligned(array_sizes[array], alignment)
        candidates: List[int] = []
        slot = 0
        while len(candidates) < candidate_slots:
            if not conflicts(slot, size):
                candidates.append(slot)
            slot += alignment
        best_base = candidates[0]
        best_cost: Optional[int] = None
        for base in candidates:
            trial = dict(placed)
            trial[array] = base
            partial = [a for a in accesses if a.array in trial]
            cost = bus_transitions(_addresses(partial, trial))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_base = base
        placed[array] = best_base
        regions.append((best_base, best_base + size))

    return PlacementResult(
        bases=placed,
        transitions=bus_transitions(_addresses(accesses, placed)),
        baseline_transitions=baseline,
    )


def _aligned(size: int, alignment: int) -> int:
    return ((size + alignment - 1) // alignment) * alignment


# ----------------------------------------------------------------------
# Catthoor-style memory hierarchy / data-reuse exploration
# ----------------------------------------------------------------------

@dataclass
class MemoryLevel:
    """One level of the hierarchy: capacity plus per-access energy."""

    name: str
    capacity: int
    read_energy: float
    write_energy: float

    @classmethod
    def from_parametric(cls, name: str, words_log2: int,
                        word_bits: int = 16) -> "MemoryLevel":
        array = MemoryArray(n=words_log2,
                            k=MemoryArray(words_log2, 0, word_bits)
                            .optimal_aspect(),
                            word_bits=word_bits)
        return cls(name, 1 << words_log2, array.read_energy(),
                   array.write_energy())


@dataclass
class ArrayProfile:
    """Access statistics of one array over the loop nest."""

    name: str
    size: int
    reads: int
    writes: int

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


@dataclass
class HierarchyAssignment:
    placement: Dict[str, str]       # array -> level name
    energy: float
    baseline_energy: float          # everything in the big memory

    @property
    def saving(self) -> float:
        if self.baseline_energy == 0:
            return 0.0
        return 1.0 - self.energy / self.baseline_energy


def explore_data_reuse(profiles: Sequence[ArrayProfile],
                       levels: Sequence[MemoryLevel]
                       ) -> HierarchyAssignment:
    """Assign arrays to hierarchy levels minimizing access energy.

    Levels are ordered small/cheap first; the largest level is the
    backing store (unbounded for the purposes of the copy decision).
    Copying an array into a higher level costs one read from the
    backing store plus one write per element (the data-reuse copy the
    methodology accounts for).  Exhaustive over arrays x levels for
    the small design-space sizes the experiments use, matching the
    "formalized methodology ... for the choice of the proper memory
    hierarchy".
    """
    if not levels:
        raise ValueError("need at least one memory level")
    backing = levels[-1]

    def baseline() -> float:
        return sum(p.reads * backing.read_energy
                   + p.writes * backing.write_energy
                   for p in profiles)

    best: Optional[HierarchyAssignment] = None
    options = [list(range(len(levels)))] * len(profiles)
    for combo in itertools.product(*options):
        used: Dict[int, int] = {}
        feasible = True
        for p, lvl in zip(profiles, combo):
            used[lvl] = used.get(lvl, 0) + p.size
            if used[lvl] > levels[lvl].capacity:
                feasible = False
                break
        if not feasible:
            continue
        energy = 0.0
        for p, lvl in zip(profiles, combo):
            level = levels[lvl]
            energy += p.reads * level.read_energy \
                + p.writes * level.write_energy
            if level is not backing:
                # Copy-in cost from the backing store.
                energy += p.size * (backing.read_energy
                                    + level.write_energy)
        if best is None or energy < best.energy:
            best = HierarchyAssignment(
                placement={p.name: levels[lvl].name
                           for p, lvl in zip(profiles, combo)},
                energy=energy,
                baseline_energy=baseline(),
            )
    assert best is not None
    return best


def loop_nest_accesses(arrays: Dict[str, int], pattern: str = "fir",
                       iterations: int = 64) -> List[Access]:
    """Canned access traces of the DSP loop shapes the papers use."""
    accesses: List[Access] = []
    names = list(arrays)
    if pattern == "fir":
        x, y = names[0], names[-1]
        taps = min(4, arrays[x])
        for i in range(iterations):
            for k in range(taps):
                accesses.append(Access(x, (i + k) % arrays[x]))
            accesses.append(Access(y, i % arrays[y], is_write=True))
    elif pattern == "interleaved":
        for i in range(iterations):
            for name in names:
                accesses.append(Access(name, i % arrays[name]))
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return accesses
