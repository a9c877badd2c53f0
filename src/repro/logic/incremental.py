"""Incremental cone-of-influence re-estimation for optimization loops.

Every Section-III optimization pass evaluates candidate circuits by
resimulating the whole netlist, even though a candidate typically
shares almost all structure with the base design.  This module makes
repeated estimation of *nearby* circuits cheap — the delta-evaluation
lever the paper's estimate/transform/re-estimate loop hinges on:

- :meth:`Circuit.cone_fingerprints` hashes every net's transitive
  fanin cone (closed over latch feedback, net names significant), so
  two circuits agree on a net's cone fingerprint exactly when the
  logic driving it is identical,
- a **cone key** extends that with the engine name, the batch length,
  and the stimulus lane hashes of the primary inputs in the cone's
  support (:meth:`Circuit.cone_supports`): equal keys imply identical
  settled lane values, hence identical toggle/ones counts,
- :func:`delta_activity` looks every net up in a process-wide
  byte-budgeted :class:`ConeCache`, resimulates *only* the dirty
  region — cache-missing nets, which by key construction are
  already closed under transitive fanout — via
  :meth:`Circuit.extract_cone`, replaying clean boundary nets from
  cached lanes as pseudo-inputs, and splices the per-net counts into
  an :class:`ActivityReport` **bit-identical** to full resimulation
  (same float summation order, same clock-capacitance accounting),
- :func:`estimate_delta` wraps the base-prime + variant-delta pair,
  priming each base once per stimulus and engine.

Cone records stay in process and only explicit incremental calls
(``technique="incremental"``, :func:`estimate_delta`, the passes'
``incremental=``) read them: a per-net disk record costs about as much
to read back as the cone costs to resimulate, so none is written.

Correctness is content-addressed: a cache hit is valid *because its
key covers everything the cached counts depend on* — eviction can
only cause extra misses, never stale hits.  The one contract carried
over from the plan store: in-place structural mutation must be
followed by ``circuit.invalidate()`` (the construction methods do it
automatically), otherwise the cone fingerprints themselves are stale.

Engine note: only zero-delay (settled-value) activity can be spliced
from cached lanes; timed/glitch simulation needs full waveforms on
boundary nets, so :mod:`repro.logic.fasttimer` instead memoizes whole
timed runs (:func:`~repro.logic.fasttimer.timed_activity_cached`)
under the ``"activity"`` store kind.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.backend.core import resolve_engine
from repro.logic import gates as gatelib
from repro.logic.fastsim import PackedVectors, input_lane_hashes, \
    lane_counts, net_words_engine, stimulus_fingerprint
from repro.logic.netlist import Circuit
from repro.logic.simulate import ActivityReport, Vector, collect_activity

__all__ = [
    "ConeCache", "ConeRecord", "DeltaStats",
    "get_cone_cache", "set_cone_cache", "clear_cone_cache",
    "cone_keys", "delta_activity", "collect_activity_incremental",
    "prime", "estimate_delta", "reports_equal",
]

Stimulus = Union[PackedVectors, Sequence[Vector]]

#: In-process cone-cache key: (cone fingerprint hex, stimulus tail
#: bytes).  Cheap to hash/compare.
ConeKey = Tuple[str, bytes]

#: Dirty fraction (of non-input nets) above which a plain full
#: resimulation is cheaper than cone extraction + splicing.
DELTA_MAX_FRACTION = 0.7

ENV_CACHE_BYTES = "REPRO_CONE_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024


# ----------------------------------------------------------------------
# Cache records
# ----------------------------------------------------------------------
@dataclass
class ConeRecord:
    """Cached activity of one net under one (cone, stimulus, engine).

    ``ones``/``toggles``/``last`` follow the pinned normalization
    (ones over all ``n`` cycles, toggles over the ``n - 1``
    boundaries, ``last`` = final-cycle value); ``lane`` is the packed
    settled-value word, kept so the net can be replayed as a
    pseudo-input on the dirty-region boundary.
    """

    n: int
    ones: int
    toggles: int
    last: int
    lane: int

    def nbytes(self) -> int:
        return 96 + (self.n >> 3)


@dataclass
class DeltaStats:
    """How one incremental evaluation was satisfied."""

    source: str            # "cached" | "delta" | "full" | "fallback"
    total_nets: int = 0
    reused_nets: int = 0   # non-input nets served from cache
    dirty_nets: int = 0    # non-input nets resimulated
    boundary_nets: int = 0


class ConeCache:
    """Process-wide LRU of :class:`ConeRecord` by cone key, byte-budgeted.

    The budget (``REPRO_CONE_CACHE_BYTES``, default 128 MiB) counts
    lane payloads — one record for an ``n``-cycle run costs about
    ``n/8`` bytes — so long traces over large circuit populations
    evict gracefully instead of growing without bound.  The cache
    also remembers which bases :func:`estimate_delta` has primed;
    any eviction or :meth:`clear` forgets them all.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_CACHE_BYTES, ""))
            except ValueError:
                max_bytes = DEFAULT_CACHE_BYTES
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, ConeRecord]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Prime tokens (see :func:`estimate_delta`) whose records are
        #: all resident.
        self._primed: set = set()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ConeKey) -> Optional[ConeRecord]:
        rec = self._entries.get(key)
        if rec is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return rec

    def put(self, key: ConeKey, rec: ConeRecord) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes()
        self._entries[key] = rec
        self._bytes += rec.nbytes()
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes()
            self.evictions += 1
            self._primed.clear()

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._primed.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "bytes": self._bytes,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "max_bytes": self.max_bytes}


_cone_cache: Optional[ConeCache] = None


def get_cone_cache() -> ConeCache:
    """The process-wide cone cache (created lazily)."""
    global _cone_cache
    if _cone_cache is None:
        _cone_cache = ConeCache()
    return _cone_cache


def set_cone_cache(cache: Optional[ConeCache]) -> Optional[ConeCache]:
    """Swap the process-wide cache (tests, isolation); returns the old."""
    global _cone_cache
    old = _cone_cache
    _cone_cache = cache
    return old


def clear_cone_cache() -> None:
    if _cone_cache is not None:
        _cone_cache.clear()


# ----------------------------------------------------------------------
# Cone keys
# ----------------------------------------------------------------------
def cone_keys(circuit: Circuit, packed: PackedVectors, engine: str,
              ) -> Dict[str, "ConeKey"]:
    """Per-net cache key: cone fingerprint x stimulus support x engine.

    Mixes each net's structural cone fingerprint with the batch
    length, the (resolved) engine name, and the stimulus lane hash of
    every primary input in the net's support — nothing else the
    cached counts depend on exists.  Editing one input stream (or one
    gate) therefore re-keys exactly the cones that can observe it.
    When the stimulus came from :class:`~repro.rtl.streams.WordStream`
    packing, the lane hashes change exactly when the originating
    streams' ``fingerprint()`` changes.
    """
    fps = circuit.cone_fingerprints()
    masks = circuit.cone_supports()
    lane_hashes = input_lane_hashes(packed)
    digests: List[bytes] = []
    for net in circuit.inputs:
        digests.append(lane_hashes.get(net, b"\xffmissing"))
    suffix = f"|{engine}|{packed.n}".encode("ascii")
    # In-process keys are plain (fingerprint, stimulus-tail) tuples:
    # tuple equality/hash is what dict probes pay for, and hashing a
    # cryptographic digest again for a process-local dict would buy
    # nothing.  Tails depend only on (stimulus, engine, batch length,
    # input order), so the mask->tail memo rides the packed-stimulus
    # object: a candidate sweep over one stimulus pays each distinct
    # support mask's bit-walk once, and identical tails across
    # candidates stay one shared bytes object.
    memo_key = (engine, packed.n, tuple(circuit.inputs))
    memos = getattr(packed, "_tail_memo", None)
    if memos is None:
        memos = {}
        try:
            packed._tail_memo = memos
        except AttributeError:
            pass
    mask_bytes = memos.setdefault(memo_key, {})
    keys: Dict[str, ConeKey] = {}
    fps_get = fps.__getitem__
    masks_get = masks.__getitem__
    for net in circuit.nets:
        m = masks_get(net)
        tail = mask_bytes.get(m)
        if tail is None:
            parts = []
            mm = m
            while mm:
                low = mm & -mm
                parts.append(digests[low.bit_length() - 1])
                mm ^= low
            tail = suffix + b"".join(parts)
            mask_bytes[m] = tail
        keys[net] = (fps_get(net), tail)
    return keys


def _record_from_lane(lane: int, n: int) -> ConeRecord:
    ones, toggles, last = lane_counts(lane, n)
    return ConeRecord(n=n, ones=ones, toggles=toggles, last=last,
                      lane=lane & ((1 << n) - 1))


def _ensure_packed(circuit: Circuit,
                   vectors: Stimulus) -> Optional[PackedVectors]:
    """Pack dict-vector stimulus; ``None`` when inputs are missing."""
    if isinstance(vectors, PackedVectors):
        if all(net in vectors.words for net in circuit.inputs):
            return vectors
        return None
    try:
        return PackedVectors.from_vectors(circuit.inputs, list(vectors))
    except KeyError:
        return None


# ----------------------------------------------------------------------
# The delta engine
# ----------------------------------------------------------------------
def delta_activity(circuit: Circuit, vectors: Stimulus, *,
                   engine: Optional[str] = None,
                   initial_state: Optional[Dict[str, int]] = None,
                   cache: Optional[ConeCache] = None,
                   populate: bool = True,
                   ) -> Tuple[ActivityReport, DeltaStats]:
    """Activity via the cone cache; bit-identical to full resim.

    Looks every net up by cone key, resimulates only the dirty region
    (with clean boundary nets replayed from cached lanes), and
    assembles the report from per-net records.  Falls back to a plain
    :func:`~repro.logic.simulate.collect_activity` when the stimulus
    cannot be packed, an explicit ``initial_state`` is given (cached
    lanes assume latch init values), or the batch is empty; falls
    back to a full (but cache-populating) lane run when the dirty
    region exceeds :data:`DELTA_MAX_FRACTION` of the nets.
    """
    cache = cache if cache is not None else get_cone_cache()
    packed = _ensure_packed(circuit, vectors)
    if packed is None or packed.n == 0 or initial_state is not None:
        report = collect_activity(circuit, vectors,
                                  initial_state=initial_state,
                                  engine=engine)
        return report, DeltaStats(source="fallback",
                                  total_nets=len(circuit.nets))
    n = packed.n
    resolved = resolve_engine(engine)
    keys = cone_keys(circuit, packed, resolved)
    nets = circuit.nets
    inputs = set(circuit.inputs)
    records: Dict[str, ConeRecord] = {}
    missing: List[str] = []
    # Bulk cache probe: one dict.get per net against the raw entry
    # table (the per-net ``cache.get`` call overhead is measurable at
    # a few thousand nets); counters and LRU recency are settled in
    # aggregate afterwards.
    entries = cache._entries
    entry_get = entries.get
    move = entries.move_to_end
    hits = 0
    for net in nets:
        if net in inputs:
            # Input lanes are the stimulus itself — no cache needed.
            records[net] = _record_from_lane(packed.words[net], n)
            continue
        key = keys[net]
        rec = entry_get(key)
        if rec is not None and rec.n == n:
            records[net] = rec
            move(key)
            hits += 1
        else:
            missing.append(net)
    cache.hits += hits
    cache.misses += len(missing)
    stats = DeltaStats(source="cached", total_nets=len(nets))
    non_input = len(nets) - len(inputs)
    stats.reused_nets = non_input - len(missing)
    stats.dirty_nets = len(missing)

    if missing:
        if len(missing) > DELTA_MAX_FRACTION * max(1, non_input):
            lanes, _ = net_words_engine(circuit, packed,
                                        initial_state=None,
                                        engine=resolved)
            stats.source = "full"
        else:
            # By key construction the miss set is closed under
            # transitive fanout (a consumer's key hashes its fanin
            # cones), so extracting exactly the missing nets yields a
            # well-formed sub-circuit whose boundary is clean.
            sub, boundary = circuit.extract_cone(missing)
            stats.boundary_nets = len(boundary)
            words = {net: packed.words[net]
                     for net in sub.inputs if net in packed.words}
            words.update((b, records[b].lane) for b in boundary)
            sub_packed = PackedVectors(list(sub.inputs), n, words)
            lanes, _ = net_words_engine(sub, sub_packed,
                                        initial_state=None,
                                        engine=resolved)
            stats.source = "delta"
        for net in missing:
            rec = _record_from_lane(lanes[net], n)
            records[net] = rec
            if populate:
                cache.put(keys[net], rec)

    if obs.enabled():
        obs.inc(f"incremental.source.{stats.source}")
        obs.inc("incremental.reused_nets", stats.reused_nets)
        obs.inc("incremental.dirty_nets", stats.dirty_nets)
    return _assemble(circuit, records, n, nets), stats


def _assemble(circuit: Circuit, records: Dict[str, ConeRecord],
              n: int, nets: Optional[List[str]] = None
              ) -> ActivityReport:
    """Splice per-net records into a report, bit-identically.

    Switched capacitance is summed in ``circuit.nets`` order skipping
    zero-toggle nets — the exact float summation both engines use —
    against the *variant's own* load capacitances (cached lanes are
    load-independent).  Clock capacitance counts enable assertions
    over cycles ``0..n-2`` per clocked load-enable latch and ``n - 1``
    per plain clocked flop, matching the chunked accumulation.
    """
    caps = circuit.load_capacitances()
    if nets is None:
        nets = circuit.nets
    toggles: Dict[str, int] = {}
    ones: Dict[str, int] = {}
    for net in nets:
        rec = records[net]
        toggles[net] = rec.toggles
        ones[net] = rec.ones
    switched = 0.0
    for net in nets:
        t = toggles[net]
        if t:
            switched += caps[net] * t
    clock_cap = 0.0
    if circuit.latches and n > 1:
        edges = 0
        for latch in circuit.latches:
            if not latch.clocked:
                continue
            if latch.enable is None:
                edges += n - 1
            else:
                rec = records[latch.enable]
                edges += rec.ones - rec.last
        clock_cap = 2.0 * gatelib.DFF_CLOCK_CAP * edges
    return ActivityReport(cycles=n, toggles=toggles, ones=ones,
                          switched_capacitance=switched,
                          clock_capacitance=clock_cap)


def collect_activity_incremental(circuit: Circuit, vectors: Stimulus,
                                 engine: Optional[str] = None,
                                 initial_state: Optional[Dict[str, int]]
                                 = None,
                                 cache: Optional[ConeCache] = None,
                                 ) -> ActivityReport:
    """Drop-in :func:`~repro.logic.simulate.collect_activity` via the
    cone cache (same report, bit for bit)."""
    report, _ = delta_activity(circuit, vectors, engine=engine,
                               initial_state=initial_state, cache=cache)
    return report


def prime(circuit: Circuit, vectors: Stimulus,
          engine: Optional[str] = None,
          cache: Optional[ConeCache] = None) -> ActivityReport:
    """Populate the cone cache for a base circuit (returns its report)."""
    return collect_activity_incremental(circuit, vectors, engine=engine,
                                        cache=cache)


def estimate_delta(base: Circuit, variant: Circuit, vectors: Stimulus,
                   engine: Optional[str] = None,
                   cache: Optional[ConeCache] = None,
                   ) -> Tuple[ActivityReport, DeltaStats]:
    """Re-estimate an edited ``variant`` against a cached ``base``.

    Primes the cache with the base circuit once per (base structure,
    stimulus, engine) — until the cache evicts a record or is cleared
    — then evaluates the variant through the cone cache: only the
    dirty cone — edited nets plus transitive fanout, closed over
    latch feedback — is resimulated.  Returns the variant's report
    (bit-identical to full resimulation) plus the :class:`DeltaStats`
    describing the reuse; neither depends on whether the prime ran.
    """
    cache = cache if cache is not None else get_cone_cache()
    # The memo token covers everything the base's cone keys depend
    # on.  A cone structure is never mutated and any edit yields a new
    # one, so its serial stands for the base's fingerprints, supports
    # and input order; the stimulus enters by content.
    packed = _ensure_packed(base, vectors)
    token = None
    if packed is not None and packed.n:
        token = (base._cone_structure().serial,
                 stimulus_fingerprint(packed), resolve_engine(engine),
                 packed.n)
    if token is None or token not in cache._primed:
        evictions = cache.evictions
        prime(base, vectors if packed is None else packed,
              engine=engine, cache=cache)
        if token is not None and cache.evictions == evictions:
            cache._primed.add(token)
    return delta_activity(variant, vectors, engine=engine, cache=cache)


def reports_equal(a: ActivityReport, b: ActivityReport) -> bool:
    """Exact (bitwise, including floats) report comparison."""
    return (a.cycles == b.cycles
            and a.toggles == b.toggles
            and a.ones == b.ones
            and a.switched_capacitance == b.switched_capacitance
            and a.clock_capacitance == b.clock_capacitance
            and a.events == b.events
            and a.glitches == b.glitches)
