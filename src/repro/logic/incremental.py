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
  priming each base once per stimulus and engine; a variant whose
  cone structure was derived from a primed base's starts from that
  base's keys and records and probes only the nets its edit rehashed.

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
from functools import reduce
from itertools import compress
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, \
    Union

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


class _PrimedBase(NamedTuple):
    """What the cache holds for one primed base (see :func:`prime`)."""

    records: Dict[str, ConeRecord]     # non-input nets (all pinned)
    toggles: Dict[str, int]            # the base report's, nets order
    ones: Dict[str, int]
    keys: Tuple[ConeKey, ...]          # the records' keys


class ConeCache:
    """Process-wide cache of :class:`ConeRecord` by cone key, byte-budgeted.

    The budget (``REPRO_CONE_CACHE_BYTES``, default 128 MiB) counts
    lane payloads — one record for an ``n``-cycle run costs about
    ``n/8`` bytes — so long traces over large circuit populations
    evict gracefully instead of growing without bound.

    The cache also remembers the bases :func:`prime` ran on, with
    their per-net records, and pins those records: eviction takes
    unpinned records (variants', least recently used first) before
    any primed base's.  When only pinned records are left, the least
    recently used base is released — its token and record map are
    dropped and its records become ordinary LRU entries — so pinned
    records stay inside the budget, and every remembered base has all
    its records resident.  :meth:`clear` forgets everything.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_CACHE_BYTES, ""))
            except ValueError:
                max_bytes = DEFAULT_CACHE_BYTES
        self.max_bytes = int(max_bytes)
        self._entries: Dict[ConeKey, ConeRecord] = {}
        #: Unpinned keys, least recently used first.
        self._lru: "OrderedDict[ConeKey, None]" = OrderedDict()
        #: Pinned key -> number of primed bases holding it.
        self._pins: Dict[ConeKey, int] = {}
        #: Prime token (see :func:`estimate_delta`) -> that base's
        #: records, least recently used first.
        self._primed: "OrderedDict[tuple, _PrimedBase]" = OrderedDict()
        self._bytes = 0
        self._pinned_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.primes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ConeKey) -> Optional[ConeRecord]:
        rec = self._entries.get(key)
        if rec is None:
            self.misses += 1
            return None
        self._touch(key)
        self.hits += 1
        return rec

    def _touch(self, key: ConeKey) -> None:
        if key in self._lru:
            self._lru.move_to_end(key)

    def put(self, key: ConeKey, rec: ConeRecord) -> None:
        old = self._entries.get(key)
        if old is not None:
            self._bytes -= old.nbytes()
        self._entries[key] = rec
        self._bytes += rec.nbytes()
        if key in self._pins:
            self._pinned_bytes += rec.nbytes() - old.nbytes()
        else:
            self._lru[key] = None
            self._lru.move_to_end(key)
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            if self._lru:
                evicted, _ = self._lru.popitem(last=False)
                self._bytes -= self._entries.pop(evicted).nbytes()
                self.evictions += 1
            else:
                self._release(next(iter(self._primed)))

    def _hold(self, token: tuple, base: _PrimedBase) -> None:
        """Remember a primed base and pin its (resident) records."""
        pins, lru = self._pins, self._lru
        for key in base.keys:
            count = pins.get(key, 0)
            if not count:
                del lru[key]
                self._pinned_bytes += self._entries[key].nbytes()
            pins[key] = count + 1
        self._primed[token] = base

    def _release(self, token: tuple) -> None:
        """Forget a primed base; records no other base pins become the
        least recently used entries, in the base's ``nets`` order."""
        pins, lru = self._pins, self._lru
        for key in reversed(self._primed.pop(token).keys):
            count = pins.pop(key) - 1
            if count:
                pins[key] = count
                continue
            self._pinned_bytes -= self._entries[key].nbytes()
            lru[key] = None
            lru.move_to_end(key, last=False)

    def clear(self) -> None:
        self._entries.clear()
        self._lru.clear()
        self._pins.clear()
        self._primed.clear()
        self._bytes = 0
        self._pinned_bytes = 0

    def stats(self) -> Dict[str, int]:
        """Counters; ``primes`` counts :func:`prime` runs (including
        the ones :func:`estimate_delta` makes), ``pinned_bytes`` the
        part of ``bytes`` that primed bases hold."""
        return {"entries": len(self._entries), "bytes": self._bytes,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "max_bytes": self.max_bytes, "primes": self.primes,
                "pinned_bytes": self._pinned_bytes}


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

    The result is memoized on the circuit's cone structure for the
    last (stimulus lanes, engine, batch length) it was asked for;
    treat it as read-only.  A structure derived by a retype starts
    from its parent's keys and re-keys only the nets the retype
    rehashed: their supports, hence their stimulus tails, carry over.
    """
    # Structural work (a derive after an edit) runs inside the public
    # cone pass, where profiles attribute it.
    fps = circuit.cone_fingerprints()
    snap = circuit._cone_structure()
    lane_hashes = input_lane_hashes(packed)
    digests = tuple(lane_hashes.get(net, b"\xffmissing")
                    for net in snap.inputs)
    stimulus = (engine, packed.n, digests)
    if snap.keys is not None and snap.keys[0] == stimulus:
        return snap.keys[1]
    base, snap.keys_base = snap.keys_base, None
    if base is not None and base[0] == stimulus:
        keys = dict(base[1])
        for net in snap.rehashed:
            keys[net] = (fps[net], keys[net][1])
        snap.keys = (stimulus, keys)
        return keys
    suffix = f"|{engine}|{packed.n}".encode("ascii")
    # In-process keys are plain (fingerprint, stimulus-tail) tuples:
    # tuple equality/hash is what dict probes pay for, and hashing a
    # cryptographic digest again for a process-local dict would buy
    # nothing.  Tails depend only on (stimulus, engine, batch length,
    # input order), so the mask->tail memo rides the packed-stimulus
    # object: a candidate sweep over one stimulus pays each distinct
    # support mask's bit-walk once, and identical tails across
    # candidates stay one shared bytes object.
    memo_key = (engine, packed.n, snap.inputs)
    memos = getattr(packed, "_tail_memo", None)
    if memos is None:
        memos = {}
        try:
            packed._tail_memo = memos
        except AttributeError:
            pass
    mask_bytes = memos.setdefault(memo_key, {})
    keys = {}
    masks_get = snap.supports.__getitem__
    for net in snap.nets:
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
        keys[net] = (fps[net], tail)
    snap.keys = (stimulus, keys)
    return keys


def _record_from_lane(lane: int, n: int) -> ConeRecord:
    ones, toggles, last = lane_counts(lane, n)
    if lane < 0 or lane.bit_length() > n:
        lane &= (1 << n) - 1
    return ConeRecord(n=n, ones=ones, toggles=toggles, last=last,
                      lane=lane)


def _input_records(packed: PackedVectors,
                   inputs: Sequence[str]) -> Dict[str, ConeRecord]:
    """Records of the stimulus lanes of ``inputs``, memoized on the
    packed-stimulus object like its lane hashes."""
    memo = getattr(packed, "_input_records", None)
    if memo is None:
        memo = {}
        try:
            packed._input_records = memo
        except AttributeError:
            pass
    records = {}
    for net in inputs:
        rec = memo.get(net)
        if rec is None:
            rec = memo[net] = _record_from_lane(packed.words[net],
                                                packed.n)
        records[net] = rec
    return records


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
    assembles the report from per-net records.  A circuit whose cone
    structure was derived from a primed base's (see :func:`prime`)
    starts from that base's records, which stay valid for its
    unchanged keys, and probes only the nets its edit rehashed; the
    report and :class:`DeltaStats` are the same either way.  Falls
    back to a plain :func:`~repro.logic.simulate.collect_activity`
    when the stimulus cannot be packed, an explicit ``initial_state``
    is given (cached lanes assume latch init values), or the batch is
    empty; falls back to a full (but cache-populating) lane run when
    the dirty region exceeds :data:`DELTA_MAX_FRACTION` of the nets.
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
    snap = circuit._cone_structure()
    nets = snap.nets
    non_input = len(nets) - len(snap.inputs)
    base = None
    if cache._primed and snap.parent:
        token = (snap.parent, stimulus_fingerprint(packed), resolved, n)
        base = cache._primed.get(token)
    # Input lanes are the stimulus itself — no cache needed.
    inputs = _input_records(packed, snap.inputs)
    if base is not None:
        cache._primed.move_to_end(token)
        records = dict(base.records)
        records.update(inputs)
        probe: Sequence[str] = snap.rehashed
    else:
        records = inputs
        probe = nets[len(snap.inputs):]
    missing: List[str] = []
    # Bulk cache probe: one dict.get per probed net against the raw
    # entry table (the per-net ``cache.get`` call overhead is
    # measurable at a few thousand nets); the counters are settled in
    # aggregate afterwards.
    entry_get = cache._entries.get
    touch = cache._touch
    for net in probe:
        key = keys[net]
        rec = entry_get(key)
        if rec is not None and rec.n == n:
            records[net] = rec
            touch(key)
        else:
            missing.append(net)
    cache.hits += non_input - len(missing)
    cache.misses += len(missing)
    stats = DeltaStats(source="cached", total_nets=len(nets))
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

    if base is None:
        toggles = {net: records[net].toggles for net in nets}
        ones = {net: records[net].ones for net in nets}
    else:
        toggles = dict(base.toggles)
        ones = dict(base.ones)
        for net in probe:
            rec = records[net]
            toggles[net] = rec.toggles
            ones[net] = rec.ones
    if obs.enabled():
        obs.inc(f"incremental.source.{stats.source}")
        obs.inc("incremental.reused_nets", stats.reused_nets)
        obs.inc("incremental.dirty_nets", stats.dirty_nets)
    return _assemble(circuit, records, n, toggles, ones), stats


def _assemble(circuit: Circuit, records: Dict[str, ConeRecord], n: int,
              toggles: Dict[str, int], ones: Dict[str, int]
              ) -> ActivityReport:
    """Splice per-net counts (``toggles``/``ones`` in ``circuit.nets``
    order) into a report, bit-identically.

    Switched capacitance is summed in ``circuit.nets`` order skipping
    zero-toggle nets — the exact float summation both engines use —
    against the *variant's own* load capacitances (cached lanes are
    load-independent).  Clock capacitance counts enable assertions
    over cycles ``0..n-2`` per clocked load-enable latch and ``n - 1``
    per plain clocked flop, matching the chunked accumulation.
    """
    caps = circuit.load_capacitances()
    counts = list(toggles.values())
    # Left to right from 0.0, one rounding per add: the engines' loop.
    switched = reduce(add, map(mul, map(caps.__getitem__,
                                        compress(toggles, counts)),
                               filter(None, counts)), 0.0)
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
    """Populate the cone cache for a base circuit (returns its report).

    When all the base's records are still resident afterwards, the
    cache remembers the base under its token — (cone structure,
    stimulus fingerprint, engine, cycles) — and pins its records (see
    :class:`ConeCache`); a variant derived from it then starts from
    them.  A prime that lost some of its own records to eviction is
    not remembered, and it releases every other base, so the next
    prime can fit.
    """
    cache = cache if cache is not None else get_cone_cache()
    packed = _ensure_packed(circuit, vectors)
    report = collect_activity_incremental(
        circuit, vectors if packed is None else packed, engine=engine,
        cache=cache)
    cache.primes += 1
    if packed is None or not packed.n:
        return report
    resolved = resolve_engine(engine)
    snap = circuit._cone_structure()
    token = (snap.serial, stimulus_fingerprint(packed), resolved, packed.n)
    if token in cache._primed:
        cache._primed.move_to_end(token)
        return report
    keys = cone_keys(circuit, packed, resolved)
    nets = snap.nets
    held = tuple(keys[net] for net in nets[len(snap.inputs):])
    entries = cache._entries
    if not all(key in entries for key in held):
        for other in list(cache._primed):
            cache._release(other)
        return report
    records = dict(zip(nets[len(snap.inputs):],
                       map(entries.__getitem__, held)))
    every = _input_records(packed, snap.inputs)
    every.update(records)
    cache._hold(token, _PrimedBase(
        records, {net: every[net].toggles for net in nets},
        {net: every[net].ones for net in nets}, held))
    return report


def estimate_delta(base: Circuit, variant: Circuit, vectors: Stimulus,
                   engine: Optional[str] = None,
                   cache: Optional[ConeCache] = None,
                   ) -> Tuple[ActivityReport, DeltaStats]:
    """Re-estimate an edited ``variant`` against a cached ``base``.

    Primes the cache with the base circuit once per (base structure,
    stimulus, engine) — until one of the base's records is evicted
    or the cache is cleared — then evaluates the variant through the
    cone cache: only the dirty cone — edited nets plus transitive
    fanout, closed over latch feedback — is resimulated.  Returns the
    variant's report (bit-identical to full resimulation) plus the
    :class:`DeltaStats` describing the reuse; neither depends on
    whether the prime ran.
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
        prime(base, vectors if packed is None else packed,
              engine=engine, cache=cache)
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
