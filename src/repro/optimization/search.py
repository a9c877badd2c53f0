"""Parallel candidate-evaluation executor for the optimization loops.

Every optimization pass in this package is an estimate/transform/
re-estimate loop (paper §IV): build candidate edits, score each by
re-estimation, keep the best.  The cone cache
(:mod:`repro.logic.incremental`) makes each score cheap; this module
makes the *walk* scale — independent candidates fan out over a
persistent :class:`~concurrent.futures.ProcessPoolExecutor` whose
workers warm-start from the shared :mod:`repro.store` disk layer, so
compiled plans and timed-run memos cross process boundaries.  Cone
records stay in each worker's own cone cache.

Contract
--------

:func:`evaluate_candidates` is the single entry point.  It guarantees:

- **Ordered merge.**  Results come back in candidate order,
  bit-identical to the serial walk, regardless of worker count or
  completion order.  (Candidate evaluations are independent and the
  cone cache is sound by construction, so scheduling cannot leak into
  results.)
- **Deterministic seeding.**  Candidate ``i`` receives
  ``seeding.child_seed(seed, i)`` via ``ctx.seed`` — the same spawn
  key every pool in the repo uses — independent of which worker runs
  it.
- **Serial fallback.**  ``workers <= 1``, a pool that cannot start, a
  job function that cannot pickle, or a worker that dies mid-sweep
  all degrade to in-process evaluation of the affected candidates.
  Never a silent drop: a failed job is re-run in-process, so genuine
  (deterministic) exceptions propagate exactly as the serial walk
  would raise them.
- **Stimulus ships once per worker, not once per candidate.**  The
  packed stimulus + extras are pickled a single time per sweep; small
  contexts ride inline in each job, larger ones are one spool-file
  transfer cached per worker by content fingerprint.  Jobs carry only
  the fingerprint (and the inline bytes, when small).

Knobs: every public pass entry point takes ``workers=N | "auto"``;
``None`` defers to ``REPRO_SEARCH_WORKERS`` (same grammar), default
serial.  ``"auto"`` is the CPU count.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro import store as artifact_store
from repro.util import seeding

__all__ = [
    "ENV_WORKERS", "SearchContext",
    "resolve_workers", "evaluate_candidates", "activity_job",
    "in_worker", "shutdown_pool",
]

#: Environment default for the ``workers`` knob (``N`` or ``auto``).
ENV_WORKERS = "REPRO_SEARCH_WORKERS"

#: Contexts at most this size are inlined into each job submission
#: instead of going through a spool file (re-sending a few KiB per job
#: is cheaper than a file round trip).
_INLINE_LIMIT = 16 * 1024

#: Worker-side context cache entries (keyed by content fingerprint).
_CTX_CACHE_ENTRIES = 4

#: Seconds to wait for the warm-up probe before declaring the pool
#: unusable and falling back to the serial walk.
_PROBE_TIMEOUT_S = 60.0


@dataclass
class SearchContext:
    """Per-sweep payload handed to every job function.

    ``stimuli`` maps names to packed stimulus objects (shipped once
    per worker); ``extras`` carries anything else the sweep shares
    (base circuits, weights, flags).  ``seed`` is this candidate's
    deterministic spawn-key seed, ``engine`` the resolved engine
    request.
    """

    stimuli: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    engine: Optional[str] = None

    def stimulus(self, key: str = "stimulus") -> Any:
        return self.stimuli[key]


def resolve_workers(workers: Union[int, str, None] = None) -> int:
    """The effective worker count for a sweep.

    ``None`` defers to ``REPRO_SEARCH_WORKERS``; ``"auto"`` (either
    place) means the CPU count; anything unparseable means serial.
    Inside a pool worker the answer is always 1 — candidate jobs must
    never nest pools.
    """
    if _WORKER_STATE["in_worker"]:
        return 1
    if workers is None:
        workers = os.environ.get(ENV_WORKERS, "") or 1
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            return max(1, int(text))
        except ValueError:
            return 1
    return max(1, int(workers))


def in_worker() -> bool:
    """True inside a search-pool worker process."""
    return bool(_WORKER_STATE["in_worker"])


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_WORKER_STATE: Dict[str, Any] = {"in_worker": False}
_CTX_CACHE: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()


def _init_worker(store_dir: Optional[str]) -> None:
    """Warm-start one pool worker.

    Point the worker at the sweep's shared disk store (compiled plans
    and timed-run memos written by any process rehydrate here), start
    a fresh bounded in-process cone cache, and pre-import the hot
    modules so the first job measures estimation, not imports.
    """
    _WORKER_STATE["in_worker"] = True
    if store_dir:
        os.environ[artifact_store.ENV_DIR] = store_dir
        artifact_store.set_store(None)      # rebuild from env
    from repro.logic import incremental as inc
    inc.clear_cone_cache()
    import repro.logic.fastsim            # noqa: F401
    import repro.logic.fasttimer          # noqa: F401
    import repro.logic.simulate           # noqa: F401


def _materialize(ref: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side context lookup: fingerprint cache, then transport."""
    fp = ref["fp"]
    hit = fp in _CTX_CACHE
    if hit:
        _CTX_CACHE.move_to_end(fp)
        payload = _CTX_CACHE[fp]
    else:
        kind = ref["kind"]
        if kind == "inline":
            blob = ref["data"]
        else:                                   # "file"
            with open(ref["path"], "rb") as fh:
                blob = fh.read()
        payload = pickle.loads(blob)
        _CTX_CACHE[fp] = payload
        while len(_CTX_CACHE) > _CTX_CACHE_ENTRIES:
            _CTX_CACHE.popitem(last=False)
    payload["_ctx_hit"] = hit
    return payload


def _run_job(fn: Callable[[Any, SearchContext], Any], candidate: Any,
             seed: Optional[int], engine: Optional[str],
             ref: Dict[str, Any]):
    """One candidate evaluation inside a worker; never raises.

    Failures come back tagged so the parent re-runs the candidate
    in-process — genuine exceptions then propagate exactly as the
    serial walk would raise them.
    """
    try:
        payload = _materialize(ref)
        ctx = SearchContext(stimuli=payload["stimuli"],
                            extras=payload["extras"],
                            seed=seed, engine=engine)
        result = fn(candidate, ctx)
        return ("ok", result,
                {"pid": os.getpid(), "ctx_hit": payload["_ctx_hit"]})
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}", None)


def _probe(_: int) -> int:
    """Spawn-forcing no-op (workers are created lazily otherwise)."""
    return os.getpid()


# ----------------------------------------------------------------------
# Parent side: persistent pool + context shipping
# ----------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[tuple] = None
_POOL_STORE_TMP: Optional[tempfile.TemporaryDirectory] = None
_SPOOL_DIR: Optional[tempfile.TemporaryDirectory] = None
_SHIPPED: Dict[str, Dict[str, Any]] = {}
_ATEXIT_REGISTERED = False


def _pool_store_dir() -> str:
    """Disk store shared by the pool: the process store's root when it
    has one, else a pool-lifetime private directory.

    The parent's store object is never replaced — pools must not have
    global configuration side effects — but workers always get a disk
    layer, because cross-worker sharing of compiled plans and
    timed-run memos is the entire warm-start mechanism.
    """
    global _POOL_STORE_TMP
    st = artifact_store.get_store()
    if st.root is not None:
        return str(st.root)
    if _POOL_STORE_TMP is None:
        _POOL_STORE_TMP = tempfile.TemporaryDirectory(
            prefix="repro-search-store-")
    return _POOL_STORE_TMP.name


def shutdown_pool() -> None:
    """Tear down the persistent pool and every shipped context."""
    global _POOL, _POOL_KEY, _POOL_STORE_TMP
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None
    _SHIPPED.clear()
    if _POOL_STORE_TMP is not None:
        _POOL_STORE_TMP.cleanup()
        _POOL_STORE_TMP = None


def _atexit_cleanup() -> None:   # pragma: no cover - interpreter exit
    try:
        shutdown_pool()
    except Exception:
        pass


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, (re)created when shape or store changed."""
    global _POOL, _POOL_KEY, _ATEXIT_REGISTERED
    store_dir = _pool_store_dir()
    key = (workers, store_dir)
    if _POOL is not None and _POOL_KEY == key:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None
    if not _ATEXIT_REGISTERED:
        atexit.register(_atexit_cleanup)
        _ATEXIT_REGISTERED = True
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_init_worker,
                               initargs=(store_dir,))
    try:
        futs = [pool.submit(_probe, k) for k in range(workers)]
        for fut in futs:
            fut.result(timeout=_PROBE_TIMEOUT_S)
    except Exception:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    _POOL = pool
    _POOL_KEY = key
    return pool


def _mark_pool_broken() -> None:
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = None
    _POOL_KEY = None
    obs.inc("search.pool_broken")


def _ship_context(stimuli: Dict[str, Any],
                  extras: Dict[str, Any]) -> Dict[str, Any]:
    """Serialize the sweep context once; return a tiny job-side ref.

    Identical contexts (same content fingerprint) reuse the transfer
    already in flight — a pass sweeping the same stimulus twice ships
    zero new bytes, and every worker's fingerprint cache keeps its
    one deserialized copy across the whole sweep.
    """
    blob = pickle.dumps({"stimuli": stimuli, "extras": extras},
                        protocol=pickle.HIGHEST_PROTOCOL)
    fp = hashlib.sha256(blob).hexdigest()
    ref = _SHIPPED.get(fp)
    if ref is not None:
        return ref
    if len(blob) <= _INLINE_LIMIT:
        ref = {"kind": "inline", "fp": fp, "data": blob}
    else:
        # One pickled transfer through a spool file, cached per
        # worker by fingerprint.
        global _SPOOL_DIR
        if _SPOOL_DIR is None:
            _SPOOL_DIR = tempfile.TemporaryDirectory(
                prefix="repro-search-ctx-")
        path = os.path.join(_SPOOL_DIR.name, fp + ".pkl")
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        ref = {"kind": "file", "fp": fp, "path": path}
    _SHIPPED[fp] = ref
    obs.inc("search.ctx_shipped")
    obs.inc("search.ctx_bytes", len(blob))
    return ref


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

def evaluate_candidates(fn: Callable[[Any, SearchContext], Any],
                        candidates: Sequence[Any], *,
                        stimuli: Optional[Dict[str, Any]] = None,
                        extras: Optional[Dict[str, Any]] = None,
                        workers: Union[int, str, None] = None,
                        engine: Optional[str] = None,
                        seed: Optional[int] = None,
                        label: str = "candidates") -> List[Any]:
    """Evaluate ``fn(candidate, ctx)`` for every candidate, in order.

    The scheduling contract is at the top of this module: ordered
    merge bit-identical to the serial walk, deterministic per-
    candidate seeds, serial fallback on any pool trouble.  ``fn`` must
    be a module-level callable (pickled by reference) and candidates
    must pickle; the shared ``stimuli``/``extras`` payload ships once
    per worker, not once per candidate.
    """
    candidates = list(candidates)
    stimuli = stimuli or {}
    extras = extras or {}
    n_workers = resolve_workers(workers)
    seeds = seeding.spawn_seeds(seed, len(candidates))

    def _serial_one(i: int) -> Any:
        ctx = SearchContext(stimuli=stimuli, extras=extras,
                            seed=seeds[i], engine=engine)
        return fn(candidates[i], ctx)

    with obs.span("search.map", label=label, candidates=len(candidates),
                  workers=n_workers) as sp:
        obs.inc("search.jobs", len(candidates))
        if n_workers <= 1 or len(candidates) < 2:
            obs.inc("search.serial_jobs", len(candidates))
            sp.set("mode", "serial")
            return [_serial_one(i) for i in range(len(candidates))]

        try:
            pool = _get_pool(n_workers)
        except Exception:
            obs.inc("search.fallbacks")
            sp.set("mode", "serial-fallback")
            return [_serial_one(i) for i in range(len(candidates))]

        with obs.span("search.dispatch", jobs=len(candidates)):
            ref = _ship_context(stimuli, extras)
            try:
                futures = [pool.submit(_run_job, fn, cand, seeds[i],
                                       engine, ref)
                           for i, cand in enumerate(candidates)]
            except Exception:
                # Unpicklable job function or candidate: nothing was
                # reliably enqueued — walk the whole list in-process.
                _mark_pool_broken()
                obs.inc("search.fallbacks")
                sp.set("mode", "serial-fallback")
                return [_serial_one(i) for i in range(len(candidates))]

        sp.set("mode", "parallel")
        obs.inc("search.parallel_jobs", len(candidates))
        results: List[Any] = [None] * len(candidates)
        with obs.span("search.merge", jobs=len(futures)):
            for i, fut in enumerate(futures):
                outcome = None
                try:
                    outcome = fut.result()
                except Exception:
                    # Dead worker / broken pool: every still-pending
                    # future raises; each affected candidate degrades
                    # to an in-process evaluation below.
                    _mark_pool_broken()
                if outcome is not None and outcome[0] == "ok":
                    results[i] = outcome[1]
                    meta = outcome[2] or {}
                    obs.inc("search.ctx_hits" if meta.get("ctx_hit")
                            else "search.ctx_misses")
                else:
                    obs.inc("search.inprocess_retries")
                    results[i] = _serial_one(i)
        return results


# ----------------------------------------------------------------------
# The common job: activity of one candidate circuit
# ----------------------------------------------------------------------

def activity_job(candidate: Any, ctx: SearchContext):
    """Activity report for one candidate circuit.

    ``candidate`` is a circuit or a ``(circuit, stimulus_key)`` pair
    (the key selects from ``ctx.stimuli``; default ``"stimulus"``).
    ``ctx.extras["incremental"]`` (default True) routes through the
    cone cache — in a pool worker, that worker's own cache, filled by
    the candidates it evaluated before; either route returns the
    bit-identical report.
    """
    if isinstance(candidate, tuple):
        circuit, key = candidate
    else:
        circuit, key = candidate, "stimulus"
    vectors = ctx.stimuli[key]
    if ctx.extras.get("incremental", True):
        from repro.logic import incremental as inc
        return inc.collect_activity_incremental(circuit, vectors,
                                                engine=ctx.engine)
    from repro.logic.simulate import collect_activity
    return collect_activity(circuit, vectors, engine=ctx.engine)
