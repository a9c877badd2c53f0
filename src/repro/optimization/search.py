"""Candidate-evaluation executor for the optimization loops.

Every optimization pass in this package is an estimate/transform/
re-estimate loop (paper §IV): build candidate edits, score each by
re-estimation, keep the best.  :func:`evaluate_candidates` is the one
ordered, seeded map those loops run through.  The circuit-activity
loops (guarded evaluation, clock gating, precomputation,
respecification, retiming, the bus-code survey) walk it serially: the
cone cache (:mod:`repro.logic.incremental`) already makes each score
cheap, and shipping their stimuli to a pool cost more than it saved.
Two CPU-bound fan-outs with small contexts take ``workers=`` and do
pay for a pool: annealing restarts
(:func:`repro.fsm.encoding.low_power_encoding`) and population
characterization
(:func:`repro.estimation.learned.characterize_population`).

:func:`start_pool` is the one place the repo builds a process pool;
the estimation service (:mod:`repro.serve`) gets its workers there too.

Contract
--------

:func:`evaluate_candidates` guarantees:

- **Ordered merge.**  Results come back in candidate order,
  bit-identical to the serial walk, regardless of worker count or
  completion order.
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

Knobs: ``workers=N | "auto"`` on the pooled callers; ``None`` means
serial, ``"auto"`` the CPU count.  A pooled job carries its own
pickled :class:`SearchContext`.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro import store as artifact_store
from repro.util import seeding

__all__ = [
    "SearchContext",
    "resolve_workers", "evaluate_candidates", "activity_job",
    "in_worker", "start_pool", "shutdown_pool",
]

#: Seconds to wait for the warm-up probe before declaring the pool
#: unusable and falling back to the serial walk.
_PROBE_TIMEOUT_S = 60.0


@dataclass
class SearchContext:
    """Per-sweep payload handed to every job function.

    ``stimuli`` maps names to packed stimulus objects; ``extras``
    carries anything else the sweep shares (base circuits, weights,
    flags).  ``seed`` is this candidate's deterministic spawn-key
    seed, ``engine`` the resolved engine request.
    """

    stimuli: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    engine: Optional[str] = None

    def stimulus(self, key: str = "stimulus") -> Any:
        return self.stimuli[key]


def resolve_workers(workers: Union[int, str, None] = None) -> int:
    """The effective worker count for a sweep.

    ``None`` means serial; ``"auto"`` means the CPU count; anything
    unparseable means serial.  Inside a pool worker the answer is
    always 1 — candidate jobs must never nest pools.
    """
    if _WORKER_STATE["in_worker"] or workers is None:
        return 1
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


def _init_worker(store_dir: Optional[str]) -> None:
    """Warm-start one pool worker.

    Point the worker at the pool's shared disk store, when there is
    one (compiled plans and timed-run memos written by any process
    rehydrate here), mark it a pool worker (its jobs never nest a
    pool), start a fresh bounded in-process cone cache, and pre-import
    the hot modules so the first job measures estimation, not imports.
    """
    _WORKER_STATE["in_worker"] = True
    if store_dir:
        os.environ[artifact_store.ENV_DIR] = store_dir
        artifact_store.set_store(None)      # rebuild from env
    from repro.logic import incremental as inc
    inc.clear_cone_cache()
    import repro.core                     # noqa: F401
    import repro.logic.eventsim           # noqa: F401
    import repro.logic.fastsim            # noqa: F401
    import repro.logic.fasttimer          # noqa: F401
    import repro.logic.generators         # noqa: F401
    import repro.logic.simulate           # noqa: F401


def _run_job(fn: Callable[[Any, SearchContext], Any], candidate: Any,
             ctx: SearchContext):
    """One candidate evaluation inside a worker; never raises.

    Failures come back tagged so the parent re-runs the candidate
    in-process — genuine exceptions then propagate exactly as the
    serial walk would raise them.
    """
    try:
        return ("ok", fn(candidate, ctx))
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _probe(_: int) -> int:
    """Spawn-forcing no-op (workers are created lazily otherwise)."""
    return os.getpid()


# ----------------------------------------------------------------------
# Parent side: the persistent pool
# ----------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[tuple] = None
_ATEXIT_REGISTERED = False


def shutdown_pool() -> None:
    """Tear down the persistent pool."""
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None


def _atexit_cleanup() -> None:   # pragma: no cover - interpreter exit
    try:
        shutdown_pool()
    except Exception:
        pass


def start_pool(workers: int,
               store_dir: Optional[str]) -> ProcessPoolExecutor:
    """A fresh pool of ``workers`` warm workers sharing ``store_dir``.

    Every worker runs :func:`_init_worker` and answers a warm-up probe
    before this returns; raises if the pool cannot start.  A pool that
    breaks is discarded, and the next submission starts a fresh one.
    """
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
    return pool


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent sweep pool, (re)created when its width or the
    process store's root changed, or after it broke.

    Workers share the process store's disk layer when it has one; the
    parent's store object is never replaced.
    """
    global _POOL, _POOL_KEY, _ATEXIT_REGISTERED
    root = artifact_store.get_store().root
    store_dir = None if root is None else str(root)
    key = (workers, store_dir)
    if _POOL is not None and _POOL_KEY == key:
        return _POOL
    shutdown_pool()
    if not _ATEXIT_REGISTERED:
        atexit.register(_atexit_cleanup)
        _ATEXIT_REGISTERED = True
    _POOL = start_pool(workers, store_dir)
    _POOL_KEY = key
    return _POOL


def _mark_pool_broken() -> None:
    shutdown_pool()
    obs.inc("search.pool_broken")


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
    candidate seeds, serial fallback on any pool trouble.  Pooled,
    ``fn`` must be a module-level callable (pickled by reference), and
    each job pickles its candidate and its :class:`SearchContext`.
    """
    candidates = list(candidates)
    stimuli = stimuli or {}
    extras = extras or {}
    n_workers = resolve_workers(workers)
    seeds = seeding.spawn_seeds(seed, len(candidates))

    def _ctx(i: int) -> SearchContext:
        return SearchContext(stimuli=stimuli, extras=extras,
                             seed=seeds[i], engine=engine)

    def _serial_one(i: int) -> Any:
        return fn(candidates[i], _ctx(i))

    with obs.span("search.map", label=label, candidates=len(candidates),
                  workers=n_workers) as sp:
        obs.inc("search.jobs", len(candidates))
        if n_workers <= 1 or len(candidates) < 2:
            obs.inc("search.serial_jobs", len(candidates))
            sp.set("mode", "serial")
            return [_serial_one(i) for i in range(len(candidates))]

        try:
            pool = _get_pool(n_workers)
            with obs.span("search.dispatch", jobs=len(candidates)):
                futures = [pool.submit(_run_job, fn, cand, _ctx(i))
                           for i, cand in enumerate(candidates)]
        except Exception:
            # No pool, or an unpicklable job: nothing was reliably
            # enqueued — walk the whole list in-process.
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
    process cone cache, filled by the candidates evaluated before;
    either route returns the bit-identical report.  The activity
    passes call it through the serial :func:`evaluate_candidates`.
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
