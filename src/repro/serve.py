"""repro.serve — the long-running power-estimation service.

``python -m repro serve`` stands up an HTTP server (stdlib
``http.server``, threading front end) over a **persistent warm worker
pool** of processes (:func:`repro.optimization.search.start_pool`)
that share the content-addressed plan store (:mod:`repro.store`).
The serving economics are the whole point:
compiling a circuit's simulation plans costs orders of magnitude more
than evaluating a batch of cycles, so a service that keeps workers
alive and plans content-addressed pays the mapping cost once per
*structure* — every later request for the same circuit, from any
client, rehydrates in microseconds.  This is the repo's analogue of
power emulation's "pay the FPGA mapping once, then stream
evaluations", and the prerequisite for cheap thousand-run
characterization loops.

Protocol (JSON over HTTP; responses to ``/estimate`` stream as
NDJSON, one line per completed job, completion order):

- ``GET  /healthz``   liveness + pool shape
- ``GET  /stats``     job counters, latency percentiles, worker store
                      hits/misses
- ``GET  /telemetry`` the full :mod:`repro.obs` export
- ``POST /estimate``  ``{"jobs": [JOB, ...]}``
- ``POST /shutdown``  graceful stop

A JOB is::

    {"circuit":   {"generator": "ripple_carry_adder",
                   "params": {"width": 8}}         # or {"netlist": ...}
                                                   # or {"blif": "..."}
     "technique": "simulation" | "event-driven" | "probabilistic"
                  | "monte-carlo" | "entropy" | "learned",
     "engine":    "fast" | "reference",  # optional; others fail the job
     "cycles":    256,            # stimulus length (simulation-backed)
     "seed":      1,              # stimulus seed
     "shards":    1,              # split across the pool, merge results
     "vdd": 1.0, "freq": 1.0,    # optional electrical scaling
     "id":        "anything"}     # echoed back; default: batch index

Batching and sharding: every request's jobs fan out over the pool
concurrently; a job with ``shards > 1`` is additionally split into
independent stimulus shards (distinct seeds, cycles divided) whose
estimates merge as a cycle-weighted mean — the classic
variance-reduction layout for Monte-Carlo-style power estimation.

Each job result reports the worker's plan-store traffic
(``store_hits``/``store_misses``) so clients and the load-generator
bench can observe warm-start behavior directly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro import store as artifact_store
from repro.optimization import search
from repro.util import seeding

__all__ = ["EstimationServer", "Client", "run_job", "main",
           "TECHNIQUES", "GENERATORS", "SEARCH_STREAMS"]

#: Techniques a job may request (the gate/entropy subset of
#: :class:`repro.core.estimator.PowerEstimator` — the ones that take a
#: netlist + optional stimulus — plus the batch candidate-search
#: front-end over :mod:`repro.optimization.search`).
TECHNIQUES = ("simulation", "event-driven", "probabilistic",
              "monte-carlo", "entropy", "learned", "search")

#: Address-stream generators a "search" job's bus survey may name
#: (allowlist, same rationale as :data:`GENERATORS`).
SEARCH_STREAMS = ("random", "sequential", "interleaved", "correlated")

#: Circuit generators a job may name (allowlist; arbitrary callables
#: never cross the wire).
GENERATORS = (
    "ripple_carry_adder", "carry_lookahead_adder", "array_multiplier",
    "equality_comparator", "magnitude_comparator", "parity_tree",
    "random_logic", "counter", "shift_register", "chained_adder_tree",
)

#: Hard cap on jobs per request (a runaway client should get an
#: error, not an OOM).
MAX_BATCH = 10_000

#: Stimulus length cap per job (packed words grow with cycles).
MAX_CYCLES = 1 << 22

#: Latency samples kept for the /stats percentiles.
_LATENCY_WINDOW = 20_000


# ----------------------------------------------------------------------
# Job execution (worker side)
# ----------------------------------------------------------------------
def _build_circuit(spec: Dict[str, Any]):
    from repro.logic import generators as genlib
    from repro.logic.blif import read_blif
    from repro.logic.netlist import Circuit

    if not isinstance(spec, dict):
        raise ValueError("circuit spec must be an object")
    if "generator" in spec:
        name = spec["generator"]
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("generator params must be an object")
        return getattr(genlib, name)(**params)
    if "netlist" in spec:
        return Circuit.from_dict(spec["netlist"])
    if "blif" in spec:
        return read_blif(io.StringIO(spec["blif"]))
    raise ValueError(
        "circuit spec needs one of generator/netlist/blif")


def _run_search(job: Dict[str, Any], cycles: int, seed,
                engine) -> Dict[str, Any]:
    """Execute one batch candidate-search job (technique "search").

    Two allowlisted kinds: ``bus-survey`` fans every implemented bus
    code over one address stream (:func:`survey_codes`), ``guarded``
    measures the top-k guard candidates of a circuit
    (:func:`evaluate_guarded`).  In a serve worker the candidate walk
    is serial: serve workers are search-pool workers (built by
    :func:`search.start_pool`), so a job never nests a pool inside the
    serve pool, whose workers already run a batch's jobs in parallel.
    """
    from repro.logic import fastsim
    from repro.optimization import bus_encoding
    from repro.optimization.guarded_eval import evaluate_guarded

    spec = job.get("search", {})
    if not isinstance(spec, dict):
        raise ValueError("search spec must be an object")
    kind = spec.get("kind", "bus-survey")

    if kind == "bus-survey":
        width = int(spec.get("width", 12))
        if not 1 <= width <= 32:
            raise ValueError(f"bus width out of range: {width}")
        stream_name = spec.get("stream", "random")
        if stream_name not in SEARCH_STREAMS:
            raise ValueError(f"unknown stream {stream_name!r}")
        base_seed = 0 if seed is None else int(seed)
        if stream_name == "sequential":
            stream = bus_encoding.sequential_addresses(width, cycles)
        elif stream_name == "interleaved":
            stream = bus_encoding.interleaved_array_addresses(
                width, cycles)
        elif stream_name == "correlated":
            stream = bus_encoding.correlated_block_addresses(
                width, cycles, seed=base_seed)
        else:
            stream = bus_encoding.random_addresses(width, cycles,
                                                   seed=base_seed)
        reports = bus_encoding.survey_codes(stream, engine=engine)
        best = min(reports, key=lambda r: (r.transitions, r.code))
        return {
            "kind": kind,
            "results": [{"code": r.code,
                         "transitions": r.transitions,
                         "per_cycle": r.per_cycle,
                         "lines": r.lines} for r in reports],
            "best": best.code,
            "power": best.per_cycle,
        }

    if kind == "guarded":
        circuit = _build_circuit(job.get("circuit", {}))
        vectors = fastsim.random_packed_vectors(
            circuit.inputs, cycles, seed=seed)
        if engine == "reference":
            vectors = vectors.to_vectors()
        top_k = max(1, int(spec.get("top_k", 3)))
        report = evaluate_guarded(circuit, vectors, top_k=top_k,
                                  engine=engine)
        payload: Dict[str, Any] = {
            "kind": kind,
            "fingerprint": circuit.fingerprint(),
        }
        if report is None:
            payload.update(results=[], best=None, power=None)
            return payload
        payload.update(
            results=[{"guard": report.candidate.guard,
                      "guarded": report.candidate.guarded,
                      "cone_gates": report.candidate.cone_gates}],
            best=report.candidate.guard,
            power=report.guarded_power,
            original_power=report.original_power,
            saving=report.saving,
            equivalent=report.equivalent,
        )
        return payload

    raise ValueError(f"unknown search kind {kind!r}")


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one estimation job; always returns a result dict.

    Runs in a pool worker.  Reports the worker's plan-store traffic
    delta alongside the estimate, so callers can see whether the
    plans were rehydrated (warm) or compiled (cold).  Never raises:
    failures come back as ``{"ok": false, "error": ...}``.
    """
    from repro.core import PowerEstimator
    from repro.logic import fastsim

    t0 = time.perf_counter()
    st = artifact_store.get_store()
    before = st.stats()
    try:
        technique = job.get("technique", "simulation")
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}")
        cycles = int(job.get("cycles", 256))
        if not 1 <= cycles <= MAX_CYCLES:
            raise ValueError(f"cycles out of range: {cycles}")
        seed = job.get("seed")
        engine = job.get("engine")
        if technique == "search":
            payload = _run_search(job, cycles, seed, engine)
            after = st.stats()
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            return {
                "ok": True,
                "technique": "search",
                "cycles": cycles,
                "elapsed_ms": round(elapsed_ms, 3),
                "store_hits": (after["mem_hits"] + after["disk_hits"]
                               - before["mem_hits"]
                               - before["disk_hits"]),
                "store_misses": after["misses"] - before["misses"],
                "pid": os.getpid(),
                **payload,
            }
        circuit = _build_circuit(job.get("circuit", {}))

        estimator = PowerEstimator(vdd=float(job.get("vdd", 1.0)),
                                   freq=float(job.get("freq", 1.0)))
        if technique in ("simulation", "event-driven", "learned"):
            # "learned" is simulation-backed too: the stimulus drives
            # the model's windowed features.  Fitted models come from
            # the shared artifact store, so the first worker to see a
            # structure pays the characterize+fit cost and every
            # later job (any worker, any process) rehydrates it.
            vectors = fastsim.random_packed_vectors(
                circuit.inputs, cycles, seed=seed)
            if engine == "reference":
                vectors = vectors.to_vectors()
            result = estimator.gate(circuit, vectors,
                                    technique=technique, engine=engine)
        elif technique == "entropy":
            vectors = fastsim.random_packed_vectors(
                circuit.inputs, cycles, seed=seed).to_vectors()
            result = estimator.entropic(circuit, vectors)
        else:                  # probabilistic / monte-carlo: no stimulus
            result = estimator.gate(circuit, technique=technique)

        after = st.stats()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        return {
            "ok": True,
            "power": result.power,
            "technique": result.technique,
            "level": result.level,
            "cost": result.cost,
            "cycles": cycles,
            "fingerprint": circuit.fingerprint(),
            "elapsed_ms": round(elapsed_ms, 3),
            "store_hits": (after["mem_hits"] + after["disk_hits"]
                           - before["mem_hits"] - before["disk_hits"]),
            "store_misses": after["misses"] - before["misses"],
            "pid": os.getpid(),
        }
    except Exception as exc:
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_ms": round((time.perf_counter() - t0) * 1e3, 3),
            "pid": os.getpid(),
        }


def _shard_jobs(job: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Split one job into independent stimulus shards.

    Only simulation-backed techniques shard (the analytical ones have
    no stimulus to divide).  Shards draw distinct seeds so their
    estimates are statistically independent.
    """
    shards = int(job.get("shards", 1) or 1)
    technique = job.get("technique", "simulation")
    # "search" jobs are indivisible: their candidate fan-out happens
    # inside the job (the search pool), not across stimulus shards.
    if shards <= 1 or technique in ("probabilistic", "monte-carlo",
                                    "search"):
        return [job]
    cycles = int(job.get("cycles", 256))
    shards = max(1, min(shards, cycles))
    per = (cycles + shards - 1) // shards
    seed = job.get("seed")
    subs = []
    for k in range(shards):
        sub = dict(job)
        sub["cycles"] = min(per, cycles - k * per)
        # Spawn-key seeds: the one derivation scheme shared with the
        # learned characterization and the search pool
        # (repro.util.seeding), replacing the old ad-hoc +7919*k walk.
        sub["seed"] = None if seed is None \
            else seeding.child_seed(int(seed), k)
        sub.pop("shards", None)
        subs.append(sub)
    return subs


def _merge_shards(parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Cycle-weighted merge of shard results into one job result."""
    if len(parts) == 1:
        return dict(parts[0])
    failed = [p for p in parts if not p.get("ok")]
    if failed:
        out = dict(failed[0])
        out["shards"] = len(parts)
        return out
    total_cycles = sum(p["cycles"] for p in parts)
    power = sum(p["power"] * p["cycles"] for p in parts) / total_cycles
    out = dict(parts[0])
    out.update({
        "power": power,
        "cycles": total_cycles,
        "cost": sum(p["cost"] for p in parts),
        "elapsed_ms": round(max(p["elapsed_ms"] for p in parts), 3),
        "store_hits": sum(p["store_hits"] for p in parts),
        "store_misses": sum(p["store_misses"] for p in parts),
        "shards": len(parts),
    })
    return out


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class EstimationServer:
    """HTTP estimation service over a persistent warm worker pool.

    ``store_dir=None`` (the default) uses ``REPRO_STORE`` when set
    and otherwise provisions a private temporary store directory, so
    the pool always shares a disk-backed plan store — that sharing is
    what makes the pool *warm* for repeated structures regardless of
    which worker a job lands on.  Workers receive the directory
    through their initializer; the calling process's store and
    environment are left alone.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 store_dir: Optional[str] = None,
                 flush_interval_s: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.workers = workers or max(2, min(8, os.cpu_count() or 2))
        self._store_dir = store_dir
        self._own_store_tmp: Optional[tempfile.TemporaryDirectory] = None
        self._flush_interval_s = flush_interval_s
        self._pool: Optional[ProcessPoolExecutor] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._counters = {"requests": 0, "jobs": 0, "jobs_failed": 0,
                          "batches": 0, "pool_restarts": 0}
        #: Plan-store traffic the pool workers report per job.
        self._store = {"hits": 0, "misses": 0}
        self._lock = threading.Lock()
        self._started = time.time()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bring up store, pool, and listener; returns (host, port)."""
        store_dir = self._store_dir \
            or os.environ.get(artifact_store.ENV_DIR)
        if not store_dir:
            self._own_store_tmp = tempfile.TemporaryDirectory(
                prefix="repro-serve-store-")
            store_dir = self._own_store_tmp.name
        self._store_dir = store_dir
        self._pool = search.start_pool(self.workers, store_dir)

        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve",
            daemon=True)
        self._thread.start()
        if self._flush_interval_s:
            obs.start_periodic_export(self._flush_interval_s)
        obs.inc("serve.starts")
        return self.host, self.port

    def stop(self) -> None:
        """Graceful teardown: listener, pool, periodic export, and the
        private store directory (if :meth:`start` made one)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._flush_interval_s:
            obs.stop_periodic_export()
        if self._own_store_tmp is not None:
            self._own_store_tmp.cleanup()
            self._own_store_tmp = None

    def __enter__(self) -> "EstimationServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # -- request handling ---------------------------------------------
    def _restart_pool(self, broken: ProcessPoolExecutor
                      ) -> Optional[ProcessPoolExecutor]:
        """Replace ``broken`` with a fresh pool, once per breakage
        (``None`` after :meth:`stop`)."""
        with self._lock:
            if self._pool is broken:
                broken.shutdown(wait=False, cancel_futures=True)
                self._pool = search.start_pool(self.workers,
                                               self._store_dir)
                self._counters["pool_restarts"] += 1
            return self._pool

    def _submit(self, job: Dict[str, Any]) -> Future:
        """Submit one job, starting a fresh pool if the last one broke;
        a job that cannot be submitted is an already-failed future."""
        pool = self._pool
        try:
            try:
                return pool.submit(run_job, job)
            except BrokenProcessPool:
                return self._restart_pool(pool).submit(run_job, job)
        except Exception as exc:
            fut: Future = Future()
            fut.set_exception(exc)
            return fut

    def run_batch(self, jobs: List[Dict[str, Any]], emit) -> Dict[str, Any]:
        """Fan a batch out over the pool; stream results via ``emit``.

        ``emit(result)`` is called once per job in completion order;
        the returned summary is for the trailing NDJSON line.  Jobs
        with ``shards > 1`` expand into sub-tasks and merge before
        emission.  Jobs in flight when a worker dies come back
        ``ok: false`` with the ``BrokenProcessPool`` error; the next
        submission starts a fresh pool.
        """
        t0 = time.perf_counter()
        pending: Dict[Any, Tuple[int, List[Optional[Dict[str, Any]]]]] = {}
        job_ids: List[Any] = []
        remaining: Dict[int, int] = {}
        futures = {}
        for idx, job in enumerate(jobs):
            job_ids.append(job.get("id", idx))
            subs = _shard_jobs(job)
            remaining[idx] = len(subs)
            pending[idx] = (len(subs), [None] * len(subs))
            for k, sub in enumerate(subs):
                futures[self._submit(sub)] = (idx, k)

        ok = failed = 0
        hits = misses = 0
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                idx, k = futures[fut]
                try:
                    result = fut.result()
                except Exception as exc:   # pool breakage, not job code
                    result = {"ok": False,
                              "error": f"{type(exc).__name__}: {exc}",
                              "elapsed_ms": 0.0}
                n_subs, parts = pending[idx]
                parts[k] = result
                remaining[idx] -= 1
                if remaining[idx]:
                    continue
                merged = _merge_shards([p for p in parts
                                        if p is not None])
                merged["id"] = job_ids[idx]
                if merged.get("ok"):
                    ok += 1
                else:
                    failed += 1
                hits += merged.get("store_hits", 0)
                misses += merged.get("store_misses", 0)
                with self._lock:
                    self._latencies.append(merged.get("elapsed_ms", 0.0))
                    self._store["hits"] += merged.get("store_hits", 0)
                    self._store["misses"] += merged.get("store_misses", 0)
                    self._counters["jobs"] += 1
                    if not merged.get("ok"):
                        self._counters["jobs_failed"] += 1
                emit(merged)

        wall_ms = (time.perf_counter() - t0) * 1e3
        with self._lock:
            self._counters["batches"] += 1
        obs.inc("serve.jobs", len(jobs))
        served = hits + misses
        return {
            "jobs": len(jobs),
            "ok": ok,
            "failed": failed,
            "wall_ms": round(wall_ms, 3),
            "throughput_jobs_s": round(len(jobs) / max(wall_ms / 1e3,
                                                       1e-9), 2),
            "store_hits": hits,
            "store_misses": misses,
            "store_hit_rate": round(hits / served, 4) if served else 0.0,
        }

    def stats(self) -> Dict[str, Any]:
        """Counters, latency percentiles, and the plan-store traffic
        of the pool workers (the jobs run there, not in the HTTP
        process)."""
        with self._lock:
            counters = dict(self._counters)
            store = dict(self._store)
            lat = sorted(self._latencies)
        quantiles = {}
        if lat:
            def q(p: float) -> float:
                return lat[min(len(lat) - 1, int(p * len(lat)))]

            quantiles = {
                "count": len(lat),
                "p50_ms": round(q(0.50), 3),
                "p90_ms": round(q(0.90), 3),
                "p99_ms": round(q(0.99), 3),
                "max_ms": round(lat[-1], 3),
            }
        served = store["hits"] + store["misses"]
        return {
            "pid": os.getpid(),
            "workers": self.workers,
            "uptime_s": round(time.time() - self._started, 3),
            "store_dir": self._store_dir,
            "counters": counters,
            "latency": quantiles,
            "store": dict(store, hit_rate=round(
                store["hits"] / served, 4) if served else 0.0),
        }


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _make_handler(server: EstimationServer):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.0 + connection close per request: responses stream
        # without Content-Length and terminate unambiguously.
        protocol_version = "HTTP/1.0"

        def log_message(self, fmt, *args):   # quiet by default
            if os.environ.get("REPRO_SERVE_LOG"):
                sys.stderr.write("serve: " + fmt % args + "\n")

        # -- helpers ---------------------------------------------------
        def _json(self, status: int, payload: Dict[str, Any]) -> None:
            body = (json.dumps(payload) + "\n").encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Optional[Dict[str, Any]]:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                return {}
            raw = self.rfile.read(length)
            data = json.loads(raw.decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
            return data

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:
            with server._lock:
                server._counters["requests"] += 1
            if self.path == "/healthz":
                self._json(200, {"ok": True, "pid": os.getpid(),
                                 "workers": server.workers,
                                 "store_dir": server._store_dir})
            elif self.path == "/stats":
                self._json(200, server.stats())
            elif self.path == "/telemetry":
                self._json(200, obs.export_state())
            else:
                self._json(404, {"ok": False,
                                 "error": f"no route {self.path}"})

        def do_POST(self) -> None:
            with server._lock:
                server._counters["requests"] += 1
            if self.path == "/shutdown":
                self._json(200, {"ok": True, "stopping": True})
                # shutdown() must come from another thread — it joins
                # the serve_forever loop this handler runs inside.
                threading.Thread(target=server.stop,
                                 daemon=True).start()
                return
            if self.path != "/estimate":
                self._json(404, {"ok": False,
                                 "error": f"no route {self.path}"})
                return
            try:
                body = self._read_body()
                jobs = body.get("jobs")
                if not isinstance(jobs, list) or not jobs:
                    raise ValueError("body needs a non-empty jobs list")
                if len(jobs) > MAX_BATCH:
                    raise ValueError(
                        f"batch too large ({len(jobs)} > {MAX_BATCH})")
            except (ValueError, json.JSONDecodeError) as exc:
                self._json(400, {"ok": False, "error": str(exc)})
                return

            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()

            write_lock = threading.Lock()

            def emit(result: Dict[str, Any]) -> None:
                line = (json.dumps(result) + "\n").encode()
                with write_lock:
                    self.wfile.write(line)
                    self.wfile.flush()

            try:
                summary = server.run_batch(jobs, emit)
                emit({"summary": summary})
            except BrokenPipeError:      # client went away mid-stream
                pass

    return Handler


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Client:
    """Minimal stdlib client for the estimation service."""

    def __init__(self, host: str, port: int,
                 timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, List[Dict[str, Any]]]:
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None \
                else None
            headers = {"Content-Type": "application/json"} \
                if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            lines = []
            for raw in resp.read().splitlines():
                raw = raw.strip()
                if raw:
                    lines.append(json.loads(raw))
            return resp.status, lines
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        status, lines = self._request("GET", "/healthz")
        if status != 200 or not lines:
            raise RuntimeError(f"healthz failed: HTTP {status}")
        return lines[0]

    def stats(self) -> Dict[str, Any]:
        status, lines = self._request("GET", "/stats")
        if status != 200 or not lines:
            raise RuntimeError(f"stats failed: HTTP {status}")
        return lines[0]

    def telemetry(self) -> Dict[str, Any]:
        status, lines = self._request("GET", "/telemetry")
        if status != 200 or not lines:
            raise RuntimeError(f"telemetry failed: HTTP {status}")
        return lines[0]

    def estimate(self, jobs: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Submit a batch; returns ``{"results": [...], "summary"}``.

        Results come back in submission order (re-sorted from the
        completion-ordered NDJSON stream by their ``id``).
        """
        status, lines = self._request("POST", "/estimate",
                                      {"jobs": jobs})
        if status != 200:
            error = lines[0] if lines else {"error": f"HTTP {status}"}
            raise RuntimeError(f"estimate failed: {error}")
        summary: Dict[str, Any] = {}
        results: List[Dict[str, Any]] = []
        for line in lines:
            if "summary" in line:
                summary = line["summary"]
            else:
                results.append(line)
        order = {job.get("id", i): i for i, job in enumerate(jobs)}
        results.sort(key=lambda r: order.get(r.get("id"), 1 << 30))
        return {"results": results, "summary": summary}

    def shutdown(self) -> None:
        try:
            self._request("POST", "/shutdown")
        except OSError:
            pass                    # server can die mid-response


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _self_check(workers: int) -> int:
    """Start a private server, push two small batches, verify warmth.

    The CI smoke leg: asserts every job succeeds, that the repeated
    batch is served from the plan store (hits > 0), and that the
    stats endpoint reports latency percentiles.
    """
    jobs = [
        {"circuit": {"generator": "ripple_carry_adder",
                     "params": {"width": 8}},
         "technique": "simulation", "cycles": 256, "seed": 1},
        {"circuit": {"generator": "counter", "params": {"width": 6}},
         "technique": "event-driven", "cycles": 256, "seed": 2},
        {"circuit": {"generator": "parity_tree", "params": {"width": 8}},
         "technique": "probabilistic"},
        {"circuit": {"generator": "random_logic",
                     "params": {"n_inputs": 10, "n_gates": 60,
                                "n_outputs": 4, "seed": 5}},
         "technique": "simulation", "cycles": 512, "seed": 3,
         "shards": 2},
    ]
    with EstimationServer(workers=workers) as server:
        client = Client(*server.address)
        health = client.healthz()
        print(f"serve self-check: up at {server.host}:{server.port} "
              f"pid={health['pid']} workers={health['workers']}")
        first = client.estimate(jobs)
        second = client.estimate(jobs)
        stats = client.stats()

    def fail(msg: str) -> int:
        print(f"serve self-check: FAIL: {msg}", file=sys.stderr)
        return 1

    for label, batch in (("first", first), ("second", second)):
        bad = [r for r in batch["results"] if not r.get("ok")]
        if bad:
            return fail(f"{label} batch had failures: {bad}")
        if len(batch["results"]) != len(jobs):
            return fail(f"{label} batch returned "
                        f"{len(batch['results'])}/{len(jobs)} results")
    if second["summary"]["store_hits"] <= 0:
        return fail("repeated batch saw no plan-store hits "
                    f"(summary: {second['summary']})")
    if "p50_ms" not in stats["latency"]:
        return fail(f"stats missing latency percentiles: {stats}")
    print(f"serve self-check: OK  ({len(jobs)}+{len(jobs)} jobs, "
          f"second-batch store hits="
          f"{second['summary']['store_hits']}, "
          f"p50={stats['latency']['p50_ms']}ms "
          f"p99={stats['latency']['p99_ms']}ms, "
          f"store hit rate={stats['store']['hit_rate']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the power-estimation HTTP service over a "
                    "persistent warm worker pool sharing the "
                    "content-addressed plan store.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8763,
                        help="listen port (0 = ephemeral; default 8763)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(8, cpus))")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="plan-store directory (default: "
                             "$REPRO_STORE, else a private temp dir)")
    parser.add_argument("--flush-interval", type=float, default=30.0,
                        help="periodic obs telemetry export interval "
                             "(seconds; needs REPRO_OBS_EXPORT)")
    parser.add_argument("--self-check", action="store_true",
                        help="start a private server, run a smoke "
                             "batch twice, verify store warmth, exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.self_check:
        return _self_check(args.workers or 2)
    server = EstimationServer(host=args.host, port=args.port,
                              workers=args.workers,
                              store_dir=args.store,
                              flush_interval_s=args.flush_interval)
    host, port = server.start()
    print(f"repro serve: listening on http://{host}:{port} "
          f"({server.workers} workers, store={server._store_dir})",
          flush=True)
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1.0)
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
