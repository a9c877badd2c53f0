"""repro.store — content-addressed compiled-artifact cache.

Every compiled artifact in the framework — fastsim's bit-parallel
plans, fasttimer's tick-wheel plan tables, eventsim's tick grids, the
word-stream bit-plane packings — used to live only on the Python
object that produced it.  The caches died at every process boundary:
``Circuit.__getstate__`` drops compiled plans (they hold bound
functions), so fasttimer's sharded workers, every bench subprocess,
and every estimation-server worker recompiled identical plans from
scratch.  This module is the fix: a content-addressed store keyed by
a *structural fingerprint* (:meth:`repro.logic.netlist.Circuit.
fingerprint`), so any process that sees the same structure pays the
compile cost once and every later consumer rehydrates.

Two layers, consulted in order:

- an **in-process LRU** (dict of payload dicts, bounded entry count)
  that makes repeated rehydration of the same fingerprint free within
  one process,
- an optional **disk cache** rooted at the ``REPRO_STORE`` directory:
  one versioned JSON envelope per artifact, published atomically
  (temp file + ``os.replace``) so concurrent writers never corrupt a
  reader, LRU-evicted by file mtime against a byte budget
  (``REPRO_STORE_MAX_BYTES``).  Reads touch the file's mtime, so hot
  artifacts survive eviction.

Payloads are JSON-able dicts.  Most are plain data (fasttimer's plan
tables, which the engine validates before binding, tick grids,
activity counts); generated code (fastsim's kernels) travels as
*both* the source text and a ``marshal`` dump of the compiled code
object tagged with the interpreter's bytecode magic: a matching
interpreter skips the (expensive) ``compile`` step entirely, any other
interpreter falls back to recompiling the source, and an unknown
schema version is a plain miss — cross-version poisoning is
structurally impossible.

The store is *advisory everywhere*: a miss, a corrupt file, or an
unwritable directory degrades to recompilation, never to an error.
"""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import json
import marshal
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional

__all__ = [
    "SCHEMA", "ArtifactStore", "get_store", "set_store", "configure",
    "code_blob", "load_function",
    "ACTIVITY_SCHEMA", "ACTIVITY_KIND", "activity_key",
    "pack_activity", "unpack_activity",
    "ENV_DIR", "ENV_MAX_BYTES", "ENV_MEM_ENTRIES",
]

#: Version tag of the artifact envelope.  Bump on any incompatible
#: payload change: files carrying another schema are treated as
#: misses and reclaimed.
SCHEMA = "repro.store/1"

#: Environment knobs.
ENV_DIR = "REPRO_STORE"
ENV_MAX_BYTES = "REPRO_STORE_MAX_BYTES"
ENV_MEM_ENTRIES = "REPRO_STORE_MEM"

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
DEFAULT_MEM_ENTRIES = 128

#: This interpreter's bytecode tag; marshal blobs are only loaded
#: when it matches.
_PY_MAGIC = importlib.util.MAGIC_NUMBER.hex()


# ----------------------------------------------------------------------
# Compiled-code payloads
# ----------------------------------------------------------------------
def code_blob(source: str, filename: str,
              code: Optional[Any] = None) -> Dict[str, str]:
    """Package generated source (plus its code object) for the store.

    ``code`` is the already-compiled module code object when the
    caller has one (avoids compiling twice); the marshal dump is
    tagged with the interpreter magic so :func:`load_function` knows
    when it is trustworthy.
    """
    if code is None:
        code = compile(source, filename, "exec")
    return {
        "source": source,
        "filename": filename,
        "magic": _PY_MAGIC,
        "marshal": base64.b64encode(marshal.dumps(code)).decode("ascii"),
    }


def load_function(blob: Dict[str, str], name: str) -> Callable:
    """Rebuild the named function from a :func:`code_blob` payload.

    Prefers the marshal fast path (same interpreter magic: no
    ``compile`` call, microseconds instead of milliseconds on big
    kernels); falls back to compiling the stored source.  Raises on
    malformed payloads — callers treat any exception as a cache miss.
    """
    code = None
    if blob.get("magic") == _PY_MAGIC and blob.get("marshal"):
        try:
            code = marshal.loads(base64.b64decode(blob["marshal"]))
        except (ValueError, EOFError, TypeError):
            code = None
    if code is None:
        code = compile(blob["source"], blob.get("filename", "<store>"),
                       "exec")
    namespace: Dict[str, Any] = {}
    exec(code, namespace)
    fn = namespace[name]
    if not callable(fn):
        raise TypeError(f"store blob did not define callable {name!r}")
    return fn


# ----------------------------------------------------------------------
# Activity payloads (whole-run memo)
# ----------------------------------------------------------------------
#: Version tag of cached whole-run activity results.  Bump on any
#: layout change: payloads carrying another schema unpack to ``None``
#: — a plain miss — so a stale or corrupt entry degrades to
#: resimulation, exactly like a corrupt plan degrades to
#: recompilation.
ACTIVITY_SCHEMA = "repro.activity/1"

#: Store kind for whole-run activity reports keyed by
#: :func:`activity_key` (fasttimer's memoized timed runs).
ACTIVITY_KIND = "activity"


def activity_key(circuit_fp: str, stimulus_fp: str, engine: str,
                 cycles: int) -> str:
    """Key for a whole-run activity result.

    One sha256 over circuit structure, packed stimulus, engine name,
    and batch length — everything an :class:`ActivityReport` depends
    on.  Used for cross-process rerun hits of fasttimer's memoized
    timed runs.
    """
    h = hashlib.sha256(b"activity-run/1\x00")
    for part in (circuit_fp, stimulus_fp, engine, str(cycles)):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def pack_activity(cycles: int, nets: list, toggles: Dict[str, int],
                  ones: Dict[str, int], switched: float, clock: float,
                  events: Optional[int] = None,
                  glitches: Optional[int] = None) -> Dict[str, Any]:
    """JSON-able envelope of an activity result (``repro.activity/1``).

    Counts are stored as parallel lists in ``nets`` order.  Floats
    round-trip exactly through JSON (``repr`` round-trip), so an
    unpacked report stays bit-identical to the one packed.
    """
    payload: Dict[str, Any] = {
        "schema": ACTIVITY_SCHEMA,
        "cycles": int(cycles),
        "nets": list(nets),
        "toggles": [int(toggles.get(n, 0)) for n in nets],
        "ones": [int(ones.get(n, 0)) for n in nets],
        "switched": float(switched),
        "clock": float(clock),
    }
    if events is not None:
        payload["events"] = int(events)
    if glitches is not None:
        payload["glitches"] = int(glitches)
    return payload


def unpack_activity(payload: Optional[Dict[str, Any]]
                    ) -> Optional[Dict[str, Any]]:
    """Validate and decode a :func:`pack_activity` envelope.

    Returns ``None`` — a miss — for anything malformed: wrong schema,
    missing fields, length mismatches.  Callers resimulate on a miss,
    so corruption degrades to recomputation and never to a wrong
    report.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != ACTIVITY_SCHEMA:
        return None
    try:
        cycles = int(payload["cycles"])
        nets = list(payload["nets"])
        toggles = [int(t) for t in payload["toggles"]]
        ones = [int(o) for o in payload["ones"]]
        if len(toggles) != len(nets) or len(ones) != len(nets):
            return None
        return {
            "cycles": cycles,
            "nets": nets,
            "toggles": dict(zip(nets, toggles)),
            "ones": dict(zip(nets, ones)),
            "switched": float(payload["switched"]),
            "clock": float(payload["clock"]),
            "events": (int(payload["events"])
                       if payload.get("events") is not None else None),
            "glitches": (int(payload["glitches"])
                         if payload.get("glitches") is not None else None),
        }
    except (KeyError, TypeError, ValueError):
        return None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Two-layer content-addressed cache of compiled artifacts.

    Keys are ``(fingerprint, kind)`` pairs; payloads are JSON-able
    dicts.  With ``root=None`` only the in-process LRU runs (the
    default outside servers/benches); with a root directory the
    artifacts additionally persist across process boundaries.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 mem_entries: int = DEFAULT_MEM_ENTRIES) -> None:
        self.root = Path(root) if root else None
        self.max_bytes = int(max_bytes)
        self.mem_entries = int(mem_entries)
        self._mem: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        # Bytes written since the last eviction scan; scanning the
        # whole directory per put is O(N^2) across a population of
        # artifacts, so the trim is amortized: the disk layer may
        # overshoot max_bytes by one scan interval.
        self._unscanned_bytes = 0
        self._counters = {
            "mem_hits": 0, "disk_hits": 0, "misses": 0,
            "puts": 0, "disk_evictions": 0, "corrupt": 0,
            "io_errors": 0,
        }

    # -- key / path layout --------------------------------------------
    @staticmethod
    def key(fingerprint: str, kind: str) -> str:
        return f"{kind}-{fingerprint}"

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    def _count(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] += by

    # -- public API ----------------------------------------------------
    def get(self, fingerprint: str, kind: str
            ) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` on a miss.

        Misses include corrupt, truncated, or wrong-schema files —
        those are additionally reclaimed so the next put starts
        clean.
        """
        key = self.key(fingerprint, kind)
        with self._lock:
            payload = self._mem.get(key)
            if payload is not None:
                self._mem.move_to_end(key)
                self._counters["mem_hits"] += 1
                return payload
        if self.root is not None:
            payload = self._disk_get(key, fingerprint, kind)
            if payload is not None:
                self._mem_put(key, payload)
                self._count("disk_hits")
                return payload
        self._count("misses")
        return None

    def put(self, fingerprint: str, kind: str,
            payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``(fingerprint, kind)``.

        Never raises: disk trouble (read-only cache directory, a full
        disk) is counted and swallowed — the artifact still lands in
        the memory layer.
        """
        key = self.key(fingerprint, kind)
        self._mem_put(key, payload)
        self._count("puts")
        if self.root is None:
            return
        envelope = {
            "schema": SCHEMA,
            "kind": kind,
            "fingerprint": fingerprint,
            "created": time.time(),
            "payload": payload,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_name(
                f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
            text = json.dumps(envelope, sort_keys=True)
            tmp.write_text(text)
            os.replace(tmp, path)
            with self._lock:
                self._unscanned_bytes += len(text)
                due = self._unscanned_bytes >= self._scan_interval()
                if due:
                    self._unscanned_bytes = 0
            if due:
                self._evict_disk()
        except OSError:
            self._count("io_errors")

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot plus the derived hit rate."""
        with self._lock:
            snap: Dict[str, Any] = dict(self._counters)
            snap["mem_entries"] = len(self._mem)
        hits = snap["mem_hits"] + snap["disk_hits"]
        total = hits + snap["misses"]
        snap["hit_rate"] = round(hits / total, 4) if total else 0.0
        snap["root"] = str(self.root) if self.root else None
        return snap

    def clear(self) -> None:
        """Drop the memory layer and every disk artifact."""
        with self._lock:
            self._mem.clear()
        if self.root is not None and self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def disk_bytes(self) -> int:
        """Total size of the on-disk artifacts (0 without a root)."""
        if self.root is None or not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*.json"))

    # -- internals -----------------------------------------------------
    def _mem_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._mem[key] = payload
            self._mem.move_to_end(key)
            while len(self._mem) > self.mem_entries:
                self._mem.popitem(last=False)

    def _disk_get(self, key: str, fingerprint: str, kind: str
                  ) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict):
                raise ValueError("not an object")
            if envelope.get("schema") != SCHEMA \
                    or envelope.get("fingerprint") != fingerprint \
                    or envelope.get("kind") != kind:
                raise ValueError("schema/identity mismatch")
            payload = envelope["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except (ValueError, KeyError):
            # Corrupt, truncated, or written by another version:
            # reclaim the slot and report a miss.
            self._count("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)            # LRU: reads keep artifacts warm
        except OSError:
            pass
        return payload

    def _scan_interval(self) -> int:
        """Bytes of fresh writes between eviction scans (also the
        worst-case transient overshoot past ``max_bytes``)."""
        return max(1, min(1 << 20, self.max_bytes // 8))

    def _evict_disk(self) -> None:
        """Trim the disk layer to ``max_bytes`` (oldest mtime first)."""
        assert self.root is not None
        try:
            entries = []
            total = 0
            for p in self.root.glob("*.json"):
                try:
                    st = p.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, p))
                total += st.st_size
            if total <= self.max_bytes:
                return
            entries.sort()
            for _, size, p in entries:
                if total <= self.max_bytes:
                    break
                try:
                    p.unlink()
                    total -= size
                    self._count("disk_evictions")
                except OSError:
                    pass
        except OSError:
            self._count("io_errors")


# ----------------------------------------------------------------------
# Process-wide store
# ----------------------------------------------------------------------
_store: Optional[ArtifactStore] = None
_store_lock = threading.Lock()


def _from_env() -> ArtifactStore:
    def _int_env(name: str, default: int) -> int:
        try:
            return int(os.environ.get(name, default))
        except ValueError:
            return default

    return ArtifactStore(
        root=os.environ.get(ENV_DIR) or None,
        max_bytes=_int_env(ENV_MAX_BYTES, DEFAULT_MAX_BYTES),
        mem_entries=_int_env(ENV_MEM_ENTRIES, DEFAULT_MEM_ENTRIES))


def get_store() -> ArtifactStore:
    """The process-wide store (built from the environment on first use)."""
    global _store
    if _store is None:
        with _store_lock:
            if _store is None:
                _store = _from_env()
    return _store


def set_store(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Swap the process-wide store; returns the previous one.

    ``None`` resets to lazy environment-driven construction (tests
    use this to restore isolation).
    """
    global _store
    with _store_lock:
        previous = _store
        _store = store
    return previous


def configure(root: Optional[os.PathLike] = None,
              max_bytes: Optional[int] = None,
              mem_entries: Optional[int] = None) -> ArtifactStore:
    """Install a fresh process-wide store rooted at ``root``.

    Also exports ``REPRO_STORE`` so worker processes spawned after
    this call (fasttimer shards, server workers) share the disk
    layer.
    """
    store = ArtifactStore(
        root=root,
        max_bytes=max_bytes if max_bytes is not None
        else DEFAULT_MAX_BYTES,
        mem_entries=mem_entries if mem_entries is not None
        else DEFAULT_MEM_ENTRIES)
    if root is not None:
        os.environ[ENV_DIR] = str(root)
    else:
        os.environ.pop(ENV_DIR, None)
    set_store(store)
    return store
