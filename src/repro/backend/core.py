"""Engine names and their validation.

Every simulation and statistics entry point in the framework takes
``engine="fast" | "reference"`` (``None`` for the default):

- ``"fast"`` — the packed-word engines, one arbitrary-precision Python
  integer per net (or bit lane) holding the whole batch, so each gate
  or statistic is a single C-level big-int operation:
  :mod:`repro.logic.fastsim` (zero-delay batches),
  :mod:`repro.logic.fasttimer` (per-(net, tick) waveform replay) and
  :mod:`repro.rtl.faststreams` (bit-plane word-stream statistics);
- ``"reference"`` — the scalar engines, one vector (or word) at a
  time, kept as the bit-identity oracle for the fast ones.

A circuit the fast compiler cannot lower falls back to the reference
engine; an unknown engine name is an error, never a silent fallback.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ENGINES", "numpy_available", "resolve_engine"]

#: Engine names accepted by dispatching entry points.
ENGINES = ("fast", "reference")


def numpy_available() -> bool:
    """True when numpy imports (a required dependency; run records
    report it alongside the engine)."""
    try:
        import numpy  # noqa: F401
    except ImportError:              # pragma: no cover - required
        return False
    return True


def resolve_engine(engine: Optional[str], default: str = "fast") -> str:
    """Validate an engine name; ``None`` takes ``default``.

    Unknown names — including the retired ``"numpy"`` and ``"auto"``
    — raise ``ValueError``.
    """
    e = engine or default
    if e not in ENGINES:
        raise ValueError(f"unknown engine {e!r}; expected 'fast' or "
                         "'reference'")
    return e
