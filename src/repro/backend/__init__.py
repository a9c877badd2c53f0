"""Engine names and validation (see :mod:`repro.backend.core`)."""

from repro.backend.core import ENGINES, numpy_available, resolve_engine

__all__ = ["ENGINES", "numpy_available", "resolve_engine"]
