"""Engine backend selection.

Single runs (:func:`memsolve.solver.simulate`) run the scalar RK4 march
that :mod:`memsolve.engine` generates per program structure; Monte Carlo
sweeps run its lane march.  Both are plain Python over numpy, so there
is one backend, ``numpy``.  ``simulate``'s ``backend=`` argument, and
the ``MEMSOLVE_BACKEND`` environment variable that only the command line
reads, may name it or ``auto``; any other name is an input error.
"""

from __future__ import annotations

import importlib.util
import os

from . import engine

BACKEND_ENV = "MEMSOLVE_BACKEND"

# The scalar kernel; ``solver`` calls it through this name.
rk4_python = engine.rk4_run

# Importability only, for the benchmark's environment record; nothing runs it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument or, when it is empty, the environment."""
    name = backend or os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if name in ("numpy", "auto"):
        return "numpy"
    raise ValueError(f"unknown backend {name!r} (expected numpy or auto; there is no numba backend)")
