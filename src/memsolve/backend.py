"""Engine backend selection.

Both backends run the RK4 marches that :mod:`memsolve.engine` generates
per program structure.  ``numpy`` runs them as plain Python: single runs
through the scalar march, Monte Carlo sweeps through the lane march
that advances every iteration in lockstep.  ``numba`` njits the
generated scalar march, and sweeps run it per iteration on worker
threads.

Selection order: explicit ``backend=`` argument, then the
``MEMSOLVE_BACKEND`` environment variable (``numba`` | ``numpy`` |
``auto``), then ``numba`` when importable, else ``numpy``.
"""

from __future__ import annotations

import os

from . import engine

BACKEND_ENV = "MEMSOLVE_BACKEND"
THREADS_ENV = "MEMSOLVE_THREADS"

rk4_python = engine.rk4_run

try:
    import numba
except ImportError:  # numba is the optional [jit] extra
    rk4_numba = None
    HAVE_NUMBA = False
else:
    rk4_numba = engine.scalar_kernel(numba.njit(nogil=True, error_model="numpy"))
    HAVE_NUMBA = True


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument or the environment."""
    name = backend or os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if name == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("MEMSOLVE_BACKEND=numba but numba is not importable")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise ValueError(f"unknown backend {name!r} (expected numba, numpy or auto)")


def rk4_kernel(backend: str | None = None):
    return rk4_numba if resolve_backend(backend) == "numba" else rk4_python


def thread_count() -> int:
    """Worker cap for embarrassingly parallel sweeps (MEMSOLVE_THREADS)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if n < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1
