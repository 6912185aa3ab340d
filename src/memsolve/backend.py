"""Engine backend selection.

The backend picks the kernel of single runs (:func:`memsolve.solver.simulate`):
``numpy`` runs the scalar RK4 march that :mod:`memsolve.engine`
generates per program structure as plain Python, ``numba`` njits the
same source.  Monte Carlo sweeps do not consult the backend: they
always run the numpy lane march, which advances every iteration in
lockstep.

Selection order: explicit ``backend=`` argument, then the
``MEMSOLVE_BACKEND`` environment variable (``numba`` | ``numpy`` |
``auto``), then ``numba`` when importable, else ``numpy``.
"""

from __future__ import annotations

import os

from . import engine

BACKEND_ENV = "MEMSOLVE_BACKEND"

rk4_python = engine.rk4_run

try:
    import numba
except ImportError:  # numba is the optional [jit] extra
    rk4_numba = None
    HAVE_NUMBA = False
else:
    rk4_numba = engine.scalar_kernel(numba.njit(error_model="numpy"))
    HAVE_NUMBA = True


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument or the environment."""
    name = backend or os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if name == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if name == "numba":
        if not HAVE_NUMBA:
            raise ValueError("backend numba requested but numba is not importable "
                             "(install the [jit] extra or set MEMSOLVE_BACKEND=numpy)")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise ValueError(f"unknown backend {name!r} (expected numba, numpy or auto)")


def rk4_kernel(backend: str | None = None):
    return rk4_numba if resolve_backend(backend) == "numba" else rk4_python

