"""Uniformly sampled multi-channel time series and their CSV form.

CSV layout: header row ``t,<channel>,...``, one row per sample in time
order.  ``write_csv`` writes every CSV artifact of the package.
``grid_steps`` is the time grid both routes march, and
``check_grid_bytes`` the size cap both apply before allocating over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Waveform", "GridMismatchError", "grid_steps", "check_grid_bytes", "write_csv",
           "MAX_RECORD_BYTES"]

_CHUNK_ROWS = 256   # rows per ``%`` format; bounds the writer's transient text
MAX_RECORD_BYTES = 1 << 30


class GridMismatchError(ValueError):
    pass


def grid_steps(dt: float, t_end: float) -> int:
    """Number of steps of size ``dt`` from 0 to ``t_end``.

    Both the circuit route and the reference route march this grid.  A
    horizon that is not a whole number of steps (within 1e-9 relative)
    is rejected rather than silently moved to the nearest grid point.
    """
    if not (0.0 < dt < t_end < math.inf):
        raise ValueError(f"need 0 < dt < t_end, got dt={dt}, t_end={t_end}")
    if t_end / dt == math.inf:
        raise ValueError(f"t_end/dt = {t_end}/{dt} is too many steps to count")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of steps dt={dt} (nearest: {n * dt:.12g})"
        )
    return n


def check_grid_bytes(samples: int, columns: int, what: str, remedy: str) -> None:
    """Reject a run that would hold ``samples`` x ``columns`` float64 values over the cap.

    Both routes call this before allocating anything over their grid;
    ``what`` describes the arrays and ``remedy`` says how to shrink them.
    """
    size = samples * columns * 8
    if size > MAX_RECORD_BYTES:
        raise ValueError(
            f"{what} = {size / 2**30:.3g} GiB, over the {MAX_RECORD_BYTES / 2**30:g} GiB cap; {remedy}"
        )


def write_csv(path, header, columns) -> None:
    """Write ``header``, then the equal-length ``columns`` as rows of ``%.12g`` values.

    A chunk of rows is one ``%`` format over Python floats: the bytes of ``f"{x:.12g}"``.
    """
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


@dataclass
class Waveform:
    t0: float
    dt: float
    names: tuple[str, ...]
    data: np.ndarray                      # (n_samples, n_channels)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] != len(self.names):
            raise ValueError("data must be (n_samples, n_channels) matching names")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self), dtype=np.float64)

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.names.index(name)]
        except ValueError:
            raise KeyError(f"no channel {name!r} (have {', '.join(self.names)})") from None

    def index_of_time(self, time: float) -> int:
        i = int(round((time - self.t0) / self.dt))
        if not (0 <= i < len(self)) or abs(self.t0 + i * self.dt - time) > 1e-9 * max(1.0, abs(time)):
            raise KeyError(f"time {time} is not on the sampling grid")
        return i

    def same_grid(self, other: "Waveform") -> bool:
        return (
            len(self) == len(other)
            and abs(self.t0 - other.t0) <= 1e-12 * max(1.0, abs(self.t0))
            and abs(self.dt - other.dt) <= 1e-12 * self.dt
        )

    def require_same_grid(self, other: "Waveform") -> None:
        if not self.same_grid(other):
            raise GridMismatchError(
                f"waveform grids differ: (t0={self.t0}, dt={self.dt}, n={len(self)}) "
                f"vs (t0={other.t0}, dt={other.dt}, n={len(other)})"
            )

    # -- CSV ------------------------------------------------------------

    def to_csv(self, path) -> None:
        write_csv(path, ("t",) + self.names, [self.t, *self.data.T])

    @classmethod
    def from_csv(cls, path) -> "Waveform":
        with open(path) as fh:
            header = fh.readline().strip()
            cols = header.split(",")
            if not cols or cols[0] != "t":
                raise ValueError(f"bad waveform CSV header: {header!r}")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        if body.shape[0] < 2:
            raise ValueError("waveform CSV needs at least two samples")
        t = body[:, 0]
        dt = t[1] - t[0]
        if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt:
            raise ValueError("waveform CSV is not uniformly sampled")
        return cls(t0=float(t[0]), dt=float(dt), names=tuple(cols[1:]), data=body[:, 1:])
