"""Fixed-step simulation of lowered circuits.

The integrator is classical 4th-order Runge-Kutta with a fixed step; the
state-variable construction moves all memory into local ODE state, so
no adaptive or implicit machinery is needed and runs are bit-for-bit
reproducible.

The recorded waveform always carries the declared output signal as its
first channel, named ``out``, with the netlist's output transform (if
any) applied.  Additional node or ``omega:<element>`` channels can be
requested.  Inside the stepper the argument of every ``ln`` is clamped
below at ``LN_FLOOR``, the clamp activations are counted and the step of
the first is noted; state magnitudes above ``BLOWUP_LIMIT`` (or
non-finite states) truncate the run and are reported rather than raised.

:func:`check_run` rejects a run past the netlist's ``valid_to``, or one
whose record (samples x channels x parameter sets, 8 bytes each), with a
single run's stage-time tables, would exceed ``waveform.MAX_RECORD_BYTES``,
with a ``ValueError`` before anything is allocated or drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend as _backend
from . import engine
from .engine import eval_expr_array_clamped, first_failure
from .exprs import DomainError
from .netlist import OdeSystem
from .waveform import Waveform, check_grid_bytes, grid_steps

__all__ = ["SimConfig", "SimResult", "SimulationError", "simulate", "relative_error", "check_run",
           "BLOWUP_LIMIT", "LN_FLOOR"]

BLOWUP_LIMIT = 1e12
LN_FLOOR = 1e-9
REL_ERR_EPS = 1e-12
OUTPUT_CHANNEL = "out"
_TRANSFORM_ROWS = 4096   # per transform call: temporaries of 32 KiB, and few calls at 30-70 us each


def check_run(sys: OdeSystem, sim: SimConfig, channels: int, runs: int = 1, tables: int = 0) -> None:
    """Reject a run of ``sys`` over ``sim``'s grid that goes past the netlist's
    ``valid_to``, or whose record of ``n_steps + 1`` samples x ``channels`` x
    ``runs``, plus ``tables`` more columns over the grid, is over the cap.

    A single run's stage-time tables span its whole grid, so ``simulate``
    counts them as ``tables`` columns (``engine.tape_stats``); its output
    transform runs over chunks of samples in place.  A stability sweep's peak
    is the record plus O(min(n_steps, 256) x runs) for the lane march's tables
    and one chunk of its reduction.
    """
    if sys.valid_to is not None and sim.t_end > sys.valid_to:
        raise ValueError(f"t_end = {sim.t_end:g} is past the netlist's horizon valid_to {sys.valid_to:g} "
                         "(a fitted integrating factor); recompile with a larger alpha_horizon")
    n_steps = sim.n_steps
    what = f"the run would record {n_steps + 1} samples x {channels} channel(s) x {runs} run(s)"
    check_grid_bytes(
        n_steps + 1, channels * runs + tables,
        what + (f" and tabulate {tables} column(s) of stage times" if tables else ""),
        "use a larger --dt, a shorter --t-end, or fewer channels or iterations",
    )


@dataclass
class SimConfig:
    dt: float
    t_end: float
    record_channels: tuple[str, ...] = ()

    def __post_init__(self):
        grid_steps(self.dt, self.t_end)
        self.record_channels = tuple(self.record_channels)

    @property
    def n_steps(self) -> int:
        return grid_steps(self.dt, self.t_end)


class SimulationError(RuntimeError):
    """An expression left its domain during integration."""

    def __init__(self, step: int, time: float, snapshot: dict[str, float]):
        states = ", ".join(f"{k}={v:.6g}" for k, v in snapshot.items())
        super().__init__(f"expression domain error at step {step} (t={time:.6g}); state: {states}")
        self.step = step
        self.time = time
        self.snapshot = snapshot


@dataclass
class SimResult:
    waveform: Waveform
    passivity_steps: int           # recorded samples where any memductance < 0
    passivity_flags: np.ndarray    # per-sample 0/1
    ln_clamps: int                 # the march's and the output transform's
    first_ln_clamp: dict | None    # {"step", "t"} of the march's first ln clamp; None without one
    blowup_step: int | None
    tape: dict                     # engine.tape_stats: tape length, instructions read from tables

    @property
    def blown_up(self) -> bool:
        return self.blowup_step is not None


def _resolve_channels(sys: OdeSystem, names) -> tuple[np.ndarray, np.ndarray]:
    kinds, idxs = [], []
    for name in names:
        if name.startswith("omega:"):
            eid = name[len("omega:"):]
            if eid not in sys.omega_state_index:
                raise ValueError(f"no memristor state {name!r}")
            kinds.append(engine.CHAN_STATE)
            idxs.append(sys.omega_state_index[eid])
        else:
            if name not in sys.node_regs:
                raise ValueError(f"no node {name!r} to record")
            kinds.append(engine.CHAN_REG)
            idxs.append(sys.node_regs[name])
    return np.array(kinds, dtype=np.int32), np.array(idxs, dtype=np.int32)


def simulate(sys: OdeSystem, cfg: SimConfig, backend: str | None = None) -> SimResult:
    """Integrate the system over [0, t_end]; deterministic for fixed inputs.

    :func:`check_run` applies first.  ``backend`` may be ``numpy`` or ``auto``
    (the default; ``MEMSOLVE_BACKEND`` is not read); anything else raises
    ``ValueError``.
    """
    _backend.resolve_backend(backend or "auto")
    if OUTPUT_CHANNEL in cfg.record_channels:
        raise ValueError(f"channel name {OUTPUT_CHANNEL!r} is reserved for the output signal")
    names = (OUTPUT_CHANNEL,) + cfg.record_channels
    chan_kind, chan_idx = _resolve_channels(sys, (sys.output_node,) + cfg.record_channels)

    n_steps = cfg.n_steps
    prog = sys.program
    tape = engine.tape_stats(prog, chan_kind, chan_idx)
    check_run(sys, cfg, len(names), tables=tape.pop("table_columns"))
    rec = np.empty((n_steps + 1, len(names)), dtype=np.float64)
    gflag = np.empty(n_steps + 1, dtype=np.uint8)

    recorded, status, event, ln_clamps, first_clamp, state = _backend.rk4_python(
        prog.code, prog.consts, prog.deriv_regs, prog.g_regs,
        chan_kind, chan_idx, sys.y0(), cfg.dt, n_steps,
        LN_FLOOR, BLOWUP_LIMIT, rec, gflag,
    )

    if status == engine.STATUS_DOMAIN_ERROR:
        raise SimulationError(event, event * cfg.dt, dict(zip(sys.state_names(), state)))

    rec = rec[:recorded]
    gflag = gflag[:recorded]
    transform_clamps = 0
    if sys.output_transform is not None:
        for first in range(0, recorded, _TRANSFORM_ROWS):
            out = rec[first:first + _TRANSFORM_ROWS, 0]
            tcol = cfg.dt * np.arange(first, first + len(out))
            try:
                out[:], clamps = eval_expr_array_clamped(sys.output_transform, {"v": out, "t": tcol}, LN_FLOOR)
            except DomainError:
                row, _, msg = first_failure(sys.output_transform, {"v": out, "t": tcol}, LN_FLOOR)
                raise DomainError(f"the output transform fails at step {first + row} "
                                  f"(t={(first + row) * cfg.dt:g}): {msg}") from None
            transform_clamps += clamps

    blowup_step = event if status == engine.STATUS_BLOWUP else None
    wf = Waveform(t0=0.0, dt=cfg.dt, names=names, data=rec)
    if blowup_step is not None:
        wf.meta["blowup_step"] = blowup_step
    return SimResult(
        waveform=wf,
        passivity_steps=int(gflag.sum()),
        passivity_flags=gflag,
        ln_clamps=ln_clamps + transform_clamps,
        first_ln_clamp=None if first_clamp is None else {"step": first_clamp, "t": first_clamp * cfg.dt},
        blowup_step=blowup_step,
        tape=tape,
    )


def relative_error(
    w: Waveform, ref: Waveform, channel: str, ref_channel: str | None = None
) -> Waveform:
    """Pointwise |w - ref| / max(|ref|, eps) on a shared sampling grid.

    Samples where the guard eps = 1e-12 takes over are counted in the
    result's ``meta["eps_guarded"]``.
    """
    w.require_same_grid(ref)
    a = w.channel(channel)
    b = ref.channel(ref_channel if ref_channel is not None else channel)
    denom = np.maximum(np.abs(b), REL_ERR_EPS)
    guarded = int(np.count_nonzero(np.abs(b) < REL_ERR_EPS))
    rel = np.abs(a - b) / denom
    return Waveform(
        t0=w.t0, dt=w.dt, names=("rel_err",), data=rel[:, None],
        meta={"eps_guarded": guarded},
    )
