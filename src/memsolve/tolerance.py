"""Monte Carlo stability analysis with imperfect analog components.

Every component value the netlist's elements declare, the literals in
their expressions included, has a manufacturing tolerance: each
iteration draws an independent multiplicative error per value, fixed
for the whole run (imperfect components, not dynamical noise), in
element id order and in each kind's draw order (the table in
``docs/netlist-format.md``).  The output transform is readout
arithmetic, not hardware, and is left untouched.

Draws come from a per-iteration generator seeded from
(master_seed, iteration_index), so iterations are reproducible and
order-independent: the report does not depend on how the sweep is
scheduled.  A draw that breaks its field's redraw rule (a potentiometer
ratio reaching 1) is redrawn and the redraws counted.

The reference curve is the unperturbed netlist's own simulation, so the
report isolates the effect of component error from discretization
error.  It runs as parameter set 0 of the same sweep as the perturbed
iterations (set k+1 is iteration k), through the same kernel, so a
tolerance of 0 reports an error of exactly 0.  Every sweep runs the
lane march of :mod:`memsolve.engine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import eval_expr_array_clamped
from .netlist import Netlist, ValidationFailed, lower
from .solver import (
    BLOWUP_LIMIT,
    LN_FLOOR,
    REL_ERR_EPS,
    SimConfig,
    check_run,
    # Not called here: perfbench/spans.py patches tolerance.simulate and .perturb by name.
    simulate,  # noqa: F401
)
from .waveform import write_csv

__all__ = ["ToleranceConfig", "StabilityReport", "perturb", "stability_run", "DEFAULT_MASTER_SEED"]

DEFAULT_MASTER_SEED = 12345

_MAX_REDRAWS = 1000

# Rows reduced at a time: the reduction's temporaries are a few (rows x W) arrays.
_REDUCE_ROWS = 256


@dataclass
class ToleranceConfig:
    max_relative_error: float = 0.10
    iterations: int = 100
    master_seed: int = DEFAULT_MASTER_SEED
    distribution: str = "uniform"          # "uniform" | "truncated_gaussian"

    def __post_init__(self):
        if not (0.0 <= self.max_relative_error < 1.0):
            raise ValueError(
                f"max_relative_error must lie in [0, 1), got {self.max_relative_error}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative 64-bit integer")
        if self.distribution not in ("uniform", "truncated_gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


class _Draws:
    def __init__(self, cfg: ToleranceConfig, iteration_index: int):
        self.rng = np.random.default_rng([cfg.master_seed, iteration_index])
        self.eps = cfg.max_relative_error
        self.gaussian = cfg.distribution == "truncated_gaussian"
        self.redraws = 0

    def delta(self) -> float:
        if self.eps == 0.0:
            return 0.0
        if self.gaussian:
            return float(np.clip(self.rng.normal(0.0, self.eps / 3.0), -self.eps, self.eps))
        return float(self.rng.uniform(-self.eps, self.eps))

    def scale(self, value: float, valid=None) -> float:
        for _ in range(_MAX_REDRAWS):
            out = value * (1.0 + self.delta())
            if valid is None or valid(out):
                return out
            self.redraws += 1
        raise RuntimeError(f"no valid perturbation of {value!r} after {_MAX_REDRAWS} redraws")


def perturb(net: Netlist, cfg: ToleranceConfig, iteration_index: int) -> Netlist:
    """Independent perturbed copy of the netlist for one iteration.

    Structure is preserved exactly (same elements, wiring and expression
    shapes), so all iterations lower to programs with identical code and
    differing constant tables.
    """
    return _perturb(net, cfg, iteration_index)[0]


def _perturb(net: Netlist, cfg: ToleranceConfig, iteration_index: int) -> tuple[Netlist, int]:
    """:func:`perturb` and the number of draws it redrew."""
    draws = _Draws(cfg, iteration_index)
    out = Netlist(
        nodes=set(net.nodes),
        output_node=net.output_node,
        output_transform=net.output_transform,   # readout arithmetic: untouched
        valid_to=net.valid_to,
        meta=dict(net.meta),
    )
    for eid in sorted(net.elements):
        elem = net.elements[eid]
        if elem.DRAWS:
            attrs = dict(vars(elem))
            for f in elem.DRAWS:
                f.perturb(attrs, draws.scale)
            elem = type(elem)(**attrs)
        out.elements[eid] = elem
        out.out_node[eid] = net.out_node[eid]
    return out, draws.redraws


@dataclass
class StabilityReport:
    t: np.ndarray
    mean: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    iterations: int
    failures: tuple[tuple[int, str, int, float], ...]   # (iteration, kind, step, t), excluded
    redraws: int
    master_seed: int
    tolerance: float
    unstable: bool
    tape: dict                       # engine.tape_stats: tape length, instructions read from tables
    timings_s: dict                  # prepare (perturb + lower), kernel, reduce
    ln_clamps: int                   # ln clamps over every lane, the nominal one included
    lane_steps: int                  # recorded samples over every lane

    @property
    def failed(self) -> tuple[int, ...]:
        return tuple(f[0] for f in self.failures)

    @property
    def terminal_mean(self) -> float:
        return float(self.mean[-1])

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "mean_rel_err", "p10", "p90"), [self.t, self.mean, self.p10, self.p90])

    def summary_text(self) -> str:
        lines = [
            f"iterations: {self.iterations}",
            f"tolerance: {self.tolerance:g}",
            f"master_seed: {self.master_seed}",
            f"failed_iterations: {len(self.failed)}"
            + (f" (indices {', '.join(map(str, self.failed))})" if self.failed else ""),
            *(f"  iteration {i}: {kind} at step {step} (t={t:g})" for i, kind, step, t in self.failures),
            f"redraws: {self.redraws}",
            f"terminal_mean_rel_err: {self.terminal_mean:.6g}",
            f"unstable: {'yes' if self.unstable else 'no'}",
        ]
        return "\n".join(lines) + "\n"


def stability_run(net: Netlist, cfg: ToleranceConfig, sim: SimConfig) -> StabilityReport:
    """The nominal netlist plus ``cfg.iterations`` perturbed copies, reduced pointwise.

    Iterations that blow up or hit a domain error are excluded from the
    mean/percentile series and reported; more than 20% of them marks the
    report unstable.  The reduction is keyed by iteration index, so the
    result does not depend on scheduling.  Beyond the record, a parameter
    set costs a column of constants and states; the reduction, one chunk.
    """
    start = time.perf_counter()
    nominal = lower(net)                  # validates the netlist before any draw
    width = 1 + cfg.iterations
    check_run(nominal, sim, 1, width)
    consts = np.empty((len(nominal.program.consts), width))
    y0 = np.empty((nominal.n_states, width))
    consts[:, 0], y0[:, 0] = nominal.program.consts, nominal.y0()
    redraws = 0
    for i in range(cfg.iterations):       # one perturbed netlist alive at a time
        perturbed, n = _perturb(net, cfg, i)
        try:
            system = lower(perturbed)
        except ValidationFailed as exc:   # the nominal netlist passed: a draw broke it
            raise ValueError(f"iteration {i}: a drawn component value broke an element invariant:\n"
                             + "\n".join(map(str, exc.diagnostics))) from None
        if not system.program.same_structure(nominal.program):
            raise AssertionError("perturbation changed program structure")
        consts[:, i + 1], y0[:, i + 1] = system.program.consts, system.y0()
        redraws += n
    prepared = time.perf_counter()
    rec, ok_cols, failures, counts = _run_batch(nominal, consts, y0, sim)
    ran = time.perf_counter()
    if 0 in failures:
        kind, step = failures[0]
        raise ValueError(
            f"the nominal circuit fails ({kind} at step {step}); "
            "tolerance analysis needs a finite baseline"
        )
    if len(ok_cols) == 1:
        raise ValueError("every tolerance iteration failed; nothing to average")
    n_rows = sim.n_steps + 1
    mean, p10, p90 = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
    for first in range(0, n_rows, _REDUCE_ROWS):
        rows = slice(first, first + _REDUCE_ROWS)
        out = rec[rows, 0, ok_cols]
        if nominal.output_transform is not None:
            tcol = sim.dt * np.arange(first, first + len(out))[:, None]
            out, _ = eval_expr_array_clamped(nominal.output_transform, {"v": out, "t": tcol}, LN_FLOOR)
        ref = out[:, 0]
        denom = np.maximum(np.abs(ref), REL_ERR_EPS)
        # ``out`` is F-ordered; the summation order of mean and percentile, and
        # so the report's last bits, follow the layout: reduce C-ordered rows.
        rel = np.ascontiguousarray(np.abs(out[:, 1:] - ref[:, None]) / denom[:, None])
        mean[rows] = rel.mean(axis=1)
        p10[rows], p90[rows] = np.percentile(rel, [10.0, 90.0], axis=1)

    return StabilityReport(
        t=sim.dt * np.arange(n_rows, dtype=np.float64),
        mean=mean, p10=p10, p90=p90,
        iterations=cfg.iterations,
        failures=tuple((i - 1, kind, step, step * sim.dt) for i, (kind, step) in sorted(failures.items())),
        redraws=redraws,
        master_seed=cfg.master_seed,
        tolerance=cfg.max_relative_error,
        unstable=len(failures) > 0.2 * cfg.iterations,
        tape=engine.tape_stats(nominal.program),
        timings_s={"prepare": prepared - start, "kernel": ran - prepared,
                   "reduce": time.perf_counter() - ran},
        **counts,
    )


def _run_batch(system, consts, y0, sim):
    """Run every parameter set in one lane march of ``system``'s program.

    ``consts`` is (n_consts, W) and ``y0`` (n_states, W), one column per
    set.  Returns the raw (n_steps+1, 1, W) record of the output node, the
    columns of the sets that completed, in order, for the others the
    failure kind and step keyed by column, and the lanes' totals of ``ln``
    clamps and recorded samples (``ln_clamps`` and ``lane_steps``).
    """
    prog = system.program
    width = consts.shape[1]
    n_steps = sim.n_steps
    chan_kind = np.array([engine.CHAN_REG], dtype=np.int32)
    chan_idx = np.array([system.node_regs[system.output_node]], dtype=np.int32)
    rec = np.empty((n_steps + 1, 1, width))
    status = np.zeros(width, dtype=np.int64)
    event = np.zeros(width, dtype=np.int64)
    ln_counts = np.zeros(width, dtype=np.int64)
    rec_counts = np.zeros(width, dtype=np.int64)
    engine.rk4_run_batch(
        prog.code, consts, prog.deriv_regs, prog.g_regs,
        chan_kind, chan_idx, y0, 0.0, sim.dt, n_steps, LN_FLOOR, BLOWUP_LIMIT,
        rec, None, status, event, ln_counts, rec_counts,    # no passivity flags
    )
    kinds = {engine.STATUS_DOMAIN_ERROR: "domain error", engine.STATUS_BLOWUP: "blow-up"}
    failures = {i: (kinds[status[i]], int(event[i]))
                for i in range(width) if status[i] != engine.STATUS_OK}
    counts = {"ln_clamps": int(ln_counts.sum()), "lane_steps": int(rec_counts.sum())}
    return rec, [i for i in range(width) if i not in failures], failures, counts
