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
scheduled.  An iteration draws all its values in one call; a draw that
breaks its field's redraw rule (a potentiometer ratio reaching 1) is
redrawn and the redraws counted.  The sweep checks each iteration's
values against the element rules, then lowers the netlist once with
every component value a lane column, into the constant and
initial-state columns of the whole sweep; :func:`perturb` is one of
those columns as a netlist of its own.

The reference curve is the unperturbed netlist's own simulation, so the
report isolates the effect of component error from discretization
error.  It runs as parameter set 0 of the same sweep as the perturbed
iterations (set k+1 is iteration k), through the same kernel, so a
tolerance of 0 reports an error of exactly 0.  Every sweep runs the
lane march of :mod:`memsolve.engine`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import eval_expr_array_clamped, first_failure
from .exprs import DomainError
from .netlist import Netlist, lower, lower_unchecked, validate
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
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a non-negative 64-bit integer")
        if self.distribution not in ("uniform", "truncated_gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def perturb(net: Netlist, cfg: ToleranceConfig, iteration_index: int) -> Netlist:
    """Independent perturbed copy of the netlist for one iteration.

    Structure is preserved exactly (same elements, wiring and expression
    shapes), so all iterations lower to programs with identical code and
    differing constant tables: the sweep's column of this iteration.
    """
    return _perturb(net, cfg, iteration_index)[0]


def _perturb(net: Netlist, cfg: ToleranceConfig, iteration_index: int) -> tuple[Netlist, int]:
    """:func:`perturb` and the number of draws it redrew."""
    values, _, redrawn = _components(net)
    with np.errstate(over="ignore"):      # a drawn value may overflow to inf, as a float product does
        drawn, redraws = _draw(values, redrawn, cfg, iteration_index)
    it = iter(drawn.tolist())
    return _replace(net, lambda _x, _f: next(it)), redraws


def _replace(net: Netlist, fn) -> Netlist:
    """Copy of ``net`` with each component value ``x``, held by field ``f``, replaced by ``fn(x, f)``, in draw order."""
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
                f.replace(attrs, fn)
            elem = type(elem)(**attrs)
        out.elements[eid] = elem
        out.out_node[eid] = net.out_node[eid]
    return out


def _components(net: Netlist):
    """The netlist's component values in draw order, the field holding each,
    and the places and rules of those that a draw must keep to their rule."""
    values, fields = [], []
    _replace(net, lambda x, f: values.append(x) or fields.append(f) or x)
    redrawn = [(k, f.redraw) for k, f in enumerate(fields) if f.redraw is not None]
    return np.array(values, dtype=np.float64), fields, redrawn


def _draw(values: np.ndarray, redrawn, cfg: ToleranceConfig, iteration_index: int) -> tuple[np.ndarray, int]:
    """One iteration's component values, and how many draws it redrew.

    Each value is scaled by 1 + delta, the deltas drawn in one call, in draw
    order, from the iteration's own generator.  A value that breaks its
    redraw rule takes the next delta, and each value after it the delta
    after its own: the one delta short is drawn in one more call.
    """
    rng = np.random.default_rng([cfg.master_seed, iteration_index])
    eps = cfg.max_relative_error

    def deltas(n):
        if eps == 0.0:
            return np.zeros(n)
        if cfg.distribution == "truncated_gaussian":
            return np.clip(rng.normal(0.0, eps / 3.0, size=n), -eps, eps)
        return rng.uniform(-eps, eps, size=n)

    d = deltas(len(values))
    out = values * (1.0 + d)
    first = redraws = tries = 0
    while True:
        bad = next((k for k, rule in redrawn if k >= first and not rule(out[k])), None)
        if bad is None:
            return out, redraws
        tries = tries + 1 if bad == first else 1
        if tries == _MAX_REDRAWS:
            raise RuntimeError(f"no valid perturbation of {float(values[bad])!r} after {_MAX_REDRAWS} redraws")
        redraws += 1
        d = np.concatenate((d, deltas(1)))
        out[bad:] = values[bad:] * (1.0 + d[bad + redraws:])
        first = bad


def _lane_columns(net: Netlist, cfg: ToleranceConfig, width: int):
    """The sweep's (n_consts, W) constants and (n_states, W) initial states, and its redraws.

    Column 0 is the nominal set and column i + 1 iteration i's, the columns
    of ``lower(perturb(net, cfg, i))``: one netlist whose component values
    are the columns lowers them all.
    """
    values, fields, redrawn = _components(net)
    table = np.empty((len(values), width))
    table[:, 0] = values
    redraws = 0
    with np.errstate(over="ignore", divide="ignore"):    # as float arithmetic: inf, silently
        for i in range(width - 1):
            table[:, i + 1], n = _draw(values, redrawn, cfg, i)
            redraws += n
        # the element rules read one number at a time; the nominal column passed them
        broken = [j - 1 for k, f in enumerate(fields) if f.ok is not None
                  for j, x in enumerate(table[k].tolist()) if not f.ok(x)]
        if broken:
            i = min(broken)
            raise ValueError(f"iteration {i}: a drawn component value broke an element invariant:\n"
                             + "\n".join(map(str, validate(perturb(net, cfg, i)))))
        rows = iter(table)
        lanes = lower_unchecked(_replace(net, lambda _x, _f: next(rows)))
    return lanes.program.consts.reshape(-1, width), lanes.y0().reshape(-1, width), redraws


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
    timings_s: dict                  # prepare (draw, then lower once), kernel, reduce
    ln_clamps: int                   # ln clamps of every lane's march and of the reduced lanes' readout
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
    consts, y0, redraws = _lane_columns(net, cfg, width)
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
            try:
                out, clamps = eval_expr_array_clamped(nominal.output_transform, {"v": out, "t": tcol}, LN_FLOOR)
            except DomainError:
                row, j, msg = first_failure(nominal.output_transform, {"v": out, "t": tcol}, LN_FLOOR)
                who, step = f"iteration {ok_cols[j] - 1}" if j else "the nominal circuit", first + row
                raise DomainError(f"{who}: the output transform fails at step {step} "
                                  f"(t={step * sim.dt:g}): {msg}") from None
            counts["ln_clamps"] += clamps
        ref = out[:, 0]
        denom = np.maximum(np.abs(ref), REL_ERR_EPS)
        # ``out`` is F-ordered; the mean's summation order, and so the report's
        # last bits, follow the layout: reduce C-ordered rows.  The mean is
        # taken first, then the rows are sorted in place for the percentiles.
        rel = np.ascontiguousarray(np.abs(out[:, 1:] - ref[:, None]) / denom[:, None])
        mean[rows] = rel.mean(axis=1)
        rel.sort(axis=1)
        p10[rows], p90[rows] = (_sorted_percentile(rel, q) for q in (10.0, 90.0))

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


def _sorted_percentile(x: np.ndarray, q: float) -> np.ndarray:
    """The ``q``-th percentile of each row of ``x``, whose rows are sorted (NaN last).

    Bit for bit ``np.percentile(x, q, axis=1)`` (its default, linear
    method), which would partition a copy of ``x`` and import ``numpy.ma``:
    the same virtual index, neighbours, weight and interpolation, and NaN
    for a row that holds one.
    """
    n = x.shape[1]
    v = (n - 1) * (q / 100)
    lo = math.floor(v)
    # at or past the last index numpy takes the last element for both neighbours, as index -1,
    # and weighs them by v - (-1)
    lo, hi, g = (n - 1, n - 1, v + 1) if v >= n - 1 else (lo, lo + 1, v - lo)
    a, b = x[:, lo], x[:, hi]
    d = b - a
    out = b - d * (1 - g) if g >= 0.5 else a + d * g
    np.copyto(out, x[:, -1], where=np.isnan(x[:, -1]))
    return out


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
        chan_kind, chan_idx, y0, sim.dt, n_steps, LN_FLOOR, BLOWUP_LIMIT,
        rec, None, status, event, ln_counts, rec_counts,    # no passivity flags
    )
    kinds = {engine.STATUS_DOMAIN_ERROR: "domain error", engine.STATUS_BLOWUP: "blow-up"}
    failures = {i: (kinds[status[i]], int(event[i]))
                for i in range(width) if status[i] != engine.STATUS_OK}
    counts = {"ln_clamps": int(ln_counts.sum()), "lane_steps": int(rec_counts.sum())}
    return rec, [i for i in range(width) if i not in failures], failures, counts
