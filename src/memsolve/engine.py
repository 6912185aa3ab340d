"""Execution engine for lowered circuits and for array-valued expressions.

A lowered circuit is a straight-line *tape* of register instructions
(:class:`Program`) evaluated once per Runge-Kutta stage.  The tape is
not interpreted: ``_OPS`` states each opcode's semantics once (its
expression, its domain guard and its ``ln`` clamp), and ``_op_lines``
turns a tape into straight-line Python source in three variants:

* scalar, the RK4 stage driven by :func:`rk4_run` (single runs).  Stage
  and driver stay in the numba-compilable subset of Python (arrays and
  scalars only, no closures, no lists), so the numba backend njits the
  same source;
* lanes, the RK4 stage driven by :func:`rk4_run_batch`, which advances a
  batch of parameter sets side by side in numpy arrays (Monte Carlo
  sweeps on the numpy backend);
* array, one expression over numpy arrays (:func:`eval_expr_array` and
  :func:`eval_expr_array_clamped`): output transforms over a recorded
  waveform and the reference solver's coefficient tables.  Its guards
  raise :class:`~memsolve.exprs.DomainError` instead of masking lanes.

Kernel status codes: 0 = completed, 1 = expression domain error,
2 = state blow-up (magnitude above the blow-up limit or non-finite).
Inside the kernels ``ln`` is clamped below at ``ln_floor`` and the
activations are counted; division by zero, square roots of negatives
and fractional powers of negatives are domain errors.  Overflow to
infinity is not a domain error: it surfaces as a blow-up at the end of
the step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exprs import Binary, Const, DomainError, Expr, Unary, Var, variables

OP_CONST = 0
OP_T = 1
OP_STATE = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_NEG = 7
OP_EXP = 8
OP_LN = 9
OP_SIN = 10
OP_COS = 11
OP_SQRT = 12
OP_ABS = 13
OP_POW = 14

_UNARY_OPS = {"neg": OP_NEG, "exp": OP_EXP, "ln": OP_LN, "sin": OP_SIN,
              "cos": OP_COS, "sqrt": OP_SQRT, "abs": OP_ABS}
_BINARY_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV, "pow": OP_POW}

STATUS_OK = 0
STATUS_DOMAIN_ERROR = 1
STATUS_BLOWUP = 2

CHAN_REG = 0
CHAN_STATE = 1


@dataclass
class Program:
    """Straight-line register program producing the state derivatives.

    ``code`` rows are ``(op, dst, a, b)`` where ``a``/``b`` are register
    indices except for OP_CONST (constant-table index) and OP_STATE
    (state index).  Constants are *not* deduplicated: every literal in
    the source netlist owns one slot, so a structurally identical
    netlist with different coefficient values lowers to the same code
    with a different constant table.
    """

    code: np.ndarray            # (n_instr, 4) int32
    consts: np.ndarray          # (n_consts,) float64
    n_regs: int
    deriv_regs: np.ndarray      # (n_states,) int32
    g_regs: np.ndarray          # (n_memristors,) int32, memductance values

    def same_structure(self, other: "Program") -> bool:
        return (
            self.n_regs == other.n_regs
            and self.consts.shape == other.consts.shape
            and np.array_equal(self.code, other.code)
            and np.array_equal(self.deriv_regs, other.deriv_regs)
            and np.array_equal(self.g_regs, other.g_regs)
        )


class TapeBuilder:
    def __init__(self):
        self._code: list[tuple[int, int, int, int]] = []
        self._consts: list[float] = []
        self.n_regs = 0

    def new_reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def emit(self, op: int, dst: int, a: int = 0, b: int = 0) -> int:
        self._code.append((op, dst, a, b))
        return dst

    def const(self, value: float) -> int:
        idx = len(self._consts)
        self._consts.append(float(value))
        return self.emit(OP_CONST, self.new_reg(), idx)

    def load_t(self) -> int:
        return self.emit(OP_T, self.new_reg())

    def load_state(self, state_index: int) -> int:
        return self.emit(OP_STATE, self.new_reg(), state_index)

    def unary(self, op: str, a: int) -> int:
        return self.emit(_UNARY_OPS[op], self.new_reg(), a)

    def binary(self, op: str, a: int, b: int) -> int:
        return self.emit(_BINARY_OPS[op], self.new_reg(), a, b)

    def compile_expr(self, e: Expr, env: dict[str, int]) -> int:
        """Emit code computing ``e``; ``env`` maps variable names to registers."""
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Unary):
            return self.unary(e.op, self.compile_expr(e.arg, env))
        if isinstance(e, Binary):
            a = self.compile_expr(e.lhs, env)
            b = self.compile_expr(e.rhs, env)
            return self.binary(e.op, a, b)
        raise TypeError(f"not an expression node: {e!r}")

    def finish(self, deriv_regs: list[int], g_regs: list[int]) -> Program:
        code = np.array(self._code, dtype=np.int32).reshape(-1, 4)
        return Program(
            code=code,
            consts=np.array(self._consts, dtype=np.float64),
            n_regs=self.n_regs,
            deriv_regs=np.array(deriv_regs, dtype=np.int32),
            g_regs=np.array(g_regs, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# Opcode semantics
#
# Each entry is (expression, guard).  In an expression, {a} and {b} name
# the operand registers and {i} is the raw operand of OP_CONST and
# OP_STATE (a constant-table or state index).  Generated code sees the
# stage time as ``t``, the state (or, for the array variant, the bound
# variables) as ``y`` and the constant table as ``consts``; for lanes
# every one of them carries the lane axis.


@dataclass(frozen=True)
class _Guard:
    on: str            # "a" or "b": the operand is checked first; "r": the result
    bad: str           # test over the checked value, written as {}: outside the real domain
    safe: str          # value a lane keeps computing with where the test holds
    msg: str           # the DomainError message of the array variant
    clamp: str = ""    # test under which the kernels clamp to ``safe`` and count instead


_OPS = {
    OP_CONST: ("consts[{i}]", None),
    OP_T: ("t", None),
    OP_STATE: ("y[{i}]", None),
    OP_ADD: ("{a} + {b}", None),
    OP_SUB: ("{a} - {b}", None),
    OP_MUL: ("{a} * {b}", None),
    OP_DIV: ("{a} / {b}", _Guard("b", "{} == 0.0", "1.0", "division by zero")),
    OP_NEG: ("-{a}", None),
    OP_EXP: ("np.exp({a})", None),
    OP_LN: ("np.log({a})", _Guard("a", "{} <= 0.0", "ln_floor", "ln of non-positive value",
                                  clamp="{} < ln_floor")),
    OP_SIN: ("np.sin({a})", None),
    OP_COS: ("np.cos({a})", None),
    OP_SQRT: ("np.sqrt({a})", _Guard("a", "{} < 0.0", "0.0", "sqrt of negative value")),
    OP_ABS: ("abs({a})", None),
    # (scalar, lanes and array): the scalar variant keeps libm pow through
    # numpy scalar power; the array ufunc has its own fast paths (exponents
    # 2, 0.5, -1), so the variants can differ in the last bit.
    OP_POW: (("np.float64({a}) ** {b}", "np.power({a}, {b})"),
             _Guard("r", "np.isnan({})", "0.0", "pow outside the real domain")),
}


def _guard_lines(g: _Guard, variant: str) -> list[str]:
    """What happens to ``x`` (the checked value) where the guard's test holds."""
    test = (g.clamp or g.bad).format("x")
    if variant == "scalar":
        then = ["x = " + g.safe, "info[2] += 1"] if g.clamp else [f"return {STATUS_DOMAIN_ERROR}"]
        return [f"if {test}:"] + ["    " + s for s in then]
    if variant == "lanes":
        # a lane stops counting at its first domain error, as the scalar stage returns there
        flag = "ln_counts[alive & ~dom & m] += 1" if g.clamp else "dom |= m"
        return [f"m = {test}", "if m.any():", "    " + flag,
                f"    x = np.where(m, {g.safe}, x)"]
    strict = [f"if ({g.bad.format('x')}).any():", f"    raise DomainError({g.msg!r})"]
    if not g.clamp:
        return strict
    # ``ln_floor`` None is strict evaluation; otherwise clamp and count as the kernels do
    return (["if ln_floor is None:"] + ["    " + s for s in strict]
            + ["else:", f"    m = {test}", "    n_clamped += int(np.count_nonzero(m))",
               f"    x = np.where(m, {g.safe}, x)"])


def _op_lines(code, variant: str) -> list[str]:
    """One assignment to a local ``r<dst>`` per instruction, guards included."""
    body = []
    for op, dst, a, b in code:
        expr, guard = _OPS[op]
        if isinstance(expr, tuple):
            expr = expr[variant != "scalar"]
        names = {"i": a, "a": f"r{a}", "b": f"r{b}"}
        if guard is None:
            body.append(f"r{dst} = " + expr.format(**names))
            continue
        if guard.on == "r":
            body.append("x = " + expr.format(**names))
            body += _guard_lines(guard, variant)
            body.append(f"r{dst} = x")
        else:
            body.append(f"x = {names[guard.on]}")
            body += _guard_lines(guard, variant)
            names[guard.on] = "x"
            body.append(f"r{dst} = " + expr.format(**names))
    return body


def _emit(code, deriv_regs, probes, lanes: bool) -> str:
    """Straight-line source of one RK4 stage; registers become locals ``r<n>``.

    The stage writes the state derivatives to ``k`` and the probes (the
    recorded channels, then the memductance registers) to ``p``.  The
    scalar stage returns a status code and counts ``ln`` clamps in
    ``info[2]``; the lane stage returns its domain-error mask and counts
    clamps per live lane.  Built from opcodes and indices only.
    """
    if lanes:
        lines = ["def stage(t, y, consts, ln_floor, k, p, ln_counts, alive):",
                 "    dom = np.zeros(alive.shape[0], dtype=np.bool_)"]
    else:
        lines = ["def stage(t, y, consts, ln_floor, k, p, info):"]
    body = _op_lines(code, "lanes" if lanes else "scalar")
    body += [f"k[{i}] = r{r}" for i, r in enumerate(deriv_regs)]
    body += [f"p[{j}] = " + (f"y[{i}]" if kind == CHAN_STATE else f"r{i}")
             for j, (kind, i) in enumerate(probes)]
    body.append("return dom" if lanes else f"return {STATUS_OK}")
    return "\n".join(lines + ["    " + s for s in body]) + "\n"


def _compile(source: str, name: str):
    namespace = {"np": np, "DomainError": DomainError}
    exec(compile(source, f"<memsolve {name}>", "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=256)
def _stage(code, deriv_regs, probes, lanes: bool, jit=None):
    fn = _compile(_emit(code, deriv_regs, probes, lanes), "stage")
    return fn if jit is None else jit(fn)


def _stage_for(code, deriv_regs, g_regs, chan_kind, chan_idx, lanes: bool, jit=None):
    """The generated stage for this program structure, cached across calls.

    The key is what the source is built from: the tape, the derivative
    and memductance registers and the recorded channels.  Constants are
    an argument of the stage, so programs that differ only in their
    constant tables (:meth:`Program.same_structure`) share one function.
    """
    probes = tuple(zip(chan_kind.tolist(), chan_idx.tolist()))
    probes += tuple((CHAN_REG, g) for g in g_regs.tolist())
    return _stage(tuple(map(tuple, code.tolist())), tuple(deriv_regs.tolist()), probes, lanes, jit)


# ---------------------------------------------------------------------------
# Array expressions
#
# An expression compiles to a tape whose states are its bound variables,
# one OP_STATE slot per name; the array variant of that tape evaluates it
# over numpy arrays, broadcasting the bindings against each other.


@functools.lru_cache(maxsize=256)
def _evaluator(e: Expr, names: tuple[str, ...]):
    """The generated evaluation of ``e`` and its constant table, cached per (expr, names)."""
    used = variables(e)
    unbound = sorted(used - set(names))
    if unbound:
        raise DomainError(f"unbound variable '{unbound[0]}'")
    b = TapeBuilder()
    out = b.compile_expr(e, {n: b.load_state(i) for i, n in enumerate(names) if n in used})
    prog = b.finish([out], [])
    lines = ["def evaluate(y, consts, ln_floor):", "    n_clamped = 0"]
    lines += ["    " + s for s in _op_lines(prog.code.tolist(), "array")]
    lines.append(f"    return r{out}, n_clamped")
    return _compile("\n".join(lines) + "\n", "evaluate"), prog.consts


def _eval_array(e: Expr, bindings, ln_floor):
    fn, consts = _evaluator(e, tuple(bindings))
    with np.errstate(all="ignore"):
        out, n_clamped = fn([np.asarray(v, dtype=float) for v in bindings.values()], consts, ln_floor)
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise DomainError("non-finite result")
    return out, n_clamped


def eval_expr_array(e: Expr, bindings) -> np.ndarray:
    """Evaluate ``e`` with array-valued bindings, broadcast together; strict domain checks."""
    return _eval_array(e, bindings, None)[0]


def eval_expr_array_clamped(e: Expr, bindings, ln_floor: float) -> tuple[np.ndarray, int]:
    """Like :func:`eval_expr_array` but clamp ln arguments below ``ln_floor``.

    Returns the values and the number of clamped samples.  This is the
    simulator-side evaluation mode; the default evaluator stays strict.
    """
    return _eval_array(e, bindings, ln_floor)


# ---------------------------------------------------------------------------
# Scalar kernel


def _drive(stage, consts, n_chan, p, y0, t0, dt, n_steps, ln_floor, blow_limit,
           rec, gflag, info, y_out):
    """Classical fixed-step RK4 around a scalar stage (numba-compilable as-is)."""
    n_states = y0.shape[0]
    y = y_out
    for i in range(n_states):
        y[i] = y0[i]
    ytmp = np.empty(n_states, dtype=np.float64)
    ks = np.empty((4, n_states), dtype=np.float64)
    comp = np.zeros(n_states, dtype=np.float64)  # Kahan compensation
    recorded = 0
    info[0] = STATUS_OK
    info[1] = n_steps
    info[2] = 0
    for step in range(n_steps + 1):
        for stg in range(4):
            if stg == 0:
                ts = t0 + step * dt
                for i in range(n_states):
                    ytmp[i] = y[i]
            elif stg == 3:
                ts = t0 + (step + 1) * dt
                for i in range(n_states):
                    ytmp[i] = y[i] + dt * ks[2, i]
            else:
                ts = t0 + step * dt + 0.5 * dt
                for i in range(n_states):
                    ytmp[i] = y[i] + 0.5 * dt * ks[stg - 1, i]
            if stage(ts, ytmp, consts, ln_floor, ks[stg], p, info) != STATUS_OK:
                info[0] = STATUS_DOMAIN_ERROR
                info[1] = step
                return recorded
            if stg == 0:
                for c in range(n_chan):
                    rec[step, c] = p[c]
                flag = 0
                for j in range(n_chan, p.shape[0]):
                    if p[j] < 0.0:
                        flag = 1
                gflag[step] = flag
                recorded = step + 1
                if step == n_steps:
                    return recorded
        bad = False
        for i in range(n_states):
            # compensated state update keeps the roundoff floor near eps*|y|,
            # so small-step runs stay truncation-dominated
            delta = dt * (ks[0, i] + 2.0 * ks[1, i] + 2.0 * ks[2, i] + ks[3, i]) / 6.0
            term = delta - comp[i]
            yn = y[i] + term
            comp[i] = (yn - y[i]) - term
            if not np.isfinite(yn) or abs(yn) > blow_limit:
                bad = True
            y[i] = yn
        if bad:
            info[0] = STATUS_BLOWUP
            info[1] = step + 1
            return recorded
    return recorded


def scalar_kernel(jit=None):
    """The scalar RK4 kernel; ``jit`` (e.g. ``numba.njit``) compiles its driver and stages."""
    drive = _drive if jit is None else jit(_drive)

    def rk4_run(code, consts, n_regs, deriv_regs, g_regs, chan_kind, chan_idx,
                y0, t0, dt, n_steps, ln_floor, blow_limit, rec, gflag, info, y_out):
        """Classical fixed-step RK4 over the tape; returns #recorded samples.

        ``rec`` is (n_steps+1, n_channels); ``gflag`` is (n_steps+1,) and set
        to 1 on samples where any memductance register is negative.
        ``info`` receives (status, event_step, ln_clamp_count); ``y_out``
        holds the state vector at exit (the failing state on an error).
        """
        stage = _stage_for(code, deriv_regs, g_regs, chan_kind, chan_idx, False, jit)
        p = np.empty(chan_kind.shape[0] + g_regs.shape[0], dtype=np.float64)
        with np.errstate(all="ignore"):  # domain errors are reported through info
            return drive(stage, consts, chan_kind.shape[0], p, y0, t0, dt, n_steps,
                         ln_floor, blow_limit, rec, gflag, info, y_out)

    return rk4_run


rk4_run = scalar_kernel()


# ---------------------------------------------------------------------------
# Lane kernel
#
# Runs W independent parameter sets of one program in lockstep: consts is
# (n_consts, W), states are (n_states, W).  Lanes die individually on
# domain errors or blow-up; per-lane status/event/ln counts mirror the
# scalar kernel.  Per-lane waveforms are bit-equal to the scalar kernel's
# for tapes without OP_POW (see _OPS).


def rk4_run_batch(code, consts, n_regs, deriv_regs, g_regs, chan_kind, chan_idx,
                  y0, t0, dt, n_steps, ln_floor, blow_limit, rec, gflag, status,
                  event_step, ln_counts, rec_counts, y_out=None):
    stage = _stage_for(code, deriv_regs, g_regs, chan_kind, chan_idx, True)
    n_states, width = y0.shape
    n_chan = chan_kind.shape[0]
    p = np.empty((n_chan + g_regs.shape[0], width), dtype=np.float64)
    tv = np.empty(width, dtype=np.float64)
    y = y0.copy()
    ks = np.empty((4, n_states, width), dtype=np.float64)
    comp = np.zeros((n_states, width), dtype=np.float64)
    alive = np.ones(width, dtype=bool)
    status[:] = STATUS_OK
    event_step[:] = n_steps
    ln_counts[:] = 0
    rec_counts[:] = 0
    rec[:] = np.nan
    gflag[:] = 0

    def kill(mask, code_, step_):
        hit = mask & alive
        if hit.any():
            status[hit] = code_
            event_step[hit] = step_
            alive[hit] = False

    with np.errstate(all="ignore"):
        for step in range(n_steps + 1):
            if not alive.any():
                break
            for stg in range(4):
                if stg == 0:
                    ts = t0 + step * dt
                    ytmp = y
                elif stg == 3:
                    ts = t0 + (step + 1) * dt
                    ytmp = y + dt * ks[2]
                else:
                    ts = t0 + step * dt + 0.5 * dt
                    ytmp = y + 0.5 * dt * ks[stg - 1]
                tv.fill(ts)
                kill(stage(tv, ytmp, consts, ln_floor, ks[stg], p, ln_counts, alive),
                     STATUS_DOMAIN_ERROR, step)
                if not alive.any():
                    break
                if stg == 0:
                    for c in range(n_chan):
                        rec[step, c, alive] = p[c, alive]
                    if p.shape[0] > n_chan:
                        gflag[step, alive] = (p[n_chan:] < 0.0).any(axis=0)[alive]
                    rec_counts[alive] = step + 1
                    if step == n_steps:
                        break
            if step == n_steps or not alive.any():
                break
            delta = dt * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]) / 6.0
            term = delta - comp
            ynew = y + term
            compnew = (ynew - y) - term
            blown = (~np.isfinite(ynew) | (np.abs(ynew) > blow_limit)).any(axis=0)
            kill(blown, STATUS_BLOWUP, step + 1)
            y = np.where(alive, ynew, y)
            comp = np.where(alive, compnew, comp)
    if y_out is not None:
        y_out[:] = y
    return rec_counts
