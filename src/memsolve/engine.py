"""Execution engine for lowered circuits and for array-valued expressions.

A lowered circuit is a straight-line *tape* of register instructions
(:class:`Program`) evaluated once per Runge-Kutta stage.  ``_OPS``
states each opcode's semantics once (its expression, its domain guard
and its ``ln`` clamp).  What runs every step is generated from it:
``_march`` generates the whole RK4 march for one program structure, with
the tape inlined four times per step:

* the scalar march, run by :func:`rk4_run` (single runs), keeps states,
  stage slopes and constants in Python-float locals.  Its step loop
  calls numpy only for the ufuncs whose bits it must reproduce (``exp``
  and ``log``, bound to locals, ``pow`` over one-element buffers, and
  ``sin`` and ``cos`` of a non-finite value), and it writes samples and
  passivity flags through memoryviews (a memductance register that loads
  a constant sets its flags once, at exit);
* the lane march, run by :func:`rk4_run_batch`, advances a batch of
  parameter sets side by side in numpy arrays (every Monte Carlo
  sweep).  It stacks the states, compensation terms and stage slopes
  as (n_states, W) arrays, so a stage input, the compensated update and
  the blow-up test are each one set of numpy calls.  Every call writes
  into a buffer the march owns, passed as the ufunc's positional
  output (one per register, stage input and update term, a slab per
  guard of one bool buffer, for the live width), so a step allocates no
  array.  Its stages compute without masks and test no guard: the value
  a guard checks has a stage axis, so one call per guard tests it over
  the step's four stages, and one ``np.count_nonzero`` per step counts
  every hit.  A step whose guard holds anywhere is redone exactly,
  stage by stage, masked, and a lane that fails leaves every per-lane
  array.

Both marches run the tape as lowered, signs spelled where it is built
(``a + (-b)`` as ``a - b`` in :meth:`TapeBuilder.compile_expr`, a one-term
inverting stage as a product by the negated weight), so a lane executes
the instructions of its scalar run.

Both marches read the tape's state-independent part (every instruction
whose operands trace back only to ``t`` and constants) from stage-time
tables.  RK4 visits only the grid times ``step*dt`` and the half-step
times ``step*dt + dt/2``, so that part, evaluated once over those times
(:func:`_tables`), gives every stage its values:

* the scalar march gets tables over the whole grid, built once per run.
  If a hoisted guard holds anywhere on the grid, the run takes the
  march that evaluates every instruction in order instead;
* the lane march builds (times x live lanes) tables every
  ``_TABLE_STEPS`` steps.  A step whose table rows note a guard hit is
  redone masked, like a step whose own guards hold; a guard over
  constants alone is noted on every row while it holds for some lane.

Either way domain errors, ``ln`` clamp counts and event steps come from
the in-order tape.  A tape with nothing to hoist (constant loads aside)
generates the same march as without tables.  Every march and table computes
``pow`` with numpy's array loop: a lane is bit-equal to its scalar run.

What runs once per call runs the tape row by row (:func:`_interpreter`),
which costs less than compiling it: the tables, and two variants that
evaluate one expression, raising :class:`~memsolve.exprs.DomainError`:
over arrays (:func:`eval_expr_array`: output transforms, the reference
coefficient tables) and floats (:func:`eval_expr`: constant folding;
the reference chain calls :func:`scalar_evaluator`, generated, per step).

Kernel status codes: 0 = completed, 1 = expression domain error,
2 = state blow-up (magnitude above the blow-up limit or non-finite).
Inside the kernels ``ln`` is clamped below at ``ln_floor`` and the
activations are counted; division by zero, square roots of negatives
and fractional powers of negatives are domain errors.  Overflow to
infinity is not a domain error: it surfaces as a blow-up at the end of
the step.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .exprs import Binary, Const, DomainError, Expr, Unary, Var, fold, operands, variables

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


def _is_neg(e: Expr) -> bool:
    return isinstance(e, Unary) and e.op == "neg"


def _signed_operands(e: Expr) -> tuple:
    """The operands the tape computes: the sign that an add turns into a sub is skipped."""
    if isinstance(e, Binary) and e.op == "add" and (_is_neg(e.rhs) or _is_neg(e.lhs)):
        return (e.lhs, e.rhs.arg) if _is_neg(e.rhs) else (e.lhs.arg, e.rhs)
    return operands(e)


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
        self._consts.append(value)
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
        """Emit code computing ``e``; ``env`` maps variable names to registers.
        ``a + (-b)`` is emitted as ``a - b`` and ``(-a) + b`` as ``b - a``, which IEEE
        arithmetic defines alike; operands go lhs first, so guards fire in source order."""
        def visit(x: Expr, regs: list[int]) -> int:
            if isinstance(x, Const):
                return self.const(x.value)
            if isinstance(x, Var):
                return env[x.name]
            if isinstance(x, Unary):
                return self.unary(x.op, *regs)
            if x.op == "add" and (_is_neg(x.rhs) or _is_neg(x.lhs)):
                return self.binary("sub", *(regs if _is_neg(x.rhs) else regs[::-1]))
            return self.binary(x.op, *regs)

        return fold(e, visit, _signed_operands)

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
# every one of them carries the lane axis.  The marches read these loads
# from locals instead (``_MARCH_LOADS``).  An expression written as a
# pair is (float, numpy): the scalar march and the strict scalar evaluator
# compute in Python floats, the others over numpy arrays.  A float one may
# start with statements, one per line; {dst} names the destination register.


@dataclass(frozen=True)
class _Guard:
    on: str            # "a" or "b": the operand is checked first; "r": the result
    bad: str           # test over the checked value, written as {0}: outside the real domain
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
    OP_DIV: ("{a} / {b}", _Guard("b", "{0} == 0.0", "1.0", "division by zero")),
    OP_NEG: ("-{a}", None),
    # exp and ln stay numpy's in the scalar march (bound to locals, _float_setup): libm's differ in the last bit
    OP_EXP: (("float(exp({a}))", "np.exp({a})"), None),
    OP_LN: (("float(log({a}))", "np.log({a})"),
            _Guard("a", "{0} <= 0.0", "ln_floor", "ln of non-positive value", clamp="{0} < ln_floor")),
    # math.sin and math.cos equal numpy's, but raise on infinities where numpy gives NaN
    OP_SIN: (("math.sin({a}) if {a} - {a} == 0.0 else float(np.sin({a}))", "np.sin({a})"), None),
    OP_COS: (("math.cos({a}) if {a} - {a} == 0.0 else float(np.cos({a}))", "np.cos({a})"), None),
    OP_SQRT: (("math.sqrt({a})", "np.sqrt({a})"),
              _Guard("a", "{0} < 0.0", "0.0", "sqrt of negative value")),
    OP_ABS: ("abs({a})", None),
    # numpy's array loop everywhere, the float variants' over one-element buffers written and read
    # through memoryviews (_float_setup); libm pow and numpy's fast paths for a stride-0 exponent
    # of 2, 0.5 or -1 differ in the last bit
    OP_POW: (("pam[0] = {a}\nem{dst}[0] = {b}\npower(pa, e{dst}, po)\npom[0]", "np.power({a}, {b})"),
             _Guard("r", "{0} != {0}", "0.0", "pow outside the real domain")),
}


# The numpy variants' expressions as ufuncs, so a march can write a register
# into a buffer it owns, passed as the positional output (the operators are
# these ufuncs).  ``_COMPARE`` does the same for the guard tests' comparisons.
_UFUNCS = {OP_ADD: "add", OP_SUB: "subtract", OP_MUL: "multiply", OP_DIV: "true_divide",
           OP_NEG: "negative", OP_EXP: "exp", OP_LN: "log", OP_SIN: "sin", OP_COS: "cos",
           OP_SQRT: "sqrt", OP_ABS: "absolute", OP_POW: "power"}
_COMPARE = {"==": "equal", "!=": "not_equal", "<": "less", "<=": "less_equal"}
# binds every ufunc a buffered march or table build calls to a local
_BOUND = sorted({*_UFUNCS.values(), *_COMPARE.values(), "bitwise_or"})
_BIND = f"{', '.join(_BOUND)} = {', '.join('np.' + x for x in _BOUND)}"


def _guard_lines(g: _Guard, variant: str, failing=()) -> list[str]:
    """What happens to ``x`` (the checked value) where the guard's test holds.

    ``failing`` are lines the scalar variant runs at a domain error before
    it ends the march.
    """
    test = (g.clamp or g.bad).format("x")
    if variant == "scalar":
        # inside the march's step loop: a domain error ends the march
        # the first clamp notes its step; an unclamped step pays nothing for it
        then = (["x = " + g.safe, "if not n_ln:", "    first_ln = step", "n_ln += 1"] if g.clamp
                else [f"status = {STATUS_DOMAIN_ERROR}", *failing, "break"])
        return [f"if {test}:"] + ["    " + s for s in then]
    if variant == "fast":
        # a table build only notes the hit, in its mask; the lane march then redoes the step masked
        return [f"note |= {test}"]
    if variant == "masked":
        # a lane stops counting at its first domain error, as the scalar march stops there
        flag = "ln_counts[lanes[~dom & m]] += 1" if g.clamp else "dom |= m"
        return [f"m = {test}", "if m.any():", "    " + flag,
                f"    x = np.where(m, {g.safe}, x)"]
    bad = g.bad.format("x") if variant == "strict" else f"({g.bad.format('x')}).any()"
    strict = [f"if {bad}:", f"    raise DomainError({g.msg!r})"]
    if not g.clamp or variant == "strict":
        return strict
    # ``ln_floor`` None is strict evaluation; otherwise clamp and count as the kernels do
    return (["if ln_floor is None:"] + ["    " + s for s in strict]
            + ["else:", f"    m = {test}", "    note += int(np.count_nonzero(m))",
               f"    x = np.where(m, {g.safe}, x)"])


def _guard_test(g: _Guard, value: str, out: str) -> str:
    """One comparison ufunc call: where the guard's test holds over ``value``, into the bool buffer ``out``."""
    lhs, cmp, rhs = (g.clamp or g.bad).split(" ")
    return f"{_COMPARE[cmp]}({lhs}, {rhs}, {out})".format(value)


def _op_lines(code, variant: str, loads=None, outside=(), outs=None, checked=True,
              failing=()) -> tuple[list[str], dict[int, str]]:
    """One assignment to a local ``r<dst>`` per instruction, guards included.

    ``loads`` maps OP_CONST, OP_T and OP_STATE to the name of a local the
    caller provides (``{i}`` is the operand); those loads then emit no
    line.  ``outside`` lists registers that ``code`` reads but the caller
    computes, as locals ``r<n>``, or maps them to their spelling.
    ``outs`` maps registers to arrays their instruction writes into: a
    numpy variant's ufunc, bound to a local (``_BIND``), gets the array
    as its positional output, and the register is spelled as the array.
    ``checked`` False leaves the guards out (the lane march tests them
    itself, ``_guard_test``); ``failing`` goes to ``_guard_lines``.
    Returns the lines and how each register is spelled.
    """
    spell = dict(outside) if isinstance(outside, dict) else {r: f"r{r}" for r in outside}
    outs = outs or {}
    body = []
    for op, dst, a, b in code:
        expr, guard = _OPS[op]
        if isinstance(expr, tuple):
            expr = expr[variant not in ("scalar", "strict")]
        if loads and op in loads:
            spell[dst] = loads[op].format(i=a)
            continue
        if dst in outs:
            expr = f"{_UFUNCS[op]}({{a}}{', {b}' if op in _BINARY else ''}, {outs[dst]})"
        spell[dst] = outs.get(dst, f"r{dst}")
        lhs = "" if dst in outs else f"r{dst} = "
        names = {"i": a, "dst": dst, "a": spell.get(a), "b": spell.get(b)}
        checks = _guard_lines(guard, variant, failing) if guard is not None and checked else []
        if checks and guard.on != "r":
            body += [f"x = {names[guard.on]}"] + checks
            names[guard.on] = "x"
        *pre, value = expr.format(**names).split("\n")
        body += pre
        if not checks or guard.on != "r":
            body.append(lhs + value)
        else:
            body += ["x = " + value] + checks + ([] if dst in outs else [f"r{dst} = x"])
    return body, spell


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + s for s in lines]


def _tuple(names) -> str:
    return "(" + "".join(f"{n}, " for n in names) + ")"


# Inside a march, constants, the stage time and the stage's state are locals.
_MARCH_LOADS = {OP_CONST: "c{i}", OP_T: "t", OP_STATE: "u{i}"}


def _stage_inputs(s: int, n_states: int) -> list[str]:
    """The state a stage reads: the step's state, then the classical RK4 increments."""
    if s == 0:
        return [f"u{i} = s{i}" for i in range(n_states)]
    scale = "dt" if s == 3 else "hdt"
    return [f"u{i} = s{i} + {scale} * k{s - 1}_{i}" for i in range(n_states)]


# Stage times: 0 and 3 start and end the step; 2 reuses the time of 1.
_STAGE_TIMES = ("step * dt", "step * dt + hdt", None, "(step + 1) * dt")


# ---------------------------------------------------------------------------
# Stage-time tables (see the module docstring)
#
# Stage 0 of a step and stage 3 of the step before run at the same grid
# time, stages 1 and 2 at the same half-step time; the tables are built
# by the "fast" variant of the tape's hoisted part, which only notes
# guard hits.

_LOADS = (OP_CONST, OP_T, OP_STATE)
_BINARY = frozenset(_BINARY_OPS.values())

# Steps per lane table: memory stays O(_TABLE_STEPS * W) per frontier register.
_TABLE_STEPS = 256


def _guarded(code) -> list[int]:
    """The registers of ``code`` whose instruction has a guard."""
    return [dst for op, dst, *_ in code if _OPS[op][1] is not None]


def _reads(op: int, a: int, b: int) -> tuple[int, ...]:
    """The registers an instruction reads."""
    if op in _LOADS:
        return ()
    return (a, b) if op in _BINARY else (a,)


def _roots(deriv_regs, channels, flags) -> list[int]:
    """The registers a march reads besides the tape: derivatives, recorded registers, flags."""
    return list(deriv_regs) + [i for kind, i in channels if kind == CHAN_REG] + list(flags)


def _split(code, roots):
    """``(hoisted part, march part, frontier)`` of a tape.

    A non-load instruction whose operands trace back only to ``t`` and
    constants is hoisted.  Each part takes the loads it reads; a load
    read by neither stays in the march.  The frontier lists, in tape
    order, the hoisted registers that the march part or ``roots`` read.
    """
    varying, hoisted = set(), set()
    for op, dst, a, b in code:
        if op == OP_STATE or varying.intersection(_reads(op, a, b)):
            varying.add(dst)
        elif op not in _LOADS:
            hoisted.add(dst)
    table_reads, march_reads = set(), set(roots)
    for op, dst, a, b in code:
        (table_reads if dst in hoisted else march_reads).update(_reads(op, a, b))
    table = [row for row in code if row[1] in hoisted or row[1] in table_reads]
    march = [row for row in code
             if row[1] not in hoisted and (row[1] in march_reads or row[1] not in table_reads)]
    return table, march, [row[1] for row in table if row[1] in march_reads]


def _slice(code, wanted):
    """The instructions of ``code`` that the registers ``wanted`` depend on, in tape order."""
    need, kept = set(wanted), []
    for op, dst, a, b in reversed(code):
        if dst in need:
            need.update(_reads(op, a, b))
            kept.append((op, dst, a, b))
    return kept[::-1]


def _dead_after(code, frontier) -> list[list[int]]:
    """Per instruction of a one-shot run, the registers it reads or writes last
    (the frontier aside): the run drops them there."""
    last = {}
    for k, (op, dst, a, b) in enumerate(code):
        for r in (dst,) + _reads(op, a, b):
            last[r] = k
    dead = [[] for _ in code]
    for r, k in last.items():
        if r not in frontier:
            dead[k].append(r)
    return dead


@functools.cache
def _row_function(op: int, variant: str):
    """``run(r, a, b, t, y, consts, ln_floor, note)``: the instruction ``op`` in ``variant`` over the
    registers ``r``, ``a`` and ``b`` its raw operands.  Where a guard holds it raises, or notes in
    place in ``note``: a table build's hit mask ("fast"), the clamp count ("array")."""
    spell, outs, pre = {"a": "r[a]", "b": "r[b]"}, None, []
    if op == OP_POW and variant == "fast":
        # into a full copy of the exponent: numpy's power has fast paths for a stride-0 one
        pre, spell["b"], outs = ["rdst = np.array(np.broadcast_to(r[b], note.shape))"], "rdst", {"dst": "rdst"}
    code = [(op, "dst", "a", "b")]
    body, spell = _op_lines(code, variant, outside=spell, outs=outs)
    if variant == "strict":  # each call makes its own pow buffers: calls may run side by side
        pre = _float_setup(code, body, spell)[0]
    lines = [_BIND, "def run(r, a, b, t, y, consts, ln_floor, note):"] + _indent(pre + body + ["return rdst"])
    return _compile("\n".join(lines) + "\n", "run")


def _interpreter(code, variant: str, keep):
    """``run(t, y, consts, ln_floor, note)``: the registers ``keep`` after ``code`` runs row by
    row in ``variant`` (``_row_function``), numpy's warnings off; every other one is dropped
    after its last read."""
    rows = [(_row_function(op, variant), dst, a, b, dead)
            for (op, dst, a, b), dead in zip(code, _dead_after(code, keep))]

    def run(t, y, consts, ln_floor, note):
        r = {}
        with np.errstate(all="ignore"):
            for fn, dst, a, b, dead in rows:
                r[dst] = fn(r, a, b, t, y, consts, ln_floor, note)
                for k in dead:
                    del r[k]
        return r
    return run


def _tables(code, frontier):
    """``tables(t, consts, ln_floor)``: the frontier registers over the stage times ``t``
    (a column), one (times, W) table each, and the (times, W) mask of where a guard of
    ``code`` holds.  ``consts`` is (n_consts, W)."""
    run = _interpreter(code, "fast", frontier)

    def tables(t, consts, ln_floor):
        hit = np.zeros((t.shape[0], consts.shape[1]), dtype=np.bool_)
        r = run(t, None, consts, ln_floor, hit)
        # materialised, so every row the march reads is a contiguous array, as without tables
        return [np.ascontiguousarray(np.broadcast_to(r[k], hit.shape)) for k in frontier] + [hit]
    return tables


def _update_terms(k, s: str, q: str, new: str) -> list[str]:
    """Compensated (Kahan) update of the state ``s`` from the stage slopes ``k``
    into ``new`` and ``q``; keeps the roundoff floor near eps*|y|, so
    small-step runs stay truncation-dominated.  The lane march makes the
    same operations in the same order into its buffers (``_emit_lanes``)."""
    return [f"term = dt * ({k[0]} + 2.0 * {k[1]} + 2.0 * {k[2]} + {k[3]}) / 6.0 - {q}",
            f"{new} = {s} + term", f"{q} = ({new} - {s}) - term"]


def _float_setup(code, body: list[str], spell) -> tuple[list[str], list[str], list[str]]:
    """``(set-up, body, names)`` for the float spellings of ``code`` (``_OPS``) in ``body``.

    The set-up binds numpy's ``exp`` and ``log`` to locals and makes each
    ``pow``'s one-element buffers, with memoryviews over them that the
    spelling writes and reads; ``names`` are the names it binds.  It runs
    once, after the constant loads: a constant exponent is stored there,
    and its store leaves ``body``.
    """
    pows = {dst: b for op, dst, a, b in code if op == OP_POW}
    loaded = {dst for op, dst, *_ in code if op == OP_CONST}
    fixed = dict.fromkeys(f"em{dst}[0] = {spell[b]}" for dst, b in pows.items() if b in loaded)
    bound = {"exp": "np.exp", "log": "np.log"}
    if pows:
        bound |= {"power": "np.power", "pa": "np.empty(1)", "po": "np.empty(1)",
                  "pam": "memoryview(pa)", "pom": "memoryview(po)"}
        bound |= {f"e{dst}": "np.empty(1)" for dst in pows} | {f"em{dst}": f"memoryview(e{dst})" for dst in pows}
    setup = [f"{name} = {value}" for name, value in bound.items()] + list(fixed)
    return setup, [s for s in body if s not in fixed], list(bound)


def _emit_scalar(code, deriv_regs, channels, flags, hoist: bool) -> tuple[list[str], list, list]:
    """``march(consts, y0, dt, n_steps, ln_floor, blow_limit, rec, gflag)``.

    Writes each recorded sample to ``rec`` (through one flat memoryview,
    so ``rec`` must be C-contiguous float64) and, if ``flags``, its
    passivity flag to ``gflag``: per step for the memductance registers
    the tape computes, once at exit for those that load a constant.
    Returns ``(recorded, status, event_step, ln_clamps, first_clamp,
    state)``: the number of recorded samples, the status code, the step
    of the event, the ``ln`` clamp count, the step of the first clamp
    (None without one) and the tuple of states at exit.

    With a hoisted part (returned with the lines and its frontier) the
    march takes two more arguments, ``grid`` and ``half``: per frontier
    register, its table (:func:`_tables`) at the n_steps + 1 grid times
    and at the n_steps half-step times.  Valid only if no hoisted guard
    holds anywhere on the grid; ``hoist`` False emits the march that
    evaluates every instruction in order.
    """
    n = len(deriv_regs)
    table, code, frontier = _split(code, _roots(deriv_regs, channels, flags)) if hoist else ((), code, ())
    body, spell = _op_lines(code, "scalar", _MARCH_LOADS, frontier)
    # a domain error in stage 0 comes before the step's sample: it notes the samples recorded
    first = _op_lines(code, "scalar", _MARCH_LOADS, frontier, failing=["recorded = step"])[0]
    setup, body, _ = _float_setup(code, body, spell)
    first = [s for s in first if s not in setup]
    # the stage time only where an instruction or a root reads it
    read = {r for op, _, a, b in code for r in _reads(op, a, b)}.union(_roots(deriv_regs, channels, flags))
    timed = any(op == OP_T and dst in read for op, dst, *_ in code)
    loaded = {dst for op, dst, *_ in code if op == OP_CONST}
    # stage 0 keeps the grid row that stage 3 of the step before read, stage 2 the half row of stage 1
    reads = {1: "h{j}[step]", 3: "g{j}[step + 1]"}
    values = [spell[i] if kind == CHAN_REG else f"s{i}" for kind, i in channels]
    loop = []
    for s, t in enumerate(_STAGE_TIMES):
        loop += ([f"t = {t}"] if timed and t else []) + _stage_inputs(s, n)
        loop += [f"r{r} = " + reads[s].format(j=j) for j, r in enumerate(frontier) if s in reads]
        loop += first if s == 0 else body
        loop += [f"k{s}_{i} = {spell[r]}" for i, r in enumerate(deriv_regs)]
        if s == 0:
            # rec is flat, one row of channels per step; a flag is a bool, stored as 0 or 1
            if len(values) == 1:
                loop.append(f"rec[step] = {values[0]}")
            elif values:
                loop += [f"at = step * {len(values)}"] + [f"rec[at{f' + {c}' if c else ''}] = {v}"
                                                         for c, v in enumerate(values)]
            varying = [f"{spell[g]} < 0.0" for g in flags if g not in loaded]
            loop += ["gview[step] = " + " or ".join(varying)] if varying else []
            loop += ["if step == n_steps:", "    break"]
    for i in range(n):
        loop += _update_terms([f"k{s}_{i}" for s in range(4)], f"s{i}", f"q{i}", f"w{i}")
    loop += [f"s{i} = w{i}" for i in range(n)]
    if n:
        # abs(s) <= blow_limit for every double: NaN and inf fail it, so they count as a blow-up too
        inside = " and ".join(f"nblow <= s{i} <= blow_limit" for i in range(n))
        loop += [f"if not ({inside}):", f"    status = {STATUS_BLOWUP}", "    break"]
    fn_body = [f"c{i} = float(consts[{i}])" for i in sorted({a for op, _, a, _ in code if op == OP_CONST})]
    fn_body += setup + (['rec = memoryview(rec).cast("B").cast("d")'] if values else [])
    fn_body += ["gview = memoryview(gflag)"] if any(g not in loaded for g in flags) else []
    if frontier:
        fn_body += [f"{_tuple(f'{tab}{j}' for j in range(len(frontier)))} = {arg}"
                    for tab, arg in (("g", "grid"), ("h", "half"))]
        fn_body += [f"r{r} = g{j}[0]" for j, r in enumerate(frontier)]
    fn_body += [f"s{i} = float(y0[{i}])" for i in range(n)] + [f"q{i} = 0.0" for i in range(n)]
    fn_body += ["hdt = 0.5 * dt", "nblow = -blow_limit", "n_ln = 0", "first_ln = None", f"status = {STATUS_OK}",
                "recorded = None", "for step in range(n_steps + 1):"] + _indent(loop)
    # every other exit comes after the step's sample
    fn_body.append("recorded = step + 1 if recorded is None else recorded")
    constant = [f"{spell[g]} < 0.0" for g in flags if g in loaded]
    fn_body += [f"if {' or '.join(constant)}:", "    gflag[:recorded] = 1"] if constant else []
    fn_body.append(f"return recorded, status, step + 1 if status == {STATUS_BLOWUP} else step, n_ln, first_ln, "
                   + _tuple(f"s{i}" for i in range(n)))
    head = "def march(consts, y0, dt, n_steps, ln_floor, blow_limit, rec, gflag"
    return [head + (", grid, half):" if table else "):")] + _indent(fn_body), table, frontier


def _emit_lanes(code, deriv_regs, channels) -> tuple[list[str], list, list]:
    """``march(consts, y0, dt, n_steps, ln_floor, blow_limit, rec, status, event_step,
    ln_counts, rec_counts, tables)``, returning each lane's last accepted state,
    (n_states, W), and the number of steps redone; and the part ``tables`` builds.

    The march holds the states, the compensation terms and the stage
    slopes stacked, as ``S`` and ``Q`` (n_states, W) and ``K`` (4,
    n_states, W): a stage input, the compensated update and the blow-up
    test are each one set of numpy calls whatever the number of states.

    Away from a redo the march allocates nothing per step: every ufunc
    writes into a buffer the march owns, passed as its positional output.
    Each register the stages compute has its own (W,) buffer (a slope
    goes straight into its row of ``K``), stage ``s`` writes its input
    into ``U[s - 1]`` (rows ``u<s>_<i>``), and the update goes into ``N``
    and ``Q`` in place, with ``D`` for both doubled slopes (one call over
    ``K[1:3]``), ``T`` and ``OK`` for the term and the blow-up test.
    ``S`` starts as a copy of ``y0`` and swaps with ``N`` at each accepted
    step.  Stage 0 reads the states as rows ``s<i>`` of ``S`` (``n<i>`` of
    ``N`` swap with them).

    The stages compute without testing a guard.  The value a guard checks
    has a stage axis instead: a register's (4, W) buffer ``R<v>`` (rows
    ``r<v>_<s>``; a slope's is its column of ``K``), so one call tests the
    guard over the step's four stages into its (4, W) slab of the bool
    buffer ``H``; a state is tested in two, its row of ``S`` in stage 0
    and its column of ``U`` after stage 3.  A value the stages do not
    compute (a table row, ``t`` or a constant) is tested in each stage.
    After stage 3, and after stage 0 of the last step, one
    ``np.count_nonzero`` of ``H`` and the step's table rows tell whether a
    guard held; if one did, the step is redone exactly from ``S`` and
    ``Q``, stage by stage, by the masked ``stage``, which evaluates the
    whole tape in order.  Where no guard holds it computes the bits of
    the fast stage, at the same stage times.  Stage 0 records the step's
    sample before the redo, so a lane the redo drops there gets NaN
    back.  A guard over constants alone notes every table row, so
    every step is redone while it holds for some lane.

    Per-lane arrays hold the live lanes alone; ``lanes`` (and ``cols``, a
    plain slice until the first drop) holds each one's column in the
    caller's arrays.  ``survivors`` takes the constants' rows and
    allocates the buffers for the live width.  The hoisted part is read
    from stage-time tables over the live lanes, built every
    ``_TABLE_STEPS`` steps.  A lane that fails, in a redone stage or at
    the update, has its status, event step, ``rec_counts`` and last
    accepted state written through ``lanes`` and leaves every per-lane
    array; ``survivors`` then runs again for the new width.  A stage
    skips the unguarded instructions whose value it does not use (stages
    1 to 3 use only the slopes).
    """
    n = len(deriv_regs)
    roots = _roots(deriv_regs, channels, ())
    lines = []
    redo = bool(_guarded(code))
    if redo:
        # where a guard holds, a lane keeps computing with the guard's safe value
        masked, mspell = _op_lines(code, "masked")
        mprobes = [mspell[i] if kind == CHAN_REG else f"y[{i}]" for kind, i in channels]
        lines += ["def stage(t, y, consts, ln_floor, ln_counts, lanes):"] + _indent(
            ["dom = np.zeros(t.shape[0], dtype=np.bool_)"] + masked
            + [f"return dom, {_tuple(mspell[r] for r in deriv_regs)}, {_tuple(mprobes)}"]) + [""]
    table, code, frontier = _split(code, roots)
    # the tables keep their guards, read or not, for their domain errors and clamps
    table = _slice(table, frontier + _guarded(table))
    # stage 0 needs the roots and the guards, stages 1 to 3 the slopes and the guards
    guards = _guarded(code)
    stage_code = [_slice(code, roots + guards)] + 3 * [_slice(code, list(deriv_regs) + guards)]
    # stage 0 reads rows of S (for the tape and the recorded states), stages 1 to 3 rows of U
    srows = sorted({a for op, _, a, _ in stage_code[0] if op == OP_STATE}
                   | {i for kind, i in channels if kind == CHAN_STATE})
    urows = sorted({a for op, _, a, _ in stage_code[1] if op == OP_STATE})
    made = {dst for scode in stage_code for op, dst, *_ in scode if op not in _LOADS}
    regs = [dst for op, dst, *_ in code if dst in made and dst not in deriv_regs]
    # a slope goes straight into its row of K (the first row, if it is the slope of two states)
    slopes = {}
    for i, r in enumerate(deriv_regs):
        if r in made:
            slopes.setdefault(r, i)
    timed = [any(op == OP_T for op, *_ in scode) for scode in stage_code]
    # (guarded register, guard, the value it checks): a value the stages compute gets a
    # stage axis (stacked), a state's is its row of S and its column of U
    checks = [(r, g, {"a": a, "b": b, "r": r}[g.on]) for op, r, a, b in code if (g := _OPS[op][1]) is not None]
    state_of = {dst: a for op, dst, a, _ in code if op == OP_STATE}
    stacked = {v for _, _, v in checks if v in made}
    states = {v: state_of[v] for _, _, v in checks if v in state_of}
    # the survivors' set-up: K's rows, the march's constants and the buffers for the live width
    const_idx = sorted({a for op, _, a, _ in code if op == OP_CONST})
    named = [f"K{s}_{i}" for s in range(4) for i in range(n)] + [f"c{i}" for i in const_idx]
    body = [f"K{s}_{i} = K[{s}, {i}]" for s in range(4) for i in range(n)]
    body += [f"c{i} = consts[{i}]" for i in const_idx] + ["width = consts.shape[1]"]
    # views as (names, what they view): made once per width, as every buffer
    views = []
    if n:
        body += ["N, T = (np.empty(S.shape) for _ in range(2))", "U = np.empty((3,) + S.shape)",
                 "OK = np.empty(S.shape, dtype=np.bool_)", "K12, D = K[1:3], np.empty((2,) + S.shape)"]
        named += ["N", "U", "T", "OK", "K12", "D"]
        views += [("D0, D1", "D"), ("U1, U2, U3", "U")] + [(f"{x}{i}", f"{x.upper()}[{i}]") for x in "sn" for i in srows]
        views += [(f"u{s}_{i}", f"U[{s - 1}, {i}]") for s in (1, 2, 3) for i in urows]
        views += [(f"U{i}_t", f"U[:, {i}]") for i in sorted(set(states.values()))]
    floats = [f"r{r}" for r in regs if r not in stacked] + (["t"] if any(timed) else [])
    if floats:
        named += floats
        body.append(f"{_tuple(floats)} = (np.empty(width) for _ in range({len(floats)}))")
    for v in sorted(stacked):
        if v in slopes:
            views.append((f"R{v}", f"K[:, {slopes[v]}]"))
        else:
            body.append(f"R{v} = np.empty((4, width))")
            named.append(f"R{v}")
        views.append((", ".join(f"r{v}_{s}" for s in range(4)), f"R{v}"))
    if guards:
        # one (4, W) slab per guard; H0 holds the stage-0 rows, the last step's
        body.append(f"H = np.empty(({len(guards)}, 4, width), dtype=np.bool_)")
        named.append("H")
        views.append(("H0", "H[:, 0]"))
        for k, (r, _, v) in enumerate(checks):
            if v in stacked:
                views += [(f"m{r}", f"H[{k}]"), (f"m{r}_0", f"H[{k}, 0]")]
            elif v in states:
                views += [(f"m{r}_0", f"H[{k}, 0]"), (f"m{r}_t", f"H[{k}, 1:]")]
            else:
                views += [(f"m{r}_{s}", f"H[{k}, {s}]") for s in range(4)]
    body += [f"{x} = {e}" for x, e in views]
    named = "".join(f", {x}" for x in named + [x for x, _ in views])
    lines += ["def survivors(consts, K, S):"] + _indent(body + [f"return width, *K{named}", ""])
    survivors = f"width, K0, K1, K2, K3{named} = survivors(consts, K, S)"
    chunk, hits, loop = [], [], []
    if table:
        chunk = [f"{x}{j}" for x in "gh" for j in range(len(frontier))]
        if _guarded(table):
            chunk += ["gH", "hH"]
            hits = ["ghit, hhit = gH.any(axis=1).tolist(), hH.any(axis=1).tolist()"]
        tabs = "[" + "".join(f"{{0}}{j}, " for j in range(len(frontier))) + "{0}H] = tables({1}, consts, ln_floor)"
        loop += ["if step == kend:"] + _indent(
            [f"kend = min(step + {_TABLE_STEPS}, n_steps)", "ts = np.arange(step, kend + 1)[:, None] * dt",
             tabs.format("g", "ts"), tabs.format("h", "ts[:-1] + hdt")] + hits + ["kbase = step"])
        loop.append("j = step - kbase")

    def drop(status, event, count, new="S, Q", then=()):
        """Write the failed lanes (``dom``) through ``lanes`` and keep the rest, C-ordered
        (indexing along the last axis would leave every row strided, and each ufunc slower)."""
        per_lane = ["K", "consts"] + chunk
        return (["fail, keep = lanes[dom], ~dom",
                 f"status[fail], event_step[fail], rec_counts[fail], Y[:, fail] = "
                 f"{status}, {event}, {count}, S[:, dom]", *then,
                 f"lanes, S, Q, {', '.join(per_lane)} = "
                 f"(x.compress(keep, axis=-1) for x in (lanes, {new}, {', '.join(per_lane)}))",
                 "cols = lanes"] + hits + [survivors, "if not width:", "    break"])

    stages, spells = [], []
    for s, t in enumerate(_STAGE_TIMES):
        scode = stage_code[s]
        # stage 2 runs at the time of stage 1, which is still in t
        fast = [f"t.fill({t})"] if timed[s] and t else []
        if s and n:
            fast += [f"multiply({'dt_' if s == 3 else 'hdt_'}, K{s - 1}, U{s})", f"add(S, U{s}, U{s})"]
        outs = ({r: f"r{r}_{s}" if r in stacked else f"r{r}" for r in regs}
                | {r: f"K{s}_{i}" for r, i in slopes.items()})
        loads = {**_MARCH_LOADS, OP_STATE: f"u{s}_{{i}}" if s else "s{i}"}
        ops, spell = _op_lines(scode, "fast", loads, frontier, outs, checked=False)
        read = {r for op, _, a, b in scode for r in _reads(op, a, b)} | set(deriv_regs) | set(roots if s == 0 else ())
        tab, row = "ghhg"[s], ("j", "j", "j", "j + 1")[s]
        fast += [f"r{r} = {tab}{q}[{row}]" for q, r in enumerate(frontier) if s != 2 and r in read]
        fast += ops + [f"K{s}_{i}[...] = {spell[r]}" for i, r in enumerate(deriv_regs) if spell[r] != f"K{s}_{i}"]
        # the values the stages do not stack are tested where they are read; a state's stage 0 row here
        fast += [_guard_test(g, spell[v], f"m{r}_{s}") for r, g, v in checks
                 if v not in stacked and (v not in states or s == 0)]
        stages.append(fast)
        spells.append(spell)
    probes = [spells[0][i] if kind == CHAN_REG else f"s{i}" for kind, i in channels]
    record = [f"rec[step, {c}, cols] = p{c}" for c in range(len(channels))]
    loop += stages[0] + [f"p{j} = {e}" for j, e in enumerate(probes)] + record
    if redo:
        # one call per guard over its stacked values (a state's stage 0 row is tested in stage 0);
        # the last step ran stage 0 alone
        step_tests = [_guard_test(g, f"R{v}", f"m{r}") for r, g, v in checks if v in stacked]
        step_tests += [_guard_test(g, f"U{states[v]}_t", f"m{r}_t") for r, g, v in checks if v in states]
        last_tests = [_guard_test(g, spells[0][v], f"m{r}_0") for r, g, v in checks if v in stacked]
        held = (["ghit[j] or hhit[j] or ghit[j + 1]"] if _guarded(table) else []) + (["np.count_nonzero(H)"] if guards else [])
        held_last = (["ghit[j]"] if _guarded(table) else []) + (["np.count_nonzero(H0)"] if guards else [])
        loop += ["if step == n_steps:"] + _indent(last_tests + [f"held = {' or '.join(held_last)}"])
        loop += ["else:"] + _indent(stages[1] + stages[2] + stages[3] + step_tests + [f"held = {' or '.join(held)}"])
        times = _tuple(t or _STAGE_TIMES[1] for t in _STAGE_TIMES)
        # stage 0 fails before the step's sample: the lane keeps NaN there
        unrecord = ["if not s:", "    rec[step, :, fail] = np.nan"]
        stage = (["if s:", f"    multiply(dt_ if s == 3 else hdt_, K[s - 1], U1)", "    add(S, U1, U1)"] if n else [])
        stage += [f"dom, {'K[s]' if n else '_'}, P = stage(np.full(width, {times}[s]), "
                  f"{'U1 if s else S' if n else 'S'}, consts, ln_floor, ln_counts, lanes)"]
        stage += ["if not s:"] + _indent([f"{_tuple(f'p{j}' for j in range(len(probes)))} = P"] + record)
        stage += ["if np.count_nonzero(dom):"] + _indent(drop(STATUS_DOMAIN_ERROR, "step", "step + (s > 0)", then=unrecord))
        loop += ["if held:"] + _indent(
            ["# a guard held: redo the step exactly from S and Q, stage by stage",
             "redone += 1", "for s in range(1 if step == n_steps else 4):"] + _indent(stage)
            + ["if not width:", "    break"])
        loop += ["if step == n_steps:", "    break"]
    else:
        loop += ["if step == n_steps:", "    break"] + stages[1] + stages[2] + stages[3]
    if n:
        # _update_terms into the buffers, both doubled slopes at once; T (the term) is spent when reused
        loop += ["multiply(two, K12, D)", "add(K0, D0, T)", "add(T, D1, T)", "add(T, K3, T)",
                 "multiply(dt_, T, T)", "true_divide(T, six, T)", "subtract(T, Q, T)",
                 "add(S, T, N)", "subtract(N, S, Q)", "subtract(Q, T, Q)"]
        # NaN and inf fail the comparison, so they count as a blow-up too
        loop += ["absolute(N, T)", "less_equal(T, blow_limit, OK)"]
        swap = [f"{_tuple(f'{x}{i}' for x in 'sn' for i in srows)} = "
                f"{_tuple(f'{x}{i}' for x in 'ns' for i in srows)}"] if srows else []
        loop += ["if np.count_nonzero(OK) == OK.size:", "    S, N = N, S"] + _indent(swap) + ["else:"] + _indent(
            ["dom = ~OK.all(axis=0)"] + drop(STATUS_BLOWUP, "step + 1", "step + 1", new="N, Q"))
    fn_body = [_BIND, "hdt = 0.5 * dt", "dt_, hdt_, two, six = (np.array(v) for v in (dt, hdt, 2.0, 6.0))",
               "lanes, cols = np.arange(y0.shape[1]), slice(None)",
               "S, Q, K, Y = y0.copy(), np.zeros(y0.shape), np.empty((4,) + y0.shape), np.empty(y0.shape)",
               survivors, "redone = 0"]
    fn_body += ["kend = kbase = 0"] if table else []
    fn_body += ["for step in range(n_steps + 1):"] + _indent(loop)
    fn_body += ["rec_counts[cols] = n_steps + 1", "Y[:, cols] = S", "return Y, redone"]
    return lines + ["def march(consts, y0, dt, n_steps, ln_floor, blow_limit, rec, status, "
                    "event_step, ln_counts, rec_counts, tables):"] + _indent(fn_body), table, frontier


def _compile(source: str, name: str):
    namespace = {"np": np, "math": math, "DomainError": DomainError}
    # one function at a time: compiling them together holds all their syntax trees at once
    # (a turbulent lane march peaked at 1.7 MB that way, at 1.0 MB one function at a time)
    for function in re.split(r"^(?=def )", source, flags=re.M):
        exec(compile(function, f"<memsolve {name}>", "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=256)
def _march(code, deriv_regs, channels, flags, lanes: bool, hoist=True):
    """:func:`_march_for` of the tape ``code``, its stages inlined into the step loop; ``channels``
    are the recorded (kind, index) pairs and ``flags`` the memductance registers whose sign sets
    a scalar sample's passivity flag (lanes keep none).  Built from opcodes and indices only."""
    lines, table, frontier = (_emit_lanes(code, deriv_regs, channels) if lanes
                              else _emit_scalar(code, deriv_regs, channels, flags, hoist))
    return _tables(table, frontier) if table else None, _compile("\n".join(lines) + "\n", "march")


def _march_for(code, deriv_regs, flags, chan_kind, chan_idx, lanes: bool, hoist=True):
    """``(tables, march)`` for this program structure, cached across calls.

    ``tables`` is the table build (:func:`_tables`), or None when nothing
    is hoisted.  The key is what the source is built from: the tape, the
    derivative registers, the recorded channels and the flagged
    memductance registers.  Constants and initial states are arguments
    of the march, so programs that differ only in their constant tables
    (:meth:`Program.same_structure`) share one function.
    """
    return _march(tuple(map(tuple, code.tolist())), tuple(deriv_regs.tolist()),
                  tuple(zip(chan_kind.tolist(), chan_idx.tolist())), tuple(map(int, flags)), lanes, hoist)


def tape_stats(prog: Program, chan_kind=None, chan_idx=None) -> dict:
    """``{"instructions": N, "hoisted": H}``: the tape's length and how many of its non-load
    instructions the marches read from stage-time tables (see ``_split``; H counts them also for
    a scalar run whose hoisted part hits a guard, which evaluates them in order).  Given a run's channels,
    also ``"table_columns"``: the grid-length float64 columns its tables hold at their peak, the
    grid and the half-step table of each frontier register, and what one table build holds at
    once (its live registers over ``t``, the guard mask and the other table's time column)."""
    code = prog.code.tolist()
    channels = () if chan_kind is None else tuple(zip(chan_kind.tolist(), chan_idx.tolist()))
    table, _, frontier = _split(code, _roots(prog.deriv_regs.tolist(), channels, prog.g_regs.tolist()))
    stats = {"instructions": len(code), "hoisted": sum(op not in _LOADS for op, *_ in table)}
    if chan_kind is None:
        return stats
    timed, live, most = set(), set(), 0
    for (op, dst, a, b), dead in zip(table, _dead_after(table, frontier)):
        if op == OP_T or timed.intersection(_reads(op, a, b)):
            timed.add(dst)
            live.add(dst)
        most = max(most, len(live))
        live.difference_update(dead)
    return {**stats, "table_columns": 2 * len(frontier) + most + 2 if table else 0}


# ---------------------------------------------------------------------------
# Expressions
#
# An expression compiles to a tape whose states are its bound variables,
# one OP_STATE slot per name.  The array variant evaluates it over numpy
# arrays, broadcasting the bindings; the strict scalar one over Python
# floats.  Both check only the result for finiteness (1/exp(1000) is 0).


def _lower_expr(e: Expr, names: tuple[str, ...]) -> tuple[tuple, np.ndarray, int]:
    """The tape of ``e`` over the variables ``names`` as row tuples, its constants and its result."""
    used = variables(e)
    unbound = sorted(used - set(names))
    if unbound:
        raise DomainError(f"unbound variable '{unbound[0]}'")
    b = TapeBuilder()
    out = b.compile_expr(e, {n: b.load_state(i) for i, n in enumerate(names) if n in used})
    return tuple(b._code), np.array(b._consts, dtype=np.float64), out


@functools.lru_cache(maxsize=256)
def _binder(code, n_vars: int, out: int):
    """``bind(consts)`` for one expression tape structure, shared by every constant table.

    It returns ``evaluate(y0, ..., y<n_vars - 1>)``, Python floats in and
    out, which holds its own ``pow`` buffers (a constant exponent stored
    once, by ``bind``).
    """
    body, spell = _op_lines(code, "strict", {OP_CONST: "c{i}", OP_STATE: "y{i}"})
    loads = [a for op, _, a, _ in code if op == OP_CONST]
    setup, body, bound = _float_setup(code, body, spell)
    setup = [f"c{a} = float(consts[{a}])" for a in loads] + setup
    # x - x is 0.0 for every finite x, NaN for NaN and the infinities
    body += [f"if {spell[out]} - {spell[out]} != 0.0:", "    raise DomainError('non-finite result')",
             f"return {spell[out]}"]
    # the set-up's names reach evaluate as defaults: closure cells take quadratic time to compile
    bound = [f"c{a}" for a in loads] + bound
    head = f"def evaluate({', '.join([f'y{i}' for i in range(n_vars)] + [f'{x}={x}' for x in bound])}):"
    lines = ["def bind(consts):"] + _indent(setup + [head] + _indent(body) + ["return evaluate"])
    return _compile("\n".join(lines) + "\n", "bind")


def scalar_evaluator(e: Expr, names):
    """``e`` as a function of one float per name in ``names``, in that order.

    Strict like :func:`eval_expr_array`, with its messages.  Call it under
    ``np.errstate(all="ignore")``: numpy's ``exp`` and ``pow`` warn on overflow.
    """
    code, consts, out = _lower_expr(e, tuple(names))
    return _binder(code, len(names), out)(consts)


def eval_expr(e: Expr, bindings) -> float:
    """Evaluate ``e`` with every variable bound to a float; strict about domain errors."""
    code, consts, out = _lower_expr(e, tuple(bindings))
    run = _interpreter(code, "strict", (out,))
    value = run(None, [*map(float, bindings.values())], consts.tolist(), None, None)[out]
    if not math.isfinite(value):
        raise DomainError("non-finite result")
    return value


def eval_expr_array(e: Expr, bindings) -> np.ndarray:
    """Evaluate ``e`` with array-valued bindings, broadcast together; strict domain checks."""
    return eval_expr_array_clamped(e, bindings, None)[0]


def array_evaluator(e: Expr, names):
    """``e``, lowered once, as ``evaluate(arrays, ln_floor=None)`` over one array per name in
    ``names``, broadcast together: like :func:`eval_expr_array_clamped` of those bindings."""
    code, consts, out = _lower_expr(e, tuple(names))
    run = _interpreter(code, "array", (out,))

    def evaluate(arrays, ln_floor=None):
        n_clamped = np.zeros((), dtype=np.int64)
        value = run(None, [np.asarray(v, dtype=float) for v in arrays], consts, ln_floor, n_clamped)[out]
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise DomainError("non-finite result")
        return value, int(n_clamped)
    return evaluate


def eval_expr_array_clamped(e: Expr, bindings, ln_floor) -> tuple[np.ndarray, int]:
    """Like :func:`eval_expr_array` but clamp ln arguments below ``ln_floor`` (None: strict):
    the values and the number of clamped samples.  The simulator's mode; the default is strict."""
    return array_evaluator(e, tuple(bindings))(list(bindings.values()), ln_floor)


def first_failure(e, bindings, ln_floor) -> tuple[int, int, str]:
    """Where :func:`eval_expr_array_clamped` of ``e`` raises over ``bindings``, which
    broadcast to (rows,) or (rows, columns): its first failing row, the first
    failing column of that row, and the message there.  The evaluation must raise."""
    arrays = [x.reshape(len(x), -1) for x in np.broadcast_arrays(*map(np.asarray, bindings.values()))]
    evaluate = array_evaluator(e, tuple(bindings))

    def error(*at):
        try:
            evaluate([x[at] for x in arrays], ln_floor)
        except DomainError as exc:
            return str(exc)

    # the first k entries raise exactly when one of them raises alone: bisect for the least such k
    row = bisect.bisect_left(range(1, len(arrays[0])), True, key=lambda k: error(slice(k)) is not None)
    col = bisect.bisect_left(range(1, arrays[0].shape[1]), True, key=lambda k: error(row, slice(k)) is not None)
    return row, col, error(row, col)


# ---------------------------------------------------------------------------
# Kernels


def rk4_run(code, consts, deriv_regs, g_regs, chan_kind, chan_idx,
            y0, dt, n_steps, ln_floor, blow_limit, rec, gflag):
    """Classical fixed-step RK4 over the tape.

    ``rec`` is a C-contiguous float64 (n_steps+1, n_channels) array: the
    march writes it through one flat memoryview.  ``gflag`` is a uint8
    (n_steps+1,) array, zeroed here and set to 1 on samples where any
    memductance register is negative.  Returns ``(recorded, status,
    event_step, ln_clamps, first_clamp, state)``: the number of recorded
    samples, the step of the first ``ln`` clamp (None without one) and the
    tuple of states at exit (the failing state on an error).
    """
    tables, march = _march_for(code, deriv_regs, g_regs, chan_kind, chan_idx, False)
    gflag[:] = 0  # a march without memductance registers writes no flag
    # Python floats, as every register then is: a numpy bool is no flag to a memoryview
    dt, ln_floor, blow_limit = float(dt), float(ln_floor), float(blow_limit)
    args = (consts, y0, dt, n_steps, ln_floor, blow_limit, rec, gflag)
    with np.errstate(all="ignore"):  # domain errors are reported through the status
        if tables is None:
            return march(*args)
        ts = np.arange(n_steps + 1)[:, None] * dt
        *grid, grid_hit = tables(ts, consts[:, None], ln_floor)
        *half, half_hit = tables(ts[:-1] + 0.5 * dt, consts[:, None], ln_floor)
        if grid_hit.any() or half_hit.any():
            # a hoisted guard holds somewhere: evaluate every instruction in order
            return _march_for(code, deriv_regs, g_regs, chan_kind, chan_idx, False, False)[1](*args)
        # one row per time; the march reads Python floats from memoryviews
        grid, half = (tuple(memoryview(a.ravel()) for a in tab) for tab in (grid, half))
        return march(*args, grid, half)


def rk4_run_batch(code, consts, deriv_regs, chan_kind, chan_idx,
                  y0, dt, n_steps, ln_floor, blow_limit, rec, status,
                  event_step, ln_counts, rec_counts):
    """Run W independent parameter sets of one program in lockstep.

    ``consts`` is (n_consts, W) and ``y0`` (n_states, W); ``rec`` is
    (n_steps+1, n_channels, W) and NaN past a lane's last sample.  A lane
    leaves the march at its domain error or blow-up; per-lane ``status``,
    ``event_step``, ``ln_counts`` and ``rec_counts`` mirror the scalar
    kernel (no passivity flags), and waveforms are bit-equal to it.
    Returns each lane's last accepted state, (n_states, W), and the number
    of steps the march redid because a guard held in some lane.
    """
    tables, march = _march_for(code, deriv_regs, (), chan_kind, chan_idx, True)
    status[:] = STATUS_OK
    event_step[:] = n_steps
    ln_counts[:] = 0
    rec[:] = np.nan
    # 0-d arrays: numpy compares against them faster than against Python floats
    ln_floor, blow_limit = np.array(ln_floor, dtype=np.float64), np.array(blow_limit, dtype=np.float64)
    with np.errstate(all="ignore"):
        return march(consts, y0, dt, n_steps, ln_floor, blow_limit, rec, status,
                     event_step, ln_counts, rec_counts, tables)
