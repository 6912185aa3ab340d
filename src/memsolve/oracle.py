"""Independent reference solver for the integro-differential equations.

This module solves the *original* equations by direct discretization,
never through a circuit: Heun (explicit trapezoidal predictor-corrector)
stepping for the differential part, with the memory integral

    M(t) = integral_0^t K(t, s) * phi(y(s)) ds

formed every step by composite trapezoidal quadrature over the stored
history.  For a separable kernel K = k1(t) * k2(s) the quadrature is a
running sum of k2(s_i) * phi_i scaled by k1(t), and k1, k2 and p are
tabulated once on the time grid: O(steps) overall.  A general K(t, s)
re-sums the whole history every step, O(steps^2), over one evaluation
of K(t_j, s_0..s_j) per step.  Each structure (the form, the memory
nonlinearity and the kernel kind) compiles its own Heun loop in plain
Python floats once, with that form's right-hand side and quadrature
written inline, so a step tests no flag and calls no Python function
(only the general kernel's row and re-sums stay calls).  The order-n
chain runs a loop written out per order whose step calls only ``g`` and
``f``.  Before allocating anything, a run whose grid-length arrays would
exceed ``waveform.MAX_RECORD_BYTES`` is rejected with a ``ValueError``.

The method stays independent of the circuit route: the only thing it
shares with :mod:`memsolve.engine` is expression evaluation (coefficient
tables, the chain's ``g`` and ``f``); it never uses ``lower``, netlists
or the RK4 march.  Both routes are second-order-consistent but
structurally unrelated, which is what makes their agreement meaningful.

Non-separable kernels K(t, s) are supported here even though the
circuit route requires the separable form k1(t)*k2(s); the asymmetry is
deliberate and lets tests exhibit the circuit-side restriction.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import array_evaluator, eval_expr_array, first_failure, scalar_evaluator
from .exprs import DomainError, Expr, variables
from .waveform import Waveform, check_grid_bytes, grid_steps

__all__ = [
    "IdeSpec",
    "ConvergenceStudy",
    "solve_ide",
    "solve_memristive_chain",
    "convergence_study",
    "FORMS",
]

FORMS = ("volterra_population", "linear_first_order", "turbulent", "generic_first_order")

BLOWUP_LIMIT = 1e12


@dataclass
class IdeSpec:
    """One first-order integro-differential initial-value problem.

    Forms (M is the memory integral above, phi per ``memory``):

    - ``volterra_population``:  y' = y * (a - b*y - M)
    - ``linear_first_order``:   y' = M with K(t,s) = k2(s)
    - ``turbulent``:            y' = -(p(t)*y + M), phi quadratic
    - ``generic_first_order``:  y' = a*y + b + M
    """

    form: str
    y0: float
    a: float = 0.0
    b: float = 0.0
    k1: Expr | None = None        # kernel factor over t
    k2: Expr | None = None        # kernel factor over s
    kernel: Expr | None = None    # general K(t, s); takes precedence over k1*k2
    p: Expr | None = None         # damping coefficient over t
    memory: str | None = None     # nonlinearity of the memory integrand; set by the form

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown equation form {self.form!r}")
        if self.form == "turbulent" and self.memory not in (None, "quadratic"):
            raise ValueError(f"the turbulent form has quadratic memory, got {self.memory!r}")
        if self.memory is None:
            self.memory = "quadratic" if self.form == "turbulent" else "linear"
        if self.memory not in ("linear", "quadratic"):
            raise ValueError(f"memory nonlinearity must be linear or quadratic, got {self.memory!r}")
        if not math.isfinite(self.y0):
            raise ValueError("initial condition must be finite")
        for name, expr, allowed in (
            ("k1", self.k1, {"t"}),
            ("k2", self.k2, {"s"}),
            ("kernel", self.kernel, {"t", "s"}),
            ("p", self.p, {"t"}),
        ):
            if expr is not None:
                extra = variables(expr) - allowed
                if extra:
                    raise ValueError(f"{name} uses variables {sorted(extra)}, allowed: {sorted(allowed)}")


def _grid_table(key: str, expr: Expr | None, var: str, ts: np.ndarray, default: float) -> np.ndarray:
    """The coefficient ``key``, ``expr``, sampled once on the grid ``ts`` (``default`` where absent).

    The values stay a compact float64 array; a memoryview over it hands
    out Python floats, which the Heun march of :func:`solve_ide` does its
    arithmetic in.  A value that leaves the real domain anywhere on the
    grid raises ``DomainError``, naming ``key`` and the first such time.
    """
    try:
        vals = eval_expr_array(expr, {var: ts}) if expr is not None else default
    except DomainError:
        row, _, msg = first_failure(expr, {var: ts}, None)
        raise DomainError(f"{key} fails on the reference grid at {var} = {float(ts[row])!r}: {msg}") from None
    return np.full(len(ts), vals)


def _check_size(dt: float, n: int, arrays: int) -> None:
    """Reject a march over ``n`` steps holding ``arrays`` grid-length arrays over the cap."""
    check_grid_bytes(n + 1, arrays,
                     f"the reference run at dt={dt:g} would hold {n + 1} samples x {arrays} grid array(s)",
                     "use a larger --dt or a shorter --t-end")


def _kernel_kind(spec: IdeSpec) -> str | None:
    """``"general"`` for a K(t, s), ``"separable"`` for k1(t)*k2(s), None without memory."""
    if spec.kernel is not None:
        return "general"
    return "separable" if spec.k1 is not None or spec.k2 is not None else None


def _ide_arrays(spec: IdeSpec) -> int:
    """Grid-length arrays :func:`solve_ide` holds for ``spec``.

    The grid and the solution, plus the ``p`` table (turbulent form), the
    ``k1`` and ``k2`` tables (separable kernel) or the history of a
    general kernel.
    """
    memory = {"general": 1, "separable": 2, None: 0}[_kernel_kind(spec)]
    return 2 + memory + (spec.form == "turbulent")


# solve_ide's Heun march, written out per structure: the form's right-hand side over y, M
# and (turbulent) p[k], p[j]; phi per the memory; M per the kernel kind.  Returns the
# number of steps accepted: n, or fewer if the next one blows up (NaN and +-inf fail the
# one comparison too).
_IDE_MARCH = """\
def march(yk, a, b, dt, n, out, p=None, c1=None, c2=None, krow=None, resum=None, phis=None):
    hdt = 0.5 * dt
    out[0] = yk{start}
    for {row} in {rows}:
        fk = {fk}
        y_pred = yk + dt * fk{predict}
        f_pred = {f_pred}
        yn = yk + hdt * (fk + f_pred)
        if not (abs(yn) <= BLOWUP_LIMIT):
            return j - 1
        out[j] = yk = yn{accept}
    return n
"""

_RHS = {
    "volterra_population": "{y} * (a - b * {y} - {m})",
    "linear_first_order": "{m}",
    "turbulent": "-({p} * {y} + {m})",
    "generic_first_order": "a * {y} + b + {m}",
}

# M per kernel kind: M(t_0) = 0 and sample 0 joins the memory; M at the predictor; M at
# the accepted sample, before it joins the running sum (unused after the last step).  A
# general kernel's two sums of a step share its row kj = K(t_j, s_0..s_j): only phis[j]
# differs between them.  A separable kernel reads c1 = k1*dt and c2 = k2 at t_j:
#     M(t_j) = k1(t_j) * dt * (S + w_j - (w_0 + w_j)/2),  w_i = k2(s_i) * phi_i,
# with S = w_0 + ... + w_{j-1} the running sum and w_j the trial sample.  Without memory
# the right-hand side reads M as the literal 0.0, which it still adds: x + 0.0 is +0.0
# for an x of -0.0.
_MEMORY = {
    "separable": ("\n    mk = 0.0\n    first = c2[0] * {phi}\n    total = 0.0 + first",
                  "\n        w = c2j * {phi}\n        m = c1j * (total + w - 0.5 * (first + w))",
                  "\n        w = c2j * {phi}\n        mk = c1j * (total + w - 0.5 * (first + w))"
                  "\n        total += w"),
    "general": ("\n    mk = 0.0\n    phis[0] = {phi}",
                "\n        kj = krow(j)\n        m = resum(kj, j, {phi})",
                "\n        mk = resum(kj, j, {phi})"),
    None: ("", "", ""),
}


@functools.lru_cache(maxsize=32)
def _ide_march(form: str, memory: str, kernel: str | None):
    phi = "({y} * {y})" if memory == "quadratic" else "{y}"
    start, predict, accept = (part.format(phi=phi.format(y=y)) for part, y in
                              zip(_MEMORY[kernel], ("yk", "y_pred", "yn")))
    names, cols = ["j"], ["range(1, n + 1)"]
    if form == "turbulent":
        names += ["pk", "pj"]
        cols += ["p", "p[1:]"]
    if kernel == "separable":
        names += ["c1j", "c2j"]
        cols += ["c1[1:]", "c2[1:]"]
    m, mk = ("m", "mk") if kernel else ("0.0", "0.0")
    namespace = {"BLOWUP_LIMIT": BLOWUP_LIMIT}
    exec(_IDE_MARCH.format(
        start=start, predict=predict, accept=accept, row=", ".join(names),
        rows=cols[0] if len(cols) == 1 else f"zip({', '.join(cols)})",
        fk=_RHS[form].format(y="yk", m=mk, p="pk"),
        f_pred=_RHS[form].format(y="y_pred", m=m, p="pj")), namespace)
    return namespace["march"]


def solve_ide(spec: IdeSpec, dt: float, t_end: float) -> Waveform:
    """March the equation over [0, t_end]; channel ``y``; truncates on blow-up.

    Each structure (form, memory, kernel kind) compiles its own Heun
    march once, with the right-hand side and the quadrature written
    inline, so a step tests no flag.  ``k1 * dt``, ``k2`` and ``p`` are
    tabulated on the grid before the march; ``k1[j] * dt * (...)`` rounds
    as ``(k1[j] * dt) * (...)``.  A general K(t, s), lowered once, re-sums
    the whole history, O(j) per evaluation, and evaluates each step's row once.
    """
    n = grid_steps(dt, t_end)
    _check_size(dt, n, _ide_arrays(spec))
    ts = dt * np.arange(n + 1)
    kind = _kernel_kind(spec)
    tables = {}
    if spec.form == "turbulent":
        tables["p"] = memoryview(_grid_table("p", spec.p, "t", ts, 0.0))
    if kind == "separable":
        c1 = _grid_table("k1", spec.k1, "t", ts, 1.0)
        with np.errstate(over="ignore"):  # as a float product, k1 * dt may overflow to inf
            c1 *= dt
        tables.update(c1=memoryview(c1), c2=memoryview(_grid_table("k2", spec.k2, "s", ts, 1.0)))
    elif kind == "general":
        kernel = array_evaluator(spec.kernel, ("t", "s"))
        phis = np.empty(n + 1)

        def krow(j):
            """K(t_j, s_0..s_j), shared by the step's two sums."""
            return kernel([ts[j], ts[: j + 1]])[0]

        def resum(kj, j, phi):
            """M(t_j) over the accepted samples 0..j-1 and ``phi`` as sample j (j >= 1)."""
            phis[j] = phi
            vals = kj * phis[: j + 1]
            return dt * (vals.sum() - 0.5 * (vals[0] + vals[j]))

        tables.update(krow=krow, resum=resum, phis=phis)

    ys = np.empty(n + 1)
    march = _ide_march(spec.form, spec.memory, kind)
    last = march(float(spec.y0), spec.a, spec.b, dt, n, memoryview(ys), **tables)
    wf = Waveform(t0=0.0, dt=dt, names=("y",), data=ys[: last + 1, None])
    if last < n:
        wf.meta["blowup_step"] = last + 1
    return wf


# The chain's Heun march, written out per order: the states v, v', ... are y0, y1, ..., each
# one's slope the next, the last one's -g*v (a; b at the predictor p0, p1, ...).  Returns the
# number of steps accepted: n, or fewer if the next one blows up.
_CHAIN_MARCH = """\
def march(g, f, ics, w, dt, n, out):
    {y}, = ics
    hdt = 0.5 * dt
    fh = f(0.0, y0, w)
    out[0] = y0
    for k in range(n):
        tn = (k + 1) * dt
        a = -g(k * dt, y0, w) * y0
        {p}, = {predict},
        w_new = w + hdt * (fh + f(tn, p0, w + dt * fh))
        b = -g(tn, p0, w_new) * p0
        {new}, = {correct},
        if not ({inside}):
            return k
        {y}, w = {new}, w_new
        fh = f(tn, y0, w)
        out[k + 1] = y0
    return n
"""


@functools.lru_cache(maxsize=16)
def _chain_march(order: int):
    y, p, new = ([f"{x}{i}" for i in range(order)] for x in "ypn")
    dy, dp = y[1:] + ["a"], p[1:] + ["b"]
    namespace = {"BLOWUP_LIMIT": BLOWUP_LIMIT}
    exec(_CHAIN_MARCH.format(
        y=", ".join(y), p=", ".join(p), new=", ".join(new),
        predict=", ".join(f"{y[i]} + dt * {dy[i]}" for i in range(order)),
        correct=", ".join(f"{y[i]} + hdt * ({dy[i]} + {dp[i]})" for i in range(order)),
        inside=" and ".join(f"abs({x}) <= BLOWUP_LIMIT" for x in new)), namespace)
    return namespace["march"]


def solve_memristive_chain(
    g: Expr, f: Expr, order: int, ics, omega0: float, dt: float, t_end: float
) -> Waveform:
    """Direct discretization of the order-n chain equation.

    Solves d^n v / dt^n = -g(w, v, t) * v with w(t) = integral_0^t
    f(w, v, s) ds, by Heun stepping on (v, v', ..., v^(n-1)) and
    trapezoidal marching of the memory accumulator.  ``ics`` lists
    v(0), v'(0), ..., v^(n-1)(0).  ``g`` and ``f`` become float functions once.
    """
    ics = [float(x) for x in ics]
    if order < 1 or len(ics) != order:
        raise ValueError("need order >= 1 and exactly `order` initial conditions")
    n = grid_steps(dt, t_end)
    _check_size(dt, n, 1)
    g, f = (scalar_evaluator(e, ("t", "v", "omega")) for e in (g, f))
    vs = np.empty(n + 1)
    with np.errstate(all="ignore"):  # numpy's exp and pow warn on overflow; the evaluators raise
        last = _chain_march(order)(g, f, ics, float(omega0), dt, n, memoryview(vs))
    wf = Waveform(t0=0.0, dt=dt, names=("y",), data=vs[: last + 1, None])
    if last < n:
        wf.meta["blowup_step"] = last + 1
    return wf


@dataclass
class ConvergenceStudy:
    rows: list[tuple[float, float, float]]  # (dt, terminal value, Richardson estimate)
    observed_order: float
    steps: list[int]                         # Heun steps marched per dt
    solve_s: list[float]                     # seconds each march took, per dt

    def __str__(self):
        lines = [f"{'dt':>12}  {'terminal':>18}  {'richardson':>12}"]
        for dt, term, est in self.rows:
            lines.append(f"{dt:>12.6g}  {term:>18.12g}  {est:>12.3e}")
        lines.append(f"observed order: {self.observed_order:.3f}")
        return "\n".join(lines)


def convergence_study(spec: IdeSpec, dt_list, t_end: float) -> ConvergenceStudy:
    """Terminal-value refinement table used to certify reference values.

    ``dt_list`` must be decreasing with at least three entries.  Each
    row's Richardson estimate is the difference of terminal values at
    this and the next finer step; the observed order comes from the last
    pair of estimates.  Every step size is checked against the grid size
    cap before the first march.
    """
    dts = [float(d) for d in dt_list]
    if len(dts) < 3 or any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing with >= 3 entries")
    for dt in dts:
        _check_size(dt, grid_steps(dt, t_end), _ide_arrays(spec))
    terminals, steps, solve_s = [], [], []
    for dt in dts:
        start = time.perf_counter()
        wf = solve_ide(spec, dt, t_end)
        solve_s.append(time.perf_counter() - start)
        if "blowup_step" in wf.meta:
            raise ValueError(f"solution blows up before t={t_end} at dt={dt}")
        terminals.append(float(wf.channel("y")[-1]))
        steps.append(len(wf) - 1)
    diffs = [abs(a - b) for a, b in zip(terminals, terminals[1:])]
    rows = [
        (dts[i], terminals[i], diffs[i] if i < len(diffs) else float("nan"))
        for i in range(len(dts))
    ]
    if diffs[-1] > 0.0 and diffs[-2] > 0.0:
        # diffs[j] estimates the error at dts[j]; the last usable pair is
        # (diffs[-2], diffs[-1]) at steps (dts[-3], dts[-2]).
        order = math.log(diffs[-2] / diffs[-1]) / math.log(dts[-3] / dts[-2])
    else:
        order = float("nan")
    return ConvergenceStudy(rows=rows, observed_order=order, steps=steps, solve_s=solve_s)
