"""Independent reference solver for the integro-differential equations.

This module solves the *original* equations by direct discretization,
never through a circuit: Heun (explicit trapezoidal predictor-corrector)
stepping for the differential part, with the memory integral

    M(t) = integral_0^t K(t, s) * phi(y(s)) ds

formed every step by composite trapezoidal quadrature over the stored
history.  For a separable kernel K = k1(t) * k2(s) the quadrature is a
running sum of k2(s_i) * phi_i scaled by k1(t), and k1, k2 and p are
tabulated once on the time grid: O(steps) overall.  A general K(t, s)
re-sums the whole history every step, O(steps^2); both share one Heun
loop and differ only in how M is formed.  The method stays independent
of the circuit route: the only thing it shares with :mod:`memsolve.engine`
is expression-to-array evaluation (the coefficient tables); it never
uses ``lower``, netlists or the RK4 march.  Both routes are
second-order-consistent but structurally unrelated, which is what makes
their agreement meaningful.

Non-separable kernels K(t, s) are supported here even though the
circuit route requires the separable form k1(t)*k2(s); the asymmetry is
deliberate and lets tests exhibit the circuit-side restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import eval_expr_array
from .exprs import Expr, eval_expr, variables
from .waveform import Waveform, grid_steps

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


def _grid_table(expr: Expr | None, var: str, ts: np.ndarray, default: float) -> memoryview:
    """``expr`` sampled once on the grid ``ts`` (``default`` where absent).

    The values stay a compact float64 array; the memoryview over it hands
    out Python floats, which the scalar march below does its arithmetic
    in.  A value that leaves the real domain anywhere on the grid raises
    ``DomainError``.
    """
    vals = eval_expr_array(expr, {var: ts}) if expr is not None else default
    return memoryview(np.full(len(ts), vals))


def _rhs(spec: IdeSpec, ts: np.ndarray):
    """The right-hand side ``f(k, y, M)`` at grid point k, for the spec's form."""
    a, b = spec.a, spec.b
    if spec.form == "volterra_population":
        return lambda k, y, m: y * (a - b * y - m)
    if spec.form == "linear_first_order":
        return lambda k, y, m: m
    if spec.form == "turbulent":
        p = _grid_table(spec.p, "t", ts, 0.0)
        return lambda k, y, m: -(p[k] * y + m)
    return lambda k, y, m: a * y + b + m


def _memory(spec: IdeSpec, ts: np.ndarray, dt: float):
    """``(at, accept)`` forming the memory integral M on the grid ``ts``.

    ``at(j, phi)`` is the composite trapezoid for M(t_j) over the accepted
    samples 0..j-1 plus ``phi`` as sample j.  ``accept(j, phi)`` stores
    sample j once the step that produced it has passed the blow-up check.
    """
    if spec.kernel is not None:
        # General K(t, s): re-sum the whole history, O(j) per evaluation.
        kernel = spec.kernel
        phis = np.empty(len(ts))

        def at(j, phi):
            if j == 0:
                return 0.0
            phis[j] = phi
            vals = eval_expr_array(kernel, {"t": ts[j], "s": ts[: j + 1]}) * phis[: j + 1]
            return dt * (vals.sum() - 0.5 * (vals[0] + vals[j]))

        def accept(j, phi):
            phis[j] = phi

        return at, accept

    if spec.k1 is None and spec.k2 is None:
        return (lambda j, phi: 0.0), (lambda j, phi: None)

    # Separable K = k1(t) * k2(s): M(t_j) = k1(t_j) * dt * (S - (w_0 + w_j)/2)
    # with the running sum S = w_0 + ... + w_j of w_i = k2(s_i) * phi_i.
    k1 = _grid_table(spec.k1, "t", ts, 1.0)
    k2 = _grid_table(spec.k2, "s", ts, 1.0)
    total = first = 0.0

    def at(j, phi):
        if j == 0:
            return 0.0
        w = k2[j] * phi
        return k1[j] * dt * (total + w - 0.5 * (first + w))

    def accept(j, phi):
        nonlocal total, first
        w = k2[j] * phi
        if j == 0:
            first = w
        total += w

    return at, accept


def solve_ide(spec: IdeSpec, dt: float, t_end: float) -> Waveform:
    """March the equation over [0, t_end]; channel ``y``; truncates on blow-up."""
    n = grid_steps(dt, t_end)
    ts = dt * np.arange(n + 1)
    rhs = _rhs(spec, ts)
    at, accept = _memory(spec, ts, dt)
    quadratic = spec.memory == "quadratic"

    ys = np.empty(n + 1)
    yk = ys[0] = float(spec.y0)
    phik = yk * yk if quadratic else yk
    blowup = None
    last = n
    for k in range(n):
        mk = at(k, phik)
        accept(k, phik)
        fk = rhs(k, yk, mk)
        y_pred = yk + dt * fk
        f_pred = rhs(k + 1, y_pred, at(k + 1, y_pred * y_pred if quadratic else y_pred))
        yn = yk + 0.5 * dt * (fk + f_pred)
        if not math.isfinite(yn) or abs(yn) > BLOWUP_LIMIT:
            blowup = k + 1
            last = k
            break
        yk = ys[k + 1] = yn
        phik = yn * yn if quadratic else yn

    wf = Waveform(t0=0.0, dt=dt, names=("y",), data=ys[: last + 1, None])
    if blowup is not None:
        wf.meta["blowup_step"] = blowup
    return wf


def solve_memristive_chain(
    g: Expr, f: Expr, order: int, ics, omega0: float, dt: float, t_end: float
) -> Waveform:
    """Direct discretization of the order-n chain equation.

    Solves d^n v / dt^n = -g(w, v, t) * v with w(t) = integral_0^t
    f(w, v, s) ds, by Heun stepping on (v, v', ..., v^(n-1)) and
    trapezoidal marching of the memory accumulator.  ``ics`` lists
    v(0), v'(0), ..., v^(n-1)(0).
    """
    ics = [float(x) for x in ics]
    if order < 1 or len(ics) != order:
        raise ValueError("need order >= 1 and exactly `order` initial conditions")
    n = grid_steps(dt, t_end)

    def chain_rhs(t, Y, w):
        return Y[1:] + [-eval_expr(g, {"t": t, "v": Y[0], "omega": w}) * Y[0]]

    vs = np.empty(n + 1)
    Y = ics
    w = float(omega0)
    fh = eval_expr(f, {"t": 0.0, "v": Y[0], "omega": w})
    vs[0] = Y[0]
    blowup = None
    last = n
    for k in range(n):
        tk, tn = k * dt, (k + 1) * dt
        fk = chain_rhs(tk, Y, w)
        Y_pred = [y + dt * d for y, d in zip(Y, fk)]
        w_pred = w + dt * fh
        fh_pred = eval_expr(f, {"t": tn, "v": Y_pred[0], "omega": w_pred})
        w_new = w + 0.5 * dt * (fh + fh_pred)
        f_pred = chain_rhs(tn, Y_pred, w_new)
        Y_new = [y + 0.5 * dt * (d + e) for y, d, e in zip(Y, fk, f_pred)]
        if not all(map(math.isfinite, Y_new)) or max(map(abs, Y_new)) > BLOWUP_LIMIT:
            blowup = k + 1
            last = k
            break
        Y = Y_new
        w = w_new
        fh = eval_expr(f, {"t": tn, "v": Y[0], "omega": w})
        vs[k + 1] = Y[0]

    wf = Waveform(t0=0.0, dt=dt, names=("y",), data=vs[: last + 1, None])
    if blowup is not None:
        wf.meta["blowup_step"] = blowup
    return wf


@dataclass
class ConvergenceStudy:
    rows: list[tuple[float, float, float]]  # (dt, terminal value, Richardson estimate)
    observed_order: float

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
    pair of estimates.
    """
    dts = [float(d) for d in dt_list]
    if len(dts) < 3 or any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing with >= 3 entries")
    terminals = []
    for dt in dts:
        wf = solve_ide(spec, dt, t_end)
        if "blowup_step" in wf.meta:
            raise ValueError(f"solution blows up before t={t_end} at dt={dt}")
        terminals.append(float(wf.channel("y")[-1]))
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
    return ConvergenceStudy(rows=rows, observed_order=order)
