"""Independent reference solver for the integro-differential equations.

This module solves the *original* equations by direct discretization,
never through a circuit: Heun (explicit trapezoidal predictor-corrector)
stepping for the differential part, with the memory integral

    M(t) = integral_0^t K(t, s) * phi(y(s)) ds

re-evaluated every step by composite trapezoidal quadrature over the
stored history.  That costs O(steps^2) overall — the price of keeping
the method independent of the circuit path (which shares nothing with
this module except the expression evaluator).  Both routes are
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

from .exprs import Expr, eval_expr, eval_expr_array, variables
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
    memory: str = "linear"        # nonlinearity of the memory integrand

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown equation form {self.form!r}")
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
        if self.form == "turbulent":
            self.memory = "quadratic"


def _rhs(spec: IdeSpec, t: float, y: float, mem: float) -> float:
    if spec.form == "volterra_population":
        return y * (spec.a - spec.b * y - mem)
    if spec.form == "linear_first_order":
        return mem
    if spec.form == "turbulent":
        p = eval_expr(spec.p, {"t": t}) if spec.p is not None else 0.0
        return -(p * y + mem)
    return spec.a * y + spec.b + mem


def solve_ide(spec: IdeSpec, dt: float, t_end: float) -> Waveform:
    """March the equation over [0, t_end]; channel ``y``; truncates on blow-up."""
    n = grid_steps(dt, t_end)
    ts = dt * np.arange(n + 1)

    general = spec.kernel is not None
    has_memory = general or spec.k1 is not None or spec.k2 is not None
    if general:
        kernel = spec.kernel
        k2_vals = None
    else:
        # Separable K(t,s) = k1(t) * k2(s): tabulate the s factor once.
        k2_vals = (
            eval_expr_array(spec.k2, {"s": ts}) if spec.k2 is not None else np.ones(n + 1)
        )
        if k2_vals.ndim == 0:
            k2_vals = np.full(n + 1, float(k2_vals))

    quadratic = spec.memory == "quadratic"
    phi = np.empty(n + 1)
    ys = np.empty(n + 1)
    ys[0] = spec.y0
    phi[0] = spec.y0 * spec.y0 if quadratic else spec.y0

    def memory_at(t: float, j: int) -> float:
        # Trapezoid over samples 0..j of K(t, s_i) * phi_i.
        if j == 0 or not has_memory:
            return 0.0
        if general:
            vals = eval_expr_array(kernel, {"t": t, "s": ts[: j + 1]}) * phi[: j + 1]
        else:
            k1v = eval_expr(spec.k1, {"t": t}) if spec.k1 is not None else 1.0
            vals = k1v * (k2_vals[: j + 1] * phi[: j + 1])
        return dt * (vals.sum() - 0.5 * (vals[0] + vals[j]))

    blowup = None
    last = n
    for k in range(n):
        tk, tn = ts[k], ts[k + 1]
        yk = ys[k]
        fk = _rhs(spec, tk, yk, memory_at(tk, k))
        y_pred = yk + dt * fk
        phi[k + 1] = y_pred * y_pred if quadratic else y_pred
        f_pred = _rhs(spec, tn, y_pred, memory_at(tn, k + 1))
        yn = yk + 0.5 * dt * (fk + f_pred)
        if not math.isfinite(yn) or abs(yn) > BLOWUP_LIMIT:
            blowup = k + 1
            last = k
            break
        ys[k + 1] = yn
        phi[k + 1] = yn * yn if quadratic else yn

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
    ts = dt * np.arange(n + 1)

    def chain_rhs(t, Y, w):
        out = np.empty_like(Y)
        out[:-1] = Y[1:]
        gv = eval_expr(g, {"t": t, "v": Y[0], "omega": w})
        out[-1] = -gv * Y[0]
        return out

    vs = np.empty(n + 1)
    Y = np.array(ics, dtype=float)
    w = float(omega0)
    fh = eval_expr(f, {"t": 0.0, "v": Y[0], "omega": w})
    vs[0] = Y[0]
    blowup = None
    last = n
    for k in range(n):
        tk, tn = ts[k], ts[k + 1]
        fk = chain_rhs(tk, Y, w)
        Y_pred = Y + dt * fk
        w_pred = w + dt * fh
        fh_pred = eval_expr(f, {"t": tn, "v": Y_pred[0], "omega": w_pred})
        w_new = w + 0.5 * dt * (fh + fh_pred)
        f_pred = chain_rhs(tn, Y_pred, w_new)
        Y_new = Y + 0.5 * dt * (fk + f_pred)
        if not np.all(np.isfinite(Y_new)) or np.max(np.abs(Y_new)) > BLOWUP_LIMIT:
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
            raise ArithmeticError(f"solution blows up before t={t_end} at dt={dt}")
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
