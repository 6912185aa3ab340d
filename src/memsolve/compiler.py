"""Synthesize circuit netlists from equation specifications.

Each equation family is compiled by picking the memductance g and the
state dynamics f so that the memristive integrator's voltage obeys the
target equation:

- population growth       -> g = -a + b*v + k1(t)*omega,  f = k2(t)*v
- linear first-order IDE  -> g = -omega, f = k(t)*ln(v), output u = ln(v)
- turbulent diffusion     -> g = alpha(t)*k1(t)*omega,
                             f = (k2(t)/alpha(t)^2)*ln(v)^2,
                             with the integrating factor
                             alpha(t) = exp(integral_0^t p) and the
                             solution recovered as u = z/alpha, z = ln v
- higher-order chains     -> n integrators in series, memristor in the
                             head, one sign inverter when n is even
- linear ODE systems      -> one n-integrator chain per unknown, sums
                             absorbed into the head integrators

Kernel-variable convention: state dynamics written over the integration
variable s are evaluated at running time inside the device, so k2(s) is
substituted s -> t when it becomes part of f.  Only separable kernels
K(t,s) = k1(t)*k2(s) are realizable with a single memristor state;
:func:`split_separable` factors product kernels and raises
:class:`UnsupportedKernelError` otherwise.

The integrating factor is synthesized in closed form from a small
antiderivative table (sums of constants, powers of t, exponentials and
sinusoids of affine arguments).  Anything else falls back to a
Chebyshev fit of the numerically integrated coefficient on a declared
horizon, emitted as a Horner polynomial; the netlist declares that
horizon as its ``valid_to``, which the simulator enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import (
    Binary,
    Const,
    DomainError,
    Expr,
    Unary,
    Var,
    eval_expr,
    format_number,
    parse_expr,
    pretty,
    substitute,
    variables,
)
from .engine import eval_expr_array
from .netlist import Netlist
from .elements import Adder, FunctionGenerator, Integrator, MemIntegrator, Multiplier
from .oracle import IdeSpec
from .waveform import check_grid_bytes

__all__ = [
    "LinearOdeSystem",
    "VolterraPopulation",
    "HigherOrderSingleMem",
    "HigherOrderComposed",
    "LinearFirstOrderIde",
    "TurbulentIde",
    "EquationSpecError",
    "UnsupportedEquationError",
    "UnsupportedKernelError",
    "parse_equation_spec",
    "load_equation_spec",
    "compile_equation",
    "compile_linear",
    "compile_volterra_population",
    "compile_higher_order",
    "effective_memductance",
    "compile_linear_first_order",
    "compile_turbulent",
    "split_separable",
    "to_ide_spec",
    "antiderivative_t",
    "fold",
]


class EquationSpecError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnsupportedEquationError(EquationSpecError):
    """A well-formed equation that the requested route cannot take (exit 3 in the CLI)."""


class UnsupportedKernelError(UnsupportedEquationError):
    """Kernel not realizable on the circuit route."""


# ---------------------------------------------------------------------------
# Equation specifications


@dataclass
class LinearOdeSystem:
    """m coupled linear ODEs of order n: sum over l,k of a[j,l,k] y_l^(k) = 0.

    ``coeffs`` is (m, m, n+1) indexed [equation, unknown, derivative
    order]; ``ics`` is (m, n) indexed [unknown, derivative order].
    """

    n: int
    m: int
    coeffs: np.ndarray
    ics: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.ics = np.asarray(self.ics, dtype=float)
        if self.n < 1 or self.m < 1:
            raise EquationSpecError("need n >= 1 and m >= 1")
        if self.coeffs.shape != (self.m, self.m, self.n + 1):
            raise EquationSpecError(
                f"coefficient table must be (m, m, n+1) = {(self.m, self.m, self.n + 1)}, "
                f"got {self.coeffs.shape}"
            )
        if self.ics.shape != (self.m, self.n):
            raise EquationSpecError(f"ics must be (m, n) = {(self.m, self.n)}, got {self.ics.shape}")


@dataclass
class VolterraPopulation:
    a: float
    b: float
    k1: Expr    # over t
    k2: Expr    # over s
    n0: float


@dataclass
class HigherOrderSingleMem:
    n: int
    g: Expr
    f: Expr
    ics: tuple[float, ...]   # v(0), v'(0), ..., v^(n-1)(0)
    omega0: float = 0.0


@dataclass
class HigherOrderComposed:
    n: int
    gs: tuple[Expr, ...]     # inner to outer: g_1, ..., g_n
    f: Expr
    ics: tuple[float, ...]
    omega0: float = 0.0


@dataclass
class LinearFirstOrderIde:
    k: Expr      # over s
    u0: float


@dataclass
class TurbulentIde:
    p: Expr      # over t
    k1: Expr     # over t
    k2: Expr     # over s
    u0: float
    alpha_horizon: float = 8.0   # fit range when the antiderivative table misses


EquationSpec = (
    LinearOdeSystem
    | VolterraPopulation
    | HigherOrderSingleMem
    | HigherOrderComposed
    | LinearFirstOrderIde
    | TurbulentIde
)


# ---------------------------------------------------------------------------
# Constant folding (compile-time cleanup of synthesized expressions)
#
# Invariant: folding never creates a negative Const node (negative values
# are wrapped in a neg) so pretty-printed netlists reparse to identical
# ASTs and relowering is exact.


def _const_expr(v: float) -> Expr:
    v = float(v)
    return Unary("neg", Const(-v)) if v < 0 else Const(v)


def _const_value(e: Expr) -> float | None:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Unary) and e.op == "neg":
        inner = _const_value(e.arg)
        return None if inner is None else -inner
    return None


def fold(e: Expr) -> Expr:
    """Fold constant subtrees and algebraic identities (x*1, x+0, exp(0), ...)."""
    if isinstance(e, (Const, Var)):
        return _const_expr(e.value) if isinstance(e, Const) else e
    if isinstance(e, Unary):
        arg = fold(e.arg)
        if e.op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
            return arg.arg
        cv = _const_value(arg)
        if cv is not None:
            try:
                return _const_expr(eval_expr(Unary(e.op, Const(cv)), {}))
            except DomainError:
                pass
        return Unary(e.op, arg)
    lhs, rhs = fold(e.lhs), fold(e.rhs)
    lc, rc = _const_value(lhs), _const_value(rhs)
    if lc is not None and rc is not None:
        try:
            return _const_expr(eval_expr(Binary(e.op, Const(lc), Const(rc)), {}))
        except DomainError:
            pass
    op = e.op
    if op == "add":
        if lc == 0.0:
            return rhs
        if rc == 0.0:
            return lhs
    elif op == "sub":
        if rc == 0.0:
            return lhs
        if lc == 0.0:
            return fold(Unary("neg", rhs))
        if isinstance(rhs, Unary) and rhs.op == "neg":
            return fold(Binary("add", lhs, rhs.arg))
    elif op == "mul":
        if lc == 1.0:
            return rhs
        if rc == 1.0:
            return lhs
        if lc == 0.0 or rc == 0.0:
            return Const(0.0)
        # c1 * (c2 * x) -> (c1*c2) * x, keeps synthesized factors tidy
        if lc is not None and isinstance(rhs, Binary) and rhs.op == "mul":
            ic = _const_value(rhs.lhs)
            if ic is not None:
                return fold(Binary("mul", _const_expr(lc * ic), rhs.rhs))
    elif op == "div":
        if rc == 1.0:
            return lhs
        if lc == 0.0 and rc != 0.0:
            return Const(0.0)
    elif op == "pow":
        if rc == 1.0:
            return lhs
    return Binary(op, lhs, rhs)


# ---------------------------------------------------------------------------
# Symbolic antiderivatives over t


def _affine_in_t(e: Expr) -> tuple[float, float] | None:
    """Recognize a*t + b with constant a, b; returns (a, b) or None."""
    if not variables(e):
        try:
            return 0.0, eval_expr(e, {})
        except DomainError:
            return None
    if isinstance(e, Var):
        return (1.0, 0.0) if e.name == "t" else None
    if isinstance(e, Unary) and e.op == "neg":
        ab = _affine_in_t(e.arg)
        return None if ab is None else (-ab[0], -ab[1])
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            l, r = _affine_in_t(e.lhs), _affine_in_t(e.rhs)
            if l is None or r is None:
                return None
            sgn = 1.0 if e.op == "add" else -1.0
            return l[0] + sgn * r[0], l[1] + sgn * r[1]
        if e.op == "mul":
            for c_side, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if not variables(c_side):
                    ab = _affine_in_t(other)
                    if ab is not None:
                        c = eval_expr(c_side, {})
                        return c * ab[0], c * ab[1]
            return None
        if e.op == "div" and not variables(e.rhs):
            ab = _affine_in_t(e.lhs)
            if ab is None:
                return None
            c = eval_expr(e.rhs, {})
            if c == 0.0:
                return None
            return ab[0] / c, ab[1] / c
    return None


def antiderivative_t(e: Expr) -> Expr | None:
    """Closed-form antiderivative of ``e`` over t, or None if outside the table.

    The table covers linear combinations of constants, t^k (k != -1),
    exp/sin/cos of affine arguments and constant multiples thereof.
    """
    if not variables(e):
        try:
            return fold(Binary("mul", _const_expr(eval_expr(e, {})), Var("t")))
        except DomainError:
            return None
    if isinstance(e, Var) and e.name == "t":
        return Binary("mul", Const(0.5), Binary("pow", Var("t"), Const(2.0)))
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = antiderivative_t(e.arg)
            return None if inner is None else fold(Unary("neg", inner))
        ab = _affine_in_t(e.arg)
        if ab is None or ab[0] == 0.0:
            return None
        a = ab[0]
        if e.op == "exp":
            return fold(Binary("mul", _const_expr(1.0 / a), e))
        if e.op == "sin":
            return fold(Binary("mul", _const_expr(-1.0 / a), Unary("cos", e.arg)))
        if e.op == "cos":
            return fold(Binary("mul", _const_expr(1.0 / a), Unary("sin", e.arg)))
        return None
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            l, r = antiderivative_t(e.lhs), antiderivative_t(e.rhs)
            if l is None or r is None:
                return None
            return fold(Binary(e.op, l, r))
        if e.op == "mul":
            for c_side, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if not variables(c_side):
                    inner = antiderivative_t(other)
                    if inner is not None:
                        try:
                            c = eval_expr(c_side, {})
                        except DomainError:
                            return None
                        return fold(Binary("mul", _const_expr(c), inner))
            return None
        if e.op == "div" and not variables(e.rhs):
            try:
                c = eval_expr(e.rhs, {})
            except DomainError:
                return None
            if c == 0.0:
                return None
            inner = antiderivative_t(e.lhs)
            return None if inner is None else fold(Binary("mul", _const_expr(1.0 / c), inner))
        if e.op == "pow":
            ab = _affine_in_t(e.lhs)
            k = _const_value(fold(e.rhs))
            if ab is None or ab[0] == 0.0 or k is None or k == -1.0:
                return None
            a = ab[0]
            return fold(
                Binary(
                    "mul",
                    _const_expr(1.0 / (a * (k + 1.0))),
                    Binary("pow", e.lhs, _const_expr(k + 1.0)),
                )
            )
    return None


def integral_from_zero(p: Expr, horizon: float) -> tuple[Expr, bool]:
    """P(t) = integral_0^t p(s) ds as an expression; returns (P, used_fallback).

    Falls back to a Chebyshev fit (emitted in Horner form) of the
    numerically integrated coefficient on [0, horizon] when the
    antiderivative table does not apply.
    """
    anti = antiderivative_t(p)
    if anti is not None:
        f0 = eval_expr(anti, {"t": 0.0})
        return fold(Binary("sub", anti, _const_expr(f0))), False

    n_grid = 4096
    ts = np.linspace(0.0, horizon, n_grid + 1)
    pv = eval_expr_array(p, {"t": ts})
    if pv.ndim == 0:
        pv = np.full(ts.shape, float(pv))
    dt = ts[1] - ts[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (pv[1:] + pv[:-1]))))
    scale = max(1.0, float(np.max(np.abs(cum))))
    best = None
    for deg in (8, 12, 16, 20):
        cheb = np.polynomial.Chebyshev.fit(ts, cum, deg)
        poly = cheb.convert(kind=np.polynomial.Polynomial)
        err = float(np.max(np.abs(poly(ts) - cum)))
        if best is None or err < best[0]:
            best = (err, poly)
        if err < 1e-10 * scale:
            break
    err, poly = best
    if err > 1e-6 * scale:
        raise EquationSpecError(
            f"numeric integrating-factor fit did not converge (residual {err:.2e})"
        )
    coeffs = list(poly.coef)
    horner: Expr = _const_expr(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        horner = Binary("add", _const_expr(c), Binary("mul", Var("t"), horner))
    return fold(horner), True


# ---------------------------------------------------------------------------
# Kernel separation


def _product_factors(e: Expr, inverted: bool = False):
    """Flatten a product/quotient into (sign, [(factor, inverted), ...])."""
    if isinstance(e, Unary) and e.op == "neg":
        sign, factors = _product_factors(e.arg, inverted)
        return -sign, factors
    if isinstance(e, Binary) and e.op == "mul":
        s1, f1 = _product_factors(e.lhs, inverted)
        s2, f2 = _product_factors(e.rhs, inverted)
        return s1 * s2, f1 + f2
    if isinstance(e, Binary) and e.op == "div":
        s1, f1 = _product_factors(e.lhs, inverted)
        s2, f2 = _product_factors(e.rhs, not inverted)
        return s1 * s2, f1 + f2
    return 1, [(e, inverted)]


def _rebuild_product(factors, sign: int) -> Expr:
    num: Expr | None = None
    den: Expr | None = None
    for factor, inverted in factors:
        if inverted:
            den = factor if den is None else Binary("mul", den, factor)
        else:
            num = factor if num is None else Binary("mul", num, factor)
    expr: Expr = num if num is not None else Const(1.0)
    if den is not None:
        expr = Binary("div", expr, den)
    if sign < 0:
        expr = Unary("neg", expr)
    return expr


def split_separable(kernel: Expr) -> tuple[Expr, Expr]:
    """Split K(t,s) into (k1 over t, k2 over s) or raise UnsupportedKernelError.

    Works syntactically on product/quotient structure; a single factor
    mixing t and s (e.g. exp(-t*s)) is rejected with the realizability
    restriction spelled out.
    """
    sign, factors = _product_factors(kernel)
    t_side, s_side = [], []
    for factor, inverted in factors:
        vs = variables(factor)
        if vs <= {"t"}:
            t_side.append((factor, inverted))
        elif vs <= {"s"}:
            s_side.append((factor, inverted))
        else:
            raise UnsupportedKernelError(
                f"kernel factor '{pretty(factor)}' mixes t and s: a single memristor state "
                "realizes only separable kernels K(t,s) = k1(t)*k2(s); other kernels are "
                "restricted to single-variable forms"
            )
    k1 = _rebuild_product(t_side, sign)
    k2 = _rebuild_product(s_side, 1)
    return fold(k1), fold(k2)


# ---------------------------------------------------------------------------
# Compilers


def _mem_expr(src: str) -> Expr:
    return parse_expr(src, {"t", "v", "omega"})


def _sub_s_to_t(e: Expr) -> Expr:
    return substitute(e, {"s": Var("t")})


def compile_volterra_population(spec: VolterraPopulation) -> Netlist:
    """One memristive integrator realizing the population-growth equation.

    g = -a + b*v + k1(t)*omega and f = k2(t)*v make the feedback voltage
    obey v' = v*(a - b*v - integral k1(t)k2(s) v(s) ds) with C = 1.
    """
    g = _mem_expr(f"-{format_number(spec.a)} + {format_number(spec.b)}*v + ({pretty(spec.k1)})*omega")
    f = _mem_expr(f"({pretty(_sub_s_to_t(spec.k2))})*v")
    net = Netlist(meta={"family": "volterra_population"})
    net.add("mem1", MemIntegrator(c=1.0, ic=spec.n0, g=g, f=f, omega0=0.0), "v")
    net.set_output("v")
    return net


def _exp_u0(u0: float) -> float:
    """The log-domain initial state exp(u0); an input error where it overflows."""
    try:
        return math.exp(u0)
    except OverflowError:
        raise EquationSpecError(f"u0 = {u0!r} is too large: exp(u0) overflows") from None


def compile_linear_first_order(spec: LinearFirstOrderIde) -> Netlist:
    """Log-domain circuit for u' = integral_0^t k(s) u(s) ds.

    The device solves the multiplicative equation for v = exp(u); the
    declared output transform returns u = ln(v).
    """
    g = _mem_expr("-omega")
    f = _mem_expr(f"({pretty(_sub_s_to_t(spec.k))})*ln(v)")
    net = Netlist(meta={"family": "linear_first_order"})
    net.add("mem1", MemIntegrator(c=1.0, ic=_exp_u0(spec.u0), g=g, f=f, omega0=0.0), "v")
    net.set_output("v", parse_expr("ln(v)", {"v", "t"}))
    return net


def compile_turbulent(spec: TurbulentIde) -> Netlist:
    """Integrating-factor circuit for u' + p(t) u + int K(t,s) u(s)^2 ds = 0.

    Simulates z = alpha*u in the log domain (v = exp(z)) and recovers u
    by multiplying with a generated 1/alpha(t) signal.  Since z lives in
    the exponent, the recovery needs the declared output transform in
    addition to the multiplier: out = ln(v_mul * alpha)/alpha, which is
    exactly ln(v)/alpha = z/alpha = u.
    """
    P, fallback = integral_from_zero(spec.p, spec.alpha_horizon)
    alpha = fold(Unary("exp", P))
    alpha_is_one = alpha == Const(1.0)
    a_src = pretty(alpha)
    k1_src = pretty(fold(spec.k1))
    k2t_src = pretty(fold(_sub_s_to_t(spec.k2)))

    if alpha_is_one:
        g = _mem_expr(f"({k1_src})*omega")
        f = _mem_expr(f"({k2t_src})*ln(v)^2")
        inv_alpha = parse_expr("1", {"t"})
        transform = parse_expr("ln(v)", {"v", "t"})
    else:
        g = _mem_expr(f"({a_src})*({k1_src})*omega")
        f = _mem_expr(f"(({k2t_src})/({a_src})^2)*ln(v)^2")
        inv_alpha = parse_expr(f"1/({a_src})", {"t"})
        transform = parse_expr(f"ln(v*({a_src}))/({a_src})", {"v", "t"})

    net = Netlist(meta={"family": "turbulent", "alpha": a_src})
    if fallback:
        net.meta["alpha_fallback"] = "chebyshev-fit"
        net.valid_to = spec.alpha_horizon
    net.add("mem1", MemIntegrator(c=1.0, ic=_exp_u0(spec.u0), g=g, f=f, omega0=0.0), "v")
    net.add("fg1", FunctionGenerator(signal=inv_alpha), "inv_alpha")
    net.add("mul1", Multiplier(inputs=("v", "inv_alpha")), "u_rec")
    net.set_output("u_rec", transform)
    return net


def effective_memductance(spec: HigherOrderSingleMem | HigherOrderComposed) -> Expr:
    """The memductance seen by the head integrator.

    For the composed variant, the stage memductances are nested inner to
    outer by substituting each into the ``omega`` slot of the next, so a
    pass-through outer stage (g = omega) collapses exactly onto the
    single-memristor circuit.
    """
    if isinstance(spec, HigherOrderComposed):
        if len(spec.gs) != spec.n:
            raise EquationSpecError(f"need {spec.n} memductances, got {len(spec.gs)}")
        g = spec.gs[0]
        for outer in spec.gs[1:]:
            g = substitute(outer, {"omega": g})
        return g
    return spec.g


def compile_higher_order(spec: HigherOrderSingleMem | HigherOrderComposed) -> Netlist:
    """Series chain of n integrators with the memristor in the head.

    The chain output v feeds back into the memristive head, producing
    d^n v/dt^n = -(1/C) g(omega, v, t) v.  Each plain integrator
    inverts, so one explicit sign inverter is inserted for even n.  The
    composed variant substitutes the memductances into one another
    (inner to outer) before synthesis, realizing the nested composition.
    """
    g = effective_memductance(spec)
    family = "higher_order_composed" if isinstance(spec, HigherOrderComposed) else "higher_order_single"
    n = spec.n
    if n < 1:
        raise EquationSpecError("order must be >= 1")
    if len(spec.ics) != n:
        raise EquationSpecError(f"need {n} initial conditions, got {len(spec.ics)}")

    net = Netlist(meta={"family": family, "order": str(n)})
    if n == 1:
        net.add("mem1", MemIntegrator(c=1.0, ic=spec.ics[0], g=g, f=spec.f, omega0=spec.omega0), "y1")
        net.set_output("y1")
        return net

    # Link signs: plain integrators invert (sigma = -1); for even n one
    # link is routed through an inverter (sigma = +1) so the loop product
    # matches the target sign.  sigma[k] is the sign of link y_k -> y_{k+1}.
    sigma = [-1] * n  # index 1..n-1 used
    if n % 2 == 0:
        sigma[1] = +1

    # Initial conditions: v^(j)(0) = (prod of sigma over the last j links) * y_{n-j}(0).
    y_init = [0.0] * (n + 1)
    y_init[n] = spec.ics[0]
    prod = 1
    for j in range(1, n):
        prod *= sigma[n - j]
        y_init[n - j] = spec.ics[j] / prod

    net.add(
        "mem1",
        MemIntegrator(c=1.0, ic=y_init[1], g=g, f=spec.f, omega0=spec.omega0, input=f"y{n}"),
        "y1",
    )
    for k in range(2, n + 1):
        src = f"y{k - 1}"
        if sigma[k - 1] == +1:
            net.add("inv1", Adder(gains=(1.0,), inputs=(src,)), f"s{k - 1}")
            src = f"s{k - 1}"
        net.add(f"int{k:02d}", Integrator(c=1.0, ic=y_init[k], inputs=(src,), resistances=(1.0,)), f"y{k}")
    net.set_output(f"y{n}")
    return net


def compile_linear(spec: LinearOdeSystem) -> Netlist:
    """n*m integrator chains with summations absorbed into the head integrators.

    Chain l stores o_{l,i} = (-1)^(n-i) y_l^(n-i); available signals thus
    satisfy y^(k) = (-1)^k o_{l,n-k}.  Head inputs needing a positive
    weight become direct resistive inputs; negative-weight terms are
    folded through one weighted adder per equation (the adder's own
    inversion supplies the sign), so single-input unit-gain inverters
    appear only when an equation needs exactly one unit-weight flip.
    """
    n, m = spec.n, spec.m
    lead = spec.coeffs[:, :, n]
    if abs(float(np.linalg.det(lead))) < 1e-12:
        raise EquationSpecError("leading coefficient matrix is singular: cannot solve for top derivatives")
    # y^(n) = sum_{l,k<n} c[j,l,k] y_l^(k)
    c = np.empty((m, m, n))
    for k in range(n):
        c[:, :, k] = -np.linalg.solve(lead, spec.coeffs[:, :, k])

    net = Netlist(meta={"family": "linear", "n": str(n), "m": str(m)})
    node = lambda l, i: f"y{l + 1}_{i}"

    # First pass: declare every chain so head inputs can reference any node.
    for l in range(m):
        for i in range(1, n + 1):
            net.add_node(node(l, i))

    for j in range(m):
        direct: list[tuple[str, float]] = []    # (node, weight) with weight > 0
        negative: list[tuple[str, float]] = []  # (node, |weight|)
        for l in range(m):
            for k in range(n):
                w = ((-1) ** (n + k)) * c[j, l, k]
                if w == 0.0:
                    continue
                target = node(l, n - k)
                if w > 0:
                    direct.append((target, w))
                else:
                    negative.append((target, -w))
        inputs = [nd for nd, _ in direct]
        resistances = [1.0 / w for _, w in direct]
        if negative:
            net.add(
                f"neg{j + 1:02d}",
                Adder(gains=tuple(w for _, w in negative), inputs=tuple(nd for nd, _ in negative)),
                f"nsum{j + 1}",
            )
            inputs.append(f"nsum{j + 1}")
            resistances.append(1.0)
        ic_head = ((-1) ** (n - 1)) * spec.ics[j, n - 1]
        net.add(
            f"int{j + 1:02d}_01",
            Integrator(c=1.0, ic=ic_head, inputs=tuple(inputs), resistances=tuple(resistances)),
            node(j, 1),
        )
        for i in range(2, n + 1):
            ic = ((-1) ** (n - i)) * spec.ics[j, n - i]
            net.add(
                f"int{j + 1:02d}_{i:02d}",
                Integrator(c=1.0, ic=ic, inputs=(node(j, i - 1),), resistances=(1.0,)),
                node(j, i),
            )
    net.set_output(node(0, n))
    return net


def compile_equation(spec: EquationSpec) -> Netlist:
    if isinstance(spec, LinearOdeSystem):
        return compile_linear(spec)
    if isinstance(spec, VolterraPopulation):
        return compile_volterra_population(spec)
    if isinstance(spec, (HigherOrderSingleMem, HigherOrderComposed)):
        return compile_higher_order(spec)
    if isinstance(spec, LinearFirstOrderIde):
        return compile_linear_first_order(spec)
    if isinstance(spec, TurbulentIde):
        return compile_turbulent(spec)
    raise TypeError(f"not an equation spec: {type(spec).__name__}")


def to_ide_spec(spec: EquationSpec) -> IdeSpec:
    """Reference-solver view of the originating equation; the one place that
    decides which families have it (the first-order ones)."""
    if isinstance(spec, VolterraPopulation):
        return IdeSpec(form="volterra_population", y0=spec.n0, a=spec.a, b=spec.b, k1=spec.k1, k2=spec.k2)
    if isinstance(spec, LinearFirstOrderIde):
        return IdeSpec(form="linear_first_order", y0=spec.u0, k2=spec.k)
    if isinstance(spec, TurbulentIde):
        return IdeSpec(form="turbulent", y0=spec.u0, p=spec.p, k1=spec.k1, k2=spec.k2)
    raise UnsupportedEquationError(
        f"no direct integro-differential form for {type(spec).__name__}: the reference solver "
        "takes the first-order families, and `oracle` higher-order chains too"
    )


# ---------------------------------------------------------------------------
# Equation-spec files: key = value lines with a family discriminator


def load_equation_spec(path) -> EquationSpec:
    with open(path) as fh:
        return parse_equation_spec(fh.read())


def parse_equation_spec(text: str) -> EquationSpec:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise EquationSpecError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise EquationSpecError("empty key", lineno)
        if key in entries:
            raise EquationSpecError(f"duplicate key {key!r}", lineno)
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        entries[key] = (value, lineno)

    def take(key, required=True):
        if key not in entries:
            if required:
                raise EquationSpecError(f"missing key {key!r}")
            return None, None
        return entries.pop(key)

    def num(key, required=True, default=None, whole=False, positive=False):
        value, lineno = take(key, required)
        return default if value is None else _num_at(value, key, lineno, whole, positive)

    def expr(key, allowed, required=True):
        value, lineno = take(key, required)
        if value is None:
            return None
        try:
            return parse_expr(value, allowed)
        except ValueError as exc:
            raise EquationSpecError(f"bad expression for {key}: {exc}", lineno) from None

    def kernel_factors():
        """``kernel`` split as k1(t)*k2(s), else the ``k1`` and ``k2`` keys."""
        kernel = expr("kernel", {"t", "s"}, required=False)
        if kernel is not None:
            return split_separable(kernel)
        return expr("k1", {"t"}), expr("k2", {"s"})

    family, fam_line = take("family")
    if family == "volterra_population":
        k1, k2 = kernel_factors()
        spec = VolterraPopulation(a=num("a"), b=num("b"), k1=k1, k2=k2, n0=num("n0"))
    elif family == "linear_first_order":
        spec = LinearFirstOrderIde(k=expr("k", {"s"}), u0=num("u0"))
    elif family == "turbulent":
        k1, k2 = kernel_factors()
        spec = TurbulentIde(
            p=expr("p", {"t"}),
            k1=k1,
            k2=k2,
            u0=num("u0"),
            alpha_horizon=num("alpha_horizon", required=False, default=8.0, positive=True),
        )
    elif family in ("higher_order_single", "higher_order_composed"):
        order = int(num("n", whole=True))
        ics = tuple(num(f"ic[{k}]") for k in range(order))
        omega0 = num("omega0", required=False, default=0.0)
        f = expr("f", {"t", "v", "omega"})
        if family == "higher_order_single":
            spec = HigherOrderSingleMem(n=order, g=expr("g", {"t", "v", "omega"}), f=f, ics=ics, omega0=omega0)
        else:
            gs = tuple(expr(f"g{i + 1}", {"t", "v", "omega"}) for i in range(order))
            spec = HigherOrderComposed(n=order, gs=gs, f=f, ics=ics, omega0=omega0)
    elif family == "linear":
        n = int(num("n", whole=True, positive=True))
        m = int(num("m", whole=True, positive=True))
        check_grid_bytes(m * m, n + 1, f"the coefficient table of n = {n}, m = {m} (m*m*(n+1) values)",
                         "lower n or m")
        coeffs = np.zeros((m, m, n + 1))
        ics = np.zeros((m, n))
        for key in list(entries):
            parts = _indexed(key)
            if parts and parts[0] == "a" and len(parts) == 4:
                _, j, l, k = parts
                value, lineno = entries.pop(key)
                if not (1 <= j <= m and 1 <= l <= m and 0 <= k <= n):
                    raise EquationSpecError(f"index out of range in {key}", lineno)
                coeffs[j - 1, l - 1, k] = _num_at(value, key, lineno)
            elif parts and parts[0] == "ic" and len(parts) == 3:
                _, l, k = parts
                value, lineno = entries.pop(key)
                if not (1 <= l <= m and 0 <= k < n):
                    raise EquationSpecError(f"index out of range in {key}", lineno)
                ics[l - 1, k] = _num_at(value, key, lineno)
        spec = LinearOdeSystem(n=n, m=m, coeffs=coeffs, ics=ics)
    else:
        raise EquationSpecError(f"unknown family {family!r}", fam_line)

    if entries:
        key = next(iter(entries))
        raise EquationSpecError(f"unexpected key {key!r}", entries[key][1])
    return spec


def _strip_comment(raw: str) -> str:
    in_quote = False
    for i, ch in enumerate(raw):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return raw[:i]
    return raw


def _indexed(key: str):
    """Parse keys like a[1][2][0] into ('a', 1, 2, 0); None if not indexed."""
    if "[" not in key:
        return None
    name, rest = key.split("[", 1)
    parts = [name]
    for chunk in ("[" + rest).split("["):
        if not chunk:
            continue
        if not chunk.endswith("]"):
            return None
        try:
            parts.append(int(chunk[:-1]))
        except ValueError:
            return None
    return parts


def _num_at(value: str, key: str, lineno: int, whole: bool = False, positive: bool = False) -> float:
    try:
        x = float(value)
    except ValueError:
        raise EquationSpecError(f"bad number for {key}: {value!r}", lineno) from None
    if not math.isfinite(x) or (whole and not x.is_integer()):
        what = "finite whole number" if whole else "finite number"
        raise EquationSpecError(f"{key} must be a {what}, got {value!r}", lineno)
    if positive and x <= 0.0:
        raise EquationSpecError(f"{key} must be positive, got {value!r}", lineno)
    return x
