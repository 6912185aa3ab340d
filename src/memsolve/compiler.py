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
    fold,
    operands,
    parse_expr,
    pretty,
    substitute,
    variables,
    walk,
)
from .engine import eval_expr, eval_expr_array, first_failure
from .netlist import Netlist, strip_comment
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
    "simplify",
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
# Simplification (compile-time cleanup of synthesized expressions)
#
# Invariant: simplifying never creates a negative Const node (negative values
# are wrapped in a neg), so a compiled netlist, printed and loaded again,
# holds the trees it was built from (a -0.0 reads back as 0) and relowering
# is exact.


def _const_expr(v: float) -> Expr:
    v = float(v)
    return Unary("neg", Const(-v)) if v < 0 else Const(v)


def _const_value(e: Expr) -> float | None:
    """The value of a literal under a run of signs, else None."""
    negate = False
    while isinstance(e, Unary) and e.op == "neg":
        e, negate = e.arg, not negate
    return (-e.value if negate else e.value) if isinstance(e, Const) else None


def simplify(e: Expr) -> Expr:
    """Fold constant subtrees and algebraic identities (x*1, x+0, exp(0), ...)."""
    return fold(e, lambda x, args: _simplified(x.op, *args) if args else
                _const_expr(x.value) if isinstance(x, Const) else x)


def _simplified(op: str, *args: Expr) -> Expr:
    """The node ``op`` over the simplified ``args``, simplified.  Three identities rewrite
    it, 0 - x to -x, x - (-y) to x + y and c1*(c2*x) to (c1*c2)*x, and then the rule applies
    to the rewritten node."""
    while True:
        values = [_const_value(x) for x in args]
        value = None if None in values else _value((Unary if len(args) == 1 else Binary)(op, *map(Const, values)))
        if value is not None:  # a constant: its value, unless that leaves the domain
            return _const_expr(value)
        if len(args) == 1:
            arg, = args
            return arg.arg if op == "neg" and isinstance(arg, Unary) and arg.op == "neg" else Unary(op, arg)
        (lhs, rhs), (lc, rc) = args, values
        if op == "add":
            if lc == 0.0:
                return rhs
            if rc == 0.0:
                return lhs
        elif op == "sub":
            if rc == 0.0:
                return lhs
            if lc == 0.0:
                op, args = "neg", (rhs,)
                continue
            if isinstance(rhs, Unary) and rhs.op == "neg":
                op, args = "add", (lhs, rhs.arg)
                continue
        elif op == "mul":
            if lc == 1.0:
                return rhs
            if rc == 1.0:
                return lhs
            if lc == 0.0 or rc == 0.0:
                return Const(0.0)
            ic = _const_value(rhs.lhs) if lc is not None and isinstance(rhs, Binary) and rhs.op == "mul" else None
            if ic is not None:  # c1 * (c2 * x) -> (c1*c2) * x, keeps synthesized factors tidy
                args = _const_expr(lc * ic), rhs.rhs
                continue
        elif op == "div":
            if rc == 1.0:
                return lhs
            if lc == 0.0 and rc != 0.0:
                return Const(0.0)
        elif op == "pow" and rc == 1.0:
            return lhs
        return Binary(op, lhs, rhs)


# ---------------------------------------------------------------------------
# Symbolic antiderivatives over t
#
# The table reads an expression through sums, signs, and products and
# quotients by a constant: one post-order fold over those operands, in which
# each maximal constant subtree is a leaf, evaluated once.  The other leaves
# are t, exp/sin/cos of an affine argument and powers of one.


def _constants(e: Expr) -> set[int]:
    """The ids of the nodes of ``e`` that read no variable."""
    ids: set[int] = set()
    for x, kids in walk(e):
        if not isinstance(x, Var) and all(id(k) in ids for k in kids):
            ids.add(id(x))
    return ids


def _table_operands(x: Expr, constant: set[int]) -> tuple:
    """The operands of ``x`` that the table reads, ``constant`` holding the constant nodes' ids:
    a sign's or a sum's, the non-constant factor of a product by a constant, a numerator over one."""
    if id(x) in constant or isinstance(x, Var):
        return ()
    if x.op in ("neg", "add", "sub"):
        return operands(x)
    if x.op == "mul" and id(x.lhs) in constant:
        return (x.rhs,)
    return (x.lhs,) if x.op in ("mul", "div") and id(x.rhs) in constant else ()


def _value(e: Expr, **bindings: float) -> float | None:
    """The value of ``e`` at ``bindings``, or None where it leaves its domain."""
    try:
        return eval_expr(e, bindings)
    except DomainError:
        return None


def _coefficient(num: float, den: float) -> Expr | None:
    """The table coefficient num/den; None (a miss) unless it is a finite, non-zero number."""
    c = num / den if den != 0.0 else 0.0
    return _const_expr(c) if math.isfinite(c) and c != 0.0 else None


def _affine_in_t(e: Expr, constant: set[int] | None = None) -> tuple[float, float] | None:
    """Recognize a*t + b with constant a, b; returns (a, b) or None.  ``constant`` holds the ids
    of the constant nodes of ``e``.  A constant factor or divisor outside its domain is a miss."""
    constant = _constants(e) if constant is None else constant

    def visit(x: Expr, parts: list):
        if id(x) in constant:
            c = _value(x)
            return None if c is None else (0.0, c)
        if not parts:
            return (1.0, 0.0) if isinstance(x, Var) and x.name == "t" else None
        if any(part is None for part in parts):
            return None
        (a, b), *rhs = parts
        if x.op == "neg":
            return -a, -b
        if rhs:
            sgn = 1.0 if x.op == "add" else -1.0
            return a + sgn * rhs[0][0], b + sgn * rhs[0][1]
        c = _value(x.lhs if id(x.lhs) in constant else x.rhs)
        if c is None or c == 0.0 and x.op == "div":
            return None
        return (c * a, c * b) if x.op == "mul" else (a / c, b / c)

    return fold(e, visit, lambda x: _table_operands(x, constant))


def antiderivative_t(e: Expr) -> Expr | None:
    """Closed-form antiderivative of ``e`` over t, or None if outside the table.

    The table covers linear combinations of constants, t^k (k != -1),
    exp/sin/cos of affine arguments and constant multiples thereof.  A
    constant that leaves its domain, and a coefficient that is not a
    finite, non-zero number, are misses.  The result is simplified.
    """
    constant = _constants(e)

    def visit(x: Expr, parts: list):
        if id(x) in constant:
            c = _value(x)
            return None if c is None else _simplified("mul", _const_expr(c), Var("t"))
        if not parts:
            return _table_leaf(x, constant)
        if any(part is None for part in parts):
            return None
        if x.op in ("neg", "add", "sub"):
            return _simplified(x.op, *parts)
        c = _value(x.lhs if id(x.lhs) in constant else x.rhs)
        coef = None if c is None else _const_expr(c) if x.op == "mul" else _coefficient(1.0, c)
        return None if coef is None else _simplified("mul", coef, parts[0])

    return fold(e, visit, lambda x: _table_operands(x, constant))


def _table_leaf(x: Expr, constant: set[int]) -> Expr | None:
    """The antiderivative of ``x`` where it is t, exp/sin/cos of an affine argument or a
    power of one; None for any other leaf of the table's fold."""
    if isinstance(x, Var):
        return Binary("mul", Const(0.5), Binary("pow", Var("t"), Const(2.0))) if x.name == "t" else None
    if x.op not in ("exp", "sin", "cos", "pow"):
        return None
    base = x.lhs if x.op == "pow" else x.arg
    a, _ = _affine_in_t(base, constant) or (0.0, 0.0)
    if a == 0.0:
        return None
    if x.op == "pow":
        k = _const_value(simplify(x.rhs))
        if k is None or k == -1.0:
            return None
        coef, term = _coefficient(1.0, a * (k + 1.0)), ("pow", simplify(base), _const_expr(k + 1.0))
    else:
        integral = {"exp": "exp", "sin": "cos", "cos": "sin"}[x.op]
        coef, term = _coefficient(-1.0 if x.op == "sin" else 1.0, a), (integral, simplify(base))
    return None if coef is None else _simplified("mul", coef, _simplified(*term))


def integral_from_zero(p: Expr, horizon: float) -> tuple[Expr, bool]:
    """P(t) = integral_0^t p(s) ds as an expression; returns (P, used_fallback).

    Falls back to a Chebyshev fit (emitted in Horner form) of the
    numerically integrated coefficient on [0, horizon] when the
    antiderivative table does not apply or its antiderivative leaves its
    domain at t = 0.  A horizon too small for the fit's grid, its domain
    scale or its coefficients to be finite is an input error that names
    ``alpha_horizon``; a ``p`` that leaves its domain on the fit grid is
    one that names ``p`` and the first such time.
    """
    anti = antiderivative_t(p)
    anti0 = None if anti is None else _value(anti, t=0.0)
    if anti0 is not None:
        return _simplified("sub", anti, _const_expr(anti0)), False

    n_grid = 4096
    ts = np.linspace(0.0, horizon, n_grid + 1)
    if not (np.all(np.diff(ts) > 0.0) and math.isfinite(ts[-1]) and math.isfinite(2.0 / horizon)):
        raise EquationSpecError(f"alpha_horizon = {horizon!r} leaves no finite, increasing fit grid on [0, horizon]")
    try:
        pv = eval_expr_array(p, {"t": ts})
    except DomainError:
        row, _, msg = first_failure(p, {"t": ts}, None)
        raise EquationSpecError(f"p fails on the integrating-factor fit grid "
                                f"at t = {float(ts[row])!r}: {msg}") from None
    if pv.ndim == 0:
        pv = np.full(ts.shape, float(pv))
    dt = ts[1] - ts[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (pv[1:] + pv[:-1]))))
    scale = max(1.0, float(np.max(np.abs(cum))))
    best = None
    for deg in (8, 12, 16, 20):
        cheb = np.polynomial.Chebyshev.fit(ts, cum, deg)
        with np.errstate(all="ignore"):   # the power basis scales the i-th coefficient by (2/horizon)^i
            poly = cheb.convert(kind=np.polynomial.Polynomial)
        if not np.all(np.isfinite(poly.coef)):
            raise EquationSpecError(f"alpha_horizon = {horizon!r} is too small: "
                                    f"the degree-{deg} fit's coefficients overflow")
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
    return simplify(horner), True


# ---------------------------------------------------------------------------
# Kernel separation


def _product_factors(e: Expr):
    """Flatten a product/quotient into (sign, [(factor, inverted), ...])."""
    sign, factors, todo = 1, [], [(e, False)]
    while todo:  # the rhs pushed first, so factors come out left to right
        x, inverted = todo.pop()
        if isinstance(x, Unary) and x.op == "neg":
            sign = -sign
            todo.append((x.arg, inverted))
        elif isinstance(x, Binary) and x.op in ("mul", "div"):
            todo += (x.rhs, inverted != (x.op == "div")), (x.lhs, inverted)
        else:
            factors.append((x, inverted))
    return sign, factors


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
    sides = {"t": [], "s": []}
    for factor, inverted in factors:
        vs = variables(factor)
        if not (vs <= {"t"} or vs <= {"s"}):
            raise UnsupportedKernelError(
                f"kernel factor '{pretty(factor)}' mixes t and s: a single memristor state "
                "realizes only separable kernels K(t,s) = k1(t)*k2(s); other kernels are "
                "restricted to single-variable forms"
            )
        sides["t" if vs <= {"t"} else "s"].append((factor, inverted))
    return simplify(_rebuild_product(sides["t"], sign)), simplify(_rebuild_product(sides["s"], 1))


# ---------------------------------------------------------------------------
# Compilers


def _sub_s_to_t(e: Expr) -> Expr:
    return substitute(e, {"s": Var("t")})


def _printable(e: Expr, key: str) -> Expr:
    """``e``, whose literals a netlist prints as numbers: an input error where one is not finite."""
    if any(isinstance(x, Const) and not math.isfinite(x.value) for x, _ in walk(e)):
        raise EquationSpecError(f"{key} holds a number outside the float range")
    return e


def compile_volterra_population(spec: VolterraPopulation) -> Netlist:
    """One memristive integrator realizing the population-growth equation.

    g = -a + b*v + k1(t)*omega and f = k2(t)*v make the feedback voltage
    obey v' = v*(a - b*v - integral k1(t)k2(s) v(s) ds) with C = 1.
    """
    g = Binary("add", Binary("add", Unary("neg", _const_expr(spec.a)), Binary("mul", _const_expr(spec.b), Var("v"))),
               Binary("mul", _printable(spec.k1, "k1"), Var("omega")))
    f = Binary("mul", _printable(_sub_s_to_t(spec.k2), "k2"), Var("v"))
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
    ln_v = Unary("ln", Var("v"))
    f = Binary("mul", _printable(_sub_s_to_t(spec.k), "k"), ln_v)
    net = Netlist(meta={"family": "linear_first_order"})
    net.add("mem1", MemIntegrator(c=1.0, ic=_exp_u0(spec.u0), g=Unary("neg", Var("omega")), f=f, omega0=0.0), "v")
    net.set_output("v", ln_v)
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
    alpha = _printable(_simplified("exp", P), "the integrating factor alpha")
    k1 = _printable(simplify(spec.k1), "k1")
    k2t = _printable(simplify(_sub_s_to_t(spec.k2)), "k2")
    ln_v = Unary("ln", Var("v"))
    if alpha == Const(1.0):
        g, f = Binary("mul", k1, Var("omega")), Binary("mul", k2t, Binary("pow", ln_v, Const(2.0)))
        inv_alpha, transform = Const(1.0), ln_v
    else:
        g = Binary("mul", Binary("mul", alpha, k1), Var("omega"))
        f = Binary("mul", Binary("div", k2t, Binary("pow", alpha, Const(2.0))), Binary("pow", ln_v, Const(2.0)))
        inv_alpha = Binary("div", Const(1.0), alpha)
        transform = Binary("div", Unary("ln", Binary("mul", Var("v"), alpha)), alpha)

    net = Netlist(meta={"family": "turbulent", "alpha": pretty(alpha)})
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
        with np.errstate(over="ignore"):
            resistances = [1.0 / w for _, w in direct]
        if not all(map(math.isfinite, [*resistances, *(w for _, w in direct + negative)])):
            raise EquationSpecError(f"equation {j + 1}: a coefficient over the leading one, or its "
                                    "reciprocal (an input resistance), is outside the float range")
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
        line = strip_comment(raw, lineno, EquationSpecError).strip()
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
