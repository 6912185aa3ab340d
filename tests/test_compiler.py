import functools
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsolve import exprs
from memsolve.compiler import (
    EquationSpecError,
    HigherOrderComposed,
    HigherOrderSingleMem,
    LinearFirstOrderIde,
    LinearOdeSystem,
    TurbulentIde,
    UnsupportedKernelError,
    VolterraPopulation,
    _affine_in_t,
    _const_value,
    _exp_u0,
    _product_factors,
    _simplified,
    _sub_s_to_t,
    antiderivative_t,
    compile_equation,
    compile_higher_order,
    compile_linear,
    compile_linear_first_order,
    compile_turbulent,
    compile_volterra_population,
    integral_from_zero,
    parse_equation_spec,
    simplify,
    split_separable,
    to_ide_spec,
)
from memsolve.elements import FunctionGenerator, MemIntegrator, Multiplier
from memsolve.engine import eval_expr, eval_expr_array
from memsolve.exprs import (
    FUNCTIONS,
    Binary,
    Const,
    DomainError,
    Unary,
    UnknownVariableError,
    Var,
    format_number,
    parse_expr,
    pretty,
    variables,
)
from memsolve.netlist import Netlist, lower, lower_unchecked, netlist_stats, validate
from memsolve.oracle import solve_ide, solve_memristive_chain
from memsolve.solver import SimConfig, relative_error, simulate

from conftest import fig2_closed_form, random_linear_system

MV = {"t", "v", "omega"}


def population_spec():
    return VolterraPopulation(
        a=2.0, b=0.001,
        k1=parse_expr("exp(-t)", {"t"}),
        k2=parse_expr("exp(s)*s/(1+s)", {"s"}),
        n0=1.0,
    )


def turbulent_spec():
    return TurbulentIde(
        p=parse_expr("1/8*exp(-2*t)", {"t"}),
        k1=parse_expr("1/2*exp(-t)", {"t"}),
        k2=parse_expr("exp(-s)", {"s"}),
        u0=1.0,
    )


def max_rel_vs_oracle(net, ide, dt, t_end):
    res = simulate(lower(net), SimConfig(dt=dt, t_end=t_end))
    ora = solve_ide(ide, dt, t_end)
    return float(relative_error(res.waveform, ora, "out", "y").channel("rel_err").max())


# --- population growth -------------------------------------------------------


def test_volterra_memductance_matches_stated_choice():
    net = compile_volterra_population(population_spec())
    mem = net.elements["mem1"]
    assert pretty(mem.g) == "-2 + 0.001*v + exp(-t)*omega"
    assert mem.f == parse_expr("exp(t)*t/(1+t)*v", MV)
    assert mem.c == 1.0 and mem.ic == 1.0 and mem.omega0 == 0.0
    stats = netlist_stats(net)
    assert stats["memristors"] == 1
    assert stats["integrators"] == 1
    assert stats["elements"] == 1
    assert validate(net) == []


def test_volterra_pure_growth_closed_form():
    spec = VolterraPopulation(
        a=1.0, b=0.0, k1=parse_expr("0", {"t"}), k2=parse_expr("0", {"s"}), n0=1.0
    )
    res = simulate(lower(compile_volterra_population(spec)), SimConfig(dt=1e-3, t_end=3.0))
    wf = res.waveform
    assert np.max(np.abs(wf.channel("out") / np.exp(wf.t) - 1.0)) < 1e-9


def test_volterra_vs_oracle():
    assert max_rel_vs_oracle(
        compile_volterra_population(population_spec()), to_ide_spec(population_spec()), 1e-3, 4.0
    ) < 0.01


def test_nonseparable_kernel_rejected():
    with pytest.raises(UnsupportedKernelError) as exc:
        split_separable(parse_expr("exp(-t*s)", {"t", "s"}))
    assert "single-variable" in str(exc.value)
    with pytest.raises(UnsupportedKernelError):
        parse_equation_spec(
            'family = volterra_population\na = 1\nb = 0\nkernel = "exp(-(t-s))"\nn0 = 1\n'
        )


def test_split_separable_products():
    k1, k2 = split_separable(parse_expr("exp(-t)*s/(1+s)", {"t", "s"}))
    assert pretty(k1) == "exp(-t)"
    assert pretty(k2) == "s/(1 + s)"
    k1, k2 = split_separable(parse_expr("2*exp(-t)", {"t", "s"}))
    assert "t" in pretty(k1)
    assert k2 == Const(1.0)


# --- linear systems ----------------------------------------------------------


def eq4_spec():
    # y'' + y' - y = 0, i.e. y'' = -y' + y.
    return LinearOdeSystem(
        n=2, m=1, coeffs=np.array([[[-1.0, 1.0, 1.0]]]), ics=np.array([[1.0, 0.0]])
    )


def test_compile_linear_second_order_feedback():
    net = compile_linear(eq4_spec())
    stats = netlist_stats(net)
    assert stats["integrators"] == 2
    assert stats["adders"] == 0
    assert validate(net) == []
    res = simulate(lower(net), SimConfig(dt=1e-3, t_end=5.0))
    wf = res.waveform
    assert np.max(np.abs(wf.channel("out") - fig2_closed_form(wf.t))) < 1e-6


def test_compile_linear_first_order_decay_needs_nothing():
    spec = LinearOdeSystem(n=1, m=1, coeffs=np.array([[[1.0, 1.0]]]), ics=np.array([[1.0]]))
    net = compile_linear(spec)
    stats = netlist_stats(net)
    assert stats["integrators"] == 1
    assert stats["adders"] == 0
    wf = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0)).waveform
    assert np.max(np.abs(wf.channel("out") - np.exp(-wf.t))) < 1e-9


def test_compile_linear_growth_needs_one_inversion():
    # y' = y cannot close the loop without one inverting element.
    spec = LinearOdeSystem(n=1, m=1, coeffs=np.array([[[-1.0, 1.0]]]), ics=np.array([[1.0]]))
    net = compile_linear(spec)
    assert netlist_stats(net)["sign_inverters"] == 1
    wf = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0)).waveform
    assert np.max(np.abs(wf.channel("out") - np.exp(wf.t))) < 1e-8


def companion_solution(spec, ts, unknown=0):
    from scipy.linalg import expm

    n, m = spec.n, spec.m
    lead = spec.coeffs[:, :, n]
    c = np.empty((m, m, n))
    for k in range(n):
        c[:, :, k] = -np.linalg.solve(lead, spec.coeffs[:, :, k])
    dim = n * m
    A = np.zeros((dim, dim))
    for l in range(m):
        for k in range(n - 1):
            A[l * n + k, l * n + k + 1] = 1.0
        for l2 in range(m):
            for k in range(n):
                A[l * n + n - 1, l2 * n + k] = c[l, l2, k]
    z0 = spec.ics.reshape(dim)
    return np.array([(expm(A * t) @ z0)[unknown * n] for t in ts])


def test_compile_linear_coupled_system_vs_matrix_exponential():
    coeffs = np.zeros((2, 2, 3))
    coeffs[:, :, 2] = np.eye(2)
    coeffs[0, 0, 1] = 0.4
    coeffs[0, 1, 0] = 0.8
    coeffs[1, 0, 0] = -0.6
    coeffs[1, 1, 1] = 0.2
    spec = LinearOdeSystem(n=2, m=2, coeffs=coeffs, ics=np.array([[1.0, 0.0], [0.5, -0.3]]))
    net = compile_linear(spec)
    assert netlist_stats(net)["integrators"] == 4
    wf = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0)).waveform
    ref = companion_solution(spec, wf.t[::200])
    assert np.max(np.abs(wf.channel("out")[::200] - ref)) < 1e-7


def test_random_linear_systems_resource_bounds():
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        spec = random_linear_system(rng)
        net = compile_linear(spec)
        assert validate(net) == []
        stats = netlist_stats(net)
        assert stats["integrators"] == spec.n * spec.m
        assert stats["sign_inverters"] <= spec.n * spec.m / 2


def test_compile_linear_singular_leading_matrix():
    coeffs = np.zeros((2, 2, 2))
    coeffs[:, :, 1] = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(EquationSpecError):
        compile_linear(LinearOdeSystem(n=1, m=2, coeffs=coeffs, ics=np.zeros((2, 1))))


# --- higher-order chains -----------------------------------------------------


def eq22_g_f():
    return (
        parse_expr("-2 + 0.001*v + exp(-t)*omega", MV),
        parse_expr("exp(t)*t/(1+t)*v", MV),
    )


def test_higher_order_n1_is_single_memristive_integrator():
    g, f = eq22_g_f()
    net = compile_higher_order(HigherOrderSingleMem(n=1, g=g, f=f, ics=(1.0,)))
    pop = compile_volterra_population(population_spec())
    a = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0)).waveform
    b = simulate(lower(pop), SimConfig(dt=1e-3, t_end=2.0)).waveform
    assert np.array_equal(a.data, b.data)


def test_higher_order_n2_vs_chain_discretization():
    g, f = eq22_g_f()
    net = compile_higher_order(HigherOrderSingleMem(n=2, g=g, f=f, ics=(1.0, 0.0)))
    assert validate(net) == []
    res = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0))
    ora = solve_memristive_chain(g, f, 2, [1.0, 0.0], 0.0, 1e-3, 2.0)
    rel = relative_error(res.waveform, ora, "out", "y").channel("rel_err")
    assert float(rel.max()) < 0.01


def test_higher_order_n3_chain_has_no_inverter():
    g, f = eq22_g_f()
    net3 = compile_higher_order(HigherOrderSingleMem(n=3, g=g, f=f, ics=(1.0, 0.0, 0.0)))
    assert netlist_stats(net3)["sign_inverters"] == 0
    net2 = compile_higher_order(HigherOrderSingleMem(n=2, g=g, f=f, ics=(1.0, 0.0)))
    assert netlist_stats(net2)["sign_inverters"] == 1


def test_composed_pass_through_collapses_to_single():
    g, f = eq22_g_f()
    single = compile_higher_order(HigherOrderSingleMem(n=2, g=g, f=f, ics=(1.0, 0.0)))
    composed = compile_higher_order(
        HigherOrderComposed(n=2, gs=(g, parse_expr("omega", MV)), f=f, ics=(1.0, 0.0))
    )
    a = simulate(lower(single), SimConfig(dt=1e-3, t_end=2.0)).waveform
    b = simulate(lower(composed), SimConfig(dt=1e-3, t_end=2.0)).waveform
    rel = np.abs(a.data - b.data) / np.maximum(np.abs(a.data), 1e-12)
    assert np.max(rel) <= 1e-9


def test_composed_outer_scaling_matches_substituted_single():
    g, f = eq22_g_f()
    composed = compile_higher_order(
        HigherOrderComposed(n=2, gs=(g, parse_expr("2*omega + 0.1*v", MV)), f=f, ics=(1.0, 0.0))
    )
    manual = compile_higher_order(
        HigherOrderSingleMem(
            n=2,
            g=parse_expr("2*(-2 + 0.001*v + exp(-t)*omega) + 0.1*v", MV),
            f=f,
            ics=(1.0, 0.0),
        )
    )
    a = simulate(lower(composed), SimConfig(dt=1e-3, t_end=1.0)).waveform
    b = simulate(lower(manual), SimConfig(dt=1e-3, t_end=1.0)).waveform
    np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-12)


# --- log-domain linear first-order equation ----------------------------------


def test_linear_first_order_circuit_shape():
    spec = LinearFirstOrderIde(k=parse_expr("1", {"s"}), u0=1.0)
    net = compile_linear_first_order(spec)
    mem = net.elements["mem1"]
    assert pretty(mem.g) == "-omega"
    assert mem.ic == pytest.approx(math.exp(1.0))
    assert pretty(net.output_transform) == "ln(v)"
    assert validate(net) == []


def test_linear_first_order_vs_oracle_and_no_clamps():
    spec = LinearFirstOrderIde(k=parse_expr("1", {"s"}), u0=1.0)
    net = compile_linear_first_order(spec)
    res = simulate(lower(net), SimConfig(dt=1e-3, t_end=3.0))
    ora = solve_ide(to_ide_spec(spec), 1e-3, 3.0)
    rel = relative_error(res.waveform, ora, "out", "y").channel("rel_err")
    assert float(rel.max()) < 0.01
    assert res.ln_clamps == 0


def test_linear_first_order_zero_kernel_is_constant():
    spec = LinearFirstOrderIde(k=parse_expr("0", {"s"}), u0=0.7)
    wf = simulate(lower(compile_linear_first_order(spec)), SimConfig(dt=1e-2, t_end=2.0)).waveform
    assert np.allclose(wf.channel("out"), 0.7, atol=1e-12)


def test_linear_first_order_u0_zero_boundary():
    spec = LinearFirstOrderIde(k=parse_expr("1", {"s"}), u0=0.0)
    net = compile_linear_first_order(spec)
    assert net.elements["mem1"].ic == 1.0
    res = simulate(lower(net), SimConfig(dt=1e-3, t_end=1.0))
    assert res.ln_clamps == 0


# --- turbulent diffusion ------------------------------------------------------


def test_turbulent_alpha_synthesis_closed_form():
    net = compile_turbulent(turbulent_spec())
    alpha = parse_expr(net.meta["alpha"], {"t"})
    ts = np.linspace(0.0, 4.0, 33)
    expected = np.exp((1.0 - np.exp(-2.0 * ts)) / 16.0)
    assert np.max(np.abs(eval_expr_array(alpha, {"t": ts}) - expected)) < 1e-14
    assert "alpha_fallback" not in net.meta
    assert validate(net) == []
    kinds = {type(e).__name__ for e in net.elements.values()}
    assert kinds == {"MemIntegrator", "FunctionGenerator", "Multiplier"}


def test_turbulent_vs_oracle():
    assert max_rel_vs_oracle(compile_turbulent(turbulent_spec()), to_ide_spec(turbulent_spec()), 1e-3, 4.0) < 0.01


def test_turbulent_no_damping_passthrough():
    spec = TurbulentIde(
        p=parse_expr("0", {"t"}),
        k1=parse_expr("1/2*exp(-t)", {"t"}),
        k2=parse_expr("exp(-s)", {"s"}),
        u0=1.0,
    )
    net = compile_turbulent(spec)
    assert pretty(net.elements["fg1"].signal) == "1"
    assert max_rel_vs_oracle(net, to_ide_spec(spec), 1e-3, 3.0) < 0.01


def test_turbulent_zero_kernel_pure_decay():
    spec = TurbulentIde(
        p=parse_expr("1/8*exp(-2*t)", {"t"}),
        k1=parse_expr("0", {"t"}),
        k2=parse_expr("exp(-s)", {"s"}),
        u0=1.0,
    )
    wf = simulate(lower(compile_turbulent(spec)), SimConfig(dt=1e-3, t_end=4.0)).waveform
    closed = np.exp(-(1.0 - np.exp(-2.0 * wf.t)) / 16.0)
    assert np.max(np.abs(wf.channel("out") - closed)) < 1e-9


def test_turbulent_alpha_fallback_fit():
    spec = TurbulentIde(
        p=parse_expr("exp(-t^2)", {"t"}),
        k1=parse_expr("1/2*exp(-t)", {"t"}),
        k2=parse_expr("exp(-s)", {"s"}),
        u0=1.0,
        alpha_horizon=3.0,
    )
    net = compile_turbulent(spec)
    assert net.meta["alpha_fallback"] == "chebyshev-fit"
    assert net.valid_to == 3.0 and "alpha_valid_to" not in net.meta
    assert max_rel_vs_oracle(net, to_ide_spec(spec), 1e-3, 2.5) < 0.01


# --- symbolic helpers ---------------------------------------------------------


@pytest.mark.parametrize(
    "src",
    ["3", "t", "t^2", "2*t^3", "exp(-2*t)", "1/8*exp(-2*t)", "sin(3*t)",
     "cos(t/2)", "(2*t + 1)^3", "1 + 2*t + exp(t)", "-t"],
)
def test_antiderivative_table_differentiates_back(src):
    p = parse_expr(src, {"t"})
    anti = antiderivative_t(p)
    assert anti is not None
    h = 1e-6
    for t in (0.1, 0.7, 1.9):
        dF = (eval_expr(anti, {"t": t + h}) - eval_expr(anti, {"t": t - h})) / (2 * h)
        assert dF == pytest.approx(eval_expr(p, {"t": t}), rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("src", ["exp(-2*t)/8", "(t^2 + sin(t))/(-4)", "cos(3*t)/(1 + 1)"])
def test_antiderivative_divided_by_a_constant_matches_quadrature(src):
    p = parse_expr(src, {"t"})
    anti = antiderivative_t(p)
    assert anti is not None
    ts = np.linspace(0.0, 2.0, 20001)
    pv = eval_expr_array(p, {"t": ts})
    quad = np.sum(0.5 * (pv[1:] + pv[:-1]) * np.diff(ts))      # trapezoid, error ~1e-9
    assert eval_expr(anti, {"t": 2.0}) - eval_expr(anti, {"t": 0.0}) == pytest.approx(quad, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("src", [
    "exp(-t^2)", "1/(1+t)", "t^-1", "ln(t)",
    "exp(t)/t",                  # a divisor over t
    "exp(t)/(1 - 1)", "t/0",     # a zero divisor
    "exp(t)/ln(-1)",             # a divisor outside its domain
    "exp(-t^2)/8",               # a constant divisor over a miss
    "(1e-308*t)^-0.9999999999999999",  # a*(k + 1) underflows to 0
    "exp(5e-324*t)",             # 1/a overflows
    "exp(sqrt(-1)*t)",           # a constant factor of the argument outside its domain
])
def test_antiderivative_table_misses(src):
    assert antiderivative_t(parse_expr(src, {"t"})) is None


def test_fold_keeps_no_negative_constants():
    e = simplify(parse_expr("1/8*exp(-2*t)/(-2) - 0 + 1*t*1", {"t"}))
    text = pretty(e)
    reparsed = parse_expr(text, {"t"})
    assert reparsed == e
    for t in (0.0, 0.5, 2.0):
        want = (1 / 8) * math.exp(-2 * t) / (-2) + t
        assert eval_expr(e, {"t": t}) == pytest.approx(want, rel=1e-12)


# --- differential tests against the recursive symbolic layer ------------------
#
# Frozen copies of the simplifier and the matchers that recursed once per level
# and re-simplified every partial result.  The one-pass versions must agree with
# them by ``repr`` on every tree both can read, but for the table misses: a
# constant that leaves its domain inside an affine argument, and a table
# coefficient that is not a finite, non-zero number.  There the copies raise or
# return that coefficient (they record it in ``_FROZEN_COEFFICIENTS``), and the
# one-pass versions return None.


def _frozen_const_expr(v):
    v = float(v)
    return Unary("neg", Const(-v)) if v < 0 else Const(v)


def _frozen_const_value(e):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Unary) and e.op == "neg":
        inner = _frozen_const_value(e.arg)
        return None if inner is None else -inner
    return None


def _frozen_fold(e):
    if isinstance(e, (Const, Var)):
        return _frozen_const_expr(e.value) if isinstance(e, Const) else e
    if isinstance(e, Unary):
        arg = _frozen_fold(e.arg)
        if e.op == "neg" and isinstance(arg, Unary) and arg.op == "neg":
            return arg.arg
        cv = _frozen_const_value(arg)
        if cv is not None:
            try:
                return _frozen_const_expr(eval_expr(Unary(e.op, Const(cv)), {}))
            except DomainError:
                pass
        return Unary(e.op, arg)
    lhs, rhs = _frozen_fold(e.lhs), _frozen_fold(e.rhs)
    lc, rc = _frozen_const_value(lhs), _frozen_const_value(rhs)
    if lc is not None and rc is not None:
        try:
            return _frozen_const_expr(eval_expr(Binary(e.op, Const(lc), Const(rc)), {}))
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
            return _frozen_fold(Unary("neg", rhs))
        if isinstance(rhs, Unary) and rhs.op == "neg":
            return _frozen_fold(Binary("add", lhs, rhs.arg))
    elif op == "mul":
        if lc == 1.0:
            return rhs
        if rc == 1.0:
            return lhs
        if lc == 0.0 or rc == 0.0:
            return Const(0.0)
        if lc is not None and isinstance(rhs, Binary) and rhs.op == "mul":
            ic = _frozen_const_value(rhs.lhs)
            if ic is not None:
                return _frozen_fold(Binary("mul", _frozen_const_expr(lc * ic), rhs.rhs))
    elif op == "div":
        if rc == 1.0:
            return lhs
        if lc == 0.0 and rc != 0.0:
            return Const(0.0)
    elif op == "pow":
        if rc == 1.0:
            return lhs
    return Binary(op, lhs, rhs)


def _frozen_affine_in_t(e):
    if not variables(e):
        try:
            return 0.0, eval_expr(e, {})
        except DomainError:
            return None
    if isinstance(e, Var):
        return (1.0, 0.0) if e.name == "t" else None
    if isinstance(e, Unary) and e.op == "neg":
        ab = _frozen_affine_in_t(e.arg)
        return None if ab is None else (-ab[0], -ab[1])
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            l, r = _frozen_affine_in_t(e.lhs), _frozen_affine_in_t(e.rhs)
            if l is None or r is None:
                return None
            sgn = 1.0 if e.op == "add" else -1.0
            return l[0] + sgn * r[0], l[1] + sgn * r[1]
        if e.op == "mul":
            for c_side, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if not variables(c_side):
                    ab = _frozen_affine_in_t(other)
                    if ab is not None:
                        c = eval_expr(c_side, {})
                        return c * ab[0], c * ab[1]
            return None
        if e.op == "div" and not variables(e.rhs):
            ab = _frozen_affine_in_t(e.lhs)
            if ab is None:
                return None
            c = eval_expr(e.rhs, {})
            if c == 0.0:
                return None
            return ab[0] / c, ab[1] / c
    return None


_FROZEN_COEFFICIENTS = []


def _frozen_coefficient(c):
    _FROZEN_COEFFICIENTS.append(c)
    return _frozen_const_expr(c)


def _frozen_antiderivative_t(e):
    if not variables(e):
        try:
            return _frozen_fold(Binary("mul", _frozen_const_expr(eval_expr(e, {})), Var("t")))
        except DomainError:
            return None
    if isinstance(e, Var) and e.name == "t":
        return Binary("mul", Const(0.5), Binary("pow", Var("t"), Const(2.0)))
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = _frozen_antiderivative_t(e.arg)
            return None if inner is None else _frozen_fold(Unary("neg", inner))
        ab = _frozen_affine_in_t(e.arg)
        if ab is None or ab[0] == 0.0:
            return None
        a = ab[0]
        if e.op == "exp":
            return _frozen_fold(Binary("mul", _frozen_coefficient(1.0 / a), e))
        if e.op == "sin":
            return _frozen_fold(Binary("mul", _frozen_coefficient(-1.0 / a), Unary("cos", e.arg)))
        if e.op == "cos":
            return _frozen_fold(Binary("mul", _frozen_coefficient(1.0 / a), Unary("sin", e.arg)))
        return None
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            l, r = _frozen_antiderivative_t(e.lhs), _frozen_antiderivative_t(e.rhs)
            if l is None or r is None:
                return None
            return _frozen_fold(Binary(e.op, l, r))
        if e.op == "mul":
            for c_side, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if not variables(c_side):
                    inner = _frozen_antiderivative_t(other)
                    if inner is not None:
                        try:
                            c = eval_expr(c_side, {})
                        except DomainError:
                            return None
                        return _frozen_fold(Binary("mul", _frozen_const_expr(c), inner))
            return None
        if e.op == "div" and not variables(e.rhs):
            try:
                c = eval_expr(e.rhs, {})
            except DomainError:
                return None
            if c == 0.0:
                return None
            inner = _frozen_antiderivative_t(e.lhs)
            return None if inner is None else _frozen_fold(Binary("mul", _frozen_coefficient(1.0 / c), inner))
        if e.op == "pow":
            ab = _frozen_affine_in_t(e.lhs)
            k = _frozen_const_value(_frozen_fold(e.rhs))
            if ab is None or ab[0] == 0.0 or k is None or k == -1.0:
                return None
            a = ab[0]
            return _frozen_fold(
                Binary(
                    "mul",
                    _frozen_coefficient(1.0 / (a * (k + 1.0))),
                    Binary("pow", e.lhs, _frozen_const_expr(k + 1.0)),
                )
            )
    return None


def _frozen_product_factors(e, inverted=False):
    if isinstance(e, Unary) and e.op == "neg":
        sign, factors = _frozen_product_factors(e.arg, inverted)
        return -sign, factors
    if isinstance(e, Binary) and e.op == "mul":
        s1, f1 = _frozen_product_factors(e.lhs, inverted)
        s2, f2 = _frozen_product_factors(e.rhs, inverted)
        return s1 * s2, f1 + f2
    if isinstance(e, Binary) and e.op == "div":
        s1, f1 = _frozen_product_factors(e.lhs, inverted)
        s2, f2 = _frozen_product_factors(e.rhs, not inverted)
        return s1 * s2, f1 + f2
    return 1, [(e, inverted)]


# literals at the edges of the float range, signed zeros and NaN among them
EDGE_LITERALS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e300, -1e300, math.inf, -math.inf, math.nan,
                 5e-324, 1e-308, -0.9999999999999999)
_literals = st.one_of(st.sampled_from(EDGE_LITERALS), st.floats(-8.0, 8.0)).map(Const)


def _over(sub, consts):
    """The table's shapes over ``sub``: signs, sums, and products and quotients by ``consts``."""
    return st.one_of(
        sub.map(lambda x: Unary("neg", x)),
        st.tuples(st.sampled_from(["add", "sub"]), sub, sub).map(lambda p: Binary(*p)),
        st.tuples(consts, sub).map(lambda p: Binary("mul", *p)),
        st.tuples(sub, consts).map(lambda p: Binary("mul", *p)),
        st.tuples(sub, consts).map(lambda p: Binary("div", *p)),
    )


def _trees(names):
    """Any tree over ``names``."""
    return st.recursive(st.one_of(_literals, st.sampled_from(names).map(Var)), lambda sub: st.one_of(
        st.tuples(st.sampled_from(["neg", "neg", *FUNCTIONS]), sub).map(lambda p: Unary(*p)),
        st.tuples(st.sampled_from(["add", "sub", "mul", "mul", "div", "pow"]), sub, sub).map(lambda p: Binary(*p)),
    ), max_leaves=16)


# constants that may leave their domain or the float range, and affine arguments over them
_constants = st.one_of(_literals, st.tuples(st.sampled_from(["neg", "sqrt", "ln", "exp"]), _literals).map(
    lambda p: Unary(*p)), st.tuples(st.sampled_from(["add", "mul", "div", "pow"]), _literals, _literals).map(
    lambda p: Binary(*p)))
_affine = st.recursive(st.one_of(st.just(Var("t")), _constants), lambda sub: _over(sub, _constants), max_leaves=5)
_table_terms = st.one_of(
    _affine,
    st.tuples(st.sampled_from(["exp", "sin", "cos", "ln"]), _affine).map(lambda p: Unary(*p)),
    st.tuples(_affine, _constants).map(lambda p: Binary("pow", *p)),
)
# mostly shapes the antiderivative table reads, and some that it does not
_integrands = st.one_of(
    st.recursive(_table_terms, lambda sub: _over(sub, _constants), max_leaves=6),
    _trees(["t"]),
)


def _frozen_or_miss(frozen, e):
    """``frozen(e)``, or ``"miss"`` where it raises or records a table coefficient that is
    not a finite, non-zero number: the inputs the one-pass matchers read as misses."""
    _FROZEN_COEFFICIENTS.clear()
    try:
        result = frozen(e)
    except ArithmeticError:
        return "miss"
    if result is not None and not all(math.isfinite(c) and c != 0.0 for c in _FROZEN_COEFFICIENTS):
        return "miss"
    return result


@settings(max_examples=500, deadline=None)
@given(st.one_of(_trees(["t", "s"]), _integrands))
@example(Binary("sub", Const(0.0), Unary("neg", Var("t")))).via("0 - x, rewritten to a sign")
@example(Binary("sub", Var("t"), Unary("neg", Const(2.0)))).via("x - (-y), rewritten to a sum")
@example(Binary("mul", Const(0.5), Binary("mul", Const(2.0), Var("t")))).via("c1*(c2*x) with c1*c2 = 1")
@example(Binary("mul", Const(1e-300), Binary("mul", Const(1e-300), Var("t")))).via("c1*(c2*x) with c1*c2 = 0")
def test_simplify_agrees_with_the_recursive_fold(e):
    assert repr(simplify(e)) == repr(_frozen_fold(e))


def _bits(x):
    return None if x is None else struct.pack("<d", x)


@settings(max_examples=500, deadline=None)
@given(st.tuples(st.integers(0, 5), st.one_of(_literals, st.just(Var("t")))))
def test_const_value_agrees_with_the_recursive_one(signed):
    signs, e = signed
    e = functools.reduce(lambda x, _: Unary("neg", x), range(signs), e)
    assert _bits(_const_value(e)) == _bits(_frozen_const_value(e))  # the sign of a NaN included


@settings(max_examples=500, deadline=None)
@given(_integrands)
@example(Binary("mul", Unary("sqrt", Unary("neg", Const(1.0))), Var("t"))).via("a factor outside its domain")
@example(Binary("div", Var("t"), Binary("div", Const(1.0), Const(0.0)))).via("a divisor outside its domain")
def test_affine_in_t_agrees_with_the_recursive_matcher(e):
    frozen = _frozen_or_miss(_frozen_affine_in_t, e)
    assert repr(_affine_in_t(e)) == repr(None if frozen == "miss" else frozen)


@settings(max_examples=500, deadline=None)
@given(_integrands)
@example(parse_expr("(1e-308*t)^-0.9999999999999999", {"t"})).via("a*(k + 1) underflows")
@example(parse_expr("exp(5e-324*t)", {"t"})).via("1/a overflows")
@example(parse_expr("exp(sqrt(-1)*t)", {"t"})).via("a factor outside its domain")
@example(parse_expr("1/8*exp(-2*t) - 3*t^2 + sin(t/2)/4", {"t"})).via("a table hit")
def test_antiderivative_agrees_with_the_recursive_table(e):
    frozen = _frozen_or_miss(_frozen_antiderivative_t, e)
    assert repr(antiderivative_t(e)) == repr(None if frozen == "miss" else frozen)


_kernels = st.recursive(_trees(["t", "s"]), lambda sub: st.one_of(
    sub.map(lambda x: Unary("neg", x)),
    st.tuples(st.sampled_from(["mul", "mul", "div"]), sub, sub).map(lambda p: Binary(*p)),
), max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(_kernels)
def test_product_factors_agree_with_the_recursive_flattening(e):
    assert repr(_product_factors(e)) == repr(_frozen_product_factors(e))


def test_simplify_and_the_table_evaluate_a_long_sum_a_linear_number_of_times(monkeypatch):
    # The recursive table re-simplified the partial sum at every level, and so
    # evaluated each term's signed coefficient, -1 for exp(-t), again.
    import memsolve.compiler as compiler

    calls = [0]

    def counted(e, bindings, _eval=compiler.eval_expr):
        calls[0] += 1
        return _eval(e, bindings)

    monkeypatch.setattr(compiler, "eval_expr", counted)
    for n in (100, 400):
        e = parse_expr(" + ".join(["exp(-t) + 2*3*t"] * n), {"t"})
        calls[0] = 0
        simplify(e)
        assert calls[0] <= 2 * n
        calls[0] = 0
        assert antiderivative_t(e) is not None
        assert calls[0] <= 2 * n


DEEP = 20_000  # twenty times the default recursion limit
DEEP_INTEGRANDS = {  # each shape and its affine coefficients (a, b)
    "sum": (lambda: parse_expr(" + ".join(["0.5*t"] * DEEP), {"t"}), (0.5 * DEEP, 0.0)),
    "signs": (lambda: parse_expr("-" * DEEP + "t", {"t"}), (1.0, 0.0)),
    "right_nested": (lambda: functools.reduce(lambda a, _: Binary("sub", Var("t"), a), range(DEEP), Var("t")),
                     (1.0, 0.0)),
}


@pytest.mark.parametrize("shape", sorted(DEEP_INTEGRANDS))
def test_the_table_takes_integrands_deeper_than_the_recursion_limit(shape):
    make, affine = DEEP_INTEGRANDS[shape]
    e = make()
    assert _affine_in_t(e) == affine
    assert antiderivative_t(e) is not None
    assert variables(simplify(e)) == {"t"}


def test_kernel_splitting_takes_products_deeper_than_the_recursion_limit():
    k1, k2 = split_separable(parse_expr("*".join(["exp(-t)", "s"] * (DEEP // 2)), {"t", "s"}))
    assert pretty(k1).count("exp") == DEEP // 2 and pretty(k2).count("s") == DEEP // 2


# --- equation-spec files ------------------------------------------------------


def test_parse_equation_spec_families(tmp_path):
    vol = parse_equation_spec(
        'family = volterra_population\na = 2\nb = 0.001\n'
        'k1 = "exp(-t)"\nk2 = "exp(s)*s/(1+s)"  # hereditary\nn0 = 1\n'
    )
    assert isinstance(vol, VolterraPopulation)
    lin = parse_equation_spec(
        "family = linear\nn = 2\nm = 1\n"
        "a[1][1][2] = 1\na[1][1][1] = 1\na[1][1][0] = -1\nic[1][0] = 1\nic[1][1] = 0\n"
    )
    assert isinstance(lin, LinearOdeSystem)
    assert lin.coeffs[0, 0, 0] == -1.0
    hos = parse_equation_spec(
        'family = higher_order_single\nn = 2\ng = "-2 + 0.001*v + exp(-t)*omega"\n'
        'f = "exp(t)*t/(1+t)*v"\nic[0] = 1\nic[1] = 0\n'
    )
    assert isinstance(hos, HigherOrderSingleMem)
    hoc = parse_equation_spec(
        'family = higher_order_composed\nn = 2\ng1 = "-omega"\ng2 = "omega"\n'
        'f = "v"\nic[0] = 1\nic[1] = 0\n'
    )
    assert isinstance(hoc, HigherOrderComposed)
    lfo = parse_equation_spec('family = linear_first_order\nk = "1"\nu0 = 1\n')
    assert isinstance(lfo, LinearFirstOrderIde)
    tur = parse_equation_spec(
        'family = turbulent\np = "1/8*exp(-2*t)"\nk1 = "1/2*exp(-t)"\nk2 = "exp(-s)"\nu0 = 1\n'
    )
    assert isinstance(tur, TurbulentIde)
    for spec in (vol, lin, hos, hoc, lfo, tur):
        assert validate(compile_equation(spec)) == []


def test_parse_equation_spec_errors_carry_line_numbers():
    with pytest.raises(EquationSpecError) as exc:
        parse_equation_spec('family = volterra_population\na = 1\nb = 0\nk1 = "exp(-q)"\nk2 = "1"\nn0 = 1\n')
    assert exc.value.line == 4
    with pytest.raises(EquationSpecError) as exc:
        parse_equation_spec("family = unknown_family\n")
    assert exc.value.line == 1
    with pytest.raises(EquationSpecError):
        parse_equation_spec('family = linear_first_order\nk = "1"\nu0 = 1\nstray = 3\n')


@pytest.mark.parametrize("line, message", [
    ("k = '1'", "line 2: bad quoting: no field holds '; quote with double quotes"),
    ('k = "1\\"', "line 2: bad quoting: no field holds \\; quote with double quotes"),
    ('k = "1  # the quote does not close', "line 2: bad quoting: no closing quotation"),
])
def test_equation_specs_take_the_netlist_quoting_rule(line, message):
    text = f"family = linear_first_order  # it's only a comment\n{line}\nu0 = 1\n"
    with pytest.raises(EquationSpecError) as exc:
        parse_equation_spec(text)
    assert (exc.value.line, str(exc.value)) == (2, message)


def test_to_ide_spec_rejects_non_ide_families():
    with pytest.raises(EquationSpecError):
        to_ide_spec(eq4_spec())


def test_compiled_netlists_survive_serialization():
    # Covers synthesized expressions (folded constants, transforms): the
    # reloaded netlist must lower to the identical system.
    from memsolve.netlist import parse_netlist

    g, f = eq22_g_f()
    nets = [
        compile_volterra_population(population_spec()),
        compile_turbulent(turbulent_spec()),
        compile_linear_first_order(LinearFirstOrderIde(k=parse_expr("1", {"s"}), u0=1.0)),
        compile_higher_order(HigherOrderSingleMem(n=3, g=g, f=f, ics=(1.0, 0.5, -0.2))),
        compile_linear(eq4_spec()),
    ]
    for net in nets:
        again = parse_netlist(net.to_text())
        a, b = lower(net), lower(again)
        assert a.program.same_structure(b.program)
        assert np.array_equal(a.program.consts, b.program.consts)
        assert a.states == b.states
        assert a.output_transform == b.output_transform


def test_compile_generates_no_code(monkeypatch):
    # Folding and the table's constants run their tapes row by row: compiling an
    # equation makes no function but the per-opcode ones, each once per process.
    import memsolve.engine as engine

    text = (Path(__file__).parent.parent / "equations" / "turbulent_diffusion.eq").read_text()
    other = text.replace("1/8*exp(-2*t)", "3/16*exp(-3*t)").replace("1/2*exp(-t)", "2/5*exp(-t)")
    assert other != text
    made, compile_ = [], engine._compile
    monkeypatch.setattr(engine, "_compile", lambda source, name: made.append(name) or compile_(source, name))
    engine._row_function.cache_clear()
    compile_equation(parse_equation_spec(text))
    assert made and set(made) == {"run"}
    made.clear()
    for spec in (text, other):
        net = compile_equation(parse_equation_spec(spec))
    assert made == []
    assert "exp(-3*t)" in net.to_text()


# --- the compilers build trees: frozen copies of the text route they replaced --


def _frozen_mem_expr(src):
    return parse_expr(src, {"t", "v", "omega"})


def _frozen_compile_volterra_population(spec):
    g = _frozen_mem_expr(f"-{format_number(spec.a)} + {format_number(spec.b)}*v + ({pretty(spec.k1)})*omega")
    f = _frozen_mem_expr(f"({pretty(_sub_s_to_t(spec.k2))})*v")
    net = Netlist(meta={"family": "volterra_population"})
    net.add("mem1", MemIntegrator(c=1.0, ic=spec.n0, g=g, f=f, omega0=0.0), "v")
    net.set_output("v")
    return net


def _frozen_compile_linear_first_order(spec):
    g = _frozen_mem_expr("-omega")
    f = _frozen_mem_expr(f"({pretty(_sub_s_to_t(spec.k))})*ln(v)")
    net = Netlist(meta={"family": "linear_first_order"})
    net.add("mem1", MemIntegrator(c=1.0, ic=_exp_u0(spec.u0), g=g, f=f, omega0=0.0), "v")
    net.set_output("v", parse_expr("ln(v)", {"v", "t"}))
    return net


def _frozen_compile_turbulent(spec):
    P, fallback = integral_from_zero(spec.p, spec.alpha_horizon)
    alpha = _simplified("exp", P)
    alpha_is_one = alpha == Const(1.0)
    a_src = pretty(alpha)
    k1_src = pretty(simplify(spec.k1))
    k2t_src = pretty(simplify(_sub_s_to_t(spec.k2)))
    if alpha_is_one:
        g = _frozen_mem_expr(f"({k1_src})*omega")
        f = _frozen_mem_expr(f"({k2t_src})*ln(v)^2")
        inv_alpha = parse_expr("1", {"t"})
        transform = parse_expr("ln(v)", {"v", "t"})
    else:
        g = _frozen_mem_expr(f"({a_src})*({k1_src})*omega")
        f = _frozen_mem_expr(f"(({k2t_src})/({a_src})^2)*ln(v)^2")
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


_FROZEN_COMPILERS = {
    VolterraPopulation: _frozen_compile_volterra_population,
    LinearFirstOrderIde: _frozen_compile_linear_first_order,
    TurbulentIde: _frozen_compile_turbulent,
}

_NUMBERS = st.one_of(st.sampled_from(["0", "0.0", "-0.0", "1", "-2", "0.5", "-0.125", "1e300", "-1e300",
                                      "5e-324", "-5e-324", "1e16", "3"]), st.floats(-4.0, 4.0).map(repr))
# literal text as the expression grammar reads it: unsigned, 1e999 overflowing to inf
_LITERAL_TEXT = st.sampled_from(["0", "0.0", "1", "2", "0.5", "0.125", "1e300", "5e-324", "1e-300", "1e999", "3.75"])


def _expr_text(var):
    """Expression text over ``var``: signs, the four operations, powers and the functions."""
    return st.recursive(st.one_of(st.just(var), _LITERAL_TEXT), lambda sub: st.one_of(
        sub.map(lambda x: f"-{x}"),
        st.tuples(sub, st.sampled_from([" + ", " - ", "*", "/", "^"]), sub).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "ln", "sqrt"]), sub).map(lambda p: f"{p[0]}({p[1]})"),
    ), max_leaves=5)


# turbulent p: mostly the antiderivative table's shapes, which the table hits; the rest goes to the fit
_P_TEXT = st.one_of(
    st.tuples(_NUMBERS, st.sampled_from(["t", "exp(-2*t)", "sin(t/2)", "t^2", "1"])).map(lambda p: f"({p[0]})*{p[1]}"),
    _expr_text("t"),
)


@st.composite
def _spec_texts(draw):
    family = draw(st.sampled_from(["volterra_population", "linear_first_order", "turbulent"]))
    keys = {"volterra_population": dict(a=_NUMBERS, b=_NUMBERS, k1=_expr_text("t"), k2=_expr_text("s"), n0=_NUMBERS),
            "linear_first_order": dict(k=_expr_text("s"), u0=_NUMBERS),
            "turbulent": dict(p=_P_TEXT, k1=_expr_text("t"), k2=_expr_text("s"), u0=_NUMBERS)}[family]
    lines = [f"family = {family}"]
    for key, values in keys.items():
        value = draw(values)
        lines.append(f'{key} = "{value}"' if key in ("k", "k1", "k2", "p") else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _compiled(compile_fn, spec):
    """What compiling ``spec`` gives: the netlist's text and its tape, or the error."""
    try:
        net = compile_fn(spec)
    except ValueError as exc:
        # the text route read a non-finite literal's printed text as a variable
        if isinstance(exc, UnknownVariableError) and exc.name in ("inf", "nan") or "float range" in str(exc):
            return "a literal outside the float range"
        return str(exc)
    prog = lower_unchecked(net).program
    # constants compare by value: the trees keep a folded -0.0 that the text route read back as 0
    return net.to_text(), prog.code.tolist(), prog.consts.tolist()


@settings(max_examples=200, deadline=None)
@given(_spec_texts())
@example('family = turbulent\np = "1/8*exp(-2*t)"\nk1 = "1/2*exp(-t)"\nk2 = "exp(-s)"\nu0 = 1\n').via("a table hit")
@example('family = turbulent\np = "0.152*exp(-t^2)"\nk1 = "-0"\nk2 = "1"\nu0 = 1\nalpha_horizon = 4\n').via(
    "a fitted alpha, and a k1 that folds to -0.0")
@example('family = volterra_population\na = -0.0\nb = -1e300\nk1 = "1e999*t"\nk2 = "s"\nn0 = 5e-324\n').via(
    "a literal that overflows")
@example('family = linear_first_order\nk = "(1e300)*(1e300*s)"\nu0 = 1e300\n').via("u0 overflows")
@example('family = turbulent\np = "0"\nk1 = "1e300*(1e300*t)"\nk2 = "1"\nu0 = 0\n').via("c1*c2 overflows")
def test_compilers_build_the_trees_the_text_route_parsed(text):
    spec = parse_equation_spec(text)
    assert _compiled(compile_equation, spec) == _compiled(_FROZEN_COMPILERS[type(spec)], spec)


def test_compiling_parses_no_text(monkeypatch):
    equations = Path(__file__).parent.parent / "equations"
    specs = [parse_equation_spec(path.read_text()) for path in sorted(equations.glob("*.eq"))]
    specs += [turbulent_spec(), HigherOrderComposed(n=2, gs=eq22_g_f()[:1] * 2, f=eq22_g_f()[1], ics=(1.0, 0.0)),
              parse_equation_spec('family = turbulent\np = "0.152*exp(-t^2)"\nk1 = "1"\nk2 = "1"\nu0 = 1\n'
                                  'alpha_horizon = 4\n')]
    parses, parse = [], exprs._Parser.parse
    monkeypatch.setattr(exprs._Parser, "parse", lambda self: parses.append(self) or parse(self))
    nets = [compile_equation(spec) for spec in specs]
    assert parses == []
    assert {net.meta["family"] for net in nets} >= {"volterra_population", "linear_first_order", "turbulent"}
    assert any("alpha_fallback" in net.meta for net in nets)
