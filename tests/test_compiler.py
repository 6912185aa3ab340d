import math

import numpy as np
import pytest

from memsolve.compiler import (
    EquationSpecError,
    HigherOrderComposed,
    HigherOrderSingleMem,
    LinearFirstOrderIde,
    LinearOdeSystem,
    TurbulentIde,
    UnsupportedKernelError,
    VolterraPopulation,
    antiderivative_t,
    compile_equation,
    compile_higher_order,
    compile_linear,
    compile_linear_first_order,
    compile_turbulent,
    compile_volterra_population,
    fold,
    parse_equation_spec,
    split_separable,
    to_ide_spec,
)
from memsolve.engine import eval_expr_array
from memsolve.exprs import Const, eval_expr, parse_expr, pretty
from memsolve.netlist import lower, netlist_stats, validate
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
])
def test_antiderivative_table_misses(src):
    assert antiderivative_t(parse_expr(src, {"t"})) is None


def test_fold_keeps_no_negative_constants():
    e = fold(parse_expr("1/8*exp(-2*t)/(-2) - 0 + 1*t*1", {"t"}))
    text = pretty(e)
    reparsed = parse_expr(text, {"t"})
    assert reparsed == e
    for t in (0.0, 0.5, 2.0):
        want = (1 / 8) * math.exp(-2 * t) / (-2) + t
        assert eval_expr(e, {"t": t}) == pytest.approx(want, rel=1e-12)


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
