import dataclasses
import math

import numpy as np
import pytest

import memsolve.oracle as oracle
from memsolve.exprs import DomainError, parse_expr, pretty
from memsolve.oracle import IdeSpec, convergence_study, solve_ide, solve_memristive_chain

# Reference value for the population-growth example (a=2, b=0.001,
# K(t,s) = exp(-(t-s))*s/(1+s), N(0)=1) at t=4 with dt=1e-3, frozen after a
# convergence study: observed order 1.89, terminal changes by 7.3e-9
# (relative) from dt=1e-3 to dt=5e-4.
POPULATION_N4 = 1.8621825446736526


def population_spec(a=2.0, b=0.001, k1="exp(-t)", k2="exp(s)*s/(1+s)", y0=1.0):
    return IdeSpec(
        form="volterra_population",
        y0=y0,
        a=a,
        b=b,
        k1=parse_expr(k1, {"t"}),
        k2=parse_expr(k2, {"s"}),
    )


def turbulent_spec(p="1/8*exp(-2*t)", k1="1/2*exp(-t)", k2="exp(-s)"):
    return IdeSpec(
        form="turbulent",
        y0=1.0,
        p=parse_expr(p, {"t"}),
        k1=parse_expr(k1, {"t"}),
        k2=parse_expr(k2, {"s"}),
    )


def test_pure_exponential_growth_limit():
    # k == 0 and b == 0 reduce the population equation to y' = a*y.
    spec = population_spec(a=1.0, b=0.0, k1="0", k2="0")
    wf = solve_ide(spec, 1e-3, 3.0)
    assert np.max(np.abs(wf.channel("y") / np.exp(wf.t) - 1.0)) < 1e-6


def test_zero_population_is_fixed_point():
    wf = solve_ide(population_spec(y0=0.0), 1e-2, 2.0)
    assert np.all(wf.channel("y") == 0.0)


def test_population_terminal_value_frozen():
    wf = solve_ide(population_spec(), 1e-3, 4.0)
    assert wf.channel("y")[-1] == pytest.approx(POPULATION_N4, rel=1e-7)


def test_linear_first_order_matches_cosh():
    # u' = integral_0^t u ds with u(0)=1 differentiates to u'' = u with
    # u'(0)=0, i.e. u = cosh(t).
    spec = IdeSpec(form="linear_first_order", y0=1.0, k2=parse_expr("1", {"s"}))
    wf = solve_ide(spec, 1e-3, 3.0)
    rel = np.abs(wf.channel("y") - np.cosh(wf.t)) / np.cosh(wf.t)
    assert np.max(rel) < 1e-5


def test_turbulent_pure_decay_closed_form():
    # k1 == 0 removes the memory term: u' = -p(t) u, so u = exp(-P(t)) with
    # P(t) = (1 - exp(-2t))/16 for p = (1/8) exp(-2t).
    spec = turbulent_spec(k1="0")
    wf = solve_ide(spec, 1e-3, 4.0)
    expected = np.exp(-(1.0 - np.exp(-2.0 * wf.t)) / 16.0)
    assert np.max(np.abs(wf.channel("y") - expected)) < 1e-6


def test_general_kernel_supported():
    # Non-separable K(t,s) = exp(-t*s) works on the reference route.
    spec = IdeSpec(
        form="generic_first_order",
        y0=1.0,
        kernel=parse_expr("exp(-t*s)", {"t", "s"}),
    )
    coarse = solve_ide(spec, 2e-3, 2.0).channel("y")[-1]
    fine = solve_ide(spec, 1e-3, 2.0).channel("y")[-1]
    assert fine > 1.0  # positive memory feedback grows the solution
    assert abs(coarse - fine) / abs(fine) < 1e-5


@pytest.mark.parametrize("spec", [
    population_spec(),
    turbulent_spec(),
    IdeSpec(form="linear_first_order", y0=1.0, k2=parse_expr("cos(s)", {"s"})),
], ids=["volterra_population", "turbulent", "linear_first_order"])
def test_general_kernel_path_matches_separable_path(spec):
    # The same K = k1(t)*k2(s) passed as kernel= takes the O(steps^2)
    # history sum instead of the running sum.
    k1 = pretty(spec.k1) if spec.k1 is not None else "1"
    kernel = parse_expr(f"({k1})*({pretty(spec.k2)})", {"t", "s"})
    general = dataclasses.replace(spec, k1=None, k2=None, kernel=kernel)
    fast = solve_ide(spec, 1e-2, 4.0).channel("y")
    slow = solve_ide(general, 1e-2, 4.0).channel("y")
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)


def test_separable_march_tabulates_coefficients_once(monkeypatch):
    # Guards the O(steps) route: no per-step tree walk, and a fixed number of
    # grid tabulations whatever the step count.
    calls = dict.fromkeys(("eval_expr", "eval_expr_array"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    per_run = []
    for dt in (4e-2, 4e-3):  # 100 and 1000 steps
        calls.update(dict.fromkeys(calls, 0))
        solve_ide(turbulent_spec(), dt, 4.0)
        per_run.append(dict(calls))
    assert per_run[0] == per_run[1]
    assert per_run[0]["eval_expr"] == 0 and per_run[0]["eval_expr_array"] > 0


@pytest.mark.parametrize("spec", [
    # Both would blow up near t=0.2 resp. t=0.6, before leaving the domain at t=1.
    population_spec(a=50.0, b=0.0, k1="-sqrt(1 - t)", k2="1"),
    turbulent_spec(p="sqrt(1 - t) - 50", k1="0", k2="1"),
], ids=["k1", "p"])
def test_coefficient_leaving_its_domain_raises_up_front(spec):
    with pytest.raises(DomainError):
        solve_ide(spec, 1e-2, 2.0)


def test_memory_nonlinearity_tag():
    lin = IdeSpec(form="generic_first_order", y0=2.0, kernel=parse_expr("1", {"t", "s"}))
    quad = IdeSpec(
        form="generic_first_order", y0=2.0, kernel=parse_expr("1", {"t", "s"}), memory="quadratic"
    )
    # y' = M; quadratic integrand doubles the slope at y=2 vs linear near t=0.
    wl = solve_ide(lin, 1e-3, 0.5).channel("y")[-1]
    wq = solve_ide(quad, 1e-3, 0.5).channel("y")[-1]
    assert wq > wl > 2.0


def test_spec_validation():
    with pytest.raises(ValueError):
        IdeSpec(form="nope", y0=1.0)
    with pytest.raises(ValueError):
        IdeSpec(form="linear_first_order", y0=1.0, k2=parse_expr("t", {"t"}))
    with pytest.raises(ValueError):
        IdeSpec(form="generic_first_order", y0=1.0, memory="cubic")
    with pytest.raises(ValueError):  # the turbulent form fixes quadratic memory
        IdeSpec(form="turbulent", y0=1.0, memory="linear")


def test_blowup_truncates():
    spec = IdeSpec(form="generic_first_order", y0=1.0, a=40.0)
    wf = solve_ide(spec, 0.05, 40.0)
    assert "blowup_step" in wf.meta
    assert len(wf) < 801


def test_convergence_study_observed_order():
    spec = IdeSpec(form="generic_first_order", y0=1.0, a=-1.0)  # y' = -y
    study = convergence_study(spec, [1e-2, 5e-3, 2.5e-3], 1.0)
    assert study.observed_order == pytest.approx(2.0, abs=0.3)
    assert study.rows[0][1] == pytest.approx(math.exp(-1.0), rel=1e-4)


def test_convergence_study_zero_dynamics():
    spec = IdeSpec(form="generic_first_order", y0=3.0)
    study = convergence_study(spec, [1e-2, 5e-3, 2.5e-3], 1.0)
    assert all(row[1] == 3.0 for row in study.rows)
    assert study.rows[0][2] == 0.0
    assert math.isnan(study.observed_order)


def test_convergence_study_turbulent_estimates_shrink():
    spec = turbulent_spec()
    study = convergence_study(spec, [8e-3, 4e-3, 2e-3, 1e-3], 4.0)
    ests = [row[2] for row in study.rows[:-1]]
    assert all(a > b for a, b in zip(ests, ests[1:]))


def test_convergence_study_input_validation():
    spec = IdeSpec(form="generic_first_order", y0=1.0)
    with pytest.raises(ValueError):
        convergence_study(spec, [1e-2, 1e-2, 5e-3], 1.0)
    with pytest.raises(ValueError):
        convergence_study(spec, [1e-2, 5e-3], 1.0)


def test_memristive_chain_second_order():
    # g = 1, f = v: v'' = -v with v(0)=1, v'(0)=0 gives cos(t); the memory
    # state plays no role in g so the chain reduces to the oscillator.
    g = parse_expr("1", {"t", "v", "omega"})
    f = parse_expr("v", {"t", "v", "omega"})
    wf = solve_memristive_chain(g, f, order=2, ics=[1.0, 0.0], omega0=0.0, dt=1e-3, t_end=3.0)
    assert np.max(np.abs(wf.channel("y") - np.cos(wf.t))) < 1e-5


@pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.7, 1.0), (2.0, 1.0)])
def test_off_grid_horizon_rejected(dt, t_end):
    with pytest.raises(ValueError):
        solve_ide(population_spec(), dt, t_end)
    g = parse_expr("1", {"t", "v", "omega"})
    f = parse_expr("v", {"t", "v", "omega"})
    with pytest.raises(ValueError):
        solve_memristive_chain(g, f, order=2, ics=[1.0, 0.0], omega0=0.0, dt=dt, t_end=t_end)
