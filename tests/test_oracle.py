import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memsolve.oracle as oracle
from memsolve import engine
from memsolve.engine import eval_expr_array
from memsolve.compiler import (
    HigherOrderComposed,
    UnsupportedEquationError,
    effective_memductance,
    load_equation_spec,
    to_ide_spec,
)
from memsolve.exprs import Binary, Const, DomainError, Unary, Var, parse_expr, pretty
from memsolve.oracle import BLOWUP_LIMIT, IdeSpec, convergence_study, solve_ide, solve_memristive_chain
from memsolve.waveform import Waveform, grid_steps

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


CHAIN_VARS = {"t", "v", "omega"}


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


def _calls_per_run(monkeypatch, run, dts):
    """Calls of the evaluator builders ``oracle`` imports, per run of ``run(dt)``."""
    calls = dict.fromkeys(("scalar_evaluator", "eval_expr_array"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    per_run = []
    for dt in dts:
        calls.update(dict.fromkeys(calls, 0))
        run(dt)
        per_run.append(dict(calls))
    return per_run


def test_separable_march_tabulates_coefficients_once(monkeypatch):
    # Guards the O(steps) route: no scalar evaluation at all, and a fixed
    # number of grid tabulations whatever the step count.
    per_run = _calls_per_run(monkeypatch, lambda dt: solve_ide(turbulent_spec(), dt, 4.0), (4e-2, 4e-3))
    assert per_run[0] == per_run[1]
    assert per_run[0]["scalar_evaluator"] == 0 and per_run[0]["eval_expr_array"] > 0


def test_general_kernel_evaluates_each_row_once(monkeypatch):
    # The predictor's and the accepted sample's sums of step j share the row
    # K(t_j, s_0..s_j): one evaluation per step, not two, with the bits of
    # the frozen closure march, which evaluated the row in each sum.
    spec = IdeSpec(form="generic_first_order", y0=0.75, a=0.5, b=-0.25,
                   kernel=parse_expr("exp(-t*s)", {"t", "s"}))
    rows = []

    def counted(e, names, _build=oracle.array_evaluator):
        evaluate = _build(e, names)
        rows.append(0)

        def row(*args):
            rows[-1] += 1
            return evaluate(*args)
        return row

    monkeypatch.setattr(oracle, "array_evaluator", counted)
    per_run = _calls_per_run(monkeypatch, lambda dt: assert_same_march(spec, dt, 2.0), (1e-2,))
    assert per_run == [{"scalar_evaluator": 0, "eval_expr_array": 0}]
    assert rows == [200]  # one kernel evaluator per run, one row per step


def test_general_kernel_is_lowered_once_per_run(monkeypatch):
    # The kernel's tape is built once per run, whatever the step count, and
    # the waveform keeps the bits of the frozen march, which lowered the
    # kernel at every row.
    spec = IdeSpec(form="generic_first_order", y0=0.75, a=0.5, b=-0.25,
                   kernel=parse_expr("exp(-2*(t - s)) * (1 + 0.5*sin(s))", {"t", "s"}))
    calls = []
    compile_expr = engine.TapeBuilder.compile_expr

    def counted(builder, e, env):
        calls[-1] += 1
        return compile_expr(builder, e, env)

    monkeypatch.setattr(engine.TapeBuilder, "compile_expr", counted)
    for steps in (100, 1000):
        calls.append(0)
        solve_ide(spec, 1e-3, steps * 1e-3)
    assert calls == [1, 1]
    monkeypatch.undo()
    assert_same_march(spec, 1e-3, 1.0)


def test_convergence_study_builds_one_march_per_structure():
    # Each form/memory/kernel structure generates its Heun march once; a
    # second study of the same equation reuses it for every step size.
    specs = {}
    for path in sorted((Path(__file__).parent.parent / "equations").glob("*.eq")):
        try:
            specs[path.stem] = to_ide_spec(load_equation_spec(str(path)))
        except UnsupportedEquationError:
            continue
    assert sorted(specs) == ["log_linear", "population_growth", "turbulent_diffusion"]
    dts = [4e-2, 2e-2, 1e-2, 5e-3]
    for name, spec in specs.items():
        oracle._ide_march.cache_clear()
        for built in (1, 0):
            before = oracle._ide_march.cache_info()
            convergence_study(spec, dts, 4.0)
            after = oracle._ide_march.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (built, len(dts) - built), name


def test_chain_builds_its_evaluators_once(monkeypatch):
    # g and f become float functions once per run, whatever the step count.
    g, f = parse_expr("1 + 0.5*omega", CHAIN_VARS), parse_expr("v*v", CHAIN_VARS)
    per_run = _calls_per_run(
        monkeypatch, lambda dt: solve_memristive_chain(g, f, 2, [1.0, 0.0], 0.0, dt, 4.0), (4e-2, 4e-3))
    assert per_run == [{"scalar_evaluator": 2, "eval_expr_array": 0}] * 2


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


# ---------------------------------------------------------------------------
# Differential test: a frozen copy of the closure-based Heun march that the
# flat loop of ``solve_ide`` replaced.  Each step called ``at`` twice,
# ``accept`` once and the form's right-hand side twice; the flat loop must
# perform the same float operations in the same order.


def _closure_grid_table(expr, var, ts, default):
    vals = eval_expr_array(expr, {var: ts}) if expr is not None else default
    return memoryview(np.full(len(ts), vals))


def _closure_rhs(spec, ts):
    a, b = spec.a, spec.b
    if spec.form == "volterra_population":
        return lambda k, y, m: y * (a - b * y - m)
    if spec.form == "linear_first_order":
        return lambda k, y, m: m
    if spec.form == "turbulent":
        p = _closure_grid_table(spec.p, "t", ts, 0.0)
        return lambda k, y, m: -(p[k] * y + m)
    return lambda k, y, m: a * y + b + m


def _closure_memory(spec, ts, dt):
    if spec.kernel is not None:
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

    k1 = _closure_grid_table(spec.k1, "t", ts, 1.0)
    k2 = _closure_grid_table(spec.k2, "s", ts, 1.0)
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


def closure_solve_ide(spec, dt, t_end):
    n = grid_steps(dt, t_end)
    ts = dt * np.arange(n + 1)
    rhs = _closure_rhs(spec, ts)
    at, accept = _closure_memory(spec, ts, dt)
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


def assert_same_march(spec, dt, t_end):
    new, old = solve_ide(spec, dt, t_end), closure_solve_ide(spec, dt, t_end)
    assert len(new) == len(old)
    assert new.meta.get("blowup_step") == old.meta.get("blowup_step")
    assert new.data.tobytes() == old.data.tobytes()  # bit for bit, signs of zero included
    return new


KERNELS = {
    "separable": dict(k1=parse_expr("1/2*exp(-t)", {"t"}), k2=parse_expr("cos(s)", {"s"})),
    "k1_only": dict(k1=parse_expr("-exp(-2*t)", {"t"})),
    "k2_only": dict(k2=parse_expr("s/(1+s)", {"s"})),
    "memory_free": dict(),
    "general": dict(kernel=parse_expr("exp(-t*s)/(1+t)", {"t", "s"})),
}
FORM_CASES = [(form, memory) for form in oracle.FORMS if form != "turbulent"
              for memory in ("linear", "quadratic")] + [("turbulent", "quadratic")]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("form, memory", FORM_CASES)
def test_flat_loop_matches_closure_march(form, memory, kernel):
    spec = IdeSpec(form=form, y0=0.75, a=0.5, b=-0.25, p=parse_expr("1/8*exp(-2*t)", {"t"}),
                   memory=memory, **KERNELS[kernel])
    assert_same_march(spec, 2e-2, 2.0)


@pytest.mark.parametrize("spec", [
    IdeSpec(form="generic_first_order", y0=1.0, a=40.0),
    population_spec(a=50.0, b=0.0, k1="-1", k2="exp(s)"),
    IdeSpec(form="turbulent", y0=1.0, p=parse_expr("-30", {"t"}), k1=parse_expr("1", {"t"})),
    IdeSpec(form="generic_first_order", y0=2.0, kernel=parse_expr("exp(t - s)", {"t", "s"}),
            memory="quadratic"),
    # b*y0 overflows: f_0 = -inf, the predictor is -inf, the quadrature forms
    # -inf - (-inf) and the first non-finite yn is NaN, not +-inf.
    population_spec(a=0.0, b=1e308, k1="1", k2="1", y0=2.0),
], ids=["memory_free", "separable", "turbulent", "general_quadratic", "nan"])
def test_flat_loop_matches_closure_march_through_blowup(spec):
    assert "blowup_step" in assert_same_march(spec, 1e-2, 10.0).meta


@pytest.mark.parametrize("y0", [0.0, -0.0])
def test_flat_loop_keeps_signed_zeros(y0):
    for kernel in KERNELS.values():
        assert_same_march(IdeSpec(form="volterra_population", y0=y0, a=-1.0, **kernel), 0.1, 1.0)


def test_flat_loop_adds_a_zero_memory_to_signed_zeros():
    # Without memory M is 0.0 and still added: a*y + b + M is +0.0, not -0.0,
    # for y = -0.0 and b = -0.0, which the CSV prints as 0, not -0.
    for form, memory in FORM_CASES:
        spec = IdeSpec(form=form, y0=-0.0, a=1.0, b=-0.0, p=parse_expr("1", {"t"}), memory=memory)
        assert_same_march(spec, 0.1, 1.0)


_coef = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(oracle.FORMS), kernel=st.sampled_from(sorted(KERNELS)),
       quadratic=st.booleans(), y0=st.floats(-2.0, 2.0), a=_coef, b=_coef,
       c=st.lists(_coef, min_size=4, max_size=4), dt=st.sampled_from([0.1, 0.05, 0.025]))
def test_flat_loop_matches_closure_march_on_drawn_coefficients(form, kernel, quadratic, y0, a, b, c, dt):
    memory = {
        "separable": dict(k1=parse_expr(f"({c[0]!r})*exp(({c[1]!r})*t)", {"t"}),
                          k2=parse_expr(f"cos(({c[2]!r})*s)", {"s"})),
        "k1_only": dict(k1=parse_expr(f"({c[0]!r})*exp(({c[1]!r})*t)", {"t"})),
        "k2_only": dict(k2=parse_expr(f"({c[2]!r})*s + 1", {"s"})),
        "memory_free": dict(),
        "general": dict(kernel=parse_expr(f"({c[0]!r})*exp(({c[1]!r})*t*s)", {"t", "s"})),
    }[kernel]
    spec = IdeSpec(form=form, y0=y0, a=a, b=b, p=parse_expr(f"({c[3]!r})*exp(-t)", {"t"}),
                   memory="quadratic" if quadratic or form == "turbulent" else "linear", **memory)
    assert_same_march(spec, dt, 2.0)


# ---------------------------------------------------------------------------
# Differential test of the chain march: frozen copies of the list-building
# Heun loop that ``solve_memristive_chain`` replaced and of the strict tree
# walk over ``math`` that evaluated g and f in it (four walks per step).  That
# walk raised on any non-finite intermediate, so the cases below keep every
# intermediate finite.


def _frozen_check(x, what):
    if not math.isfinite(x):
        raise DomainError(f"non-finite result in {what}")
    return x


def _frozen_eval(e, b):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(b[e.name])
        except KeyError:
            raise DomainError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Unary):
        x = _frozen_eval(e.arg, b)
        op = e.op
        if op == "neg":
            return -x
        if op == "exp":
            try:
                return _frozen_check(math.exp(x), "exp")
            except OverflowError:
                raise DomainError("non-finite result in exp") from None
        if op == "ln":
            if x <= 0.0:
                raise DomainError(f"ln of non-positive value {x!r}")
            return math.log(x)
        if op == "sin":
            return math.sin(x)
        if op == "cos":
            return math.cos(x)
        if op == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value {x!r}")
            return math.sqrt(x)
        if op == "abs":
            return abs(x)
        raise AssertionError(f"bad unary op {op!r}")
    x = _frozen_eval(e.lhs, b)
    y = _frozen_eval(e.rhs, b)
    op = e.op
    if op == "add":
        return _frozen_check(x + y, "+")
    if op == "sub":
        return _frozen_check(x - y, "-")
    if op == "mul":
        return _frozen_check(x * y, "*")
    if op == "div":
        if y == 0.0:
            raise DomainError("division by zero")
        return _frozen_check(x / y, "/")
    if op == "pow":
        try:
            r = math.pow(x, y)
        except (ValueError, OverflowError):
            raise DomainError(f"pow({x!r}, {y!r}) outside the real domain") from None
        return _frozen_check(r, "^")
    raise AssertionError(f"bad binary op {op!r}")


def frozen_chain(g, f, order, ics, omega0, dt, t_end):
    ics = [float(x) for x in ics]
    n = grid_steps(dt, t_end)

    def chain_rhs(t, Y, w):
        return Y[1:] + [-_frozen_eval(g, {"t": t, "v": Y[0], "omega": w}) * Y[0]]

    vs = np.empty(n + 1)
    Y = ics
    w = float(omega0)
    fh = _frozen_eval(f, {"t": 0.0, "v": Y[0], "omega": w})
    vs[0] = Y[0]
    blowup = None
    last = n
    for k in range(n):
        tk, tn = k * dt, (k + 1) * dt
        fk = chain_rhs(tk, Y, w)
        Y_pred = [y + dt * d for y, d in zip(Y, fk)]
        w_pred = w + dt * fh
        fh_pred = _frozen_eval(f, {"t": tn, "v": Y_pred[0], "omega": w_pred})
        w_new = w + 0.5 * dt * (fh + fh_pred)
        f_pred = chain_rhs(tn, Y_pred, w_new)
        Y_new = [y + 0.5 * dt * (d + e) for y, d, e in zip(Y, fk, f_pred)]
        if not all(map(math.isfinite, Y_new)) or max(map(abs, Y_new)) > BLOWUP_LIMIT:
            blowup = k + 1
            last = k
            break
        Y = Y_new
        w = w_new
        fh = _frozen_eval(f, {"t": tn, "v": Y[0], "omega": w})
        vs[k + 1] = Y[0]

    wf = Waveform(t0=0.0, dt=dt, names=("y",), data=vs[: last + 1, None])
    if blowup is not None:
        wf.meta["blowup_step"] = blowup
    return wf


def _composed_g():
    # g1 = 1 + 0.5*omega inner, g2 = omega*(1 + 0.1*v) outer: g reads v and omega
    spec = HigherOrderComposed(n=2, gs=(parse_expr("1 + 0.5*omega", CHAIN_VARS),
                                        parse_expr("omega*(1 + 0.1*v)", CHAIN_VARS)),
                               f=parse_expr("v", CHAIN_VARS), ics=(1.0, 0.0))
    return pretty(effective_memductance(spec))


# (g, f, ics, t_end); only + - * / in g and f, so the new march must match bit for bit
ARITHMETIC_CHAINS = {
    "order1": ("1 + v*v", "v - omega/4", [0.5], 4.0),
    "order2": ("2 - omega/(1 + v*v)", "v*v - omega", [1.0, 0.0], 4.0),
    "order3": ("1 + 0.5*omega", "v - omega/4", [1.0, 0.0, -0.5], 4.0),
    "composed": (_composed_g(), "v", [1.0, 0.0], 4.0),
    "blowup": ("-5 - 0.1*omega", "v/3", [1.0], 10.0),
}
# exp, ln and ^ in g and f: libm and numpy may differ in the last bit
TRANSCENDENTAL_CHAINS = {
    "order1": ("1 + 0.1*exp(-t)*v", "ln(1 + v^2)", [0.5], 4.0),
    "order2": ("1 + 0.1*exp(-t)*omega + 0.01*ln(1 + v^2)", "v^2 - sqrt(abs(omega))", [1.0, 0.0], 4.0),
    "order3": ("1 + 0.2*sin(omega)^2", "exp(-abs(v))*cos(t)", [1.0, 0.0, -0.5], 4.0),
    "blowup": ("-4*exp(0.01*t) - 0.1*omega^2", "v^3/(1 + v^2)", [1.0], 10.0),
}


def _both_chains(case, dt=1e-2):
    g, f, ics, t_end = case
    g, f = parse_expr(g, CHAIN_VARS), parse_expr(f, CHAIN_VARS)
    new = solve_memristive_chain(g, f, len(ics), ics, 0.25, dt, t_end)
    old = frozen_chain(g, f, len(ics), ics, 0.25, dt, t_end)
    assert len(new) == len(old)
    assert new.meta.get("blowup_step") == old.meta.get("blowup_step")
    return new, old


@pytest.mark.parametrize("name", ARITHMETIC_CHAINS)
def test_chain_march_matches_frozen_march_bit_for_bit(name):
    new, old = _both_chains(ARITHMETIC_CHAINS[name])
    assert new.data.tobytes() == old.data.tobytes()
    assert ("blowup_step" in new.meta) == (name == "blowup")


@pytest.mark.parametrize("name", TRANSCENDENTAL_CHAINS)
def test_chain_march_matches_frozen_march_with_transcendentals(name):
    new, old = _both_chains(TRANSCENDENTAL_CHAINS[name])
    np.testing.assert_allclose(new.data, old.data, rtol=1e-15, atol=0.0)
    differ = int(np.count_nonzero(new.data != old.data))
    print(f"chain {name}: {differ} of {new.data.size} values differ from the frozen march")
    assert ("blowup_step" in new.meta) == (name == "blowup")


def test_chain_leaving_the_domain_raises_like_the_frozen_march():
    # sqrt(v) leaves the real domain where cos(t) turns negative
    g, f = parse_expr("sqrt(v)", CHAIN_VARS), parse_expr("v", CHAIN_VARS)
    for march in (solve_memristive_chain, frozen_chain):
        with pytest.raises(DomainError, match="sqrt of negative value"):
            march(g, f, 2, [1.0, 0.0], 0.0, 1e-2, 4.0)
