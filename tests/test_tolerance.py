import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from memsolve.compiler import (
    TurbulentIde,
    VolterraPopulation,
    compile_equation,
    compile_turbulent,
    compile_volterra_population,
    load_equation_spec,
)
from memsolve import engine
from memsolve.engine import eval_expr_array_clamped
from memsolve.exprs import DomainError, map_constants, parse_expr
from memsolve.netlist import load_netlist, lower, parse_netlist
import memsolve.solver as solver
import memsolve.tolerance as tolerance
import memsolve.waveform as waveform
from memsolve.solver import SimConfig, SimulationError, simulate
from memsolve.tolerance import (
    ToleranceConfig,
    _perturb,
    _run_batch,
    perturb,
    stability_run,
)


def population_netlist():
    return compile_volterra_population(
        VolterraPopulation(
            a=2.0, b=0.001,
            k1=parse_expr("exp(-t)", {"t"}),
            k2=parse_expr("exp(s)*s/(1+s)", {"s"}),
            n0=1.0,
        )
    )


MIXED = """
fgen src out=drive expr="sin(2*t)"
pot p1 out=scaled in=drive alpha=0.8
adder sum1 out=mix in=scaled:1.5 in=v:0.25
integrator int1 out=w C=2 ic=0.5 in=mix:4
memintegrator mem1 out=v C=1 ic=1 g="1 + 0.1*omega" f="0.3*v" omega0=0.2
output w
"""


def turbulent_netlist():
    return compile_turbulent(
        TurbulentIde(
            p=parse_expr("1/8*exp(-2*t)", {"t"}),
            k1=parse_expr("1/2*exp(-t)", {"t"}),
            k2=parse_expr("exp(-s)", {"s"}),
            u0=1.0,
        )
    )


GROWTH = 'memintegrator m out=v C=1 ic=1 g="-1" f="0*v" omega0=0\noutput v\n'


@pytest.mark.parametrize(
    "make_netlist, t_end",
    [(population_netlist, 1.0), (turbulent_netlist, 4.0)],
    ids=["population", "turbulent"],
)
def test_zero_tolerance_is_identity(make_netlist, t_end):
    net = make_netlist()
    cfg = ToleranceConfig(max_relative_error=0.0, iterations=3)
    pert = perturb(net, cfg, 0)
    assert np.array_equal(lower(pert).program.consts, lower(net).program.consts)
    rep = stability_run(net, cfg, SimConfig(dt=1e-2, t_end=t_end))
    assert np.all(rep.mean == 0.0)
    assert np.all(rep.p90 == 0.0)


def _coefficients(net):
    """All netlist coefficients in a stable order (element fields + expr literals)."""
    from memsolve.exprs import map_constants

    out = []
    for eid in sorted(net.elements):
        e = net.elements[eid]
        for attr in ("gains", "resistances"):
            out.extend(getattr(e, attr, ()))
        for attr in ("c", "ic", "alpha", "omega0"):
            if hasattr(e, attr):
                out.append(getattr(e, attr))
        for attr in ("signal", "g", "f"):
            if hasattr(e, attr):
                map_constants(getattr(e, attr), lambda _i, c: out.append(c) or c)
    return np.array(out)


def test_draws_stay_within_tolerance_support():
    net = parse_netlist(MIXED)
    nominal = _coefficients(net)
    cfg = ToleranceConfig(max_relative_error=0.10, iterations=1)
    for i in range(200):
        vals = _coefficients(perturb(net, cfg, i))
        nz = nominal != 0.0
        ratio = vals[nz] / nominal[nz]
        assert np.all(ratio >= 0.9 - 1e-12)
        assert np.all(ratio <= 1.1 + 1e-12)
        assert np.all(vals[~nz] == 0.0)  # zero coefficients stay zero


def test_truncated_gaussian_also_bounded():
    net = parse_netlist(MIXED)
    nominal = _coefficients(net)
    cfg = ToleranceConfig(max_relative_error=0.10, iterations=1, distribution="truncated_gaussian")
    for i in range(50):
        vals = _coefficients(perturb(net, cfg, i))
        nz = nominal != 0.0
        assert np.all(np.abs(vals[nz] / nominal[nz] - 1.0) <= 0.1 + 1e-12)


def test_same_seed_and_index_reproduces_exactly():
    net = parse_netlist(MIXED)
    cfg = ToleranceConfig(master_seed=987, iterations=5)
    a = lower(perturb(net, cfg, 4)).program.consts
    b = lower(perturb(net, cfg, 4)).program.consts
    assert np.array_equal(a, b)
    c = lower(perturb(net, cfg, 3)).program.consts
    assert not np.array_equal(a, c)


def test_perturbation_preserves_structure():
    net = parse_netlist(MIXED)
    base = lower(net)
    pert = lower(perturb(net, ToleranceConfig(), 0))
    assert pert.program.same_structure(base.program)
    assert all(p.initial != b.initial for p, b in zip(pert.states, base.states))
    assert [s.element_id for s in pert.states] == [s.element_id for s in base.states]


# One element of each kind, declared out of id order.
ONE_OF_EACH = """
memintegrator m1 out=v C=1.5 ic=1 g="1 + 0.1*omega" f="0.3*v" omega0=0.2 in=w
adder a1 out=s in=d:1.5 in=v:-0.25
mul x1 out=y in=v in=w
integrator i1 out=w C=2 ic=0.5 in=s:4 in=d:3
pot p1 out=z in=y alpha=0.5
fgen f1 out=d expr="sin(2*t) + 0.5"
output z
"""


def _drawn_values(net):
    """The component values in their draw order: elements by id, each kind's fields as documented."""
    def literals(e):
        out = []
        map_constants(e, lambda _i, c: out.append(c) or c)
        return out

    order = {"adder": lambda e: [*e.gains], "fgen": lambda e: literals(e.signal),
             "integrator": lambda e: [e.c, *e.resistances, e.ic],
             "memintegrator": lambda e: [e.c, e.ic, e.omega0, *literals(e.g), *literals(e.f)],
             "pot": lambda e: [e.alpha], "mul": lambda e: []}
    return [v for eid in sorted(net.elements) for v in order[net.elements[eid].KIND](net.elements[eid])]


@pytest.mark.parametrize("distribution", ["uniform", "truncated_gaussian"])
def test_component_values_are_drawn_in_the_documented_order(distribution):
    net = parse_netlist(ONE_OF_EACH)
    cfg = ToleranceConfig(max_relative_error=0.2, master_seed=2024, distribution=distribution)
    nominal = _drawn_values(net)
    assert nominal == [1.5, -0.25, 2.0, 0.5, 2.0, 4.0, 3.0, 0.5, 1.5, 1.0, 0.2, 1.0, 0.1, 0.3, 0.5]
    for i in range(3):
        rng = np.random.default_rng([cfg.master_seed, i])
        eps = cfg.max_relative_error
        if distribution == "uniform":
            deltas = [float(rng.uniform(-eps, eps)) for _ in nominal]
        else:
            deltas = [float(np.clip(rng.normal(0.0, eps / 3.0), -eps, eps)) for _ in nominal]
        pert = perturb(net, cfg, i)
        assert _drawn_values(pert) == [v * (1.0 + d) for v, d in zip(nominal, deltas)]
        assert pert.elements["x1"] == net.elements["x1"]


POT = 'fgen f1 out=a expr="1"\npot p1 out=b in=a alpha=0.99\noutput b\n'


def test_potentiometer_redraw_keeps_invariant():
    net = parse_netlist(POT)
    cfg = ToleranceConfig(max_relative_error=0.3, iterations=1)
    redraws = 0
    for i in range(40):
        pert, n = _perturb(net, cfg, i)
        assert 0.0 < pert.elements["p1"].alpha < 1.0
        assert pert.to_text() == perturb(net, cfg, i).to_text()
        redraws += n
    assert redraws > 0


@pytest.mark.parametrize("distribution, redraws", [("uniform", 38), ("truncated_gaussian", 34)])
def test_redraws_reach_the_report_not_the_netlist(distribution, redraws):
    # counts as reported before the redraw count stopped travelling in Netlist.meta
    net = parse_netlist(POT)
    cfg = ToleranceConfig(max_relative_error=0.3, iterations=40, distribution=distribution)
    report = stability_run(net, cfg, SimConfig(dt=0.1, t_end=1.0))
    assert report.redraws == redraws == sum(_perturb(net, cfg, i)[1] for i in range(40))
    assert f"redraws: {redraws}\n" in report.summary_text()
    for i in range(40):
        pert = perturb(net, cfg, i)
        assert "_redraws" not in pert.to_text() and pert.meta == net.meta


def test_oversize_sweep_is_rejected_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew an iteration of a run over the record cap")

    monkeypatch.setattr(tolerance, "_draw", no_draws)
    cfg = ToleranceConfig(iterations=10**8)       # 4001 x 1 x (10^8 + 1) x 8 bytes: 3.2 TB
    with pytest.raises(ValueError, match="GiB cap"):
        stability_run(parse_netlist(GROWTH), cfg, SimConfig(dt=1e-3, t_end=4.0))
    # the cap counts the nominal lane: 10 steps x 1 channel x (1 + 4) runs fits 440 bytes exactly
    monkeypatch.setattr(waveform, "MAX_RECORD_BYTES", 11 * 5 * 8)
    with pytest.raises(ValueError, match="11 samples x 1 channel\\(s\\) x 6 run"):
        stability_run(parse_netlist(GROWTH), ToleranceConfig(iterations=5), SimConfig(dt=0.1, t_end=1.0))


def _scalar_draws(net, cfg, i):
    """Iteration ``i``'s component values drawn one at a time, each redrawn until its rule holds."""
    rng = np.random.default_rng([cfg.master_seed, i])
    eps, out, redraws = cfg.max_relative_error, [], 0
    for eid in sorted(net.elements):
        pot = net.elements[eid].KIND == "pot"
        for v in _drawn_values(SimpleNamespace(elements={eid: net.elements[eid]})):
            while True:
                if cfg.distribution == "uniform":
                    d = float(rng.uniform(-eps, eps))
                else:
                    d = float(np.clip(rng.normal(0.0, eps / 3.0), -eps, eps))
                x = v * (1.0 + d)
                if not pot or 0.0 < x < 1.0:
                    break
                redraws += 1
            out.append(x)
    return out, redraws


@pytest.mark.parametrize("distribution", ["uniform", "truncated_gaussian"])
def test_redrawn_values_follow_the_scalar_draw_sequence(distribution):
    # a redraw takes the next draw, and every later value the draws after it
    net = parse_netlist(EVERY_DRAW)
    cfg = ToleranceConfig(max_relative_error=0.3, distribution=distribution)
    total = 0
    for i in range(40):
        values, redraws = _scalar_draws(net, cfg, i)
        pert, n = _perturb(net, cfg, i)
        assert (_drawn_values(pert), n) == (values, redraws)
        total += n
    assert total > 0


# Every drawable kind; an input-less integrator, whose slope is the constant
# 0.0; a potentiometer that draws push past 1, so that iterations redraw,
# second in draw order, so that a redraw shifts the draws of the rest.
EVERY_DRAW = """
memintegrator m1 out=v C=1.5 ic=1 g="1 + 0.1*omega" f="0.3*v - 2" omega0=0.2 in=w
adder a1 out=s in=d:1.5 in=v:-0.25
mul x1 out=y in=v in=w
integrator i1 out=w C=2 ic=0.5 in=s:4 in=d:3
integrator i2 out=q C=3 ic=-1
pot b1 out=z in=y alpha=0.99
fgen f1 out=d expr="sin(2*t) + 0.5"
output z
"""


@pytest.mark.parametrize("distribution", ["uniform", "truncated_gaussian"])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.9])
def test_sweep_columns_are_each_perturbed_lowering(monkeypatch, distribution, eps):
    # The sweep lowers one netlist whose component values are lane columns;
    # column i + 1 is iteration i's own netlist lowered alone, bit for bit.
    net = parse_netlist(EVERY_DRAW)
    cfg = ToleranceConfig(max_relative_error=eps, iterations=30, distribution=distribution)
    seen, run_batch = [], tolerance._run_batch
    monkeypatch.setattr(tolerance, "_run_batch", lambda *args: seen.append(args) or run_batch(*args))
    report = stability_run(net, cfg, SimConfig(dt=0.1, t_end=0.2))
    _, consts, y0, _ = seen[0]
    systems = [lower(net)] + [lower(perturb(net, cfg, i)) for i in range(cfg.iterations)]
    assert consts.shape == (len(systems[0].program.consts), 1 + cfg.iterations)
    assert y0.shape == (systems[0].n_states, 1 + cfg.iterations)
    for j, system in enumerate(systems):
        assert consts[:, j].tobytes() == system.program.consts.tobytes()
        assert y0[:, j].tobytes() == system.y0().tobytes()
    assert report.redraws == sum(_perturb(net, cfg, i)[1] for i in range(cfg.iterations))
    assert (report.redraws > 0) == (eps > 0.0)


def test_drawn_initial_state_that_overflows_names_its_iteration():
    # the sweep checks every set's values against the element rules before
    # lowering them together; an initial state's rule is finiteness
    net = parse_netlist("integrator i1 out=y C=1 ic=1.7e308 in=y:1\noutput y\n")
    cfg = ToleranceConfig(max_relative_error=0.5, iterations=6)
    first = next(i for i in range(6) if perturb(net, cfg, i).elements["i1"].ic == np.inf)
    with pytest.raises(ValueError) as err:
        stability_run(net, cfg, SimConfig(dt=0.1, t_end=1.0))
    assert str(err.value) == (f"iteration {first}: a drawn component value broke an element invariant:\n"
                              "[element-invariant] i1: non-finite initial condition")


def test_output_transform_not_perturbed():
    net = parse_netlist(
        'integrator int1 out=v C=1 ic=1 in=v:1\noutput v transform="ln(v)"\n'
    )
    pert = perturb(net, ToleranceConfig(), 0)
    assert pert.output_transform == net.output_transform


def test_stability_report_shape_and_determinism():
    net = population_netlist()
    cfg = ToleranceConfig(iterations=10)
    sim = SimConfig(dt=5e-3, t_end=1.0)
    a = stability_run(net, cfg, sim)
    b = stability_run(net, cfg, sim)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.p10, b.p10)
    assert len(a.mean) == sim.n_steps + 1
    assert np.all(a.p10 <= a.mean + 1e-15)
    assert np.all(a.mean <= a.p90 + 0.5)  # mean can exceed p90 only under heavy skew
    assert a.failed == ()
    assert a.mean[0] > 0.0  # initial-condition perturbation shows at t=0


def _transformed(rec, ok_cols, transform, dt):
    """The output column of the completed sets, through the readout transform."""
    out = rec[:, 0, ok_cols]
    if transform is None:
        return out
    t = dt * np.arange(len(out))[:, None]
    return eval_expr_array_clamped(transform, {"v": out, "t": t}, solver.LN_FLOOR)[0]


def test_batch_runner_matches_one_simulate_per_set():
    # The lane march's waveforms equal the scalar kernel's bit for bit.
    # The growth circuit loses some iterations to blow-up.
    cases = [(population_netlist(), SimConfig(dt=5e-3, t_end=1.0), set()),
             (parse_netlist(GROWTH), SimConfig(dt=2e-2, t_end=26.0), {"blow-up"})]
    cfg = ToleranceConfig(iterations=12, master_seed=5)
    for net, sim, kinds in cases:
        systems = [lower(net)] + [lower(perturb(net, cfg, i)) for i in range(cfg.iterations)]
        consts = np.stack([s.program.consts for s in systems], axis=1)
        y0 = np.stack([s.y0() for s in systems], axis=1)
        rec, ok_cols, failures, _ = _run_batch(systems[0], consts, y0, sim)
        assert {kind for kind, _ in failures.values()} == kinds
        expected, columns = {}, []
        for i, sys in enumerate(systems):
            try:
                res = simulate(sys, sim, backend="numpy")
            except SimulationError as exc:
                expected[i] = ("domain error", exc.step)
                continue
            if res.blown_up:
                expected[i] = ("blow-up", res.blowup_step)
            else:
                columns.append(res.waveform.channel("out"))
        assert failures == expected
        assert ok_cols == [i for i in range(len(systems)) if i not in expected]
        out = _transformed(rec, ok_cols, net.output_transform, sim.dt)
        assert np.array_equal(out, np.stack(columns, axis=1))


def test_simulate_records_the_bits_of_the_sweeps_nominal_lane():
    # the turbulent tape squares through pow, in the march and in a stage-time table
    sys = lower(compile_equation(load_equation_spec(
        Path(__file__).parent.parent / "equations" / "turbulent_diffusion.eq")))
    assert engine.OP_POW in sys.program.code[:, 0]
    sim = SimConfig(dt=1e-3, t_end=4.0, record_channels=(sys.output_node,))
    raw = simulate(sys, sim).waveform.channel(sys.output_node)   # before the output transform
    for width in (1, 2):
        consts = np.repeat(sys.program.consts[:, None], width, axis=1)
        y0 = np.repeat(sys.y0()[:, None], width, axis=1)
        rec, ok_cols, _, _ = _run_batch(sys, consts, y0, sim)
        assert ok_cols == list(range(width))
        assert rec[:, 0, 0].tobytes() == raw.tobytes()


@pytest.mark.parametrize("make_netlist, t_end, fails",
                         [(turbulent_netlist, 4.0, False), (lambda: parse_netlist(GROWTH), 26.0, True)],
                         ids=["turbulent", "growth"])
def test_chunked_reduction_equals_the_whole_matrix(monkeypatch, make_netlist, t_end, fails):
    # The reduction runs over chunks of rows; every row's statistics are its
    # own, so they equal one reduction over the whole record, bit for bit,
    # when each chunk is reduced C-ordered as the whole matrix is here.
    net = make_netlist()
    cfg = ToleranceConfig(iterations=20, master_seed=5)
    runs = []
    run_batch = tolerance._run_batch
    monkeypatch.setattr(tolerance, "_run_batch", lambda *args: runs.append(run_batch(*args)) or runs[-1])
    chunk = tolerance._REDUCE_ROWS
    for n_steps in (0, chunk - 2, chunk - 1, chunk, 2 * chunk + 2):
        # SimConfig needs dt < t_end; a one-sample record takes a bare grid
        sim = SimConfig(dt=t_end / n_steps, t_end=t_end) if n_steps else SimpleNamespace(dt=0.1, n_steps=0)
        rep = stability_run(net, cfg, sim)
        rec, ok_cols, failures, _ = runs[-1]
        assert rec.shape == (n_steps + 1, 1, cfg.iterations + 1)
        assert bool(failures) == (fails and n_steps > 0)
        out = np.ascontiguousarray(_transformed(rec, ok_cols, net.output_transform, sim.dt))
        ref = out[:, 0]
        rel = np.abs(out[:, 1:] - ref[:, None]) / np.maximum(np.abs(ref), solver.REL_ERR_EPS)[:, None]
        p10, p90 = np.percentile(rel, [10.0, 90.0], axis=1)
        for got, want in ((rep.mean, rel.mean(axis=1)), (rep.p10, p10), (rep.p90, p90)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 2, 3, 11, 100])
def test_sorted_percentiles_equal_numpys(width):
    # Seeded rows with ties, zeros, infinities and NaN, and whole rows of
    # each (and of -0.0): over the sorted rows the helper is np.percentile's
    # linear method, bit for bit, NaN where a row holds one (inf - inf is NaN
    # in both).
    rng = np.random.default_rng(width)
    x = rng.standard_exponential((64, width))
    x[::3] = np.round(x[::3], 1)
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.05] = np.inf
    x[rng.random(x.shape) < 0.03] = np.nan
    x[:4] = np.array([0.0, -0.0, np.inf, np.nan])[:, None]
    x[4, 0] = np.nan
    with np.errstate(invalid="ignore"):
        want = np.percentile(x, [10.0, 90.0], axis=1)
        x.sort(axis=1)
        got = [tolerance._sorted_percentile(x, q) for q in (10.0, 90.0)]
    assert np.array_equal(got, want, equal_nan=True) and np.array(got).tobytes() == want.tobytes()
    assert np.isfinite(want).any() and np.isnan(want).any()


EQUATIONS = Path(__file__).parent.parent / "equations"


def test_sweep_leaves_numpy_ma_unimported():
    # np.percentile imports numpy.ma (through np.unique) on its first call; the
    # reduction sorts and interpolates instead, in a fresh interpreter too.
    code = ("import sys\n"
            "from memsolve.compiler import compile_equation, load_equation_spec\n"
            "from memsolve.solver import SimConfig\n"
            "from memsolve.tolerance import ToleranceConfig, stability_run\n"
            f"net = compile_equation(load_equation_spec({str(EQUATIONS / 'population_growth.eq')!r}))\n"
            "stability_run(net, ToleranceConfig(iterations=10), SimConfig(dt=0.1, t_end=1.0))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(tolerance.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
    calls = {node.func.attr for node in ast.walk(ast.parse(Path(tolerance.__file__).read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not calls & {"percentile", "quantile", "nanpercentile", "nanquantile"}


def _sweep_peaks(net, iterations, sim, monkeypatch):
    """tracemalloc peaks of a warm ``stability_run`` above its start, less its
    record: over the whole run, and up to the start of the lane march."""
    kernel, seen = engine.rk4_run_batch, {}

    def measured(*args):
        seen["prepared"] = tracemalloc.get_traced_memory()[1]
        return kernel(*args)

    monkeypatch.setattr(engine, "rk4_run_batch", measured)
    cfg = ToleranceConfig(iterations=iterations)
    stability_run(net, cfg, sim)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stability_run(net, cfg, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = (sim.n_steps + 1) * (iterations + 1) * 8
    return peak - start - record, seen["prepared"] - start - record


@pytest.mark.parametrize("make_netlist", [population_netlist, turbulent_netlist],
                         ids=["population", "turbulent"])
def test_sweep_memory_per_iteration_is_a_column(monkeypatch, make_netlist):
    # A parameter set costs a column of constants and initial states, not a
    # netlist and a lowered system.  Measured up to the lane march, whose
    # stage-time tables, like the reduction's chunk, are (min(steps, 256) x W).
    sim = SimConfig(dt=1e-2, t_end=0.5)
    few, many = (_sweep_peaks(make_netlist(), n, sim, monkeypatch)[1] for n in (20, 400))
    assert (many - few) / 380 < 1024


def test_sweep_memory_beyond_the_record_does_not_grow_with_the_horizon(monkeypatch):
    # Turbulent's readout transform runs over chunks of rows with the
    # statistics; only the report's four series grow with the horizon.
    net = turbulent_netlist()
    near, far = (_sweep_peaks(net, 100, SimConfig(dt=1e-3, t_end=t_end), monkeypatch)[0]
                 for t_end in (1.0, 4.0))
    assert far - near < 4 * 8 * 3000


def test_blown_iterations_are_excluded_and_flagged():
    # Nominal growth e^t stays below the blow-up limit over the horizon;
    # rate draws above ~+4.7% cross it and must be excluded.
    net = parse_netlist(GROWTH)
    cfg = ToleranceConfig(iterations=20, master_seed=5)
    rep = stability_run(net, cfg, SimConfig(dt=2e-2, t_end=26.0))
    assert 0 < len(rep.failed) < 20
    assert np.all(np.isfinite(rep.mean))
    assert rep.unstable == (len(rep.failed) > 4)
    assert rep.failed == tuple(i for i, *_ in rep.failures)
    text = rep.summary_text()
    for i, kind, step, t in rep.failures:
        assert kind == "blow-up" and 0 < step <= 1300 and t == step * 2e-2
        assert f"  iteration {i}: blow-up at step {step} (t={t:g})\n" in text


def test_monotone_tolerance_response():
    net = population_netlist()
    sim = SimConfig(dt=1e-3, t_end=5.0)
    five = stability_run(net, ToleranceConfig(max_relative_error=0.05), sim)
    ten = stability_run(net, ToleranceConfig(max_relative_error=0.10), sim)
    assert five.terminal_mean <= ten.terminal_mean


def test_report_csv_and_summary(tmp_path):
    net = population_netlist()
    rep = stability_run(net, ToleranceConfig(iterations=5), SimConfig(dt=1e-2, t_end=0.5))
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_rel_err,p10,p90"
    assert len(lines) == 52
    text = rep.summary_text()
    assert "failed_iterations: 0" in text
    assert "master_seed: 12345" in text


def test_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(max_relative_error=1.5)
    with pytest.raises(ValueError):
        ToleranceConfig(iterations=0)
    with pytest.raises(ValueError):
        ToleranceConfig(distribution="cauchy")
    for seed in (-1, 2**64, 99999999999999999999999):
        with pytest.raises(ValueError, match="master_seed must be a non-negative 64-bit integer"):
            ToleranceConfig(master_seed=seed)
    assert ToleranceConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


@pytest.mark.parametrize(
    "src, t_end, kind",
    [('memintegrator m out=v C=1 ic=1 g="-3" f="v" omega0=0\noutput v\n', 10.0, "blow-up"),
     ('fgen f out=a expr="sqrt(1 - t)"\nintegrator i out=v C=1 ic=0 in=a:1\noutput v\n',
      2.0, "domain error")],
    ids=["blowup", "domain"],
)
def test_failing_nominal_circuit_is_an_input_error(src, t_end, kind):
    with pytest.raises(ValueError, match=f"nominal circuit fails \\({kind} at step \\d+\\)"):
        stability_run(parse_netlist(src), ToleranceConfig(iterations=4),
                      SimConfig(dt=1e-2, t_end=t_end))


# A turbulent equation whose integrating factor has no closed form: the
# compiler fits it, and the sweep draws every coefficient of the fit.  Kept
# here, not under equations/, which the benchmark reads.
FITTED_TURBULENT = """\
family = turbulent
p = "0.152*exp(-t^2)"
k1 = "exp(-t)"
k2 = "exp(-s)"
u0 = 1
alpha_horizon = 4
"""


def test_readout_transform_failure_names_its_iteration(tmp_path, capsys):
    # a lane completes the march, but its readout transform goes non-finite
    from memsolve.cli import main

    (tmp_path / "fit.eq").write_text(FITTED_TURBULENT)
    net, csv = str(tmp_path / "fit.net"), str(tmp_path / "fit.csv")
    assert main(["compile", str(tmp_path / "fit.eq"), "-o", net, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["stability", net, "--tolerance", "0.1", "--iterations", "100", "--seed", "12345",
                 "--dt", "1e-3", "--t-end", "4", "-o", csv, "--quiet"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "iteration 29: the output transform fails at step 3962 (t=3.962): non-finite result"
    assert not Path(csv).exists()
    # that iteration alone: its run to the step before reads out, to that step it does not
    drawn = perturb(load_netlist(net), ToleranceConfig(max_relative_error=0.1, master_seed=12345), 29)
    simulate(lower(drawn), SimConfig(dt=1e-3, t_end=3.961))
    with pytest.raises(DomainError, match="non-finite result"):
        simulate(lower(drawn), SimConfig(dt=1e-3, t_end=3.962))


def test_sweep_counts_its_readouts_ln_clamps_as_simulate_does():
    # x = exp(-t) falls below 0.5 at t = ln 2: the readout's ln clamps on the last 131 samples
    net = parse_netlist('integrator i1 out=x C=1 ic=1 in=x:1\noutput x transform="ln(v - 0.5)"\n')
    sim = SimConfig(dt=1e-2, t_end=2)
    assert simulate(lower(net), sim).ln_clamps == 131
    report = stability_run(net, ToleranceConfig(max_relative_error=0.0, iterations=4), sim)
    assert report.ln_clamps == 5 * 131       # four identical iterations and the nominal lane
