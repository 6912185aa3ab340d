import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import memsolve.waveform as waveform
from memsolve import engine
from memsolve.compiler import compile_equation, load_equation_spec, parse_equation_spec
from memsolve.netlist import lower, parse_netlist
from memsolve.solver import SimConfig, SimulationError, relative_error, simulate
from memsolve.tolerance import ToleranceConfig, stability_run
from memsolve.waveform import GridMismatchError, Waveform

from conftest import fig2_closed_form

EQUATIONS = Path(__file__).parent.parent / "equations"

DECAY = """
integrator int1 out=v C=1 ic=1 in=v:1
output v
"""


def test_exponential_decay_matches_closed_form():
    sys = lower(parse_netlist(DECAY))
    res = simulate(sys, SimConfig(dt=0.01, t_end=1.0))
    wf = res.waveform
    assert wf.channel("out")[-1] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert res.passivity_steps == 0
    assert res.ln_clamps == 0
    assert not res.blown_up


def test_fig2_matches_characteristic_roots(fig2_netlist):
    sys = lower(fig2_netlist)
    res = simulate(sys, SimConfig(dt=1e-3, t_end=1.0))
    y = res.waveform.channel("out")
    assert abs(y[-1] - fig2_closed_form(1.0)) < 1e-6


def test_zero_state_no_source_stays_zero(fig2_netlist):
    text = fig2_netlist.to_text().replace("ic=1", "ic=0")
    sys = lower(parse_netlist(text))
    res = simulate(sys, SimConfig(dt=0.01, t_end=2.0))
    assert np.all(res.waveform.data == 0.0)


def test_rk4_convergence_order(fig2_netlist):
    sys = lower(fig2_netlist)

    def max_err(dt):
        wf = simulate(sys, SimConfig(dt=dt, t_end=5.0)).waveform
        return np.max(np.abs(wf.channel("out") - fig2_closed_form(wf.t)))

    ratio = max_err(2e-3) / max_err(1e-3)
    assert 12.0 <= ratio <= 20.0


def test_linearity_in_initial_conditions(fig2_netlist):
    base = simulate(lower(fig2_netlist), SimConfig(dt=1e-2, t_end=3.0)).waveform
    scaled_text = fig2_netlist.to_text().replace("ic=1", "ic=2.5")
    scaled = simulate(lower(parse_netlist(scaled_text)), SimConfig(dt=1e-2, t_end=3.0)).waveform
    assert np.allclose(scaled.channel("out"), 2.5 * base.channel("out"), rtol=1e-9, atol=1e-12)


def test_determinism_bit_identical(fig2_netlist):
    sys = lower(fig2_netlist)
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    a = simulate(sys, cfg).waveform
    b = simulate(sys, cfg).waveform
    assert np.array_equal(a.data, b.data)


def test_memintegrator_passivity_flags_and_omega_channel():
    net = parse_netlist(
        'memintegrator mem1 out=v C=1 ic=1 g="-2 + 0.001*v + exp(-t)*omega" '
        'f="exp(t)*t/(1+t)*v" omega0=0\noutput v\n'
    )
    sys = lower(net)
    res = simulate(sys, SimConfig(dt=1e-3, t_end=1.0, record_channels=("v", "omega:mem1")))
    assert res.passivity_steps > 0
    assert res.passivity_flags[0] == 1  # g(0, 1, 0) = -1.999
    omega = res.waveform.channel("omega:mem1")
    assert omega[0] == 0.0
    assert omega[-1] > 0.0
    # raw node channel equals untransformed output here (no transform declared)
    assert np.array_equal(res.waveform.channel("v"), res.waveform.channel("out"))


def test_blowup_truncates_and_reports():
    net = parse_netlist('memintegrator m out=v C=1 ic=1 g="-3" f="v" omega0=0\noutput v\n')
    res = simulate(lower(net), SimConfig(dt=0.01, t_end=10.0))
    assert res.blown_up
    assert len(res.waveform) < 1001
    expected_step = res.blowup_step
    assert len(res.waveform) == expected_step  # samples 0..step-1 kept
    assert np.all(np.abs(res.waveform.channel("out")) <= 1e12)
    assert res.waveform.meta["blowup_step"] == expected_step


def test_domain_error_aborts_with_snapshot():
    net = parse_netlist('memintegrator m out=v C=1 ic=1 g="1/omega" f="v" omega0=0\noutput v\n')
    with pytest.raises(SimulationError) as exc:
        simulate(lower(net), SimConfig(dt=0.01, t_end=1.0))
    assert exc.value.step == 0
    assert "omega:m" in exc.value.snapshot


def test_domain_error_raises_without_numpy_warnings():
    # (t - 0.5)^0.5 takes a fractional power of a negative base at t=0.
    net = parse_netlist(
        'fgen f out=a expr="(t - 0.5)^0.5"\nintegrator i out=v C=1 ic=0 in=a:1\noutput v\n'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as exc:
            simulate(lower(net), SimConfig(dt=0.01, t_end=1.0))
    assert exc.value.step == 0


@pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.7, 1.0), (0.0, 1.0), (1.0, 1.0), (0.1, math.inf)])
def test_sim_config_rejects_off_grid_horizon(dt, t_end):
    with pytest.raises(ValueError):
        SimConfig(dt=dt, t_end=t_end)


def test_ln_clamp_is_counted():
    net = parse_netlist('memintegrator m out=v C=1 ic=1 g="1" f="ln(v)" omega0=0\noutput v\n')
    res = simulate(lower(net), SimConfig(dt=0.01, t_end=25.0))
    assert res.ln_clamps > 0
    short = simulate(lower(net), SimConfig(dt=0.01, t_end=1.0))
    assert short.ln_clamps == 0


def test_output_transform_applied_and_clamped():
    net = parse_netlist(
        'integrator int1 out=v C=1 ic=1 in=v:1\noutput v transform="ln(v)"\n'
    )
    sys = lower(net)
    res = simulate(sys, SimConfig(dt=0.01, t_end=2.0))
    # v = exp(-t) so out = ln(v) = -t
    assert np.allclose(res.waveform.channel("out"), -res.waveform.t, atol=1e-8)
    assert res.ln_clamps == 0


def test_memoryless_elements_evaluate_exactly():
    net = parse_netlist(
        """
        fgen f1 out=sig expr="sin(2*t)"
        pot p1 out=scaled in=sig alpha=0.8
        adder a1 out=mix in=sig:2 in=scaled:1
        mul m1 out=sq in=mix in=mix
        output sq
        """
    )
    res = simulate(lower(net), SimConfig(dt=1e-3, t_end=2.0, record_channels=("scaled", "mix")))
    t = res.waveform.t
    sig = np.sin(2 * t)
    assert np.allclose(res.waveform.channel("scaled"), 0.8 * sig, atol=1e-14)
    assert np.allclose(res.waveform.channel("mix"), -2.8 * sig, atol=1e-14)
    assert np.allclose(res.waveform.channel("out"), (2.8 * sig) ** 2, atol=1e-13)


def test_relative_error_examples():
    base = Waveform(t0=0.0, dt=0.1, names=("out",), data=np.linspace(1, 2, 11)[:, None])
    same = relative_error(base, base, "out")
    assert np.all(same.channel("rel_err") == 0.0)

    scaled = Waveform(t0=0.0, dt=0.1, names=("out",), data=1.1 * base.data)
    rel = relative_error(scaled, base, "out")
    assert np.allclose(rel.channel("rel_err"), 0.1, atol=1e-12)

    with_zero = Waveform(t0=0.0, dt=0.1, names=("out",), data=base.data.copy())
    with_zero.data[3, 0] = 0.0
    guarded = relative_error(base, with_zero, "out")
    assert guarded.meta["eps_guarded"] == 1
    assert np.all(np.isfinite(guarded.channel("rel_err")))

    other = Waveform(t0=0.0, dt=0.2, names=("out",), data=base.data.copy())
    with pytest.raises(GridMismatchError):
        relative_error(base, other, "out")


def test_waveform_csv_round_trip(tmp_path, fig2_netlist):
    wf = simulate(lower(fig2_netlist), SimConfig(dt=0.01, t_end=1.0)).waveform
    path = tmp_path / "wave.csv"
    wf.to_csv(path)
    header, first = path.read_text().splitlines()[:2]
    assert header == "t,out"
    again = Waveform.from_csv(path)
    assert again.names == wf.names
    assert wf.same_grid(again)
    assert np.allclose(again.data, wf.data, rtol=1e-11, atol=1e-14)


def test_oversize_record_is_rejected_before_allocation(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("reached the kernel of a run over the record cap")

    sys = lower(parse_netlist(DECAY))
    monkeypatch.setattr("memsolve.backend.rk4_python", no_kernel)
    with pytest.raises(ValueError, match="GiB cap"):  # (4e9 + 1) samples x 8 bytes: 32 GB
        simulate(sys, SimConfig(dt=1e-9, t_end=4.0))
    # exactly at the cap runs; one channel more does not
    monkeypatch.undo()
    monkeypatch.setattr(waveform, "MAX_RECORD_BYTES", 11 * 2 * 8)
    assert len(simulate(sys, SimConfig(dt=0.1, t_end=1.0, record_channels=("v",))).waveform) == 11
    with pytest.raises(ValueError, match="11 samples x 3 channel"):
        simulate(sys, SimConfig(dt=0.1, t_end=1.0, record_channels=("v", "v")))


def test_oversize_stage_time_tables_are_rejected_before_they_are_built(monkeypatch):
    built = []
    march_for = engine._march_for

    def spied(*args):
        tables, march = march_for(*args)
        return (lambda *a: built.append(a) or tables(*a)), march

    monkeypatch.setattr(engine, "_march_for", spied)
    path = Path(__file__).parent.parent / "equations" / "population_growth.eq"
    sys = lower(compile_equation(load_equation_spec(path)))
    cfg = SimConfig(dt=0.1, t_end=1.0)
    # the grid and half-step tables of its 3 frontier registers, and the build's temporaries
    columns = 12
    # the record (11 samples x 1 channel) fits; the record and the tables do not
    monkeypatch.setattr(waveform, "MAX_RECORD_BYTES", 11 * (1 + columns) * 8 - 8)
    with pytest.raises(ValueError, match="GiB cap") as exc:
        simulate(sys, cfg)
    assert f"and tabulate {columns} column(s)" in str(exc.value)
    assert not built
    monkeypatch.setattr(waveform, "MAX_RECORD_BYTES", 11 * (1 + columns) * 8)
    assert len(simulate(sys, cfg).waveform) == 11
    assert len(built) == 2                       # the grid and the half-step tables


def test_output_transform_peak_does_not_grow_with_the_horizon():
    # the transform runs over chunks of samples in place in the record: beyond
    # the record and its passivity flags, a run holds a fixed allowance
    sys = lower(compile_equation(load_equation_spec(EQUATIONS / "log_linear.eq")))
    assert sys.output_transform is not None

    def beyond_record(n_steps):
        cfg = SimConfig(dt=4.0 / n_steps, t_end=4.0)
        simulate(sys, cfg)                          # warm: the march is generated on first use
        tracemalloc.start()
        try:
            simulate(sys, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (n_steps + 1) * 9             # float64 record, uint8 flags

    short, long = beyond_record(10000), beyond_record(40000)
    assert long < short + 0.05 * 8 * 40001          # a whole-grid temporary is 8 * 40001 bytes


FITTED_SPEC = """\
family = turbulent
p = "exp(-t^2)"
k1 = "1/2*exp(-t)"
k2 = "exp(-s)"
u0 = 1
alpha_horizon = 3
"""


def test_run_past_the_declared_horizon_is_rejected_before_any_kernel_or_draw(monkeypatch):
    # exp(-t^2) has no tabulated antiderivative, so alpha is a fit on [0, 3];
    # extrapolated to t = 8 it blows up near t = 4.7, which a sweep would
    # blame on the nominal circuit
    net = compile_equation(parse_equation_spec(FITTED_SPEC))
    assert net.valid_to == 3.0 and lower(net).valid_to == 3.0

    def never(*args):
        raise AssertionError("a run past the horizon reached a kernel or a draw")

    for name in ("memsolve.backend.rk4_python", "memsolve.engine.rk4_run_batch", "memsolve.tolerance._perturb"):
        monkeypatch.setattr(name, never)
    past = SimConfig(dt=1e-2, t_end=8.0)
    with pytest.raises(ValueError, match="t_end = 8 is past the netlist's horizon valid_to 3"):
        simulate(lower(net), past)
    with pytest.raises(ValueError, match="t_end = 8 is past the netlist's horizon valid_to 3"):
        stability_run(net, ToleranceConfig(iterations=5), past)
    monkeypatch.undo()
    up_to = SimConfig(dt=1e-2, t_end=3.0)
    assert not simulate(lower(net), up_to).blown_up
    assert stability_run(net, ToleranceConfig(iterations=5), up_to).iterations == 5
