"""Element semantics, checked on the lowered tape the engine executes.

Also covered elsewhere: an adder feeding a multiplier and a
potentiometer in ``test_solver.py::test_memoryless_elements_evaluate_exactly``;
a negative memductance setting the passivity flag in
``test_solver.py::test_memintegrator_passivity_flags_and_omega_channel``;
``ln`` clamping inside a memristor in ``test_solver.py::test_ln_clamp_is_counted``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsolve.elements import (
    Adder,
    Integrator,
    MemIntegrator,
    Multiplier,
    Potentiometer,
    element_problems,
)
from memsolve.exprs import format_number, parse_expr
from memsolve.netlist import lower, parse_netlist
from memsolve.solver import SimConfig, SimulationError, simulate

SOURCES = 'fgen fa out=a expr="sin(3*t)"\nfgen fb out=b expr="1 + t"\n'


def g_expr(src):
    return parse_expr(src, {"t", "v", "omega"})


def run(text, dt=0.1, t_end=2.0, channels=()):
    return simulate(lower(parse_netlist(text)),
                    SimConfig(dt=dt, t_end=t_end, record_channels=channels))


def adder_out(gains, nodes=("a", "b", "a")):
    ins = " ".join(f"in={n}:{format_number(k)}" for n, k in zip(nodes, gains))
    wf = run(f"{SOURCES}adder sum out=s {ins}\noutput s\n", channels=("a", "b")).waveform
    return wf, wf.channel("out")


def test_adder_examples():
    wf, out = adder_out([1.0])                      # sign inverter
    assert np.array_equal(out, -wf.channel("a"))
    _, out = adder_out([3.7, -3.7], ("a", "a"))
    assert np.all(out == 0.0)
    wf, out = adder_out([2.0, 0.5])
    assert np.array_equal(out, -(2.0 * wf.channel("a") + 0.5 * wf.channel("b")))


def test_adder_length_mismatch():
    assert element_problems(Adder(gains=(1.0, 2.0), inputs=("a",))) != []
    assert element_problems(Adder(gains=(), inputs=())) != []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
def test_adder_is_linear(gains):
    """out = -sum(K_i * in_i), in the tape's own order of operations."""
    nodes = ("a", "b", "a")[: len(gains)]
    wf, out = adder_out(gains, nodes)
    acc = gains[0] * wf.channel(nodes[0])
    for n, k in zip(nodes[1:], gains[1:]):
        acc = acc + k * wf.channel(n)
    assert np.array_equal(out, -acc)


def integrator_ramp(c, ic=0.25):
    """Integrator fed constants 1.5 (R=0.5) and -2 (R=4): slope -(1/C) * sum(u_i / R_i)."""
    res = run(f'fgen f1 out=u expr="1.5"\nfgen f2 out=w expr="-2"\n'
              f"integrator i1 out=y C={c!r} ic={ic!r} in=u:0.5 in=w:4\noutput y\n")
    return res.waveform.t, res.waveform.channel("out")


def test_integrator_rhs_examples():
    t, y = integrator_ramp(1.0)
    np.testing.assert_allclose(y, 0.25 - 2.5 * t, rtol=0.0, atol=1e-12)
    res = run('fgen f1 out=u expr="0"\nintegrator i1 out=y C=1 ic=0.5 in=u:1\noutput y\n')
    assert np.all(res.waveform.channel("out") == 0.5)


def test_integrator_rhs_scales_inversely_with_capacitance():
    t, base = integrator_ramp(1.0, ic=0.0)
    _, half = integrator_ramp(2.0, ic=0.0)
    np.testing.assert_allclose(half, base / 2.0, rtol=1e-12, atol=1e-15)


def test_integrator_rhs_rejects_nonpositive():
    assert element_problems(Integrator(c=0.0, ic=0.0, inputs=("a",), resistances=(1.0,))) != []
    assert element_problems(Integrator(c=1.0, ic=0.0, inputs=("a",), resistances=(-1.0,))) != []
    assert element_problems(Integrator(c=1.0, ic=0.0, inputs=("a",), resistances=(1.0,))) == []


def test_memristor_current_examples():
    # g(0, 1, 0) = -1.999: the current -1.999 drives out upward, and the sample is flagged
    res = run('memintegrator m out=v C=1 ic=1 g="-2 + 0.001*v + exp(-t)*omega" f="v" '
              "omega0=0\noutput v\n", dt=1e-6, t_end=2e-6)
    v = res.waveform.channel("out")
    assert (v[1] - v[0]) / 1e-6 == pytest.approx(1.999, rel=1e-5)
    assert res.passivity_flags[0] == 1
    # g = 1: d(out)/dt = -(1/C) * out, a passive decay with no flags
    res = run('memintegrator m out=v C=2 ic=0.3 g="1" f="v" omega0=0\noutput v\n',
              dt=1e-2, t_end=1.0)
    assert res.waveform.channel("out")[-1] == pytest.approx(0.3 * np.exp(-0.5), rel=1e-9)
    assert res.passivity_steps == 0


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(0.5, 2))
def test_memristor_current_vanishes_at_zero_voltage(omega0, c):
    res = run(f'memintegrator m out=v C={c!r} ic=0 g="-2 + 0.001*v + exp(-t)*omega" f="1" '
              f"omega0={omega0!r}\noutput v\n", channels=("omega:m",))
    assert np.all(res.waveform.channel("out") == 0.0)
    assert res.waveform.channel("omega:m")[-1] != omega0


def test_memristor_state_rhs_examples():
    # f = v: the state integrates the memristor's input voltage
    res = run('fgen s out=u expr="0.7"\n'
              'memintegrator m out=v C=1 ic=0 g="1" f="v" omega0=0.2 in=u\noutput v\n',
              channels=("omega:m",))
    t = res.waveform.t
    np.testing.assert_allclose(res.waveform.channel("omega:m"), 0.2 + 0.7 * t, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.waveform.channel("out"), -0.7 * t, rtol=0.0, atol=1e-12)


def test_memristor_domain_error_propagates():
    with pytest.raises(SimulationError) as exc:
        run('memintegrator m out=v C=1 ic=1 g="sqrt(v - 2)" f="v" omega0=0\noutput v\n')
    assert exc.value.step == 0


def test_element_problems():
    assert element_problems(Potentiometer(alpha=1.5, input="a")) != []
    assert element_problems(Potentiometer(alpha=0.5, input="a")) == []
    assert element_problems(Multiplier(inputs=("a",))) != []
    assert element_problems(Adder(gains=(), inputs=())) != []
    bad_g = parse_expr("s", {"s"})
    mi = MemIntegrator(c=1.0, ic=0.0, g=bad_g, f=g_expr("v"), omega0=0.0)
    assert any("memristor g" in p for p in element_problems(mi))


def test_diagnostics_format_numpy_values_as_floats():
    nan, inf = np.float64("nan"), np.float64("inf")
    assert element_problems(Integrator(c=np.float64(0.0), ic=inf, inputs=("a",), resistances=(np.float64(-1.0),))) == [
        "capacitance must be positive, got 0.0",
        "input resistance must be positive, got -1.0",
        "non-finite initial condition",
    ]
    assert element_problems(Adder(gains=(nan,), inputs=("a",))) == ["non-finite adder gain nan"]
    assert element_problems(Potentiometer(alpha=np.float64(1.5), input="a")) == [
        "potentiometer alpha must satisfy 0 < alpha < 1, got 1.5"
    ]


def test_diagnostics_for_python_floats_keep_their_text_and_order():
    assert element_problems(Integrator(c=-2.0, ic=float("nan"), inputs=("a", "b"), resistances=(0.0,))) == [
        "capacitance must be positive, got -2.0",
        "integrator resistance/input arity mismatch",
        "input resistance must be positive, got 0.0",
        "non-finite initial condition",
    ]
    assert element_problems(Adder(gains=(float("inf"),), inputs=())) == [
        "adder has no inputs", "adder gain/input arity mismatch", "non-finite adder gain inf",
    ]
    # a non-finite ic and omega0 are one problem, after the expression scopes
    mi = MemIntegrator(c=float("inf"), ic=float("inf"), g=parse_expr("s", {"s"}), f=g_expr("v"),
                       omega0=float("nan"))
    assert element_problems(mi) == [
        "capacitance must be positive, got inf",
        "memristor g uses ['s'], allowed variables are t, v, omega",
        "non-finite initial condition",
    ]
    assert element_problems(Multiplier(inputs=("a", "b", "c"))) == ["multiplier needs exactly 2 inputs, got 3"]
