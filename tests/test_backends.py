import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import memsolve.backend as backend
from memsolve import engine
from memsolve.elements import (
    Adder,
    FunctionGenerator,
    Integrator,
    MemIntegrator,
    Multiplier,
    Potentiometer,
)
from memsolve.compiler import compile_equation, load_equation_spec
from memsolve.exprs import Binary, Const, Unary, Var
from memsolve.netlist import Netlist, lower, parse_netlist
from memsolve.solver import SimConfig, SimulationError, simulate
from memsolve.tolerance import ToleranceConfig, perturb, stability_run
from memsolve.waveform import Waveform

from conftest import FIG2_NETLIST

MEM = """
memintegrator mem1 out=v C=1 ic=1 g="-2 + 0.001*v + exp(-t)*omega" f="exp(t)*t/(1+t)*v" omega0=0
output v
"""

SAMPLES = ("log_linear", "oscillator_chain", "population_growth", "second_order", "turbulent_diffusion")


def _sample(name):
    """The lowered circuit of the sample equation ``equations/<name>.eq``."""
    return lower(compile_equation(load_equation_spec(Path(__file__).parent.parent / "equations" / f"{name}.eq")))


def test_resolve_backend(monkeypatch):
    monkeypatch.delenv(backend.BACKEND_ENV, raising=False)
    assert backend.resolve_backend() == "numpy"
    assert backend.resolve_backend("numpy") == backend.resolve_backend("auto") == "numpy"
    for name in ("numpy", "auto", " Auto ", ""):
        monkeypatch.setenv(backend.BACKEND_ENV, name)
        assert backend.resolve_backend() == "numpy"
    # numba is rejected whether or not it is importable: no kernel uses it
    for have in (False, True):
        monkeypatch.setattr(backend, "HAVE_NUMBA", have)
        for name in ("numba", "sparkles"):
            monkeypatch.setenv(backend.BACKEND_ENV, name)
            with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
                backend.resolve_backend()
            with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
                simulate(lower(parse_netlist(FIG2_NETLIST)), SimConfig(dt=0.1, t_end=0.2),
                         backend=name)
    # an explicit argument wins over the environment
    assert backend.resolve_backend("numpy") == "numpy"


def test_simulate_does_not_read_the_environment(monkeypatch):
    # MEMSOLVE_BACKEND is the command line's setting; a library call checks only its argument
    monkeypatch.setenv(backend.BACKEND_ENV, "numba")
    sys = lower(parse_netlist(FIG2_NETLIST))
    assert len(simulate(sys, SimConfig(dt=0.1, t_end=0.2)).waveform) == 3
    with pytest.raises(ValueError, match="unknown backend 'numba'"):
        simulate(sys, SimConfig(dt=0.1, t_end=0.2), backend="numba")


# --- random valid netlists ---------------------------------------------------


def _expr(choose, real, names, depth):
    """Random expression over ``names``; ln, sqrt, div and pow sit near their domain edges.

    An edge's operand is sometimes over ``t`` alone, so that the guarded
    op lands in the part of the tape the marches read from stage-time
    tables.
    """
    if depth == 0 or choose((False, True, True)) is False:
        return Var(choose(names)) if choose((True, False)) else Const(real(-2.0, 2.0))
    kind = choose(("unary", "binary", "edge"))
    if kind == "edge":
        names = choose((names, ("t",)))
    sub = _expr(choose, real, names, depth - 1)
    if kind == "unary":
        return Unary(choose(("neg", "exp", "sin", "cos", "abs")), sub)
    if kind == "binary":
        return Binary(choose(("add", "sub", "mul")), sub, _expr(choose, real, names, depth - 1))
    # x - c with c near the typical size of x: crosses zero during a run
    near_edge = Binary("sub", sub, Const(real(-0.1, 1.0)))
    op = choose(("ln", "sqrt", "div", "pow_const", "pow"))
    if op in ("ln", "sqrt"):
        return Unary(op, near_edge)
    if op == "div":
        return Binary("div", Const(real(-1.0, 1.0)), near_edge)
    if op == "pow_const":
        return Binary("pow", near_edge, Const(choose((2.0, 0.5, -1.0, 1.5, 3.0))))
    return Binary("pow", Unary("abs", sub), Binary("mul", Const(0.5), Var(choose(names))))


def build_netlist(choose, integer, real) -> Netlist:
    """A valid netlist: memoryless elements read only state outputs and earlier nodes."""
    net = Netlist()
    states = [f"x{i}" for i in range(integer(0, 2))] + [f"m{j}" for j in range(integer(0, 2))]
    n_memoryless = integer(0 if states else 1, 3)
    all_nodes = states + [f"n{k}" for k in range(n_memoryless)]
    mem_vars = ("t", "v", "omega")
    for name in states:
        if name.startswith("x"):
            inputs = tuple(choose(all_nodes) for _ in range(integer(0, 2)))
            net.add(f"int_{name}", Integrator(
                c=real(0.5, 2.0), ic=real(-1.0, 1.0), inputs=inputs,
                resistances=tuple(real(0.5, 2.0) for _ in inputs)), name)
        else:
            net.add(f"mem_{name}", MemIntegrator(
                c=real(0.5, 2.0), ic=real(-1.0, 1.0), omega0=real(-1.0, 1.0),
                g=_expr(choose, real, mem_vars, 3), f=_expr(choose, real, mem_vars, 3),
                input=choose((None,) + tuple(all_nodes))), name)
    for k in range(n_memoryless):
        sources = states + [f"n{i}" for i in range(k)]
        kind = choose(("fgen", "pot", "adder", "mul")) if sources else "fgen"
        if kind == "fgen":
            elem = FunctionGenerator(signal=_expr(choose, real, ("t",), 3))
        elif kind == "pot":
            elem = Potentiometer(alpha=real(0.05, 0.95), input=choose(sources))
        elif kind == "adder":
            inputs = tuple(choose(sources) for _ in range(integer(1, 3)))
            elem = Adder(gains=tuple(real(-2.0, 2.0) for _ in inputs), inputs=inputs)
        else:
            elem = Multiplier(inputs=(choose(sources), choose(sources)))
        net.add(f"el_{k}", elem, f"n{k}")
    net.set_output(choose(all_nodes))
    return net


@st.composite
def netlists(draw):
    return build_netlist(
        lambda seq: draw(st.sampled_from(seq)),
        lambda lo, hi: draw(st.integers(lo, hi)),
        lambda lo, hi: draw(st.floats(lo, hi)),
    )


def _run_scalar(prog, consts, y0, chan_kind, chan_idx, dt, n_steps):
    """``(recorded, status, event_step, ln_clamps, final state, rec, gflag)`` of a scalar run;
    its first ``ln`` clamp is noted exactly when it clamps."""
    rec = np.full((n_steps + 1, chan_kind.shape[0]), np.nan)
    gflag = np.zeros(n_steps + 1, dtype=np.uint8)
    n, status, event, ln, first, y = engine.rk4_run(
        prog.code, consts, prog.deriv_regs, prog.g_regs,
        chan_kind, chan_idx, y0, dt, n_steps, 1e-9, 1e12, rec, gflag,
    )
    assert (first is None) == (ln == 0) and (first is None or first <= event)
    return n, status, event, ln, y, rec, gflag


def _run_lanes(prog, consts, y0, chan_kind, chan_idx, dt, n_steps):
    width = consts.shape[1]
    rec = np.empty((n_steps + 1, chan_kind.shape[0], width))
    status, event, ln_counts, rec_counts = (np.zeros(width, dtype=np.int64) for _ in range(4))
    given = consts.tobytes(), y0.tobytes()
    y_out, redone = engine.rk4_run_batch(
        prog.code, consts, prog.deriv_regs, chan_kind, chan_idx, y0, dt, n_steps, 1e-9, 1e12,
        rec, status, event, ln_counts, rec_counts,
    )
    # the march computes into buffers of its own, never into its caller's arrays
    assert (consts.tobytes(), y0.tobytes()) == given
    return rec_counts, status, event, ln_counts, rec, y_out, redone


def assert_variants_agree(sys, width=3, dt=2e-2, n_steps=50, seed=0, consts=None, chan=None, y0=None):
    """Scalar runs and one lane run over the same constants agree exactly.

    ``consts`` (n_consts, width) defaults to the program's constants,
    perturbed by up to 5% in every lane but the first, and ``y0``
    (n_states, width) to the system's initial states in every lane.
    ``chan`` (kinds, indices) defaults to the output node and the first
    memristor state.  Waveforms and final states are bit-equal on every
    tape, NaN past a run's last sample included.
    Returns the lane run's (status, event_step, ln_counts).
    """
    prog = sys.program
    if consts is None:
        rng = np.random.default_rng(seed)
        consts = np.repeat(prog.consts[:, None], width, axis=1)
        consts[:, 1:] *= 1.0 + 0.05 * rng.uniform(-1, 1, size=(consts.shape[0], width - 1))
    width = consts.shape[1]
    if y0 is None:
        y0 = np.repeat(sys.y0()[:, None], width, axis=1)
    if chan is None:
        state_channels = list(sys.omega_state_index.values())[:1]
        chan = (np.array([engine.CHAN_REG] + [engine.CHAN_STATE] * len(state_channels), dtype=np.int32),
                np.array([sys.node_regs[sys.output_node]] + state_channels, dtype=np.int32))
    chan_kind, chan_idx = chan

    rec_counts, status, event, ln_counts, rec_b, y_b, _ = _run_lanes(
        prog, consts, y0, chan_kind, chan_idx, dt, n_steps)
    for w in range(width):
        n, st, ev, ln, y, rec, _ = _run_scalar(prog, consts[:, w].copy(), y0[:, w].copy(),
                                               chan_kind, chan_idx, dt, n_steps)
        assert (status[w], event[w], ln_counts[w], rec_counts[w]) == (st, ev, ln, n)
        assert np.array_equal(rec_b[:, :, w], rec, equal_nan=True)
        # a blown lane keeps its last accepted state; the scalar run, the failing one
        if status[w] != engine.STATUS_BLOWUP:
            assert np.array_equal(y_b[:, w], y, equal_nan=True)
    return status, event, ln_counts


def test_batch_kernel_matches_scalar_runs():
    for src in (FIG2_NETLIST, MEM):
        assert_variants_agree(lower(parse_netlist(src)), width=5, dt=5e-3, n_steps=400, seed=7)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlists(), st.sampled_from((50, 300)), st.sampled_from((1, 3)))
def test_scalar_and_lane_variants_agree_on_random_netlists(net, n_steps, width):
    # 300 steps cross a lane-table chunk boundary (engine._TABLE_STEPS)
    assert_variants_agree(lower(net), width=width, n_steps=n_steps)


# --- the march's exit paths -------------------------------------------------

# exp(exp(5t)) overflows to inf once 5t > ln(ln(DBL_MAX)).
T_OVERFLOW = math.log(math.log(np.finfo(float).max)) / 5.0


@pytest.mark.parametrize("op, after", [("sin", np.nan), ("cos", np.nan), ("exp", np.inf),
                                       ("ln", np.inf)])
def test_register_overflow_feeds_elementary_functions(op, after):
    # The overflowed register only reaches the recorded output, so the run completes.
    sys = lower(parse_netlist(f"""
integrator int1 out=x C=1 ic=1 in=x:1
fgen f1 out=a expr="{op}(exp(exp(5*t)))"
output a
"""))
    prog = sys.program
    dt, n_steps = 0.01, 200
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs["a"]], dtype=np.int32)
    n, status, event, _, _, rec, _ = _run_scalar(prog, prog.consts, sys.y0(), *chan, dt, n_steps)
    assert (n, status, event) == (n_steps + 1, engine.STATUS_OK, n_steps)
    t = dt * np.arange(n_steps + 1)
    late = rec[t > T_OVERFLOW, 0]
    assert late.size and np.array_equal(late, np.full(late.shape, after), equal_nan=True)
    if op in ("sin", "cos"):
        assert np.all(np.isfinite(rec[t < T_OVERFLOW, 0]))
    assert_variants_agree(sys, width=4, dt=dt, n_steps=n_steps)


@pytest.mark.parametrize("src, state", [
    # z' = z^2 from z(0) = 1 reaches the blow-up limit just after t = 1
    ('memintegrator mem1 out=z C=1 ic=1 g="-v" f="0*t" omega0=0\noutput z\n', "z"),
    # y' = -sin(inf) = NaN once exp(exp(5t)) overflows inside a step
    ('integrator int1 out=y C=1 ic=0 in=a:1\nfgen f1 out=a expr="sin(exp(exp(5*t)))"\n'
     'output y\n', "y"),
])
def test_blow_up_before_t_end(src, state):
    sys = lower(parse_netlist(src))
    prog = sys.program
    dt, n_steps = 0.01, 200
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs[state]], dtype=np.int32)
    n, status, event, _, y, rec, _ = _run_scalar(prog, prog.consts, sys.y0(), *chan, dt, n_steps)
    assert status == engine.STATUS_BLOWUP and 0 < event < n_steps
    assert n == event                              # every sample before the failing update
    assert np.all(np.abs(rec[:n, 0]) <= 1e12) and np.all(np.isnan(rec[n:, 0]))
    assert not abs(y[0]) <= 1e12                   # the state that failed the test
    if state == "y":
        assert (event - 1) * dt < T_OVERFLOW < event * dt
    res = simulate(sys, SimConfig(dt=dt, t_end=dt * n_steps))
    assert res.blowup_step == event and len(res.waveform) == n
    assert_variants_agree(sys, width=4, dt=dt, n_steps=n_steps)


LIMIT = 1e12                       # the blow-up limit of _run_scalar and _run_lanes
PAST = np.nextafter(LIMIT, np.inf)  # LIMIT + 2**-13


@pytest.mark.parametrize("x0, k, status, event", [
    (0.0, 2.5e11, engine.STATUS_BLOWUP, 5),      # on +LIMIT after step 3, past it after step 4
    (0.0, -2.5e11, engine.STATUS_BLOWUP, 5),     # the same at -LIMIT
    (PAST - LIMIT, 2.5e11, engine.STATUS_BLOWUP, 4),     # one ulp past +LIMIT after step 3
    (LIMIT - PAST, -2.5e11, engine.STATUS_BLOWUP, 4),    # and past -LIMIT
    (LIMIT, 0.0, engine.STATUS_OK, 6),              # on the limit at every step
    (-LIMIT, 0.0, engine.STATUS_OK, 6),
    (PAST, 0.0, engine.STATUS_BLOWUP, 1),           # one ulp past it from the start
    (-PAST, 0.0, engine.STATUS_BLOWUP, 1),
    (-0.0, -0.0, engine.STATUS_OK, 6),           # -0.0 + -0.0 stays -0.0
    (0.0, np.nan, engine.STATUS_BLOWUP, 1),
    (0.0, np.inf, engine.STATUS_BLOWUP, 1),
    (0.0, -np.inf, engine.STATUS_BLOWUP, 1),
])
def test_blow_up_test_at_its_boundary(x0, k, status, event):
    """A state on the blow-up limit is accepted; one ulp past it, NaN and the infinities are not.

    x' = k from x(0) = x0 at dt = 1: every update adds k exactly, so the
    state after the update of step s is x0 + (s + 1) k.  The lane march
    agrees with the scalar one lane by lane; the first lane is the
    nominal x' = 0 from x(0) = 0.
    """
    b = engine.TapeBuilder()
    prog = b.finish([b.const(0.0)], [])
    chan = np.array([engine.CHAN_STATE], dtype=np.int32), np.array([0], dtype=np.int32)
    consts, y0 = np.array([[0.0, k]]), np.array([[0.0, x0]])
    n_steps = 6
    rec_counts, st, ev, _, rec_b, y_b, _ = _run_lanes(prog, consts, y0, *chan, 1.0, n_steps)
    assert (st.tolist(), ev.tolist()) == ([engine.STATUS_OK, status], [n_steps, event])
    for w in range(2):
        n, st_w, ev_w, _, y, rec, _ = _run_scalar(prog, consts[:, w].copy(), y0[:, w].copy(), *chan, 1.0, n_steps)
        assert (st_w, ev_w, n) == (st[w], ev[w], rec_counts[w])
        assert rec_b[:n, :, w].tobytes() == rec[:n].tobytes()
    assert n == (event if status == engine.STATUS_BLOWUP else n_steps + 1)
    if status == engine.STATUS_OK:   # k = 0: the state keeps the bits of x0, -0.0 its sign
        assert len({np.float64(v).tobytes() for v in (x0, y[0], y_b[0, 1], rec[n_steps, 0])}) == 1
    if event == 4:
        assert abs(y[0]) == PAST            # the state that failed the test, exactly


def test_rk4_run_owns_its_flag_buffer():
    # a march without memductance registers writes no flag: rk4_run zeroes gflag itself
    mixed = lower(parse_netlist(MIXED.format(a=5.0, b=0.1, c=0.25)))   # cos(3t) - 0.5 changes sign
    for sys, flagged in ((mixed, True), (_sample("second_order"), False)):
        prog = sys.program
        chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs[sys.output_node]], dtype=np.int32)
        flags = []
        for fill in (0, 7):
            rec, gflag = np.empty((201, 1)), np.full(201, fill, dtype=np.uint8)
            out = engine.rk4_run(prog.code, prog.consts, prog.deriv_regs, prog.g_regs, *chan, sys.y0(),
                                 1e-2, 200, 1e-9, 1e12, rec, gflag)
            assert out[:2] == (201, engine.STATUS_OK)
            flags.append(gflag)
        assert np.array_equal(flags[0], flags[1])
        assert set(flags[1].tolist()) == ({0, 1} if flagged else {0})


def test_rk4_run_takes_numpy_scalars():
    # the memductance reads t = step * dt at every stage: a float64 dt gives the same bits
    sys = lower(parse_netlist('memintegrator mem1 out=v C=1 ic=1 g="-0.5 + 0.1*(v*t)" f="v" omega0=0\noutput v\n'))
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs["v"]], dtype=np.int32)
    runs = [_run_scalar(sys.program, sys.program.consts, sys.y0(), *chan, dt, 300) for dt in (0.01, np.float64(0.01))]
    assert runs[0][:4] == runs[1][:4] and runs[0][5].tobytes() == runs[1][5].tobytes()
    assert set(runs[1][6].tolist()) == {0, 1} and np.array_equal(runs[0][6], runs[1][6])


def test_domain_error_after_recorded_samples():
    # sqrt(0.5 - t) leaves its domain at the first stage past t = 0.5:
    # stage 1 of step 8 (dt = 1/16), after sample 8 is recorded
    sys = lower(parse_netlist("""
integrator int1 out=x C=1 ic=1 in=a:1
fgen f1 out=a expr="sqrt(0.5 - t)"
output x
"""))
    prog = sys.program
    dt, n_steps = 0.0625, 16
    chan = np.array([engine.CHAN_STATE], dtype=np.int32), np.array([0], dtype=np.int32)
    n, status, event, _, y, rec, _ = _run_scalar(prog, prog.consts, sys.y0(), *chan, dt, n_steps)
    assert (status, event, n) == (engine.STATUS_DOMAIN_ERROR, 8, 9)
    assert y[0] == rec[8, 0] and y[0] < rec[0, 0]
    with pytest.raises(SimulationError) as exc:
        simulate(sys, SimConfig(dt=dt, t_end=dt * n_steps))
    assert exc.value.step == 8 and exc.value.snapshot == {"int1": y[0]}
    assert_variants_agree(sys, width=4, dt=dt, n_steps=n_steps)


@pytest.mark.parametrize("expr, ln_count", [("-ln(0.5 - t) + 1/(0.5 - t)", 1),
                                             ("1/(0.5 - t) + -ln(0.5 - t)", 0)])
def test_ln_clamp_before_a_domain_error_follows_source_order(expr, ln_count):
    # at t = 0.5 (stage 3 of step 7, dt = 1/16) ln clamps and the division fails
    # in the same stage: the clamp counts only if its operand comes first
    sys = lower(parse_netlist(f'integrator int1 out=x C=1 ic=1 in=a:1\nfgen f1 out=a expr="{expr}"\noutput x\n'))
    prog = sys.program
    chan = np.array([engine.CHAN_STATE], dtype=np.int32), np.array([0], dtype=np.int32)
    _, status, event, ln, *_ = _run_scalar(prog, prog.consts, sys.y0(), *chan, 0.0625, 16)
    assert (status, event, ln) == (engine.STATUS_DOMAIN_ERROR, 7, ln_count)
    assert_variants_agree(sys, width=3, dt=0.0625, n_steps=16, consts=np.repeat(prog.consts[:, None], 3, axis=1))


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "equations").glob("*.eq")),
                         ids=lambda p: p.stem)
def test_sample_tapes_spell_their_signs(path):
    """No sum reads a negation, and no negation reads a product by a constant
    that nothing else reads: both marches run these tapes as lowered."""
    code = lower(compile_equation(load_equation_spec(path))).program.code.tolist()
    op_of = {dst: (op, a, b) for op, dst, a, b in code}
    reads = [r for op, _, a, b in code for r in engine._reads(op, a, b)]
    for op, dst, a, b in code:
        if op == engine.OP_ADD:
            assert engine.OP_NEG not in (op_of[a][0], op_of[b][0])
        if op == engine.OP_NEG and op_of[a][0] == engine.OP_MUL and reads.count(a) == 1:
            assert engine.OP_CONST not in (op_of[op_of[a][1]][0], op_of[op_of[a][2]][0])


# --- guards over t alone: read from stage-time tables --------------------------

T_ONLY = """
integrator int1 out=x C=1 ic=1 in=x:2 in=a:1
fgen f1 out=a expr="{expr}"
output a
"""


@pytest.mark.parametrize("expr, expected, status, event, ln_count", [
    # ln clamps at every stage time t <= 7: 449 grid times (stage 0), 448
    # half-step times (stages 1 and 2) and 448 step ends (stage 3)
    ("ln(t - 7)", lambda t: np.log(np.maximum(t - 7.0, 1e-9)), engine.STATUS_OK, 600, 449 + 2 * 448 + 448),
    # the first stage time past 9 is stage 1 of step 576 (t = 9 + 1/128)
    ("sqrt(9 - t)", lambda t: np.sqrt(9.0 - t), engine.STATUS_DOMAIN_ERROR, 576, 0),
    # the denominator is exactly 0 at the half-step time of step 300
    ("1 / (t - 4.6953125)", lambda t: 1.0 / (t - 4.6953125), engine.STATUS_DOMAIN_ERROR, 300, 0),
])
def test_guards_over_t_alone(expr, expected, status, event, ln_count):
    # dt = 1/64 makes every stage time exact; 600 steps span three lane-table chunks
    sys = lower(parse_netlist(T_ONLY.format(expr=expr)))
    prog = sys.program
    assert engine.tape_stats(prog)["hoisted"] > 0
    dt, n_steps, width = 1 / 64, 600, 3
    chan = (np.array([engine.CHAN_REG, engine.CHAN_STATE], dtype=np.int32),
            np.array([sys.node_regs["a"], 0], dtype=np.int32))
    n, st, ev, ln, _, rec, _ = _run_scalar(prog, prog.consts, sys.y0(), *chan, dt, n_steps)
    assert (st, ev, ln, n) == (status, event, ln_count, event + 1)
    assert np.array_equal(rec[:n, 0], expected(dt * np.arange(n)))
    consts = np.repeat(prog.consts[:, None], width, axis=1)
    y0 = np.repeat(sys.y0()[:, None], width, axis=1)
    rec_counts, st, ev, ln_counts, rec_b, _, _ = _run_lanes(prog, consts, y0, *chan, dt, n_steps)
    for w in range(width):
        assert (st[w], ev[w], ln_counts[w], rec_counts[w]) == (status, event, ln_count, n)
        assert np.array_equal(rec_b[:, :, w], rec, equal_nan=True)
    # lanes 1 and 2 perturb the 7, 9 or 4.6953125 and so clamp or fail at other steps
    assert_variants_agree(sys, width=width, dt=dt, n_steps=n_steps)


@pytest.mark.parametrize("name, columns", [("population_growth", 10), ("turbulent_diffusion", 13), ("fgen", 6)])
def test_a_warm_simulate_splits_its_tape_once(monkeypatch, name, columns):
    # fgen: the slope is read from the tables, so the frontier holds a root that the march part reads not
    fgen = 'integrator int1 out=x C=1 ic=0 in=a:1\nfgen f1 out=a expr="cos(t)"\noutput x\n'
    sys, cfg = lower(parse_netlist(fgen)) if name == "fgen" else _sample(name), SimConfig(dt=1e-2, t_end=1.0)
    first = simulate(sys, cfg)   # makes the march, which splits the tape for itself
    calls, split = [], engine._split
    monkeypatch.setattr(engine, "_split", lambda code, roots: calls.append(roots) or split(code, roots))
    again = simulate(sys, cfg)
    assert len(calls) == 1   # the table columns and the manifest's counts, from one split
    assert again.tape == first.tape == engine.tape_stats(sys.program)
    out = (np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs[sys.output_node]], dtype=np.int32))
    assert engine.tape_stats(sys.program, *out) == {**first.tape, "table_columns": columns}


@pytest.mark.parametrize("expr", ["cos(t)", "ln(t - 1)"])
def test_tape_read_entirely_from_tables(expr):
    # an integrator fed only by an fgen: every instruction but the loads is hoisted
    sys = lower(parse_netlist(f'integrator int1 out=x C=1 ic=0 in=a:1\nfgen f1 out=a expr="{expr}"\noutput x\n'))
    prog = sys.program
    loads = np.isin(prog.code[:, 0], [engine.OP_CONST, engine.OP_T, engine.OP_STATE])
    assert engine.tape_stats(prog) == {"instructions": len(prog.code), "hoisted": int((~loads).sum())}
    assert_variants_agree(sys, width=3, dt=1 / 64, n_steps=600)
    if expr == "cos(t)":
        res = simulate(sys, SimConfig(dt=1 / 64, t_end=600 / 64))
        np.testing.assert_allclose(res.waveform.data[:, 0], -np.sin(res.waveform.t), atol=1e-8)


MIXED = """
memintegrator mem1 out=v C=1 ic=1 g="cos(3*t) - 0.5" f="ln(t - {c}) + sqrt({a} - t)" omega0=0
integrator int1 out=z C=1 ic=1 in=q:1
mul m1 out=p in=z in=z
pot p1 out=r in=p alpha={b}
adder s1 out=q in=r:1
output v
"""


def test_lanes_dying_mid_run_match_their_scalar_runs():
    """Lanes leave the all-alive fast path one by one; every lane still equals its scalar run.

    Per lane: sqrt(a - t) is a domain error past t = a, z' = b*z^2 blows up
    near t = 1/b, ln(t - c) clamps until t = c, and the memductance
    cos(3t) - 0.5 changes sign.
    """
    params = [(5.0, 0.1, 0.25), (0.7, 0.1, 0.5), (5.0, 0.9, 0.1), (1.3, 0.1, 0.3),
              (5.0, 0.1, 0.05), (5.0, 0.6, 0.4)]
    systems = [lower(parse_netlist(MIXED.format(a=a, b=b, c=c))) for a, b, c in params]
    assert all(s.program.same_structure(systems[0].program) for s in systems)
    consts = np.stack([s.program.consts for s in systems], axis=1)
    status, event, ln_counts = assert_variants_agree(systems[0], dt=0.01, n_steps=200, consts=consts)
    ok, dom, blow = engine.STATUS_OK, engine.STATUS_DOMAIN_ERROR, engine.STATUS_BLOWUP
    assert status.tolist() == [ok, dom, blow, dom, ok, blow]
    assert event[1] < event[2] < event[3] < event[5] < 200
    assert len(set(ln_counts.tolist())) == len(params)


def test_variants_agree_on_many_recorded_channels(tmp_path):
    # the output node, another node, a memristor state and a node recorded twice
    sys = lower(parse_netlist(MIXED.format(a=5.0, b=0.1, c=0.25)))
    names = ("z", "omega:mem1", "p", "p")
    chan = (np.array([engine.CHAN_REG, engine.CHAN_REG, engine.CHAN_STATE, engine.CHAN_REG, engine.CHAN_REG],
                     dtype=np.int32),
            np.array([sys.node_regs[n] for n in ("v", "z")] + [sys.omega_state_index["mem1"]]
                     + 2 * [sys.node_regs["p"]], dtype=np.int32))
    assert_variants_agree(sys, width=4, dt=0.01, n_steps=200, chan=chan)
    # simulate records the same channels, and its CSV reads back as %.12g of the scalar run
    _, status, _, _, _, rec, _ = _run_scalar(sys.program, sys.program.consts, sys.y0(), *chan, 0.01, 200)
    assert status == engine.STATUS_OK
    path = tmp_path / "many.csv"
    simulate(sys, SimConfig(dt=0.01, t_end=2.0, record_channels=names)).waveform.to_csv(path)
    back = Waveform.from_csv(path)
    assert back.names == ("out",) + names
    assert np.array_equal(back.data, np.vectorize(lambda x: float(f"{x:.12g}"))(rec))
    assert np.array_equal(back.data[:, 3], back.data[:, 4]) and not np.array_equal(back.data[:, 0], back.data[:, 1])


CONST_GUARDS = """
memintegrator mem1 out=v C=1 ic=1 g="0.1*ln({a}) - sqrt({b} - 0.5)" f="sqrt({c} - t)" omega0=0
output v
"""


def test_guards_over_constants_alone_redo_every_step_until_their_lanes_leave():
    """The memductance reads constants alone, through ``ln(a)`` and ``sqrt(b - 0.5)``;
    ``sqrt(c - t)`` is a time guard, read from the tables.

    Lane 1 clamps ``ln`` at every stage, so every step is redone masked
    until it fails at t > 0.7; lane 2 fails at stage 0 of step 0, and
    lane 3 at the first stage time past 0.3, while lane 1 stays.  The
    guards over constants are tabulated like the rest: every table row
    notes them while lane 1 or 2 marches.
    """
    params = [(2.0, 1.0, 5.0), (1e-12, 1.0, 0.7), (2.0, 0.2, 5.0), (2.0, 1.0, 0.3), (3.0, 1.5, 5.0)]
    systems = [lower(parse_netlist(CONST_GUARDS.format(a=a, b=b, c=c))) for a, b, c in params]
    assert all(s.program.same_structure(systems[0].program) for s in systems)
    consts = np.stack([s.program.consts for s in systems], axis=1)
    # dt = 1/64 makes every stage time exact
    status, event, ln_counts = assert_variants_agree(systems[0], dt=1 / 64, n_steps=64, consts=consts)
    ok, dom = engine.STATUS_OK, engine.STATUS_DOMAIN_ERROR
    assert status.tolist() == [ok, dom, dom, dom, ok]
    # lane 1 fails at stage 3 of step 44 (t = 45/64), lane 3 at stage 1 of step 19 (t = 19.5/64)
    assert event.tolist() == [64, 44, 0, 19, 64]
    assert ln_counts.tolist() == [0, 4 * 44 + 4, 0, 0, 0]


def test_a_lane_does_not_see_its_neighbours_fail():
    # (0.1 + 0.3*t)^2 is read from the tables, which are rebuilt over the live lanes:
    # a lane's values depend neither on how many lanes march nor on when one leaves
    src = 'integrator int1 out=x C=1 ic=1 in=a:1\nfgen f1 out=a expr="(0.1 + 0.3*t)^2 + sqrt({c} - t)"\noutput x\n'
    systems = [lower(parse_netlist(src.format(c=c))) for c in (20.0, 0.3)]
    y0 = np.repeat(systems[0].y0()[:, None], 2, axis=1)
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([systems[0].node_regs["a"]], dtype=np.int32)
    runs = []
    for other in systems:
        consts = np.stack([systems[0].program.consts, other.program.consts], axis=1)
        runs.append(_run_lanes(systems[0].program, consts, y0, *chan, 1 / 64, 600))
    # the second lane fails at t > 0.3, in the first of three table chunks
    assert runs[0][1].tolist() == [engine.STATUS_OK, engine.STATUS_OK]
    assert runs[1][1].tolist() == [engine.STATUS_OK, engine.STATUS_DOMAIN_ERROR]
    assert np.array_equal(runs[0][4][:, :, 0], runs[1][4][:, :, 0])
    alone = _run_lanes(systems[0].program, systems[0].program.consts[:, None], y0[:, :1], *chan, 1 / 64, 600)
    assert np.array_equal(alone[4][:, :, 0], runs[0][4][:, :, 0])


def test_lanes_reading_t_keep_the_stage_time_after_a_drop():
    # v*t is computed in the march, not read from a table: a lane fails where
    # sqrt(a - v*t) leaves its domain, some at a half-step time, and stage 2
    # then runs at stage 1's time over the survivors
    src = 'memintegrator mem1 out=v C=1 ic=1 g="-0.2 + 0.1*sqrt({a} - v*t)" f="v" omega0=0\noutput v\n'
    systems = [lower(parse_netlist(src.format(a=a))) for a in (9.0, 0.33, 0.51, 0.77, 1.03, 1.29, 9.0)]
    consts = np.stack([s.program.consts for s in systems], axis=1)
    status, event, _ = assert_variants_agree(systems[0], dt=0.1, n_steps=40, consts=consts)
    assert status.tolist() == [engine.STATUS_OK] + 5 * [engine.STATUS_DOMAIN_ERROR] + [engine.STATUS_OK]
    assert len(set(event.tolist())) == 6


# --- the stacked lane march ---------------------------------------------------


def test_single_state_lanes_match_scalar_runs():
    # one integrator fed by itself and an fgen over t: (1, W) stacks
    sys = lower(parse_netlist('integrator int1 out=x C=1 ic=1 in=x:1 in=a:1\n'
                              'fgen f1 out=a expr="sin(3*t) - exp(-t)"\noutput x\n'))
    assert sys.n_states == 1
    assert_variants_agree(sys, width=5, dt=1e-2, n_steps=300, seed=3)


def test_stateless_lanes_match_scalar_runs():
    # no state at all: a stage rerun for the time guard reads no stage input
    sys = lower(parse_netlist('fgen f1 out=a expr="sqrt(0.5 - t) * cos(t)"\noutput a\n'))
    assert sys.n_states == 0
    status, event, _ = assert_variants_agree(sys, width=3, dt=0.0625, n_steps=16)
    assert status.tolist() == 3 * [engine.STATUS_DOMAIN_ERROR]


def test_three_state_lanes_all_alive_through_ln_clamp_reruns():
    # ln(t*v - 0.25) clamps in every lane until t*v passes 0.25: the stage is
    # rerun masked while every lane stays alive, and no lane ever dies
    sys = lower(parse_netlist("""
memintegrator mem1 out=v C=1 ic=1 g="-0.5 + 0.1*ln(t*v - 0.25)" f="v" omega0=0 in=z
integrator int1 out=z C=1 ic=1 in=v:2
output v
"""))
    assert sys.n_states == 3
    status, event, ln_counts = assert_variants_agree(sys, width=6, dt=1e-2, n_steps=100, seed=4)
    assert np.all(status == engine.STATUS_OK) and np.all(ln_counts > 0)
    assert len(set(ln_counts.tolist())) > 1


def test_guard_read_only_by_a_recorded_register():
    # sqrt(x - 0.5) feeds no slope, only the record; its domain error still ends
    # a run where x first drops below 0.5: at stage 3 of step 6 for x = exp(-t)
    b = engine.TapeBuilder()
    b.load_t()                                   # as lowering emits it, read or not
    x = b.load_state(0)
    slope = b.binary("mul", b.const(-1.0), x)
    probe = b.unary("sqrt", b.binary("sub", x, b.const(0.5)))
    sys = SimpleNamespace(program=b.finish([slope], []), y0=lambda: np.array([1.0]),
                          omega_state_index={}, node_regs={"p": probe}, output_node="p")
    status, event, _ = assert_variants_agree(sys, width=3, dt=0.1, n_steps=20)
    assert (status[0], event[0]) == (engine.STATUS_DOMAIN_ERROR, 6)


def test_a_stage_reruns_for_a_guard_past_its_first():
    # Two guards in every stage, sqrt(x + 1) first: only sqrt(x - c) holds, in
    # lane 1 (c = 0.5) alone, at stage 3 of step 6 (x = exp(-t) drops below
    # 0.5).  Each guard has its own row of the lane march's guard buffer, and
    # the rerun test must count them all.
    b = engine.TapeBuilder()
    b.load_t()
    x = b.load_state(0)
    slope = b.binary("mul", b.const(-1.0), x)
    first = b.unary("sqrt", b.binary("add", x, b.const(1.0)))
    second = b.unary("sqrt", b.binary("sub", x, b.const(0.5)))
    prog = b.finish([slope], [])
    assert engine._guarded(engine._split(prog.code.tolist(), [slope, first])[1]) == [first, second]
    sys = SimpleNamespace(program=prog, y0=lambda: np.array([1.0]),
                          omega_state_index={}, node_regs={"p": first}, output_node="p")
    consts = np.array([[-1.0, 1.0, c] for c in (0.0, 0.5, -1.0)]).T
    status, event, ln_counts = assert_variants_agree(sys, dt=0.1, n_steps=20, consts=consts)
    ok, dom = engine.STATUS_OK, engine.STATUS_DOMAIN_ERROR
    assert (status.tolist(), event.tolist(), ln_counts.tolist()) == ([ok, dom, ok], [20, 6, 20], [0, 0, 0])


# --- the lane march's per-step redo -----------------------------------------------
#
# y' = -y from y = 1 at dt = 3: every stage value is exact, 1.375**n times
# (1, -0.5, 1.75, -4.25) at stages 0 to 3 of step n, so a guard can be made to
# hold at one stage of one step alone.  With ``flags``, -y, negative at every
# stage 0, is the program's memductance register: a scalar run's passivity flag
# is 1 at each sample it records (the lane march keeps no flags either way).

REDO_DT = 3.0
Y_STAGES = (1.0, -0.5, 1.75, -4.25)
NEVER = 100.0


def _decay(guard, lanes, flags, w=None):
    """``(sys, consts, y0, chan)``: y' = -y and z' = ``guard(b, y, c, w)``, one lane per
    entry of ``lanes``, its constant c (slot 1).  With ``w = (a, b)`` a third state w,
    ``w' = (y - a)*(y - b)``, starts at the lane's entry instead, and c is 0.  With
    ``flags``, -y is the memductance register."""
    b = engine.TapeBuilder()
    b.load_t()
    y = b.load_state(0)
    slope = b.binary("mul", b.const(-1.0), y)
    c = b.const(0.0)
    ws = b.load_state(2) if w else None
    wslope = [b.binary("mul", b.binary("sub", y, b.const(w[0])), b.binary("sub", y, b.const(w[1])))] if w else []
    probe = guard(b, y, c, ws)
    prog = b.finish([slope, probe] + wslope, [slope] if flags else [])
    sys = SimpleNamespace(program=prog, y0=lambda: np.array([1.0, 0.0] + ([1.0] if w else [])))
    width = len(lanes)
    consts = np.repeat(prog.consts[:, None], width, axis=1)
    y0 = np.repeat(sys.y0()[:, None], width, axis=1)
    (y0 if w else consts)[2 if w else 1] = lanes
    n_states = len(sys.y0())
    chan = (np.array([engine.CHAN_REG] + [engine.CHAN_STATE] * n_states, dtype=np.int32),
            np.array([probe] + list(range(n_states)), dtype=np.int32))
    return sys, consts, y0, chan


def _ln_abs(b, y, c, w):
    return b.unary("ln", b.unary("abs", b.binary("sub", y, c)))      # clamps where y == c


def _ln_state(b, y, c, w):
    return b.unary("ln", w)                                         # clamps where w < ln_floor


def _div(b, y, c, w):
    return b.binary("div", b.const(1.0), b.binary("sub", y, c))      # fails where y == c


def _redo(sys, consts, y0, chan, n_steps):
    """The variants agree; returns the lane run's (status, event_step, ln_counts, redone steps)."""
    status, event, ln_counts = assert_variants_agree(sys, dt=REDO_DT, n_steps=n_steps, consts=consts, y0=y0,
                                                     chan=chan)
    redone = _run_lanes(sys.program, consts, y0, *chan, REDO_DT, n_steps)[-1]
    for w in range(consts.shape[1]):
        # a scalar run flags each sample it records where -y is the memductance, and none else
        n, *_, gflag = _run_scalar(sys.program, consts[:, w].copy(), y0[:, w].copy(), *chan, REDO_DT, n_steps)
        assert gflag.tolist() == [int(len(sys.program.g_regs) > 0)] * n + [0] * (n_steps + 1 - n)
    return status.tolist(), event.tolist(), ln_counts.tolist(), redone


# per stage, (a, b, w0): w' = (y - a)*(y - b) takes w below 0 at that stage of step 0 alone
W_DIPS = {1: (0.25, 1.5, 0.5), 2: (-1.0, 0.5, 0.5), 3: (1.5, 2.0, 0.1)}


@pytest.mark.parametrize("flags", [True, False], ids=["flags", "no_flags"])
@pytest.mark.parametrize("kind", ["register", "state"])
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_redo_of_a_guard_that_holds_at_one_stage(stage, kind, flags):
    """The guard of ``ln`` holds in lane 1 alone, at one stage of one step: over a
    register the stages compute (``|y - c|``, its stacked buffer) at step 1, or over a
    state (w, its row of S and column of the stage inputs) at step 0.  That step is
    redone; every lane still equals its scalar run and lane 1 counts one clamp."""
    if kind == "register":
        # the stage's value of y at step 1
        sys, consts, y0, chan = _decay(_ln_abs, [NEVER, 1.375 * Y_STAGES[stage], NEVER], flags)
    else:
        a, b, w0 = W_DIPS[stage]
        sys, consts, y0, chan = _decay(_ln_state, [NEVER, w0, NEVER], flags, w=(a, b))
    assert _redo(sys, consts, y0, chan, 4) == ([0, 0, 0], [4, 4, 4], [0, 1, 0], 1)


@pytest.mark.parametrize("flags", [True, False], ids=["flags", "no_flags"])
@pytest.mark.parametrize("step", [2, 4], ids=["step_2", "last_step"])
@pytest.mark.parametrize("guard", ["clamp", "domain_error"])
def test_redo_of_a_guard_at_stage_0(guard, step, flags):
    """y == c in lane 1 at stage 0 of step 2, or of the last step, which runs stage 0
    alone.  The fast stage 0 has recorded the step's sample when the redo finds the
    guard: a clamp is counted once, and a lane that fails there keeps NaN at that
    step, with ``rec_counts`` = step, as in its scalar run (whose flag there is 0)."""
    sys, consts, y0, chan = _decay(_ln_abs if guard == "clamp" else _div, [NEVER, 1.375 ** step, NEVER], flags)
    ok, dom = engine.STATUS_OK, engine.STATUS_DOMAIN_ERROR
    status, event, ln_counts, redone = _redo(sys, consts, y0, chan, 4)
    assert redone == 1
    if guard == "clamp":
        assert (status, event, ln_counts) == ([ok] * 3, [4] * 3, [0, 1, 0])
    else:
        assert (status, event, ln_counts) == ([ok, dom, ok], [4, step, 4], [0] * 3)
        rec_counts, *_ = _run_lanes(sys.program, consts, y0, *chan, REDO_DT, 4)
        assert rec_counts.tolist() == [5, step, 5]


@pytest.mark.parametrize("flags", [True, False], ids=["flags", "no_flags"])
def test_redo_for_a_hoisted_guard_on_a_half_step_row(flags):
    """ln(|t - c|) is read from the tables; c = 4.5 is the half-step time of step 1,
    so lane 1's guard is noted on that half-step row alone, for stages 1 and 2."""
    sys, consts, y0, chan = _decay(lambda b, y, c, w: b.unary("ln", b.unary("abs", b.binary("sub", b.load_t(), c))),
                                   [NEVER, 4.5], flags)
    assert engine.tape_stats(sys.program)["hoisted"] == 3
    assert _redo(sys, consts, y0, chan, 4) == ([0, 0], [4, 4], [0, 2], 1)


DIVISORS = {
    "table_row": lambda b, c: b.binary("sub", b.load_t(), c),      # 0 at t = 4.5: stage 1 of step 1
    "constant": lambda b, c: c,                                     # 0 in the lane where c is
    "time": lambda b, c: b.load_t(),                                # 0 at stage 0 of step 0
}


@pytest.mark.parametrize("flags", [True, False], ids=["flags", "no_flags"])
@pytest.mark.parametrize("divisor, status, event", [
    ("table_row", [0, 1], [4, 1]), ("constant", [0, 1], [4, 0]), ("time", [1, 1], [0, 0])])
def test_redo_of_a_guard_on_a_value_the_stages_do_not_compute(divisor, status, event, flags):
    """y / d: the stages compute y, not d, which is a table row, a constant or ``t``;
    so d has no stacked buffer, and each stage tests it where it reads it."""
    sys, consts, y0, chan = _decay(lambda b, y, c, w: b.binary("div", y, DIVISORS[divisor](b, c)), [NEVER, 4.5], flags)
    if divisor == "constant":
        consts[1] = [NEVER, 0.0]
    got_status, got_event, _, redone = _redo(sys, consts, y0, chan, 4)
    # only the step where lane 1 fails is redone
    assert (got_status, got_event, redone) == (status, event, 1)


class _Counted(np.ndarray):
    """An array that counts the ufunc calls it takes part in, and passes that on;
    ``fresh`` counts those without an output array, which allocate their result."""

    calls = fresh = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1
        _Counted.fresh += out is None
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _Counted) else o for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Counted) if isinstance(result, np.ndarray) else result


def _counting(fn, counted: bool):
    def call(*args, **kwargs):
        _Counted.calls += counted
        result = fn(*[a.view(np.ndarray) if isinstance(a, _Counted) else a for a in args], **kwargs)
        return result.view(_Counted) if isinstance(result, np.ndarray) else result
    return staticmethod(call)


class _CountingNumpy:
    """numpy for the generated marches: counts ``count_nonzero``, ``where`` and
    ``full`` calls, and makes every array it creates a ``_Counted``."""

    def __getattr__(self, name):
        return getattr(np, name)

    count_nonzero = _counting(np.count_nonzero, True)
    where = _counting(np.where, True)
    full = _counting(np.full, True)
    zeros = _counting(np.zeros, False)
    ones = _counting(np.ones, False)
    empty = _counting(np.empty, False)
    array = _counting(np.array, False)


def _lane_calls(sys, n_steps, dead, width=101, dt=1e-3):
    prog = sys.program
    consts = np.repeat(prog.consts[:, None], width, axis=1).view(_Counted)
    y0 = np.repeat(sys.y0()[:, None], width, axis=1).view(_Counted)
    if dead:
        y0[0, 50] = 1e13                 # over the blow-up limit after the update of step 0
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs[sys.output_node]], dtype=np.int32)
    status, event, ln_counts, rec_counts = (np.zeros(width, dtype=np.int64) for _ in range(4))
    _Counted.calls = _Counted.fresh = 0
    engine.rk4_run_batch(prog.code, consts, prog.deriv_regs, *chan, y0, dt, n_steps,
                         1e-9, 1e12, np.empty((n_steps + 1, 1, width)), status, event, ln_counts, rec_counts)
    assert status[50] == (engine.STATUS_BLOWUP if dead else engine.STATUS_OK) and event[50] == (1 if dead else n_steps)
    assert np.all(np.delete(status, 50) == engine.STATUS_OK)
    return np.array([_Counted.calls, _Counted.fresh])


def _lane_calls_per_step(monkeypatch, name, dead):
    """``[calls, fresh]`` per step of the sweep's lane march over the equation ``name``
    (W = 101): the difference of a 30-step and a 10-step run leaves 20 steps and no
    table builds."""
    sys = _sample(name)
    engine._march.cache_clear()
    engine._row_function.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(engine, "np", _CountingNumpy())
            return (_lane_calls(sys, 30, dead) - _lane_calls(sys, 10, dead)) / 20
    finally:
        # drop the marches and the tables' row functions generated against the counting numpy
        engine._march.cache_clear()
        engine._row_function.cache_clear()


@pytest.mark.parametrize("name, most, dead", [
    pytest.param("population_growth", 47, False, id="population_growth-47"),
    pytest.param("turbulent_diffusion", 48, False, id="turbulent_diffusion-48"),
    pytest.param("population_growth", 47, True, id="population_growth-47-one_lane_dropped"),
    pytest.param("turbulent_diffusion", 48, True, id="turbulent_diffusion-48-one_lane_dropped"),
])
def test_lane_march_numpy_calls_per_step(monkeypatch, name, most, dead):
    """numpy calls per step of the sweep's lane march (W = 101).

    Counted: every ufunc call (operators, reductions and ``.any()`` included)
    and every ``count_nonzero``, ``where`` and ``full``.  With one set of
    numpy calls per stage input, compensated update and blow-up test,
    signs spelled in the tape, both doubled slopes of the update in one
    call, and each guard tested once per step over its stacked stage
    values, with one ``count_nonzero`` of the guard buffer per step, the
    marches take 47 and 48 calls.  Turbulent's two guards (an ``ln`` of a
    state and a ``pow``) took 12 calls per step when each stage tested and
    counted its own (56 calls); with one set per state the marches took
    72 and 92.  A lane that blows up at step 0 leaves the march, and the
    100 others march on at the same count.
    """
    calls, _ = _lane_calls_per_step(monkeypatch, name, dead)
    assert calls <= most


@pytest.mark.parametrize("name", ["population_growth", "turbulent_diffusion"])
@pytest.mark.parametrize("dead", [False, True], ids=["all_alive", "one_lane_dropped"])
def test_lane_march_allocates_no_array_per_step(monkeypatch, name, dead):
    """Every ufunc call of a step writes into a buffer the march owns: none
    takes ``out=None``, before or after a lane leaves."""
    calls, fresh = _lane_calls_per_step(monkeypatch, name, dead)
    assert calls > 0 and fresh == 0


def _lane_loop(name):
    """The step loop of the sweep's lane march over the equation ``name``:
    ``(lines outside the redo, lines of the redo)``."""
    sys = _sample(name)
    prog = sys.program
    lines = engine._emit_lanes(tuple(map(tuple, prog.code.tolist())), tuple(prog.deriv_regs.tolist()),
                               ((engine.CHAN_REG, sys.node_regs[sys.output_node]),))[0]
    lines = lines[lines.index(" " * 4 + "for step in range(n_steps + 1):"):]
    start = lines.index(" " * 8 + "if held:")
    end = next(k for k in range(start + 1, len(lines)) if not lines[k].startswith(" " * 12))
    return lines[:start] + lines[end:], lines[start:end]


@pytest.mark.parametrize("name, counts", [("population_growth", 0), ("turbulent_diffusion", 1)])
def test_lane_step_loop_counts_guard_hits_once_per_step(name, counts):
    # one redo path, the only caller of the masked stage; a step outside it counts
    # its guards' hits in one call (the last step, which runs stage 0 alone, in its own)
    outside, redo = _lane_loop(name)
    assert sum("stage(" in line for line in redo) == 1
    assert not any("stage(" in line for line in outside)
    assert sum("np.count_nonzero(H)" in line for line in outside) == counts
    assert sum("np.count_nonzero(H0)" in line for line in outside) == counts
    assert sum("np.count_nonzero(" in line for line in outside) == 2 * counts + 1   # and the blow-up test


def _scalar_source(sys):
    prog = sys.program
    chan = ((engine.CHAN_REG, sys.node_regs[sys.output_node]),)
    return "\n".join(engine._emit_scalar(tuple(map(tuple, prog.code.tolist())), tuple(prog.deriv_regs.tolist()),
                                         chan, tuple(prog.g_regs.tolist()), True)[0])


@pytest.mark.parametrize("name", ["second_order", "log_linear", "oscillator_chain"])
def test_scalar_march_computes_no_unread_stage_time(name):
    # lowering loads t for every netlist; these three read it nowhere in the march
    assert not re.search(r"^ *t = ", _scalar_source(_sample(name)), re.M)
    # a memductance over v*t reads it at every stage time (stage 2 reuses stage 1's)
    sys = lower(parse_netlist('memintegrator mem1 out=v C=1 ic=1 g="-0.5 + 0.1*(v*t)" f="v" omega0=0\noutput v\n'))
    assert len(re.findall(r"^ *t = ", _scalar_source(sys), re.M)) == 3


@pytest.mark.parametrize("name", SAMPLES)
def test_scalar_step_loop_calls_numpy_only_for_its_ufuncs(name):
    # records and flags go through memoryviews, pow's buffers too, and the blow-up test
    # is a chained comparison.  The flag store is in the loop only for a memductance
    # register the tape computes: second_order, the one sample without a memristive
    # integrator, has none, and oscillator_chain's (g="1") loads a constant, whose
    # sign fills the flags once, at exit
    sys = _sample(name)
    source = _scalar_source(sys)
    loop = source[source.index("for step in range(n_steps + 1):"):source.rindex("return ")]
    for spelling in (".item(", "np.", "abs(", "rec[step, ", "recorded = step + 1\n"):
        assert spelling not in loop
    op_of = {dst: op for op, dst, *_ in sys.program.code.tolist()}
    computed = [g for g in sys.program.g_regs.tolist() if op_of[g] != engine.OP_CONST]
    assert ("gview[step] = " in loop) == bool(computed) == (name not in ("second_order", "oscillator_chain"))
    assert ("gflag[:recorded] = 1" in loop) == (name == "oscillator_chain")


def test_a_constant_memductance_flags_each_recorded_sample():
    # g = -1 loads a constant: the scalar march sets its flags once, at exit, over the
    # samples it recorded; v' = v blows up at dt = 1 long before step 60
    net = Netlist()
    net.add("m", MemIntegrator(c=1.0, ic=1.0, omega0=0.0, g=Const(-1.0), f=Binary("mul", Const(0.0), Var("v")),
                               input=None), "v")
    net.set_output("v")
    sys = lower(net)
    prog = sys.program
    assert [op for op, dst, *_ in prog.code.tolist() if dst in prog.g_regs.tolist()] == [engine.OP_CONST]
    chan = np.array([engine.CHAN_REG], dtype=np.int32), np.array([sys.node_regs["v"]], dtype=np.int32)
    n, status, *_, gflag = _run_scalar(prog, prog.consts, sys.y0(), *chan, 1.0, 60)
    assert status == engine.STATUS_BLOWUP and gflag.tolist() == [1] * n + [0] * (61 - n)
    assert_variants_agree(sys, width=2, dt=1.0, n_steps=60, chan=chan)


def _same_lowering(a, b):
    """Equal structure, bit-equal constants and equal state layout."""
    return (
        a.program.same_structure(b.program)
        and a.program.consts.tobytes() == b.program.consts.tobytes()
        and [(s.element_id, s.kind) for s in a.states] == [(s.element_id, s.kind) for s in b.states]
        and a.y0().tobytes() == b.y0().tobytes()
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlists(), st.integers(0, 2**32 - 1))
def test_zero_tolerance_perturbation_is_identity(net, seed):
    nominal = lower(net)
    cfg = ToleranceConfig(max_relative_error=0.0, master_seed=seed)
    for i in range(3):
        assert _same_lowering(lower(perturb(net, cfg, i)), nominal)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlists(), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_perturbed_programs_share_the_nominal_structure(net, tolerance, seed):
    nominal = lower(net).program
    cfg = ToleranceConfig(max_relative_error=tolerance, master_seed=seed)
    for i in range(3):
        assert lower(perturb(net, cfg, i)).program.same_structure(nominal)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlists())
def test_netlist_text_round_trip_lowers_identically(net):
    # From the first parse onward: the strategy builds negative Const nodes,
    # which no parser or compiler emits and whose text reparses as neg(c).
    first = parse_netlist(net.to_text())
    assert _same_lowering(lower(parse_netlist(first.to_text())), lower(first))


def test_perturbed_iterations_share_one_generated_stage(monkeypatch):
    emitted, tables = [], []
    emit_lanes, emit_scalar, make_tables = engine._emit_lanes, engine._emit_scalar, engine._tables
    monkeypatch.setattr(engine, "_emit_lanes", lambda *args: emitted.append("lanes") or emit_lanes(*args))
    monkeypatch.setattr(engine, "_emit_scalar", lambda *args: emitted.append(f"scalar, hoist={args[-1]}")
                        or emit_scalar(*args))
    monkeypatch.setattr(engine, "_tables", lambda *args: tables.append(args) or make_tables(*args))
    engine._march.cache_clear()
    net = parse_netlist(MEM)
    cfg = ToleranceConfig(iterations=20)
    sim = SimConfig(dt=1e-2, t_end=1.0)
    stability_run(net, cfg, sim)
    for i in range(cfg.iterations):
        simulate(lower(perturb(net, cfg, i)), sim, backend="numpy")
    # one lane march (the sweep) and one scalar march, each with its one table build
    assert emitted == ["lanes", "scalar, hoist=True"]
    assert len(tables) == 2
