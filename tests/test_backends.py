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
from memsolve.exprs import Binary, Const, Unary, Var
from memsolve.netlist import Netlist, lower, parse_netlist
from memsolve.solver import SimConfig, simulate
from memsolve.tolerance import ToleranceConfig, perturb, stability_run

from conftest import FIG2_NETLIST

MEM = """
memintegrator mem1 out=v C=1 ic=1 g="-2 + 0.001*v + exp(-t)*omega" f="exp(t)*t/(1+t)*v" omega0=0
output v
"""

needs_numba = pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba unavailable")


def test_resolve_backend(monkeypatch):
    assert backend.resolve_backend("numpy") == "numpy"
    monkeypatch.setenv(backend.BACKEND_ENV, "numpy")
    assert backend.resolve_backend() == "numpy"
    monkeypatch.setenv(backend.BACKEND_ENV, "auto")
    assert backend.resolve_backend() in ("numba", "numpy")
    monkeypatch.setenv(backend.BACKEND_ENV, "sparkles")
    with pytest.raises(ValueError):
        backend.resolve_backend()


def test_thread_count(monkeypatch):
    monkeypatch.setenv(backend.THREADS_ENV, "3")
    assert backend.thread_count() == 3
    monkeypatch.setenv(backend.THREADS_ENV, "0")
    with pytest.raises(ValueError):
        backend.thread_count()
    monkeypatch.delenv(backend.THREADS_ENV)
    assert backend.thread_count() >= 1


@needs_numba
@pytest.mark.parametrize("src", [FIG2_NETLIST, MEM])
def test_numba_and_numpy_agree(src):
    sys = lower(parse_netlist(src))
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    a = simulate(sys, cfg, backend="numba")
    b = simulate(sys, cfg, backend="numpy")
    np.testing.assert_allclose(a.waveform.data, b.waveform.data, rtol=1e-12, atol=1e-13)
    assert a.passivity_steps == b.passivity_steps
    assert a.ln_clamps == b.ln_clamps


# --- random valid netlists ---------------------------------------------------


def _expr(choose, real, names, depth):
    """Random expression over ``names``; ln, sqrt, div and pow sit near their domain edges."""
    if depth == 0 or choose((False, True, True)) is False:
        return Var(choose(names)) if choose((True, False)) else Const(real(-2.0, 2.0))
    sub = _expr(choose, real, names, depth - 1)
    kind = choose(("unary", "binary", "edge"))
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
    rec = np.full((n_steps + 1, chan_kind.shape[0]), np.nan)
    gflag = np.zeros(n_steps + 1, dtype=np.uint8)
    info = np.zeros(3, dtype=np.int64)
    n = engine.rk4_run(
        prog.code, consts, prog.n_regs, prog.deriv_regs, prog.g_regs,
        chan_kind, chan_idx, y0, 0.0, dt, n_steps, 1e-9, 1e12,
        rec, gflag, info, np.empty(y0.shape[0]),
    )
    return n, info, rec, gflag


def _run_lanes(prog, consts, y0, chan_kind, chan_idx, dt, n_steps):
    width = consts.shape[1]
    rec = np.empty((n_steps + 1, chan_kind.shape[0], width))
    gflag = np.zeros((n_steps + 1, width), dtype=np.uint8)
    status, event, ln_counts, rec_counts = (np.zeros(width, dtype=np.int64) for _ in range(4))
    engine.rk4_run_batch(
        prog.code, consts, prog.n_regs, prog.deriv_regs, prog.g_regs,
        chan_kind, chan_idx, y0, 0.0, dt, n_steps, 1e-9, 1e12,
        rec, gflag, status, event, ln_counts, rec_counts,
    )
    return rec_counts, status, event, ln_counts, rec, gflag


def assert_variants_agree(sys, width=3, dt=2e-2, n_steps=50, seed=0):
    """Scalar runs and one lane run over the same constants agree exactly.

    Waveforms are bit-equal unless the tape has OP_POW, whose scalar
    spelling (libm pow) and lane spelling (array np.power) may differ in
    the last bit.
    """
    prog = sys.program
    rng = np.random.default_rng(seed)
    consts = np.repeat(prog.consts[:, None], width, axis=1)
    consts[:, 1:] *= 1.0 + 0.05 * rng.uniform(-1, 1, size=(consts.shape[0], width - 1))
    y0 = np.repeat(sys.y0()[:, None], width, axis=1)
    state_channels = list(sys.omega_state_index.values())[:1]
    chan_kind = np.array([engine.CHAN_REG] + [engine.CHAN_STATE] * len(state_channels),
                         dtype=np.int32)
    chan_idx = np.array([sys.node_regs[sys.output_node]] + state_channels, dtype=np.int32)
    has_pow = bool(np.any(prog.code[:, 0] == engine.OP_POW))

    rec_counts, status, event, ln_counts, rec_b, gflag_b = _run_lanes(
        prog, consts, y0, chan_kind, chan_idx, dt, n_steps)
    for w in range(width):
        n, info, rec, gflag = _run_scalar(prog, consts[:, w].copy(), sys.y0(),
                                          chan_kind, chan_idx, dt, n_steps)
        assert (status[w], event[w], ln_counts[w], rec_counts[w]) == (info[0], info[1], info[2], n)
        assert np.array_equal(gflag_b[:n, w], gflag[:n])
        if has_pow:
            np.testing.assert_allclose(rec_b[:n, :, w], rec[:n], rtol=1e-12, atol=0.0)
        else:
            assert np.array_equal(rec_b[:n, :, w], rec[:n], equal_nan=True)


def test_batch_kernel_matches_scalar_runs():
    for src in (FIG2_NETLIST, MEM):
        assert_variants_agree(lower(parse_netlist(src)), width=5, dt=5e-3, n_steps=400, seed=7)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlists())
def test_scalar_and_lane_variants_agree_on_random_netlists(net):
    assert_variants_agree(lower(net))


def test_perturbed_iterations_share_one_generated_stage(monkeypatch):
    emitted = []
    emit = engine._emit
    monkeypatch.setattr(engine, "_emit", lambda *args: emitted.append(args[-1]) or emit(*args))
    engine._stage.cache_clear()
    net = parse_netlist(MEM)
    cfg = ToleranceConfig(iterations=20)
    sim = SimConfig(dt=1e-2, t_end=1.0)
    stability_run(net, cfg, sim, backend="numpy")
    for i in range(cfg.iterations):
        simulate(lower(perturb(net, cfg, i)), sim, backend="numpy")
    assert emitted == [True, False]        # one lane stage (the sweep), one scalar stage
