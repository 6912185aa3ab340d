import shlex

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsolve import netlist
from memsolve.elements import Adder, FunctionGenerator, Integrator, element_inputs
from memsolve.exprs import Var
from memsolve.netlist import (
    Netlist,
    NetlistParseError,
    ValidationFailed,
    _dependency_order,
    _words,
    load_netlist,
    lower,
    lower_unchecked,
    netlist_stats,
    parse_netlist,
    validate,
)
from memsolve.tolerance import ToleranceConfig, perturb

FIG3_NETLIST = """
# single memristive integrator in feedback (population-growth circuit)
memintegrator mem1 out=v C=1 ic=1 g="-2 + 0.001*v + exp(-t)*omega" f="exp(t)*t/(1+t)*v" omega0=0
output v
"""


def rules(diags):
    return {d.rule for d in diags}


def test_fig2_topology_validates_clean(fig2_netlist):
    assert validate(fig2_netlist) == []


def test_fig2_with_explicit_adder_validates_clean():
    net = parse_netlist(
        """
        adder add1 out=a in=o1:1 in=o2:1
        integrator int1 out=o1 C=1 ic=0 in=a:1
        integrator int2 out=o2 C=1 ic=1 in=o1:1
        output o2
        """
    )
    assert validate(net) == []


def test_adder_only_cycle_is_algebraic_loop():
    net = parse_netlist(
        """
        adder a1 out=n1 in=n2:1
        adder a2 out=n2 in=n1:1
        output n1
        """
    )
    assert "algebraic-loop" in rules(validate(net))


def test_pot_alpha_out_of_range():
    net = parse_netlist(
        """
        fgen f1 out=src expr="sin(t)"
        pot p1 out=n1 in=src alpha=1.5
        output n1
        """
    )
    diags = validate(net)
    assert "element-invariant" in rules(diags)
    assert any("alpha" in d.message for d in diags)


def test_single_driver_and_undriven_and_output_rules():
    net = parse_netlist(
        """
        fgen f1 out=n1 expr="t"
        fgen f2 out=n1 expr="1"
        pot p1 out=n2 in=ghost alpha=0.5
        output n3
        """
    )
    got = rules(validate(net))
    assert {"single-driver", "undriven-node", "output-undriven"} <= got


def test_validation_collects_everything_at_once():
    net = parse_netlist(
        """
        pot p1 out=n1 in=ghost alpha=2.0
        mul m1 out=n2 in=n1 in=n1
        output missing
        """
    )
    diags = validate(net)
    assert len(diags) >= 3


def test_parse_error_reports_line_number():
    with pytest.raises(NetlistParseError) as exc:
        parse_netlist("node a\nadder q1 out=b in=zz\noutput b\n")
    assert exc.value.line == 2
    with pytest.raises(NetlistParseError) as exc:
        parse_netlist('fgen f1 out=a expr="v"\noutput a\n')
    assert exc.value.line == 1


@pytest.mark.parametrize("line, key", [
    # once read as the feedback wiring: the misspelt key was dropped with its node
    ('memintegrator m1 out=v C=1 ic=1 g="1" f="0" omega0=0 inn=x', "inn"),
    ("pot p1 out=b in=a alpha=0.5 C=3", "C"),
    ('output a transform="v" scale=2', "scale"),
])
def test_unknown_field_is_a_parse_error(line, key):
    with pytest.raises(NetlistParseError) as exc:
        parse_netlist(f'fgen f0 out=a expr="t"\n{line}\n')
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: unknown field {key!r}"


def test_round_trip_preserves_lowered_system(tmp_path, fig2_netlist):
    for net in (fig2_netlist, parse_netlist(FIG3_NETLIST)):
        path = tmp_path / "net.txt"
        net.save(path)
        again = load_netlist(path)
        a, b = lower(net), lower(again)
        assert a.states == b.states
        assert a.program.same_structure(b.program)
        assert np.array_equal(a.program.consts, b.program.consts)
        assert a.node_regs == b.node_regs
        assert a.output_node == b.output_node


def test_valid_to_round_trips_and_survives_perturbation():
    net = parse_netlist(FIG3_NETLIST + "valid_to 2.5\n")
    assert net.valid_to == 2.5 and validate(net) == []
    text = net.to_text()
    assert text.startswith("valid_to 2.5\n")
    assert parse_netlist(text).to_text() == text
    assert lower(net).valid_to == 2.5
    assert perturb(net, ToleranceConfig(max_relative_error=0.5), 0).valid_to == 2.5
    plain = parse_netlist(FIG3_NETLIST)                 # printed only when declared
    assert "valid_to" not in plain.to_text() and lower(plain).valid_to is None


@pytest.mark.parametrize("line", ["valid_to", "valid_to 1 2", "valid_to soon", "valid_to 1\nvalid_to 2"])
def test_malformed_valid_to_is_a_parse_error(line):
    with pytest.raises(NetlistParseError, match="line [56]: "):
        parse_netlist(FIG3_NETLIST + line + "\n")


def test_meta_comments_are_only_comments():
    # what the compiler writes in ``# meta:`` comments is never read back
    plain = parse_netlist(FIG3_NETLIST)
    noted = parse_netlist("# meta: alpha_valid_to=1\n# meta: family=turbulent\n" + FIG3_NETLIST)
    assert noted.meta == {} and noted.valid_to is None
    assert noted.to_text() == plain.to_text()
    a, b = lower(plain), lower(noted)
    assert a.states == b.states and a.valid_to is b.valid_to is None
    assert a.program.same_structure(b.program)
    assert np.array_equal(a.program.consts, b.program.consts)


def test_lower_state_dimensions(fig2_netlist):
    assert lower(fig2_netlist).n_states == 2
    fig3 = lower(parse_netlist(FIG3_NETLIST))
    assert fig3.n_states == 2
    assert [s.kind for s in fig3.states] == ["integrator_output", "memristor_omega"]
    memoryless = lower(parse_netlist('fgen f1 out=sig expr="sin(t)"\noutput sig\n'))
    assert memoryless.n_states == 0


def test_lower_rejects_invalid():
    net = parse_netlist("adder a1 out=n1 in=n2:1\nadder a2 out=n2 in=n1:1\noutput n1\n")
    with pytest.raises(ValidationFailed) as exc:
        lower(net)
    assert any(d.rule == "algebraic-loop" for d in exc.value.diagnostics)


def test_state_ordering_is_by_element_id():
    net = parse_netlist(
        """
        integrator zint out=z1 C=1 ic=3 in=z1:1
        memintegrator amem out=v C=1 ic=1 g="1" f="v" omega0=7
        output v
        """
    )
    sys = lower(net)
    assert [(s.element_id, s.kind) for s in sys.states] == [
        ("amem", "integrator_output"),
        ("zint", "integrator_output"),
        ("amem", "memristor_omega"),
    ]
    assert list(sys.y0()) == [1.0, 3.0, 7.0]


def test_netlist_stats_counts_sign_inverters():
    net = parse_netlist(
        """
        fgen f1 out=s expr="t"
        adder inv out=n1 in=s:1
        adder weighted out=n2 in=s:0.37
        adder wide out=n3 in=s:1 in=n1:1
        output n1
        """
    )
    stats = netlist_stats(net)
    assert stats["adders"] == 3
    assert stats["sign_inverters"] == 1


def test_memintegrator_explicit_input_is_supported():
    net = parse_netlist(
        """
        memintegrator mem1 out=y1 C=1 ic=0 g="-1" f="v" omega0=0 in=y2
        integrator int2 out=y2 C=1 ic=1 in=y1:1
        output y2
        """
    )
    assert validate(net) == []
    sys = lower(net)
    assert sys.n_states == 3


# --- dependency order ----------------------------------------------------------


def _pass_order(net):
    """Frozen copy of the lowering order that repeated passes over the pending
    memoryless elements in id order, each emitting those whose inputs are ready:
    ``(emitted ids, ids never emitted)``."""
    ready = {net.out_node[eid] for eid, e in net.elements.items() if e.MEMORY}
    pending = sorted(eid for eid, e in net.elements.items() if not e.MEMORY)
    order = []
    while pending:
        rest = []
        for eid in pending:
            if all(n in ready for n in element_inputs(net.elements[eid])):
                ready.add(net.out_node[eid])
                order.append(eid)
            else:
                rest.append(eid)
        if rest == pending:
            break
        pending = rest
    return order, pending


@st.composite
def _wired(draw, acyclic):
    """Up to 12 memoryless elements and 2 integrators under shuffled ids; an element
    reads states and, if ``acyclic``, only the nodes of elements drawn before it."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"e{k}" for k in range(n)]))
    net = Netlist()
    states = ["x0", "x1"]
    for name in states:
        net.add(f"i_{name}", Integrator(c=1.0, ic=0.0, inputs=(f"n{n - 1}",), resistances=(1.0,)), name)
    for k in range(n):
        sources = states + [f"n{j}" for j in range(k if acyclic else n)]
        inputs = tuple(draw(st.lists(st.sampled_from(sources), min_size=0 if k else 1, max_size=3)))
        elem = Adder(gains=(1.0,) * len(inputs), inputs=inputs) if inputs else FunctionGenerator(signal=Var("t"))
        net.add(ids[k], elem, f"n{k}")
    net.set_output(f"n{n - 1}")
    return net


@settings(max_examples=400, deadline=None)
@given(_wired(acyclic=True))
def test_dependency_order_is_the_order_of_repeated_passes(net):
    assert _dependency_order(net) == (_pass_order(net)[0], [])


@settings(max_examples=400, deadline=None)
@given(_wired(acyclic=False))
def test_algebraic_loops_name_cycles_that_break_every_loop(net):
    order, stuck = _pass_order(net)
    assert _dependency_order(net)[0] == order
    loops = [d for d in validate(net) if d.rule == "algebraic-loop"]
    assert bool(loops) == bool(stuck)
    members = set()
    for d in loops:
        cycle = d.message.split(": ")[1].split(" -> ")
        assert d.where == cycle[0] == cycle[-1] == min(cycle)
        for a, b in zip(cycle, cycle[1:]):   # each member drives an input of the next
            assert net.out_node[a] in element_inputs(net.elements[b])
        members.update(cycle)
    for eid in members:
        del net.elements[eid]
    assert _dependency_order(net)[1] == []


def test_a_loop_behind_the_cycle_its_first_walk_finds_is_named():
    # the walk from e4 finds e5's loop; e4's own loop is left, and the next walk from e4 finds it
    drivers = {"e0": "e0 e1", "e1": "e1 e5", "e2": "e5", "e3": "e3", "e4": "e2 e4", "e5": "e3 e5"}
    net = parse_netlist("".join(f"adder {eid} out={eid} " + " ".join(f"in={d}:1" for d in ds.split()) + "\n"
                                for eid, ds in drivers.items()) + "output e0\n")
    assert [d.message.split(": ")[1] for d in validate(net)] == [
        "e0 -> e0", "e1 -> e1", "e3 -> e3", "e5 -> e5", "e4 -> e4"]


def test_a_two_adder_loop_names_both_members_in_path_order():
    net = parse_netlist("adder b out=n1 in=n2:1\nadder a out=n2 in=n1:1\nadder c out=n3 in=n1:1\noutput n3\n")
    assert [str(d) for d in validate(net)] == [
        "[algebraic-loop] a: combinational cycle without a memory element: a -> b -> a"]


def test_lowering_reads_each_elements_inputs_a_bounded_number_of_times(monkeypatch):
    # a chain whose ids run against the data flow took one pass per element
    n = 1000
    net = parse_netlist('fgen f out=a0 expr="t"\n'
                        + "".join(f"adder a{n - k:04d} out=a{k} in=a{k - 1}:1\n" for k in range(1, n + 1))
                        + f"output a{n}\n")
    calls = []
    monkeypatch.setattr(netlist, "element_inputs", lambda e: calls.append(e) or element_inputs(e))
    sys = lower_unchecked(net)
    assert len(calls) <= 3 * (n + 1)
    assert len(sys.program.code) == 1 + 2 * n   # t, then a constant and a product per adder


class _Id(str):
    """An element id that counts the hashes taken of it: each dict or set lookup by it."""
    hashes = 0

    def __hash__(self):
        _Id.hashes += 1
        return super().__hash__()


def _loops(shape, k):
    """k loops that the cycle search meets one at a time from the smallest id, ``a``."""
    net = Netlist()
    if shape in ("fan_in", "fan_out"):   # a reads k self-loops; with fan_out, k elements read a
        net.add(_Id("a"), Adder(gains=(1.0,) * k, inputs=tuple(f"x{i}" for i in range(k))), "a")
        for i in range(k):
            net.add(_Id(f"x{i}"), Adder(gains=(1.0,), inputs=(f"x{i}",)), f"x{i}")
            if shape == "fan_out":
                net.add(_Id(f"b{i}"), Adder(gains=(1.0,), inputs=("a",)), f"b{i}")
    else:   # ladder: a<i> reads b<i> and a<i+1>, and b<i> reads a<i>; the walk runs down the a's
        for i in range(k):
            a, b = f"a{i:05d}" if i else "a", f"b{i:05d}"
            below = (f"a{i + 1:05d}",) if i + 1 < k else ()
            net.add(_Id(a), Adder(gains=(1.0,) * (1 + len(below)), inputs=(b,) + below), a)
            net.add(_Id(b), Adder(gains=(1.0,), inputs=(a,)), b)
    net.set_output("a")
    return net


@pytest.mark.parametrize("shape", ["fan_in", "fan_out", "ladder"])
def test_naming_loops_looks_up_each_element_a_bounded_number_of_times(shape):
    # 12 to 14 lookups per element; a walk that started over after each cycle, or walked an
    # element again after its drivers had all left, took about k each
    k = 1000
    net = _loops(shape, k)
    _Id.hashes = 0
    assert len(_dependency_order(net)[1]) == k
    assert _Id.hashes <= 40 * len(net.elements)


# both quote kinds, the escape, the comment sign, and blanks that shlex splits at and that it does not
_LEX_ALPHABET = st.sampled_from(['"', "'", "\\", "#", "=", " ", "\t", "\x0b", "\x0c", "\xa0", "a", "1", "x=", "(v)"])


def _frozen_strip_comment(raw):
    """The equation-spec parser's comment rule before the loaders shared one."""
    in_quote = False
    for i, ch in enumerate(raw):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return raw[:i]
    return raw


@settings(max_examples=500, deadline=None)
@given(st.lists(_LEX_ALPHABET, max_size=14).map("".join), st.integers(1, 99))
@example('C="1" # it\'s a "comment', 3).via("a quote kind of each in the comment")
@example("C='1'", 1).via("shlex once read this as C=1")
@example('expr="a b"c""', 1).via("quoted spans join their word")
@example('expr="t # x', 1).via("a quote that does not close")
@example('fgen f1 out=a expr="t # not a comment"  # a comment', 1).via("a quoted # and blanks")
@example("node\xa0a\tb\x0bc", 1).via("blanks that shlex splits at, and that it does not")
def test_the_lexer_splits_like_shlex_or_names_the_line(raw, lineno):
    code = _frozen_strip_comment(raw)
    if "'" in code or "\\" in code or code.count('"') % 2:
        with pytest.raises(NetlistParseError) as exc:
            _words(raw, lineno)
        assert exc.value.line == lineno and "bad quoting" in str(exc.value)
    else:
        assert _words(raw, lineno) == shlex.split(raw, comments=True)


@pytest.mark.parametrize("line, message", [
    ("integrator i1 out=x C='1' ic=0", "line 2: bad quoting: no field holds '; quote with double quotes"),
    ('fgen f1 out=a expr="t\\"', "line 2: bad quoting: no field holds \\; quote with double quotes"),
    ('fgen f1 out=a expr="t # the quote does not close', "line 2: bad quoting: no closing quotation"),
])
def test_quoting_the_format_does_not_hold_is_a_parse_error(line, message):
    with pytest.raises(NetlistParseError) as exc:
        parse_netlist(f"node a\n{line}\noutput a  # it's only a comment\n")
    assert (exc.value.line, str(exc.value)) == (2, message)
