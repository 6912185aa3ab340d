import numpy as np
import pytest

from memsolve.netlist import (
    NetlistParseError,
    ValidationFailed,
    load_netlist,
    lower,
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
