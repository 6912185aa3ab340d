import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsolve import engine
from memsolve.engine import eval_expr, eval_expr_array, eval_expr_array_clamped
from memsolve.exprs import (
    Binary,
    Const,
    DomainError,
    ExprSyntaxError,
    Unary,
    UnknownVariableError,
    Var,
    map_constants,
    parse_expr,
    pretty,
    substitute,
    variables,
)

ALL = {"t", "s", "v", "omega"}


def test_parse_memductance_has_three_summands():
    e = parse_expr("-2 + 0.001*v + exp(-t)*omega", {"t", "v", "omega"})
    # ((-2 + 0.001*v) + exp(-t)*omega): two nested additions
    assert isinstance(e, Binary) and e.op == "add"
    assert isinstance(e.lhs, Binary) and e.lhs.op == "add"
    assert e.lhs.lhs == Unary("neg", Const(2.0))
    assert e.lhs.rhs == Binary("mul", Const(0.001), Var("v"))
    assert e.rhs == Binary("mul", Unary("exp", Unary("neg", Var("t"))), Var("omega"))


def test_parse_ln_squared():
    e = parse_expr("ln(v)^2", {"v"})
    assert e == Binary("pow", Unary("ln", Var("v")), Const(2.0))


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError) as exc:
        parse_expr("v + s", {"v"})
    assert exc.value.name == "s"
    assert exc.value.offset == 4


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("1 + * 2", ALL)
    assert exc.value.offset == 4


@pytest.mark.parametrize(
    "src",
    ["", "exp", "exp 3", "(1 + 2", "1 2", "1 +", "0x12", "1_000", "t(3)"],
)
def test_rejected_sources(src):
    with pytest.raises(ExprSyntaxError):
        parse_expr(src, ALL)


def test_precedence_mul_over_add():
    assert parse_expr("t+s*v", ALL) == parse_expr("t+(s*v)", ALL)


def test_precedence_pow_over_unary_minus():
    assert parse_expr("-t^2", ALL) == Unary("neg", Binary("pow", Var("t"), Const(2.0)))


def test_pow_left_associative():
    e = parse_expr("2^3^2", ALL)
    assert e == Binary("pow", Binary("pow", Const(2.0), Const(3.0)), Const(2.0))
    assert eval_expr(e, {}) == 64.0


def test_left_associativity_sub_div():
    assert eval_expr(parse_expr("8 - 3 - 1", ALL), {}) == 4.0
    assert eval_expr(parse_expr("8 / 4 / 2", ALL), {}) == 1.0


def test_eval_examples():
    assert eval_expr(parse_expr("exp(-t)", {"t"}), {"t": 0.0}) == 1.0
    g = parse_expr("-2 + 0.001*v + exp(-t)*omega", {"t", "v", "omega"})
    assert eval_expr(g, {"t": 0.0, "v": 0.0, "omega": 0.0}) == -2.0


# (source, value of its variable, the array evaluator's message)
DOMAIN_CASES = [
    ("ln(t)", 0.0, "ln of non-positive value"),
    ("1/t", 0.0, "division by zero"),
    ("sqrt(t)", -1.0, "sqrt of negative value"),
    ("exp(t)", 1000.0, "non-finite result"),
    ("t^0.5", -2.0, "pow outside the real domain"),
]


def test_eval_domain_errors():
    for src, value, message in DOMAIN_CASES + [("t + v", 1.0, "unbound variable 'v'")]:
        e = parse_expr(src, ALL)
        with pytest.raises(DomainError) as exc:
            eval_expr(e, {"t": value})
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            eval_expr_array(e, {"t": np.array([1.0, value])})
        assert str(exc.value) == message


@pytest.mark.parametrize("src, message", [
    ("-sqrt(x) + 1/y", "sqrt of negative value"),
    ("1/y + -sqrt(x)", "division by zero"),
])
def test_operands_raise_in_source_order(src, message):
    # a sum with a negated operand is emitted as a difference, still lhs first
    e = parse_expr(src, {"x", "y"})
    for evaluate, x, y in ((eval_expr, -1.0, 0.0), (eval_expr_array, np.array([-1.0]), np.array([0.0]))):
        with pytest.raises(DomainError) as exc:
            evaluate(e, {"x": x, "y": y})
        assert str(exc.value) == message


SIGNED = [-0.0, 0.0, -math.inf, math.inf, 5e-324, -5e-324, 1e308, -1e308, 1.5, -2.0 / 3.0, 0.1, -3.0]


@pytest.mark.parametrize("src, unfolded", [
    ("a + -b", lambda a, b: np.add(a, np.negative(b))),
    ("-a + b", lambda a, b: np.add(np.negative(a), b)),
    ("-a + -b", lambda a, b: np.add(np.negative(a), np.negative(b))),
])
def test_sums_of_negations_round_like_the_unfolded_sum(src, unfolded):
    """``a + (-b)`` runs as ``a - b`` and ``(-a) + b`` as ``b - a``: bit for bit the
    sum of the negation, signed zeros included; a non-finite one raises."""
    e = parse_expr(src, {"a", "b"})
    ops = engine._lower_expr(e, ("a", "b"))[0].code[:, 0].tolist()
    assert engine.OP_ADD not in ops and ops.count(engine.OP_NEG) == (src == "-a + -b")
    a, b = (g.ravel() for g in np.meshgrid(SIGNED, SIGNED))
    with np.errstate(all="ignore"):
        want = unfolded(a, b)
    ok = np.isfinite(want)
    assert eval_expr_array(e, {"a": a[ok], "b": b[ok]}).tobytes() == want[ok].tobytes()
    for x, y, w in zip(a.tolist(), b.tolist(), want.tolist()):
        if math.isfinite(w):
            assert np.float64(eval_expr(e, {"a": x, "b": y})).tobytes() == np.float64(w).tobytes()
        else:
            with pytest.raises(DomainError, match="non-finite result"):
                eval_expr(e, {"a": x, "b": y})
    spelled = {"a + -b": "a - b", "-a + b": "b - a", "-a + -b": "-a - b"}[src]
    assert eval_expr_array(parse_expr(spelled, {"a", "b"}), {"a": a[ok], "b": b[ok]}).tobytes() == want[ok].tobytes()


# Only the result is checked for finiteness, by both variants: an intermediate
# may overflow if the result comes back finite.
@pytest.mark.parametrize("src, want", [
    ("1/exp(1000)", 0.0),
    ("0*exp(1000)", "non-finite result"),
    ("exp(1000)-exp(1000)", "non-finite result"),
    ("sin(exp(1000))", "non-finite result"),
    ("exp(1000)/exp(1000)", "non-finite result"),
    ("-1/exp(1000)^2", -0.0),
])
def test_overflowing_intermediates_scalar_and_array_agree(src, want):
    e = parse_expr(src, ALL)
    if isinstance(want, float):
        for got in (eval_expr(e, {}), float(eval_expr_array(e, {}))):
            assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
        return
    for evaluate in (eval_expr, eval_expr_array):
        with pytest.raises(DomainError) as exc:
            evaluate(e, {})
        assert str(exc.value) == want


TURBULENT_P = 'family = turbulent\np = "{}"\nk1 = "1/2*exp(-t)"\nk2 = "exp(-s)"\nu0 = 1\n'


def test_compile_folds_a_constant_through_an_overflowing_intermediate(tmp_path, capsys):
    """A constant p of 1/exp(1000) folds to 0 (exit 0, the netlist of p = 0);
    one of 0*exp(1000) + 1/8 is NaN, an input error (exit 2)."""
    from memsolve.cli import main

    nets = []
    for name, p in (("overflow", "1/exp(1000)"), ("zero", "0")):
        (tmp_path / f"{name}.eq").write_text(TURBULENT_P.format(p))
        nets.append(tmp_path / f"{name}.net")
        assert main(["compile", str(tmp_path / f"{name}.eq"), "-o", str(nets[-1]), "--quiet"]) == 0
    assert nets[0].read_text() == nets[1].read_text()
    (tmp_path / "nan.eq").write_text(TURBULENT_P.format("0*exp(1000) + 1/8"))
    capsys.readouterr()
    assert main(["compile", str(tmp_path / "nan.eq"), "-o", str(tmp_path / "nan.net"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "non-finite result" in err
    assert "p fails on the integrating-factor fit grid at t = 0.0: non-finite result" in err
    assert not (tmp_path / "nan.net").exists()


def test_fit_grid_domain_error_names_p_and_the_time(tmp_path, capsys):
    from memsolve.cli import main

    # sqrt(2 - t) has no closed-form integral; the fit grid of [0, 8] steps by 1/512
    (tmp_path / "sqrt.eq").write_text(TURBULENT_P.format("0.1*sqrt(2 - t)"))
    assert main(["compile", str(tmp_path / "sqrt.eq"), "-o", str(tmp_path / "sqrt.net"), "--quiet"]) == 2
    assert ("p fails on the integrating-factor fit grid at t = 2.001953125: sqrt of negative value"
            in capsys.readouterr().err)
    assert not (tmp_path / "sqrt.net").exists()


def test_eval_is_deterministic():
    e = parse_expr("sin(t) + cos(s)*sqrt(v) - abs(omega)^2", ALL)
    b = {"t": 0.3, "s": -1.2, "v": 2.0, "omega": -0.7}
    assert eval_expr(e, b) == eval_expr(e, b)


def test_eval_array_matches_scalar():
    e = parse_expr("exp(-t)*t/(1+t)", {"t"})
    ts = np.linspace(0.0, 3.0, 7)
    arr = eval_expr_array(e, {"t": ts})
    for ti, ai in zip(ts, arr):
        assert ai == pytest.approx(eval_expr(e, {"t": ti}), abs=0.0, rel=1e-15)
    # Bindings broadcast: no variable gives a 0-d array, a scalar t spreads over
    # an array v, and a (n, 1) column of times over (n, W) lanes.
    assert eval_expr_array(parse_expr("2^3", ALL), {}).shape == ()
    e = parse_expr("v*exp(-t)", ALL)
    v = np.arange(1.0, 7.0).reshape(3, 2)
    assert eval_expr_array(e, {"v": v[:, 0], "t": 0.5}).shape == (3,)
    lanes = eval_expr_array(e, {"v": v, "t": np.array([[0.0], [1.0], [2.0]])})
    assert lanes.shape == (3, 2)
    assert lanes[2, 1] == pytest.approx(eval_expr(e, {"v": 6.0, "t": 2.0}), abs=0.0, rel=1e-15)


def test_eval_array_clamped_counts():
    e = parse_expr("ln(v)", {"v"})
    vals, clamps = eval_expr_array_clamped(e, {"v": np.array([1.0, 1e-12, 0.5])}, 1e-9)
    assert clamps == 1
    assert vals[1] == pytest.approx(math.log(1e-9))
    with pytest.raises(DomainError):
        eval_expr_array(e, {"v": np.array([1.0, 0.0])})
    # every ln counts its own clamps; the other guards still raise
    e = parse_expr("ln(v) + ln(v*t)", ALL)
    _, clamps = eval_expr_array_clamped(e, {"v": np.array([1e-12, 1.0]), "t": 0.0}, 1e-9)
    assert clamps == 3
    for src, value, message in DOMAIN_CASES[1:]:
        with pytest.raises(DomainError) as exc:
            eval_expr_array_clamped(parse_expr(src, ALL), {"t": np.array([1.0, value])}, 1e-9)
        assert str(exc.value) == message


def test_variables_and_substitute():
    e = parse_expr("exp(s)*s/(1+s)", {"s"})
    assert variables(e) == {"s"}
    et = substitute(e, {"s": Var("t")})
    assert variables(et) == {"t"}
    assert et == parse_expr("exp(t)*t/(1+t)", {"t"})
    assert pretty(et) == "exp(t)*t/(1 + t)"


def test_map_constants_preorder():
    e = parse_expr("-2 + 0.001*v + exp(-t)*omega", {"t", "v", "omega"})
    seen = []
    e2 = map_constants(e, lambda i, c: seen.append((i, c)) or c * 2)
    assert seen == [(0, 2.0), (1, 0.001)]
    assert eval_expr(e2, {"t": 0.0, "v": 0.0, "omega": 0.0}) == -4.0


# --- round-trip property -----------------------------------------------------

_vars = st.sampled_from(["t", "s", "v", "omega"])
_consts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _exprs(depth):
    if depth == 0:
        return st.one_of(_consts.map(Const), _vars.map(Var))
    sub = _exprs(depth - 1)
    return st.one_of(
        _consts.map(Const),
        _vars.map(Var),
        st.tuples(st.sampled_from(["neg", "exp", "ln", "sin", "cos", "sqrt", "abs"]), sub).map(
            lambda p: Unary(*p)
        ),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), sub, sub).map(
            lambda p: Binary(*p)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(4))
def test_pretty_parse_round_trip(e):
    assert parse_expr(pretty(e), ALL) == e


@settings(max_examples=100, deadline=None)
@given(_exprs(3))
def test_pretty_is_stable(e):
    assert pretty(parse_expr(pretty(e), ALL)) == pretty(e)
