"""Analog computing blocks, their transfer characteristics and invariants.

The characteristics stated here are executed in one place only:
:func:`memsolve.netlist.lower` emits them onto the instruction tape.

The simulation is dimensionless: capacitances, resistances and time are
unitless reals with C = 1 and R = 1 unless declared otherwise, and
operational amplifiers are ideal (no slew or saturation model).

Sign conventions: the adder and the integrator invert.  A sign inverter
is the special case of a single-input adder with unit gain.  A
memductance may evaluate negative; that is reported as a passivity
violation but is not an error, since tracking active-device behavior is
part of what the simulator measures.

Each kind declares every field once, on its attribute, in text order:
the netlist parser and printer, :func:`element_inputs`,
:func:`element_problems` and the tolerance draws all read them.  The
lowering reads an element's numbers with arithmetic alone, so a number
may also be a lane column: one value per parameter set of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from typing import Union

from .exprs import Expr, format_number, map_constants, parse_expr, pretty, variables

__all__ = [
    "Adder",
    "Integrator",
    "Potentiometer",
    "Multiplier",
    "FunctionGenerator",
    "MemIntegrator",
    "Element",
    "element_problems",
]


def take(texts: list[str], key: str, required: bool = True) -> str | None:
    """The one value given for a single-valued key."""
    if len(texts) > 1:
        raise ValueError(f"duplicate field {key!r}")
    if not texts and required:
        raise ValueError(f"missing field {key!r}")
    return texts[0] if texts else None


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad number for {what}: {text!r}") from None


class Field:
    """A ``key=<real>`` field of a kind, assigned to its attribute; the subclasses are the other shapes.

    ``draw`` is its place in the draw order if it holds component values.
    ``ok`` is the validity rule of each number it holds, ``problem`` the
    diagnostic (``{x}``: the number) for one that breaks it; ``redraw``
    makes it the draws' redraw rule too.  An ``initial`` state's rule is
    finiteness, and its breaches make one problem of their element.
    ``rank`` orders reading, and so picks the fault reported for a line
    with several.
    """

    rank, optional, few = 1, False, ""

    def __init__(self, key, draw=None, ok=None, problem="", redraw=False, initial=False):
        self.key, self.draw, self.ok, self.problem = key, draw, math.isfinite if initial else ok, problem
        self.redraw, self.initial = ok if redraw else None, initial

    def __set_name__(self, kind, attr):
        self.attr = attr

    def read(self, kind, texts):
        return {self.attr: _number(take(texts, self.key), self.key)}

    def write(self, elem):
        return [f"{self.key}={format_number(getattr(elem, self.attr))}"]

    def problems(self, kind, elem):
        x = getattr(elem, self.attr)
        return () if self.ok(x) else [self.problem.format(x=repr(float(x)))]

    def replace(self, attrs, fn):
        """Replace in ``attrs`` each component value ``x`` it holds, in draw order, by ``fn(x, self)``."""
        attrs[self.attr] = fn(attrs[self.attr], self)


class Expression(Field):
    """``key="<expr>"`` over the variables ``scope``; ``problem`` names the others as ``{extra}``."""

    def __init__(self, key, scope, **rule):
        super().__init__(key, **rule)
        self.scope = scope

    def read(self, kind, texts):
        return {self.attr: parse_expr(take(texts, self.key), self.scope)}

    def write(self, elem):
        return [f'{self.key}="{pretty(getattr(elem, self.attr))}"']

    def problems(self, kind, elem):
        extra = variables(getattr(elem, self.attr)) - self.scope
        return [self.problem.format(extra=sorted(extra))] if extra else []

    def replace(self, attrs, fn):  # each literal is a component value, with no rule of its own
        attrs[self.attr] = map_constants(attrs[self.attr], lambda _i, c: fn(c, self))


class Inputs(Field):
    """Input nodes ``key=<node>``: one (None if ``optional`` and absent) or, with ``many``, a tuple.

    With ``values``, a tuple of ``key=<node>:<real>`` whose numbers (``what``, written ``<symbol>``)
    go to attribute ``values``.  ``count`` rules on how many; ``few`` (``{n}``) says when it fails.
    """

    def __init__(self, key, optional=False, many=False, count=None, few="",
                 values=None, what="", symbol="", **rule):
        super().__init__(key, **rule)
        self.optional, self.many, self.count, self.few = optional, many or values is not None, count, few
        self.values, self.what, self.symbol, self.rank = values, what, symbol, 0 if self.many else 2

    def read(self, kind, texts):
        if not self.many:
            return {self.attr: take(texts, self.key, not self.optional)}
        if self.values is None:
            return {self.attr: tuple(texts)}
        pairs = []
        for v in texts:
            if ":" not in v:
                raise ValueError(f"{kind} input must be <node>:<{self.symbol}>, got {v!r}")
            node, number = v.rsplit(":", 1)
            pairs.append((node, _number(number, self.what)))
        nodes, numbers = zip(*pairs) if pairs else ((), ())
        return {self.attr: nodes, self.values: numbers}

    def write(self, elem):
        if self.values is None:
            return [f"{self.key}={n}" for n in self.nodes(elem)]
        pairs = zip(self.nodes(elem), getattr(elem, self.values))
        return [f"{self.key}={n}:{format_number(x)}" for n, x in pairs]

    def nodes(self, elem):
        node = getattr(elem, self.attr)
        return tuple(node) if self.many else () if node is None else (node,)

    def problems(self, kind, elem):
        n = len(self.nodes(elem))
        out = [] if self.count is None or self.count(n) else [self.few.format(n=n)]
        if self.values is not None:
            numbers = getattr(elem, self.values)
            if len(numbers) != n:
                out.append(f"{kind} {self.what}/input arity mismatch")
            out += [self.problem.format(x=repr(float(x))) for x in numbers if not self.ok(x)]
        return out

    def replace(self, attrs, fn):
        attrs[self.values] = tuple(fn(x, self) for x in attrs[self.values])


class _Kind:
    """An element kind: its text name ``KIND`` and its ``FIELDS``, in text order.

    ``MEMORY`` kinds hold state, which breaks combinational paths;
    ``COUNTS`` are the :func:`memsolve.netlist.netlist_stats` counters it adds to.
    """

    MEMORY, COUNTS = False, ()

    def __init_subclass__(cls):
        cls.FIELDS = tuple(f for f in vars(cls).values() if isinstance(f, Field))
        for f in cls.FIELDS:  # for the dataclass: required, or None if optional
            setattr(cls, f.attr, field(default=None if f.optional else MISSING))
        cls.DRAWS = tuple(sorted((f for f in cls.FIELDS if f.draw is not None), key=lambda f: f.draw))
        cls.INITIALS = tuple(f for f in cls.FIELDS if f.initial)
        cls.RULES = tuple(f for f in cls.FIELDS if f.problem or f.few)  # the fields with a diagnostic
        cls.INPUTS = next((f for f in cls.FIELDS if isinstance(f, Inputs)), None)  # its one wiring field

    def counts(self) -> tuple[str, ...]:
        return self.COUNTS


def _positive(x) -> bool:
    return 0.0 < x < math.inf


_CAPACITANCE = "capacitance must be positive, got {x}"
_MEM_VARS, _MEM_SCOPE = frozenset({"t", "v", "omega"}), "allowed variables are t, v, omega"


@dataclass(frozen=True)
class Adder(_Kind):
    """Inverting weighted sum: out = -sum(K_i * in_i), K_i = R_f/R_i."""

    KIND, COUNTS = "adder", ("adders",)
    gains: tuple[float, ...]
    inputs: tuple[str, ...] = Inputs("in", count=lambda n: n > 0, few="adder has no inputs",
                                     values="gains", what="gain", symbol="gain",
                                     draw=0, ok=math.isfinite, problem="non-finite adder gain {x}")

    def counts(self):
        inverter = len(self.gains) == 1 and self.gains[0] == 1.0
        return ("adders", "sign_inverters") if inverter else self.COUNTS


@dataclass(frozen=True)
class Integrator(_Kind):
    """Inverting integrator: d(out)/dt = -(1/C) * sum(in_i / R_i), out(0) = ic."""

    KIND, MEMORY, COUNTS = "integrator", True, ("integrators",)
    c: float = Field("C", draw=0, ok=_positive, problem=_CAPACITANCE)
    ic: float = Field("ic", draw=2, initial=True)
    inputs: tuple[str, ...] = Inputs("in", values="resistances", what="resistance", symbol="R", draw=1,
                                     ok=_positive, problem="input resistance must be positive, got {x}")
    resistances: tuple[float, ...]


@dataclass(frozen=True)
class Potentiometer(_Kind):
    """Passive divider: out = alpha * in with 0 < alpha < 1."""

    KIND = "pot"
    input: str = Inputs("in")
    alpha: float = Field("alpha", draw=0, ok=lambda a: 0.0 < a < 1.0, redraw=True,
                         problem="potentiometer alpha must satisfy 0 < alpha < 1, got {x}")


@dataclass(frozen=True)
class Multiplier(_Kind):
    KIND = "mul"
    inputs: tuple[str, ...] = Inputs("in", many=True, count=lambda n: n == 2,
                                     few="multiplier needs exactly 2 inputs, got {n}")


@dataclass(frozen=True)
class FunctionGenerator(_Kind):
    KIND = "fgen"
    signal: Expr = Expression("expr", frozenset({"t"}), draw=0,
                              problem="function generator signal uses {extra}, only t is allowed")


@dataclass(frozen=True)
class MemIntegrator(_Kind):
    """Integrator whose input resistor is replaced by a memristor.

    With input voltage u (the element's own output when ``input`` is
    None, i.e. the feedback wiring), the lowered dynamics are
    d(out)/dt = -(1/C) * g(t, u, omega) * u and d(omega)/dt = f(t, u, omega).
    """

    KIND, MEMORY, COUNTS = "memintegrator", True, ("integrators", "memristors")
    c: float = Field("C", draw=0, ok=_positive, problem=_CAPACITANCE)
    ic: float = Field("ic", draw=1, initial=True)
    g: Expr = Expression("g", _MEM_VARS, draw=3, problem="memristor g uses {extra}, " + _MEM_SCOPE)
    f: Expr = Expression("f", _MEM_VARS, draw=4, problem="memristor f uses {extra}, " + _MEM_SCOPE)
    omega0: float = Field("omega0", draw=2, initial=True)
    input: str | None = Inputs("in", optional=True)


Element = Union[Adder, Integrator, Potentiometer, Multiplier, FunctionGenerator, MemIntegrator]
KINDS = {kind.KIND: kind for kind in Element.__args__}


def element_inputs(elem: Element) -> tuple[str, ...]:
    return () if elem.INPUTS is None else elem.INPUTS.nodes(elem)


def element_problems(elem: Element) -> list[str]:
    """Invariant violations of a single element (empty list when clean), in text order."""
    kind, problems = elem.KIND, []
    for f in elem.RULES:
        problems += f.problems(kind, elem)
    if not all(f.ok(getattr(elem, f.attr)) for f in elem.INITIALS):
        problems.append("non-finite initial condition")
    return problems
