"""Circuit netlists: a directed graph of elements and named signal nodes.

File format: one declaration per line, ``#`` starts a comment; see
``docs/netlist-format.md``.  An element line is ``<kind> <id> out=<node>``
and the fields its kind declares in :mod:`memsolve.elements`; any other
key is an error.  ``node`` lines are optional (nodes referenced by
elements are registered implicitly) but emitted by the serializer.
``valid_to <t>`` declares the horizon the expressions hold to; every
``#`` line, ``# meta:`` included, is only a comment.  The
optional ``in=`` of a memristive integrator defaults to its own output,
which is the feedback wiring that turns the element into an
integro-differential building block; memristors exist only in this
series-input position, so free-standing memristors cannot be expressed
at all.

Validation collects diagnostics instead of aborting on the first error.
Lowering produces an :class:`OdeSystem`: a state layout (integrator
outputs first, then memristor state variables, both in element-id
order) plus a register program computing every node value and state
derivative from (t, states).
"""

from __future__ import annotations

import math
import re
import shlex
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    KINDS,
    Adder,
    Element,
    FunctionGenerator,
    Integrator,
    MemIntegrator,
    Multiplier,
    Potentiometer,
    element_inputs,
    element_problems,
    take,
)
from .engine import Program, TapeBuilder
from .exprs import Expr, ExprError, format_number, parse_expr, pretty, variables

__all__ = [
    "Netlist",
    "OdeSystem",
    "StateSlot",
    "Diagnostic",
    "NetlistParseError",
    "ValidationFailed",
    "parse_netlist",
    "load_netlist",
    "validate",
    "lower",
    "netlist_stats",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

TRANSFORM_VARS = frozenset({"v", "t"})


class NetlistParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Diagnostic:
    where: str   # element id or node name
    rule: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.where}: {self.message}"


class ValidationFailed(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("netlist validation failed:\n" + "\n".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class Netlist:
    elements: dict[str, Element] = field(default_factory=dict)
    out_node: dict[str, str] = field(default_factory=dict)
    nodes: set[str] = field(default_factory=set)
    output_node: str | None = None
    output_transform: Expr | None = None
    valid_to: float | None = None   # the horizon the expressions hold to, when they hold on less
    meta: dict[str, str] = field(default_factory=dict)   # written as comments, never read back

    # -- construction -------------------------------------------------

    def add_node(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid node name {name!r}")
        self.nodes.add(name)
        return name

    def add(self, elem_id: str, elem: Element, out: str) -> str:
        if not _NAME_RE.match(elem_id):
            raise ValueError(f"invalid element id {elem_id!r}")
        if elem_id in self.elements:
            raise ValueError(f"duplicate element id {elem_id!r}")
        self.elements[elem_id] = elem
        self.out_node[elem_id] = self.add_node(out)
        for node in element_inputs(elem):
            self.add_node(node)
        return elem_id

    def set_output(self, node: str, transform: Expr | None = None) -> None:
        self.output_node = self.add_node(node)
        self.output_transform = transform

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.meta):
            lines.append(f"# meta: {key}={self.meta[key]}")
        if self.valid_to is not None:
            lines.append(f"valid_to {format_number(self.valid_to)}")
        for node in sorted(self.nodes):
            lines.append(f"node {node}")
        for eid in sorted(self.elements):
            e = self.elements[eid]
            words = [w for f in e.FIELDS for w in f.write(e)]
            lines.append(" ".join([e.KIND, eid, f"out={self.out_node[eid]}", *words]))
        if self.output_node is not None:
            out = f"output {self.output_node}"
            if self.output_transform is not None:
                out += f' transform="{pretty(self.output_transform)}"'
            lines.append(out)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())


# ---------------------------------------------------------------------------
# Parsing


def load_netlist(path) -> Netlist:
    with open(path) as fh:
        return parse_netlist(fh.read())


def parse_netlist(text: str) -> Netlist:
    net = Netlist()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise NetlistParseError(f"bad quoting: {exc}", lineno) from None
        if not words:
            continue
        kind, args = words[0], words[1:]
        try:
            _parse_declaration(net, kind, args, lineno)
        except NetlistParseError:
            raise
        except (ValueError, ExprError) as exc:
            raise NetlistParseError(str(exc), lineno) from None
    return net


def _parse_declaration(net: Netlist, kind: str, args: list[str], lineno: int) -> None:
    if kind == "node":
        if len(args) != 1:
            raise NetlistParseError("node takes exactly one name", lineno)
        net.add_node(args[0])
        return
    if kind == "valid_to":
        if len(args) != 1 or net.valid_to is not None:
            raise NetlistParseError("valid_to takes one number, once", lineno)
        net.valid_to = float(args[0])
        return

    cls = KINDS.get(kind)
    if kind == "output":
        if not args:
            raise NetlistParseError("output needs a node name", lineno)
        if net.output_node is not None:
            raise NetlistParseError("duplicate output declaration", lineno)
    elif cls is None:
        raise NetlistParseError(f"unknown declaration {kind!r}", lineno)
    elif not args:
        raise NetlistParseError(f"{kind} needs an element id", lineno)
    given: dict[str, list[str]] = {}   # key -> its values, in line order
    for item in args[1:]:
        if "=" not in item:
            raise NetlistParseError(f"expected key=value, got {item!r}", lineno)
        k, v = item.split("=", 1)
        given.setdefault(k, []).append(v)
    if kind == "output":
        transform = take(given.pop("transform", []), "transform", required=False)
        net.set_output(args[0], parse_expr(transform, TRANSFORM_VARS) if transform is not None else None)
    else:
        out = take(given.pop("out", []), "out")
        attrs = {}
        for f in sorted(cls.FIELDS, key=lambda f: f.rank):
            attrs.update(f.read(kind, given.pop(f.key, [])))
        net.add(args[0], cls(**attrs), out)
    if given:  # checked last, so that a line's other faults are reported first
        raise NetlistParseError(f"unknown field {next(iter(given))!r}", lineno)


# ---------------------------------------------------------------------------
# Validation


def validate(net: Netlist) -> list[Diagnostic]:
    """Structural and element-invariant checks; returns all violations."""
    diags: list[Diagnostic] = []

    for eid in sorted(net.elements):
        for problem in element_problems(net.elements[eid]):
            diags.append(Diagnostic(eid, "element-invariant", problem))

    drivers: dict[str, list[str]] = {}
    for eid in sorted(net.elements):
        drivers.setdefault(net.out_node[eid], []).append(eid)
    for node, who in sorted(drivers.items()):
        if len(who) > 1:
            diags.append(Diagnostic(node, "single-driver", f"node driven by {', '.join(who)}"))

    for eid in sorted(net.elements):
        for node in element_inputs(net.elements[eid]):
            if node not in drivers:
                diags.append(Diagnostic(eid, "undriven-node", f"input node {node!r} has no driver"))

    if net.output_node is None:
        diags.append(Diagnostic("<output>", "output-missing", "no output node declared"))
    elif net.output_node not in drivers:
        diags.append(Diagnostic(net.output_node, "output-undriven", "output node has no driver"))
    if net.valid_to is not None and not 0.0 < net.valid_to < math.inf:
        diags.append(Diagnostic("<valid_to>", "valid-to", f"must be a positive finite time, got {net.valid_to!r}"))
    if net.output_transform is not None:
        extra = variables(net.output_transform) - TRANSFORM_VARS
        if extra:
            diags.append(
                Diagnostic("<output>", "transform-vars", f"transform uses {sorted(extra)}, allowed: v, t")
            )

    # Algebraic loops: a combinational cycle is any cycle in the graph
    # restricted to memoryless elements (integrator outputs are state and
    # break combinational paths).
    node_owner = {net.out_node[eid]: eid for eid, e in net.elements.items() if not e.MEMORY}
    succ: dict[str, list[str]] = {eid: [] for eid in node_owner.values()}
    for eid in node_owner.values():
        for node in element_inputs(net.elements[eid]):
            src = node_owner.get(node)
            if src is not None:
                succ[src].append(eid)
    state: dict[str, int] = {}

    def visit(u: str, stack: list[str]):
        state[u] = 1
        stack.append(u)
        for w in succ[u]:
            if state.get(w, 0) == 1:
                cycle = stack[stack.index(w):] + [w]
                diags.append(
                    Diagnostic(w, "algebraic-loop",
                               "combinational cycle without a memory element: " + " -> ".join(cycle))
                )
            elif state.get(w, 0) == 0:
                visit(w, stack)
        stack.pop()
        state[u] = 2

    for eid in sorted(succ):
        if state.get(eid, 0) == 0:
            visit(eid, [])

    return diags


# ---------------------------------------------------------------------------
# Lowering


@dataclass(frozen=True)
class StateSlot:
    element_id: str
    kind: str        # "integrator_output" | "memristor_omega"
    initial: float


@dataclass
class OdeSystem:
    """Lowered circuit: state layout plus the derivative program."""

    states: list[StateSlot]
    program: Program
    node_regs: dict[str, int]
    omega_state_index: dict[str, int]
    output_node: str
    output_transform: Expr | None
    valid_to: float | None      # the netlist's declared horizon

    @property
    def n_states(self) -> int:
        return len(self.states)

    def y0(self) -> np.ndarray:
        return np.array([s.initial for s in self.states], dtype=np.float64)

    def state_names(self) -> list[str]:
        return [
            s.element_id if s.kind == "integrator_output" else f"omega:{s.element_id}"
            for s in self.states
        ]


def lower(net: Netlist) -> OdeSystem:
    """Lower a valid netlist to an executable ODE system.

    Deterministic: state slots and program registers are assigned in
    element-id order, so equal netlists lower to equal systems.
    """
    diags = validate(net)
    if diags:
        raise ValidationFailed(diags)

    integ_ids = sorted(eid for eid, e in net.elements.items() if e.MEMORY)
    mem_ids = sorted(eid for eid, e in net.elements.items() if isinstance(e, MemIntegrator))

    states = [StateSlot(eid, "integrator_output", float(net.elements[eid].ic)) for eid in integ_ids]
    states += [StateSlot(eid, "memristor_omega", float(net.elements[eid].omega0)) for eid in mem_ids]
    omega_index = {eid: len(integ_ids) + j for j, eid in enumerate(mem_ids)}

    b = TapeBuilder()
    t_reg = b.load_t()
    state_regs = [b.load_state(i) for i in range(len(states))]

    node_regs: dict[str, int] = {}
    for i, eid in enumerate(integ_ids):
        node_regs[net.out_node[eid]] = state_regs[i]

    # Memoryless elements in dependency order (deterministic: passes in id order).
    pending = sorted(eid for eid, e in net.elements.items() if not e.MEMORY)
    while pending:
        rest = []
        progressed = False
        for eid in pending:
            elem = net.elements[eid]
            ins = element_inputs(elem)
            if all(n in node_regs for n in ins):
                in_regs = [node_regs[n] for n in ins]
                node_regs[net.out_node[eid]] = _emit_memoryless(b, elem, in_regs, t_reg)
                progressed = True
            else:
                rest.append(eid)
        if not progressed:
            raise AssertionError(f"dependency cycle slipped past validation: {rest}")
        pending = rest

    deriv_regs: list[int] = [0] * len(states)
    g_regs: list[int] = []
    for i, eid in enumerate(integ_ids):
        elem = net.elements[eid]
        if isinstance(elem, Integrator):
            if elem.inputs:
                weights = [1.0 / (elem.c * r) for r in elem.resistances]
                deriv_regs[i] = _inverting_sum(b, weights, [node_regs[n] for n in elem.inputs])
            else:
                deriv_regs[i] = b.const(0.0)
        else:
            u_reg = node_regs[elem.input] if elem.input is not None else node_regs[net.out_node[eid]]
            env = {"t": t_reg, "v": u_reg, "omega": state_regs[omega_index[eid]]}
            g_reg = b.compile_expr(elem.g, env)
            g_regs.append(g_reg)
            current = b.binary("mul", g_reg, u_reg)
            deriv_regs[i] = b.unary("neg", b.binary("mul", b.const(1.0 / elem.c), current))
            deriv_regs[omega_index[eid]] = b.compile_expr(elem.f, env)

    program = b.finish(deriv_regs, g_regs)
    return OdeSystem(
        states=states,
        program=program,
        node_regs=node_regs,
        omega_state_index=omega_index,
        output_node=net.output_node,
        output_transform=net.output_transform,
        valid_to=net.valid_to,
    )


def _inverting_sum(b: TapeBuilder, weights, regs) -> int:
    """-(w0*x0 + w1*x1 + ...), the summing stage of adders and integrators."""
    terms = [b.binary("mul", b.const(w), r) for w, r in zip(weights, regs)]
    acc = terms[0]
    for term in terms[1:]:
        acc = b.binary("add", acc, term)
    return b.unary("neg", acc)


def _emit_memoryless(b: TapeBuilder, elem: Element, in_regs, t_reg) -> int:
    if isinstance(elem, Adder):
        return _inverting_sum(b, elem.gains, in_regs)
    if isinstance(elem, Potentiometer):
        return b.binary("mul", b.const(elem.alpha), in_regs[0])
    if isinstance(elem, Multiplier):
        return b.binary("mul", in_regs[0], in_regs[1])
    if isinstance(elem, FunctionGenerator):
        return b.compile_expr(elem.signal, {"t": t_reg})
    raise TypeError(f"not a memoryless element: {type(elem).__name__}")


def netlist_stats(net: Netlist) -> dict[str, int]:
    """Resource counts; a sign inverter is a single-input adder with unit gain."""
    stats = dict.fromkeys(("integrators", "memristors", "adders", "sign_inverters"), 0)
    for e in net.elements.values():
        for name in e.counts():
            stats[name] += 1
    return {**stats, "elements": len(net.elements)}
