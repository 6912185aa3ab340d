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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .exprs import Expr, variables

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


@dataclass(frozen=True)
class Adder:
    """Inverting weighted sum: out = -sum(K_i * in_i), K_i = R_f/R_i."""

    gains: tuple[float, ...]
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class Integrator:
    """Inverting integrator: d(out)/dt = -(1/C) * sum(in_i / R_i), out(0) = ic."""

    c: float
    ic: float
    inputs: tuple[str, ...]
    resistances: tuple[float, ...]


@dataclass(frozen=True)
class Potentiometer:
    """Passive divider: out = alpha * in with 0 < alpha < 1."""

    alpha: float
    input: str


@dataclass(frozen=True)
class Multiplier:
    inputs: tuple[str, ...]  # exactly two


@dataclass(frozen=True)
class FunctionGenerator:
    signal: Expr  # over {t}


@dataclass(frozen=True)
class MemIntegrator:
    """Integrator whose input resistor is replaced by a memristor.

    With input voltage u (the element's own output when ``input`` is
    None, i.e. the feedback wiring), the lowered dynamics are
    d(out)/dt = -(1/C) * g(t, u, omega) * u and d(omega)/dt = f(t, u, omega).
    """

    c: float
    ic: float
    g: Expr        # over {t, v, omega}
    f: Expr        # over {t, v, omega}
    omega0: float
    input: str | None = None


Element = Union[Adder, Integrator, Potentiometer, Multiplier, FunctionGenerator, MemIntegrator]


_MEM_VARS = frozenset({"t", "v", "omega"})
_FGEN_VARS = frozenset({"t"})


def element_problems(elem: Element) -> list[str]:
    """Invariant violations of a single element (empty list when clean)."""
    problems = []
    if isinstance(elem, Adder):
        if not elem.inputs:
            problems.append("adder has no inputs")
        if len(elem.gains) != len(elem.inputs):
            problems.append("adder gain/input arity mismatch")
        for k in elem.gains:
            if not math.isfinite(k):
                problems.append(f"non-finite adder gain {k!r}")
    elif isinstance(elem, Integrator):
        if elem.c <= 0.0 or not math.isfinite(elem.c):
            problems.append(f"capacitance must be positive, got {elem.c!r}")
        if len(elem.resistances) != len(elem.inputs):
            problems.append("integrator resistance/input arity mismatch")
        for r in elem.resistances:
            if r <= 0.0 or not math.isfinite(r):
                problems.append(f"input resistance must be positive, got {r!r}")
        if not math.isfinite(elem.ic):
            problems.append("non-finite initial condition")
    elif isinstance(elem, Potentiometer):
        if not (0.0 < elem.alpha < 1.0):
            problems.append(f"potentiometer alpha must satisfy 0 < alpha < 1, got {elem.alpha!r}")
    elif isinstance(elem, Multiplier):
        if len(elem.inputs) != 2:
            problems.append(f"multiplier needs exactly 2 inputs, got {len(elem.inputs)}")
    elif isinstance(elem, FunctionGenerator):
        extra = variables(elem.signal) - _FGEN_VARS
        if extra:
            problems.append(f"function generator signal uses {sorted(extra)}, only t is allowed")
    elif isinstance(elem, MemIntegrator):
        if elem.c <= 0.0 or not math.isfinite(elem.c):
            problems.append(f"capacitance must be positive, got {elem.c!r}")
        for name, expr in (("g", elem.g), ("f", elem.f)):
            extra = variables(expr) - _MEM_VARS
            if extra:
                problems.append(f"memristor {name} uses {sorted(extra)}, allowed variables are t, v, omega")
        if not math.isfinite(elem.ic) or not math.isfinite(elem.omega0):
            problems.append("non-finite initial condition")
    else:
        problems.append(f"unknown element type {type(elem).__name__}")
    return problems
