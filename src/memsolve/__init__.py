"""memsolve: analog-computer simulation with memristive integrators.

Compiles integro-differential equations into analog circuit netlists
(adders, integrators, potentiometers, multipliers, signal generators
and memristive integrators), integrates them with a fixed-step RK4
engine, cross-checks against an independent direct discretization of
the original equations, and measures solution robustness under
component tolerances.
"""

from .exprs import (
    DomainError,
    Expr,
    ExprError,
    ExprSyntaxError,
    UnknownVariableError,
    parse_expr,
    pretty,
)
from .engine import eval_expr
from .elements import (
    Adder,
    FunctionGenerator,
    Integrator,
    MemIntegrator,
    Multiplier,
    Potentiometer,
)
from .netlist import (
    Diagnostic,
    Netlist,
    NetlistParseError,
    OdeSystem,
    ValidationFailed,
    load_netlist,
    lower,
    netlist_stats,
    parse_netlist,
    validate,
)
from .waveform import GridMismatchError, Waveform
from .solver import SimConfig, SimResult, SimulationError, relative_error, simulate
from .oracle import IdeSpec, convergence_study, solve_ide, solve_memristive_chain
from .compiler import (
    EquationSpecError,
    HigherOrderComposed,
    HigherOrderSingleMem,
    LinearFirstOrderIde,
    LinearOdeSystem,
    TurbulentIde,
    UnsupportedEquationError,
    UnsupportedKernelError,
    VolterraPopulation,
    compile_equation,
    compile_higher_order,
    compile_linear,
    compile_linear_first_order,
    compile_turbulent,
    compile_volterra_population,
    load_equation_spec,
    parse_equation_spec,
    to_ide_spec,
)
from .tolerance import StabilityReport, ToleranceConfig, perturb, stability_run

__version__ = "0.1.0"
