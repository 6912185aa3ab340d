import math

import numpy as np
import pytest

from memsolve.netlist import parse_netlist

# Second-order feedback loop solving y'' = -y' + y with y(0)=1, y'(0)=0.
# Integrator outputs carry o1 = -y' and o2 = y.
FIG2_NETLIST = """
integrator int1 out=o1 C=1 ic=0 in=o1:1 in=o2:1
integrator int2 out=o2 C=1 ic=1 in=o1:1
output o2
"""


@pytest.fixture
def fig2_netlist():
    return parse_netlist(FIG2_NETLIST)


def fig2_closed_form(t):
    """Characteristic-root solution of y'' = -y' + y, y(0)=1, y'(0)=0."""
    rp = (-1.0 + math.sqrt(5.0)) / 2.0
    rm = (-1.0 - math.sqrt(5.0)) / 2.0
    a = -rm / (rp - rm)
    b = rp / (rp - rm)
    t = np.asarray(t, dtype=float)
    return a * np.exp(rp * t) + b * np.exp(rm * t)


def random_linear_system(rng):
    """Random valid coupled linear ODE system (n <= 4, m <= 3).

    Coefficients are drawn from continuous distributions with the leading
    matrix kept well-conditioned; redraws on near-singular leads.
    """
    from memsolve.compiler import LinearOdeSystem

    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    while True:
        lead = np.diag(rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m))
        lead += 0.3 * rng.uniform(-1.0, 1.0, (m, m))
        if abs(np.linalg.det(lead)) > 0.05:
            break
    coeffs = np.zeros((m, m, n + 1))
    coeffs[:, :, n] = lead
    for k in range(n):
        mask = rng.random((m, m)) < 0.6
        vals = rng.uniform(0.2, 2.0, (m, m)) * rng.choice([-1.0, 1.0], (m, m))
        coeffs[:, :, k] = np.where(mask, vals, 0.0)
    ics = rng.uniform(-2.0, 2.0, (m, n))
    return LinearOdeSystem(n=n, m=m, coeffs=coeffs, ics=ics)
