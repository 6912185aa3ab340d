"""The one CSV writer: exact bytes against value-by-value formatting, and round trips."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memsolve.cli import main
from memsolve.compiler import load_equation_spec, to_ide_spec
from memsolve.oracle import convergence_study
from memsolve.tolerance import StabilityReport
from memsolve.waveform import _CHUNK_ROWS, write_csv

EQUATIONS = Path(__file__).parent.parent / "equations"

EDGE_VALUES = [
    math.inf, -math.inf, math.nan, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,   # subnormals and the smallest normal
    1e308, -1e308, 1e-308, -1e-308, 1.7976931348623157e308,
]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**53), 2**53).map(float),
)
ROWS = st.sampled_from([1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3])


@st.composite
def tables(draw):
    """A (rows x 1..5) float64 table tiled from a drawn pool of values (drawing each cell is slow)."""
    shape = (draw(ROWS), draw(st.integers(1, 5)))
    pool = np.array(draw(st.lists(VALUES, min_size=1, max_size=32)), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pool[rng.integers(len(pool), size=shape)]


def reference_text(header, table) -> str:
    """Value-by-value formatting over numpy scalars, as the CSV writers did before chunking."""
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{x:.12g}" for x in row) + "\n" for row in table
    )


def rounded(table):
    return np.vectorize(lambda x: float(f"{x:.12g}"))(np.asarray(table, dtype=np.float64))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=tables())
def test_write_csv_matches_value_by_value_formatting(out_dir, table):
    header = tuple(f"c{j}" for j in range(table.shape[1]))
    path = out_dir / "table.csv"
    write_csv(path, header, list(table.T))
    assert path.read_bytes() == reference_text(header, table).encode()


def test_write_csv_spells_edge_values_as_python_does(out_dir):
    path = out_dir / "edges.csv"
    write_csv(path, ("x",), [np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 3.0])])
    assert path.read_text() == "x\ninf\n-inf\nnan\n-0\n4.94065645841e-324\n3\n"


def test_stability_report_csv_round_trip(out_dir):
    rng = np.random.default_rng(7)
    n = 2 * _CHUNK_ROWS + 3
    p10, mean, p90 = np.sort(rng.lognormal(-5.0, 2.0, size=(3, n)), axis=0)
    report = StabilityReport(
        t=1e-3 * np.arange(n), mean=mean, p10=p10, p90=p90, iterations=10, failures=(),
        redraws=0, master_seed=1, tolerance=0.1, unstable=False, tape={}, timings_s={},
    )
    path = out_dir / "stability.csv"
    report.to_csv(path)
    table = np.column_stack((report.t, mean, p10, p90))
    assert path.read_text() == reference_text(("t", "mean_rel_err", "p10", "p90"), table)
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1), rounded(table))


def test_convergence_csv_round_trip(out_dir):
    spec = str(EQUATIONS / "population_growth.eq")
    out = str(out_dir / "convergence.csv")
    dts = [4e-3, 2e-3, 1e-3]
    assert main(["convergence", spec, "--dt-list", ",".join(map(str, dts)),
                 "--t-end", "2", "-o", out, "--quiet"]) == 0
    study = convergence_study(to_ide_spec(load_equation_spec(spec)), dts, 2.0)
    text = open(out).read()
    assert text == reference_text(("dt", "terminal", "richardson"), np.array(study.rows))
    assert text.endswith(",nan\n")
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    assert math.isnan(body[-1, 2])
    np.testing.assert_array_equal(body, rounded(study.rows))
