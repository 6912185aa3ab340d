"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_match_benchmark_json(spec):
    measured = set(spans.Tracer().layer_metrics(0, 1.0))
    measured |= {"setup.import_s", "trace.overhead", "pass.wall_s", "calibration.slice_s"}
    assert measured == {m["name"] for m in spec["per_layer"]}


def test_tracer_restores_original_attributes(tmp_path):
    import memsolve.cli

    owners = [(spans._owner(path), attr) for path, attr, _, _ in spans.TARGETS]
    before = [inspect.getattr_static(o, a) for o, a in owners]
    tracer = spans.Tracer()
    tracer.install(1)
    try:
        assert all(inspect.getattr_static(o, a) is not b for (o, a), b in zip(owners, before))
        out = str(tmp_path / "chain.csv")
        assert memsolve.cli.main(["oracle", os.path.join(ROOT, "equations", "oscillator_chain.eq"),
                                  "--dt", "1e-2", "--t-end", "1", "-o", out, "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert all(inspect.getattr_static(o, a) is b for (o, a), b in zip(owners, before))
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "oracle.chain" in names and "waveform.csv_write" in names
    layers = tracer.layer_metrics(1, 1.0)
    assert layers["oracle.chain_s"] > 0 and layers["waveform.csv_bytes"] == os.path.getsize(out)


def test_same_seed_same_inputs(tmp_path):
    eqs = os.path.join(ROOT, "equations")
    a = workloads.make_inputs("circuit", 7, str(tmp_path / "a"), eqs)
    b = workloads.make_inputs("circuit", 7, str(tmp_path / "b"), eqs)
    c = workloads.make_inputs("circuit", 8, str(tmp_path / "c"), eqs)

    def read(inputs, name):
        with open(inputs.files[name]) as fh:
            return fh.read()

    assert all(read(a, n) == read(b, n) for n in workloads.EQUATIONS)
    assert read(a, "population") != read(c, "population")


# Coarser steps, same horizons, so the C06/C07 bands still apply.  C01's 1e-6
# bound on the circuit closed forms, and the second-order regime of the
# population convergence study, hold up to twice the step.
@pytest.mark.parametrize("workload, dt_scale", [("circuit", 2.0), ("sweep", 10.0),
                                                ("reference", 2.0)])
def test_smoke_run_passes_checks(workload, dt_scale, tmp_path):
    import memsolve.cli

    inputs = workloads.make_inputs(workload, 1, str(tmp_path / "inputs"),
                                   os.path.join(ROOT, "equations"), dt_scale=dt_scale)
    out = tmp_path / "out"
    out.mkdir()
    cmds = workloads.commands(inputs, str(out))
    rcs = [memsolve.cli.main(c.argv) for c in cmds]
    checks = workloads.check_outputs(inputs, cmds)
    failed = sum(rc != 0 for rc in rcs) + sum(not c.ok for c in checks)
    assert failed / len(cmds) == 0, [c.detail for c in checks]
    assert checks and all(c.err < 1e-2 for c in checks)


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "circuit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
