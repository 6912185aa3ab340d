import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from memsolve.cli import main
from memsolve.netlist import load_netlist, lower, netlist_stats
from memsolve.solver import SimConfig, simulate
from memsolve.tolerance import ToleranceConfig, _run_batch, perturb
from memsolve.waveform import Waveform

from conftest import FIG2_NETLIST, fig2_closed_form

POPULATION_SPEC = """\
family = volterra_population
a = 2
b = 0.001
k1 = "exp(-t)"
k2 = "exp(s)*s/(1+s)"
n0 = 1
"""

NONSEPARABLE_SPEC = """\
family = volterra_population
a = 2
b = 0.001
kernel = "exp(-t*s)"
n0 = 1
"""

BROKEN_SPEC = """\
family = volterra_population
a = 2
b = 0.001
k1 = "exp(-q)"
k2 = "1"
n0 = 1
"""


@pytest.fixture
def population_spec_file(tmp_path):
    path = tmp_path / "population.eq"
    path.write_text(POPULATION_SPEC)
    return str(path)


def test_compile_writes_netlist_and_manifest(tmp_path, population_spec_file, capsys):
    out = str(tmp_path / "population.net")
    assert main(["compile", population_spec_file, "-o", out]) == 0
    text = open(out).read()
    assert "memintegrator" in text
    assert text.count("memintegrator") == 1
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["command"] == "compile"
    assert manifest["config"]["family"] == "volterra_population"
    assert manifest["tool_version"]


def test_compile_manifest_records_netlist_stats_and_phase_timings(tmp_path, population_spec_file):
    out = str(tmp_path / "population.net")
    assert main(["compile", population_spec_file, "-o", out, "--quiet"]) == 0
    config = json.load(open(out + ".manifest.json"))["config"]
    assert config["netlist_stats"] == netlist_stats(load_netlist(out))
    assert config["netlist_stats"]["memristors"] == 1
    assert set(config["timings_s"]) == {"parse", "compile", "validate", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in config["timings_s"].values())
    # timings go only in the manifest: a second compile writes the same netlist bytes
    again = str(tmp_path / "again.net")
    assert main(["compile", population_spec_file, "-o", again, "--quiet"]) == 0
    assert open(out, "rb").read() == open(again, "rb").read()


def test_compile_malformed_expression_exits_2(tmp_path, capsys):
    spec = tmp_path / "broken.eq"
    spec.write_text(BROKEN_SPEC)
    assert main(["compile", str(spec), "-o", str(tmp_path / "x.net")]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_compile_nonseparable_kernel_exits_3(tmp_path, capsys):
    spec = tmp_path / "nonsep.eq"
    spec.write_text(NONSEPARABLE_SPEC)
    assert main(["compile", str(spec), "-o", str(tmp_path / "x.net")]) == 3
    assert "kernel" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, code", [("1/2*exp(-t)*exp(-s)", 0), ("exp(-t*s)", 3)])
def test_compile_turbulent_kernel_key(tmp_path, capsys, kernel, code):
    # ``kernel = k1(t)*k2(s)`` is the same equation as the k1/k2 keys of
    # equations/turbulent_diffusion.eq; a kernel that does not split exits 3.
    spec = tmp_path / "turb.eq"
    spec.write_text(f'family = turbulent\np = "1/8*exp(-2*t)"\nkernel = "{kernel}"\nu0 = 1\n')
    out = str(tmp_path / "turb.net")
    assert main(["compile", str(spec), "-o", out, "--quiet"]) == code
    if code:
        assert "kernel" in capsys.readouterr().err
        return
    split_spec = tmp_path / "split.eq"
    split_spec.write_text('family = turbulent\np = "1/8*exp(-2*t)"\nk1 = "1/2*exp(-t)"\n'
                          'k2 = "exp(-s)"\nu0 = 1\n')
    split_out = str(tmp_path / "split.net")
    assert main(["compile", str(split_spec), "-o", split_out, "--quiet"]) == 0
    sim = SimConfig(dt=1e-2, t_end=1.0)
    a = simulate(lower(load_netlist(out)), sim).waveform.channel("out")
    b = simulate(lower(load_netlist(split_out)), sim).waveform.channel("out")
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_missing_file_exits_2(tmp_path):
    assert main(["compile", str(tmp_path / "ghost.eq"), "-o", str(tmp_path / "x.net")]) == 2


def test_simulate_fig2_matches_closed_form(tmp_path, capsys):
    net = tmp_path / "fig2.net"
    net.write_text(FIG2_NETLIST)
    out = str(tmp_path / "fig2.csv")
    assert main(["simulate", str(net), "--dt", "1e-3", "--t-end", "5", "-o", out]) == 0
    wf = Waveform.from_csv(out)
    i = wf.index_of_time(1.0)
    assert abs(wf.channel("out")[i] - fig2_closed_form(1.0)) < 1e-6
    stdout = capsys.readouterr().out
    assert "passivity warnings: 0" in stdout
    assert "ln clamps: 0" in stdout


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_simulate_invalid_netlist_lists_all_diagnostics(tmp_path, capsys, command):
    net = tmp_path / "bad.net"
    net.write_text(
        "adder a1 out=n1 in=n2:1\nadder a2 out=n2 in=n1:1\npot p1 out=n3 in=n1 alpha=1.7\noutput n1\n"
    )
    assert main([command, str(net), "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "algebraic-loop" in err
    assert "alpha" in err


def test_simulate_rejects_single_quotes_naming_the_line(tmp_path, capsys):
    # shlex once read C='1' as C=1; no field holds a single quote
    net = tmp_path / "quoted.net"
    net.write_text("# a netlist\nintegrator int1 out=x C='1' ic=0\noutput x\n")
    assert main(["simulate", str(net), "-o", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("line 2: bad quoting")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_blowup_exits_zero_with_manifest_note(tmp_path):
    net = tmp_path / "grow.net"
    net.write_text('memintegrator m out=v C=1 ic=1 g="-3" f="v" omega0=0\noutput v\n')
    out = str(tmp_path / "grow.csv")
    assert main(["simulate", str(net), "--dt", "0.01", "--t-end", "10", "-o", out]) == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["config"]["truncated"] is True
    assert manifest["config"]["blowup_step"] is not None


def test_simulate_names_the_first_ln_clamp_of_the_march(tmp_path, capsys):
    # ln(1 - t) clamps from t = 1: stage 3 of step 63 at dt = 1/64
    net = tmp_path / "clamp.net"
    net.write_text('integrator i1 out=x C=1 ic=1 in=a:1\nfgen f1 out=a expr="ln(1 - t)"\noutput x\n')
    out = str(tmp_path / "clamp.csv")
    assert main(["simulate", str(net), "--dt", "0.015625", "--t-end", "2", "-o", out]) == 0
    config = json.load(open(out + ".manifest.json"))["config"]
    assert (config["ln_clamps"], config["first_ln_clamp"]) == (258, {"step": 63, "t": 0.984375})
    assert "ln clamps: 258 (the march's first at step 63, t=0.984375)\n" in capsys.readouterr().out
    # the fig2 circuit clamps nowhere: the key is null
    net.write_text(FIG2_NETLIST)
    assert main(["simulate", str(net), "--dt", "0.1", "--t-end", "1", "-o", out, "--quiet"]) == 0
    assert json.load(open(out + ".manifest.json"))["config"]["first_ln_clamp"] is None


def test_oracle_against_circuit(tmp_path, population_spec_file, capsys):
    net_path = str(tmp_path / "pop.net")
    sim_path = str(tmp_path / "pop.csv")
    ora_path = str(tmp_path / "ref.csv")
    assert main(["compile", population_spec_file, "-o", net_path]) == 0
    assert main(["simulate", net_path, "--dt", "1e-3", "--t-end", "2", "-o", sim_path]) == 0
    assert main([
        "oracle", population_spec_file, "--dt", "1e-3", "--t-end", "2",
        "-o", ora_path, "--against", sim_path,
    ]) == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if "max relative deviation" in l][0]
    assert float(line.rsplit(":", 1)[1]) <= 0.01
    manifest = json.load(open(ora_path + ".manifest.json"))
    assert manifest["config"]["max_relative_deviation"] <= 0.01


def test_oracle_exponential_spec_matches_closed_form(tmp_path):
    spec = tmp_path / "exp.eq"
    spec.write_text('family = volterra_population\na = 1\nb = 0\nk1 = "0"\nk2 = "0"\nn0 = 1\n')
    out = str(tmp_path / "exp.csv")
    assert main(["oracle", str(spec), "--dt", "1e-3", "--t-end", "2", "-o", out]) == 0
    wf = Waveform.from_csv(out)
    assert np.max(np.abs(wf.channel("y") / np.exp(wf.t) - 1.0)) < 1e-6


def test_oracle_grid_mismatch_exits_2(tmp_path, population_spec_file):
    sim_path = str(tmp_path / "pop.csv")
    net_path = str(tmp_path / "pop.net")
    assert main(["compile", population_spec_file, "-o", net_path]) == 0
    assert main(["simulate", net_path, "--dt", "1e-3", "--t-end", "1", "-o", sim_path]) == 0
    assert main([
        "oracle", population_spec_file, "--dt", "2e-3", "--t-end", "1",
        "-o", str(tmp_path / "o.csv"), "--against", sim_path,
    ]) == 2


@pytest.mark.parametrize("command", ["simulate", "stability", "oracle"])
def test_off_grid_horizon_exits_2(tmp_path, population_spec_file, capsys, command):
    # dt=0.3 would end at t=0.9, not at the requested t_end=1.
    net_path = str(tmp_path / "pop.net")
    assert main(["compile", population_spec_file, "-o", net_path, "--quiet"]) == 0
    source = population_spec_file if command == "oracle" else net_path
    out = tmp_path / "x.csv"
    assert main([command, source, "--dt", "0.3", "--t-end", "1", "-o", str(out)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--dt", "1e-9", "--t-end", "4"]),                    # 32 GB of samples
    ("stability", ["--dt", "1e-3", "--t-end", "4", "--iterations", "100000000"]),
    ("oracle", ["--dt", "1e-9", "--t-end", "1000"]),                   # 40 TB of grid arrays
    # the first step size fits; the second is rejected before the first march
    ("convergence", ["--dt-list", "1e-2,1e-9,1e-10", "--t-end", "1000"]),
])
def test_oversize_run_exits_2(tmp_path, population_spec_file, capsys, monkeypatch, command, args):
    def never(*a, **k):
        raise AssertionError("an oversize run got past its size check")

    monkeypatch.setattr("memsolve.backend.rk4_python", never)
    monkeypatch.setattr("memsolve.tolerance._draw", never)
    monkeypatch.setattr("memsolve.oracle.eval_expr_array", never)  # the reference route's tables
    monkeypatch.setattr("memsolve.oracle.solve_ide", never)        # a convergence study's marches
    net_path = tmp_path / "fig2.net"
    net_path.write_text(FIG2_NETLIST)
    source = population_spec_file if command in ("oracle", "convergence") else str(net_path)
    out = tmp_path / "x.csv"
    assert main([command, source, *args, "-o", str(out)]) == 2
    assert "GiB cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args, message", [
    # the seed seeds numpy's generators, which take 64 bits
    ("stability", ["--seed", "99999999999999999999999"], "master_seed must be a non-negative 64-bit integer"),
    # an empty entry is not dropped: it names the list
    ("convergence", ["--dt-list", "1e-2,,5e-3,2.5e-3"], "bad --dt-list '1e-2,,5e-3,2.5e-3'"),
])
def test_bad_flag_value_exits_2(tmp_path, population_spec_file, capsys, command, args, message):
    net_path = tmp_path / "fig2.net"
    net_path.write_text(FIG2_NETLIST)
    source = population_spec_file if command == "convergence" else str(net_path)
    out = tmp_path / "x.csv"
    assert main([command, source, *args, "--t-end", "1", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, equation, edit, args, message", [
    ("compile", "log_linear", ("u0 = 1", "u0 = nan"), [], "line 5: u0 must be a finite number, got 'nan'"),
    ("compile", "second_order", ("ic[1][0] = 1", "ic[1][0] = inf"), [], "line 8: ic[1][0] must be a finite"),
    ("compile", "second_order", ("a[1][1][1] = 1", "a[1][1][1] = inf"), [], "line 6: a[1][1][1] must be a finite"),
    ("compile", "second_order", ("n = 2", "n = 2.7"), [], "line 3: n must be a finite whole number, got '2.7'"),
    ("compile", "log_linear", ("u0 = 1", "u0 = 800"), [], "u0 = 800.0 is too large"),   # exp(u0) overflows
    ("simulate", None, None, ["--dt", "1e-2", "--t-end", "1e308"], "too many steps"),
    ("stability", None, None, ["--dt", "1e-320", "--t-end", "0.1"], "too many steps"),
    # the linear family's m x m x (n+1) coefficient table is checked before it is allocated
    ("compile", "second_order", ("n = 2", "n = 1000000000000"), [], "n = 1000000000000, m = 1 (m*m*(n+1)"),
    ("compile", "second_order", ("m = 1", "m = 100000"), [], "n = 2, m = 100000 (m*m*(n+1) values) = 224 GiB"),
    # a linear system's order and size are checked before the table is sized or filled
    ("compile", "second_order", ("n = 2", "n = -1"), [], "line 3: n must be positive, got '-1'"),
    ("compile", "second_order", ("m = 1", "m = 0"), [], "line 4: m must be positive, got '0'"),
    # a fit on [0, 0] or [0, -1] would declare a horizon no run can keep
    ("compile", "turbulent_diffusion", ("u0 = 1", "u0 = 1\nalpha_horizon = 0"), [],
     "line 9: alpha_horizon must be positive, got '0'"),
])
def test_out_of_range_number_exits_2(tmp_path, capsys, command, equation, edit, args, message):
    source = tmp_path / "in.net"
    if equation is None:
        source.write_text(FIG2_NETLIST)
    else:
        text = (Path(__file__).parent.parent / "equations" / f"{equation}.eq").read_text()
        assert edit[0] in text
        source = tmp_path / "in.eq"
        source.write_text(text.replace(edit[0], edit[1], 1))
    out = tmp_path / "x.out"
    assert main([command, str(source), *args, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_drawn_value_that_breaks_an_invariant_names_its_iteration(tmp_path, capsys):
    # C is valid, but a draw of up to +50% overflows it to inf
    source = tmp_path / "big.net"
    source.write_text("integrator i1 out=y C=1.7e308 ic=1 in=y:1\noutput y\n")
    out = tmp_path / "x.csv"
    assert main(["stability", str(source), "--tolerance", "0.5", "--iterations", "5",
                 "--dt", "1e-2", "--t-end", "0.1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "iteration 3: a drawn component value broke an element invariant" in err
    assert "[element-invariant] i1: capacitance must be positive, got inf" in err
    assert not out.exists()


@pytest.mark.parametrize("horizon, message", [
    # the fit grid on [0, 5e-324] cannot increase, and numpy's domain scale 2/horizon overflows
    ("5e-324", "alpha_horizon = 5e-324 leaves no finite, increasing fit grid on [0, horizon]"),
    # the grid and scale are finite, but the power basis's coefficients overflow
    ("1e-300", "alpha_horizon = 1e-300 is too small: the degree-8 fit's coefficients overflow"),
])
def test_degenerate_alpha_horizon_exits_2_quietly(tmp_path, capfd, horizon, message):
    spec = tmp_path / "fit.eq"
    spec.write_text('family = turbulent\np = "exp(-t^2)"\nk1 = "1/2*exp(-t)"\n'
                    f'k2 = "exp(-s)"\nu0 = 1\nalpha_horizon = {horizon}\n')
    out = tmp_path / "fit.net"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compile", str(spec), "-o", str(out)]) == 2
    captured = capfd.readouterr()       # LAPACK writes its complaints straight to the descriptors
    assert captured.err == message + "\n" and captured.out == ""
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("p, code, message", [
    # a*(k + 1) underflows to 0: a table miss, and p is infinite at the fit grid's first point
    ("(1e-308*t)^-0.9999999999999999", 2, "p fails on the integrating-factor fit grid at t = 0.0: non-finite result"),
    # 1/a overflows: a table miss that the fit takes
    ("exp(5e-324*t)", 0, None),
    # a constant factor outside its domain: a table miss, and the fit names p and the time
    ("exp(sqrt(-1)*t)", 2, "p fails on the integrating-factor fit grid at t = 0.0: sqrt of negative value"),
    # a table hit whose antiderivative, -2*t^-0.5, is infinite at 0: a miss, and p is infinite there
    ("t^-1.5", 2, "p fails on the integrating-factor fit grid at t = 0.0: non-finite result"),
])
def test_table_misses_go_to_the_fit(tmp_path, capsys, p, code, message):
    spec = tmp_path / "p.eq"
    spec.write_text(f'family = turbulent\np = "{p}"\nk1 = "1/2*exp(-t)"\nk2 = "exp(-s)"\nu0 = 1\n')
    out = tmp_path / "p.net"
    assert main(["compile", str(spec), "-o", str(out), "--quiet"]) == code
    if message is not None:
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()
    else:
        text = out.read_text()
        assert "alpha_fallback=chebyshev-fit" in text and "valid_to 8" in text


def test_reference_coefficient_outside_its_domain_names_the_key_and_the_time(tmp_path, capsys):
    # (t - 1)^-2 is infinite at t = 1, a point of the reference grid at dt 1e-2
    spec = tmp_path / "p.eq"
    spec.write_text('family = turbulent\np = "(t - 1)^-2"\nk1 = "1/2*exp(-t)"\nk2 = "exp(-s)"\nu0 = 1\n')
    out = tmp_path / "ref.csv"
    assert main(["oracle", str(spec), "-o", str(out), "--dt", "1e-2", "--quiet"]) == 2
    assert capsys.readouterr().err == "p fails on the reference grid at t = 1.0: non-finite result\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_run_past_fitted_integrating_factor_exits_2(tmp_path, capsys, command):
    # exp(-t^2) has no tabulated antiderivative, so alpha is a Chebyshev fit on
    # [0, 3]; at --t-end 8 the extrapolated polynomial blows up near t=4.7.
    spec = tmp_path / "fit.eq"
    spec.write_text('family = turbulent\np = "exp(-t^2)"\nk1 = "1/2*exp(-t)"\n'
                    'k2 = "exp(-s)"\nu0 = 1\nalpha_horizon = 3\n')
    net_path = str(tmp_path / "fit.net")
    assert main(["compile", str(spec), "-o", net_path, "--quiet"]) == 0
    out = tmp_path / "x.csv"
    extra = ["--iterations", "5"] if command == "stability" else []
    assert main([command, net_path, "--dt", "1e-2", "--t-end", "8", *extra, "-o", str(out)]) == 2
    assert "t_end = 8 is past the netlist's horizon valid_to 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("horizon, message", [
    ("nan", "[valid-to] <valid_to>: must be a positive finite time, got nan"),
    ("inf", "[valid-to] <valid_to>: must be a positive finite time, got inf"),
    ("0", "[valid-to] <valid_to>: must be a positive finite time, got 0.0"),
    ("-1", "[valid-to] <valid_to>: must be a positive finite time, got -1.0"),
    ("5e-324", "t_end = 1 is past the netlist's horizon valid_to 4.94066e-324"),
])
def test_bad_or_passed_horizon_declaration_exits_2(tmp_path, capsys, command, horizon, message):
    net_path = tmp_path / "fig2.net"
    net_path.write_text(FIG2_NETLIST + f"valid_to {horizon}\n")
    out = tmp_path / "x.csv"
    assert main([command, str(net_path), "--dt", "1e-2", "--t-end", "1", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_oracle_higher_order_uses_chain_route(tmp_path):
    spec = tmp_path / "chain.eq"
    spec.write_text(
        'family = higher_order_single\nn = 2\ng = "1"\nf = "v"\nic[0] = 1\nic[1] = 0\n'
    )
    out = str(tmp_path / "chain.csv")
    assert main(["oracle", str(spec), "--dt", "1e-3", "--t-end", "3", "-o", out]) == 0
    wf = Waveform.from_csv(out)
    assert np.max(np.abs(wf.channel("y") - np.cos(wf.t))) < 1e-4


def test_oracle_linear_family_unsupported(tmp_path, capsys):
    spec = tmp_path / "lin.eq"
    spec.write_text("family = linear\nn = 1\nm = 1\na[1][1][1] = 1\na[1][1][0] = 1\nic[1][0] = 1\n")
    assert main(["oracle", str(spec), "-o", str(tmp_path / "x.csv")]) == 3
    assert "unsupported: no direct integro-differential form for LinearOdeSystem" in capsys.readouterr().err


@pytest.mark.parametrize("equation", ["second_order", "oscillator_chain"])
def test_convergence_without_a_direct_form_exits_3(tmp_path, capsys, equation):
    # compiler.to_ide_spec decides; oracle alone has a route for higher-order chains
    spec = Path(__file__).parent.parent / "equations" / f"{equation}.eq"
    out = tmp_path / "x.csv"
    assert main(["convergence", str(spec), "--dt-list", "2e-3,1e-3", "-o", str(out)]) == 3
    assert "unsupported: no direct integro-differential form for" in capsys.readouterr().err
    assert not out.exists()


def test_stability_reports_terminal_mean(tmp_path, population_spec_file, capsys):
    net_path = str(tmp_path / "pop.net")
    assert main(["compile", population_spec_file, "-o", net_path, "--quiet"]) == 0
    out = str(tmp_path / "stab.csv")
    assert main([
        "stability", net_path, "--tolerance", "0.1", "--iterations", "5",
        "--seed", "7", "--dt", "5e-3", "--t-end", "1", "-o", out,
    ]) == 0
    stdout = capsys.readouterr().out
    assert "terminal mean relative error" in stdout
    lines = open(out).read().splitlines()
    assert lines[0] == "t,mean_rel_err,p10,p90"
    assert len(lines) == 202
    summary = open(out + ".summary.txt").read()
    assert "master_seed: 7" in summary


def test_stability_single_iteration_equals_its_error_series(tmp_path, population_spec_file):
    net_path = str(tmp_path / "pop.net")
    main(["compile", population_spec_file, "-o", net_path, "--quiet"])
    out = str(tmp_path / "one.csv")
    assert main([
        "stability", net_path, "--iterations", "1", "--seed", "3",
        "--dt", "5e-3", "--t-end", "1", "-o", out, "--quiet",
    ]) == 0
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(body[:, 1], body[:, 2])  # mean == p10 == p90 for one run
    assert np.array_equal(body[:, 1], body[:, 3])


def test_stability_zero_tolerance_zero_report(tmp_path, population_spec_file):
    net_path = str(tmp_path / "pop.net")
    main(["compile", population_spec_file, "-o", net_path, "--quiet"])
    out = str(tmp_path / "zero.csv")
    assert main([
        "stability", net_path, "--tolerance", "0", "--iterations", "3",
        "--dt", "5e-3", "--t-end", "1", "-o", out, "--quiet",
    ]) == 0
    body = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(body[:, 1:] == 0.0)


def test_stability_determinism_byte_identical(tmp_path, population_spec_file):
    net_path = str(tmp_path / "pop.net")
    main(["compile", population_spec_file, "-o", net_path, "--quiet"])
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["--tolerance", "0.1", "--iterations", "10", "--seed", "11",
            "--dt", "5e-3", "--t-end", "1", "--quiet"]
    assert main(["stability", net_path, *args, "-o", a]) == 0
    assert main(["stability", net_path, *args, "-o", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_convergence_command(tmp_path, population_spec_file, capsys):
    out = str(tmp_path / "conv.csv")
    assert main([
        "convergence", population_spec_file, "--dt-list", "4e-3,2e-3,1e-3",
        "--t-end", "2", "-o", out,
    ]) == 0
    stdout = capsys.readouterr().out
    assert "observed order" in stdout
    rows = open(out).read().splitlines()
    assert rows[0] == "dt,terminal,richardson"
    assert len(rows) == 4


def test_convergence_blowup_exits_2(tmp_path, capsys):
    spec = tmp_path / "blowup.eq"
    spec.write_text(
        'family = volterra_population\na = 50\nb = 0\nk1 = "-1"\nk2 = "exp(s)"\nn0 = 1\n'
    )
    out = tmp_path / "conv.csv"
    assert main(["convergence", str(spec), "--dt-list", "1e-2,5e-3,2.5e-3",
                 "--t-end", "10", "-o", str(out)]) == 2
    assert "blows up before t=10.0 at dt=0.01" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_coefficient_leaving_its_domain_exits_2(tmp_path, capsys):
    # k1 leaves its domain at t=1; the solution would blow up near t=0.2, but the
    # coefficient tables cover the whole horizon before the first step.
    spec = tmp_path / "domain.eq"
    spec.write_text(
        'family = volterra_population\na = 50\nb = 0\nk1 = "-sqrt(1 - t)"\nk2 = "1"\nn0 = 1\n'
    )
    out = tmp_path / "x.csv"
    assert main(["oracle", str(spec), "--dt", "1e-2", "--t-end", "2", "-o", str(out)]) == 2
    assert "sqrt of negative value" in capsys.readouterr().err
    assert not out.exists()


def test_quiet_suppresses_info(tmp_path, population_spec_file, capsys):
    out = str(tmp_path / "q.net")
    assert main(["compile", population_spec_file, "-o", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_gnuplot_script_emission(tmp_path, population_spec_file):
    net_path = str(tmp_path / "pop.net")
    main(["compile", population_spec_file, "-o", net_path, "--quiet"])
    out = str(tmp_path / "pop.csv")
    assert main(["simulate", net_path, "--dt", "1e-2", "--t-end", "1",
                 "-o", out, "--gnuplot", "--quiet"]) == 0
    script = open(out + ".gp").read()
    assert f"plot '{out}' using 1:2" in script
    manifest = json.load(open(out + ".manifest.json"))
    assert out + ".gp" in manifest["outputs"]

    stab = str(tmp_path / "stab.csv")
    assert main(["stability", net_path, "--iterations", "2", "--dt", "1e-2",
                 "--t-end", "1", "-o", stab, "--gnuplot", "--quiet"]) == 0
    assert "p90" in open(stab + ".gp").read()


def test_duplicate_output_declaration_rejected(tmp_path, capsys):
    net = tmp_path / "dup.net"
    net.write_text("fgen f1 out=a expr=\"t\"\noutput a\noutput a\n")
    assert main(["simulate", str(net), "-o", str(tmp_path / "x.csv")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_backend_env_flag_selects_numpy(tmp_path, population_spec_file, monkeypatch):
    net_path = str(tmp_path / "pop.net")
    main(["compile", population_spec_file, "-o", net_path, "--quiet"])
    monkeypatch.setenv("MEMSOLVE_BACKEND", "numpy")
    for command, extra in (("simulate", []), ("stability", ["--iterations", "3"])):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, net_path, *extra, "--dt", "1e-2", "--t-end", "1", "-o", out,
                     "--quiet"]) == 0
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["config"]["backend"] == "numpy"


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_numba_backend_exits_2(tmp_path, capsys, monkeypatch, command):
    # rejected even where numba would import: the probe is not consulted
    monkeypatch.setattr("memsolve.backend.HAVE_NUMBA", True)
    monkeypatch.setenv("MEMSOLVE_BACKEND", "numba")
    net_path = tmp_path / "fig2.net"
    net_path.write_text(FIG2_NETLIST)
    out = tmp_path / "x.csv"
    assert main([command, str(net_path), "--dt", "1e-2", "--t-end", "1", "-o", str(out)]) == 2
    assert "unknown backend 'numba'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [net_path]


@pytest.mark.parametrize("equation, hoisted", [("turbulent_diffusion", True), ("oscillator_chain", False)])
def test_manifests_record_the_tape_split(tmp_path, equation, hoisted):
    net_path = str(tmp_path / "eq.net")
    spec = Path(__file__).parent.parent / "equations" / f"{equation}.eq"
    assert main(["compile", str(spec), "-o", net_path, "--quiet"]) == 0
    n_instr = len(lower(load_netlist(net_path)).program.code)
    for command, extra in (("simulate", []), ("stability", ["--iterations", "3"])):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, net_path, "--dt", "1e-2", "--t-end", "1", *extra, "-o", out, "--quiet"]) == 0
        tape = json.load(open(out + ".manifest.json"))["config"]["tape"]
        assert tape["instructions"] == n_instr
        assert (tape["hoisted"] > 0) == hoisted
        if command == "stability":
            assert "tape" not in open(out + ".summary.txt").read()


def test_main_runs_many_commands_in_one_process(tmp_path, population_spec_file, capsys):
    # build_parser is cached; every call must still start from the declared defaults.
    net_path = str(tmp_path / "pop.net")
    assert main(["compile", population_spec_file, "-o", net_path, "--quiet"]) == 0

    def simulate_dt(*extra):
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", net_path, "--t-end", "1", *extra, "-o", out, "--quiet"]) == 0
        return json.load(open(out + ".manifest.json"))["config"]["dt"]

    assert simulate_dt("--dt", "0.01") == 0.01
    assert simulate_dt() == 1e-3
    stab = str(tmp_path / "stab.csv")
    assert main(["stability", net_path, "--iterations", "2", "--dt", "1e-2",
                 "--t-end", "1", "-o", stab, "--quiet"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", net_path, "--dt", "not-a-number", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert simulate_dt("--dt", "0.02") == 0.02

    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert main(["simulate", net_path, "--dt", "5e-3", "--t-end", "1", "-o", out, "--quiet"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_simulate_manifest_records_phase_timings(tmp_path):
    net_path = tmp_path / "fig2.net"
    net_path.write_text(FIG2_NETLIST)
    out = str(tmp_path / "fig2.csv")
    assert main(["simulate", str(net_path), "--dt", "1e-2", "--t-end", "1", "-o", out, "--quiet"]) == 0
    timings = json.load(open(out + ".manifest.json"))["config"]["timings_s"]
    assert set(timings) == {"load", "run", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


def test_reference_manifests_record_phase_timings_and_steps(tmp_path, population_spec_file):
    out = str(tmp_path / "pop.csv")
    assert main(["oracle", population_spec_file, "--dt", "1e-2", "--t-end", "1", "-o", out, "--quiet"]) == 0
    config = json.load(open(out + ".manifest.json"))["config"]
    assert set(config["timings_s"]) == {"solve", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in config["timings_s"].values())
    assert config["steps"] == 100 and config["blowup_step"] is None and not config["truncated"]
    conv = str(tmp_path / "conv.csv")
    assert main(["convergence", population_spec_file, "--dt-list", "4e-2,2e-2,1e-2", "--t-end", "1",
                 "-o", conv, "--quiet"]) == 0
    config = json.load(open(conv + ".manifest.json"))["config"]
    timings = config["timings_s"]
    assert set(timings) == {"solve", "solve_per_dt", "write"}
    per_dt = timings.pop("solve_per_dt")
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert config["steps"] == [25, 50, 100]
    # one march time per step size, aligned with the steps, within the solve phase
    assert len(per_dt) == len(config["steps"]) and all(isinstance(v, float) and v >= 0.0 for v in per_dt)
    assert sum(per_dt) <= timings["solve"]
    # timings go only in the manifest: a second study writes the same CSV bytes
    again = str(tmp_path / "conv_again.csv")
    assert main(["convergence", population_spec_file, "--dt-list", "4e-2,2e-2,1e-2", "--t-end", "1",
                 "-o", again, "--quiet"]) == 0
    assert open(conv, "rb").read() == open(again, "rb").read()
    # a truncated run counts the steps it kept, up to the one that blew up
    spec = tmp_path / "growth.eq"
    spec.write_text('family = volterra_population\na = 50\nb = 0\nk1 = "-1"\nk2 = "exp(s)"\nn0 = 1\n')
    out = str(tmp_path / "growth.csv")
    assert main(["oracle", str(spec), "--dt", "1e-2", "--t-end", "2", "-o", out, "--quiet"]) == 0
    config = json.load(open(out + ".manifest.json"))["config"]
    assert config["truncated"] and config["steps"] == config["blowup_step"] - 1
    assert len(Waveform.from_csv(out)) == config["steps"] + 1


def test_stability_manifest_records_failures_and_phase_timings(tmp_path):
    # ln(t - 1) clamps until t = 1 (its 1 is perturbed per lane); 0*ln(...) leaves g at -1
    net_path = tmp_path / "growth.net"
    net_path.write_text('memintegrator m out=v C=1 ic=1 g="-1 + 0*ln(t - 1)" f="0*v" omega0=0\noutput v\n')
    out = str(tmp_path / "growth.csv")
    assert main(["stability", str(net_path), "--iterations", "20", "--seed", "5", "--dt", "2e-2",
                 "--t-end", "26", "-o", out, "--quiet"]) == 0
    config = json.load(open(out + ".manifest.json"))["config"]
    assert set(config["timings_s"]) == {"prepare", "kernel", "reduce", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in config["timings_s"].values())
    failures = config["failures"]
    assert 0 < len(failures) == config["failed_iterations"]
    summary = open(out + ".summary.txt").read()
    for f in failures:
        assert f["kind"] == "blow-up" and f["t"] == f["step"] * 2e-2
        assert f"  iteration {f['iteration']}: blow-up at step {f['step']} (t={f['t']:g})\n" in summary
    # the lanes' totals, as one direct lane march of the same sweep counts them;
    # the manifest alone carries them
    net = load_netlist(str(net_path))
    cfg = ToleranceConfig(iterations=20, master_seed=5)
    systems = [lower(net)] + [lower(perturb(net, cfg, i)) for i in range(cfg.iterations)]
    consts = np.stack([s.program.consts for s in systems], axis=1)
    y0 = np.stack([s.y0() for s in systems], axis=1)
    counts = _run_batch(systems[0], consts, y0, SimConfig(dt=2e-2, t_end=26.0))[3]
    assert {key: config[key] for key in ("ln_clamps", "lane_steps", "redone_steps")} == counts
    assert counts["ln_clamps"] > 0 and 0 < counts["lane_steps"] < 21 * 1301
    # every step redone is one where some lane's ln clamps, up to t = 1.1 at most
    assert 0 < counts["redone_steps"] <= 56
    assert all(key not in summary for key in ("ln_clamps", "lane_steps", "redone_steps"))
