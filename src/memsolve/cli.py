"""Command-line interface.

Subcommands: ``compile``, ``simulate``, ``oracle``, ``stability``,
``convergence``.  Every command writes its artifacts to the declared
``--out`` path (plus ``<out>.manifest.json``) and nowhere else.

Exit codes: 0 success, 2 input error, 3 unsupported feature,
4 internal error.  Diagnostics go to standard error with file/line
information where available.

``MEMSOLVE_BACKEND`` may be ``numpy`` or ``auto``; ``simulate`` and
``stability`` reject any other value as an input error; only the CLI
reads it.  Every rule of what a run may do is the library's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .backend import resolve_backend
from .compiler import (
    HigherOrderComposed,
    HigherOrderSingleMem,
    UnsupportedEquationError,
    compile_equation,
    effective_memductance,
    load_equation_spec,
    to_ide_spec,
)
from .exprs import DomainError
from .netlist import ValidationFailed, load_netlist, lower, netlist_stats, validate
from .oracle import convergence_study, solve_ide, solve_memristive_chain
from .solver import SimConfig, SimulationError, relative_error, simulate
from .tolerance import DEFAULT_MASTER_SEED, ToleranceConfig, stability_run
from .waveform import Waveform, write_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _write_manifest(out_path: str, command: str, argv, inputs, config, outputs) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "inputs": list(inputs),
        "config": config,
        "outputs": list(outputs),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_gnuplot(out_path: str, columns: list[tuple[int, str]], ylabel: str) -> str:
    """Companion gnuplot script plotting CSV columns against t."""
    script = out_path + ".gp"
    plots = ", ".join(
        f"'{out_path}' using 1:{col} with lines title '{title}'" for col, title in columns
    )
    with open(script, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set xlabel 't'\n"
            f"set ylabel '{ylabel}'\n"
            "set key outside\n"
            f"plot {plots}\n"
        )
    return script


def _cmd_compile(args, argv) -> int:
    start = time.perf_counter()
    spec = load_equation_spec(args.spec)
    parsed = time.perf_counter()
    net = compile_equation(spec)
    compiled = time.perf_counter()
    diags = validate(net)
    if diags:  # compile output failing validation is a tool bug
        for d in diags:
            print(str(d), file=sys.stderr)
        return EXIT_INTERNAL
    validated = time.perf_counter()
    net.save(args.out)
    written = time.perf_counter()
    config = {
        "family": net.meta.get("family"),
        "netlist_stats": netlist_stats(net),
        "timings_s": {"parse": parsed - start, "compile": compiled - parsed,
                      "validate": validated - compiled, "write": written - validated},
    }
    _write_manifest(args.out, "compile", argv, [args.spec], config, [args.out])
    _info(args, f"wrote {args.out} ({net.meta.get('family')}, {len(net.elements)} elements)")
    return EXIT_OK


def _cmd_simulate(args, argv) -> int:
    resolve_backend()  # rejects a bad MEMSOLVE_BACKEND
    start = time.perf_counter()
    ode = lower(load_netlist(args.netlist))
    loaded = time.perf_counter()
    channels = tuple(c for c in (args.channels or "").split(",") if c)
    cfg = SimConfig(dt=args.dt, t_end=args.t_end, record_channels=channels)
    res = simulate(ode, cfg)
    ran = time.perf_counter()
    res.waveform.to_csv(args.out)
    written = time.perf_counter()
    outputs = [args.out]
    if args.gnuplot:
        cols = [(i + 2, name) for i, name in enumerate(res.waveform.names)]
        outputs.append(_write_gnuplot(args.out, cols, "signal"))
    config = {
        "dt": args.dt,
        "t_end": args.t_end,
        "channels": list(channels),
        "passivity_steps": res.passivity_steps,
        "ln_clamps": res.ln_clamps,
        "blowup_step": res.blowup_step,
        "truncated": res.blown_up,
        "backend": "numpy",
        "tape": res.tape,
        "timings_s": {"load": loaded - start, "run": ran - loaded, "write": written - ran},
    }
    _write_manifest(args.out, "simulate", argv, [args.netlist], config, outputs)
    _info(args, f"wrote {args.out} ({len(res.waveform)} samples)")
    _info(args, f"passivity warnings: {res.passivity_steps} samples with negative memductance")
    _info(args, f"ln clamps: {res.ln_clamps}")
    if res.blown_up:
        _info(args, f"run truncated: state blow-up at step {res.blowup_step} (noted in manifest)")
    return EXIT_OK


def _solve_reference(spec, dt, t_end):
    if isinstance(spec, (HigherOrderSingleMem, HigherOrderComposed)):  # the chain route
        return solve_memristive_chain(
            effective_memductance(spec), spec.f, spec.n, spec.ics, spec.omega0, dt, t_end
        )
    return solve_ide(to_ide_spec(spec), dt, t_end)


def _cmd_oracle(args, argv) -> int:
    spec = load_equation_spec(args.spec)
    start = time.perf_counter()
    wf = _solve_reference(spec, args.dt, args.t_end)
    solved = time.perf_counter()
    wf.to_csv(args.out)
    written = time.perf_counter()
    config = {
        "dt": args.dt,
        "t_end": args.t_end,
        "steps": len(wf) - 1,
        "blowup_step": wf.meta.get("blowup_step"),
        "truncated": "blowup_step" in wf.meta,
        "timings_s": {"solve": solved - start, "write": written - solved},
    }
    deviation = None
    if args.against:
        circuit = Waveform.from_csv(args.against)
        rel = relative_error(circuit, wf, circuit.names[0], "y")
        deviation = float(rel.channel("rel_err").max())
        config["against"] = args.against
        config["max_relative_deviation"] = deviation
    _write_manifest(args.out, "oracle", argv, [args.spec] + ([args.against] if args.against else []),
                    config, [args.out])
    _info(args, f"wrote {args.out} ({len(wf)} samples)")
    if deviation is not None:
        _info(args, f"max relative deviation vs {args.against}: {deviation:.6g}")
    return EXIT_OK


def _cmd_stability(args, argv) -> int:
    resolve_backend()  # rejects a bad MEMSOLVE_BACKEND
    net = load_netlist(args.netlist)
    cfg = ToleranceConfig(
        max_relative_error=args.tolerance,
        iterations=args.iterations,
        master_seed=args.seed,
        distribution=args.distribution,
    )
    sim = SimConfig(dt=args.dt, t_end=args.t_end)
    report = stability_run(net, cfg, sim)
    ran = time.perf_counter()
    report.to_csv(args.out)
    summary_path = args.out + ".summary.txt"
    with open(summary_path, "w") as fh:
        fh.write(report.summary_text())
    written = time.perf_counter()
    outputs = [args.out, summary_path]
    if args.gnuplot:
        outputs.append(
            _write_gnuplot(args.out, [(2, "mean rel err"), (3, "p10"), (4, "p90")], "relative error")
        )
    config = {
        "dt": args.dt,
        "t_end": args.t_end,
        "tolerance": args.tolerance,
        "iterations": args.iterations,
        "seed": args.seed,
        "distribution": args.distribution,
        "failed_iterations": len(report.failed),
        "failures": [{"iteration": i, "kind": kind, "step": step, "t": t}
                     for i, kind, step, t in report.failures],
        "redraws": report.redraws,
        "unstable": report.unstable,
        "ln_clamps": report.ln_clamps,
        "lane_steps": report.lane_steps,
        "backend": "numpy",
        "tape": report.tape,
        "timings_s": {**report.timings_s, "write": written - ran},
    }
    _write_manifest(args.out, "stability", argv, [args.netlist], config, outputs)
    _info(args, f"wrote {args.out} and {summary_path}")
    _info(args, f"terminal mean relative error: {report.terminal_mean:.6g}")
    if report.unstable:
        _info(args, f"UNSTABLE: {len(report.failed)} of {args.iterations} iterations failed")
    return EXIT_OK


def _cmd_convergence(args, argv) -> int:
    spec = load_equation_spec(args.spec)
    try:  # an empty entry is an error too, not a step size fewer
        dt_list = [float(x) for x in args.dt_list.split(",")]
    except ValueError:
        print(f"bad --dt-list {args.dt_list!r}: every comma-separated entry must be a number", file=sys.stderr)
        return EXIT_INPUT
    start = time.perf_counter()
    study = convergence_study(to_ide_spec(spec), dt_list, args.t_end)
    solved = time.perf_counter()
    _info(args, str(study))
    if args.out:
        write_csv(args.out, ("dt", "terminal", "richardson"), list(zip(*study.rows)))
        written = time.perf_counter()
        _write_manifest(args.out, "convergence", argv, [args.spec],
                        {"dt_list": dt_list, "t_end": args.t_end,
                         "observed_order": study.observed_order, "steps": study.steps,
                         "timings_s": {"solve": solved - start, "solve_per_dt": study.solve_s,
                                       "write": written - solved}},
                        [args.out])
        _info(args, f"wrote {args.out}")
    return EXIT_OK


@functools.cache  # argparse set-up costs about 2 ms; main() may run many commands per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsolve",
        description="Analog-computer simulation of integro-differential equations "
                    "with memristive integrators",
    )
    parser.add_argument("--version", action="version", version=f"memsolve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dt_default=1e-3, t_end_default=4.0, plot=False):
        p.add_argument("--dt", type=float, default=dt_default, help="fixed step size")
        p.add_argument("--t-end", type=float, default=t_end_default, help="simulation horizon")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")
        if plot:
            p.add_argument("--gnuplot", action="store_true",
                           help="also write a gnuplot script next to the CSV")

    p = sub.add_parser("compile", help="compile an equation spec into a netlist")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="validate, lower and integrate a netlist")
    p.add_argument("netlist")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--channels", help="extra channels to record (node names, omega:<element>)")
    common(p, plot=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="solve the equation directly (reference route)")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--against", help="circuit waveform CSV to compare with")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stability", help="Monte Carlo tolerance analysis")
    p.add_argument("netlist")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--tolerance", type=float, default=0.10)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--distribution", choices=("uniform", "truncated_gaussian"), default="uniform")
    common(p, plot=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("convergence", help="step-size refinement study of the reference solver")
    p.add_argument("spec")
    p.add_argument("-o", "--out")
    p.add_argument("--dt-list", required=True, help="comma-separated decreasing step sizes")
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except UnsupportedEquationError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValidationFailed as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"no such file: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    # Spec, netlist, expression and grid errors are ValueErrors too.
    except (ValueError, SimulationError, DomainError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:  # parsing and checking recurse once per level of the input
        print("the input nests too deeply to read", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a tool defect
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
