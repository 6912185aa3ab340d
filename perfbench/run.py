"""The memsolve benchmark.

    python3 perfbench/run.py --workload circuit|sweep|reference --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` under ``perfbench/_work/``
(removed on exit).  Measurement happens in fresh child interpreters
(``worker.py``) with ``MEMSOLVE_BACKEND`` and ``MEMSOLVE_THREADS`` unset.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a traced run.  Every
metric is printed on its own line with its unit, followed by one JSON
object on the last line of standard output.  Outputs are checked against
independent references outside the timed region (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 7
SETUP_BURST_SLICES = 150       # about 0.1 s of calibration on each side of a set-up run
RUN_LIMIT_S = 170.0             # a run must end within 180 s
UNSET_ENV = ("MEMSOLVE_BACKEND", "MEMSOLVE_THREADS")


class HarnessError(RuntimeError):
    pass


def git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def metric_spec(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _command_dicts(cmds) -> list[dict]:
    return [{"argv": c.argv, "outputs": c.outputs} for c in cmds]


class Run:
    def __init__(self, work: str):
        self.work = work
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise HarnessError(f"run exceeded {RUN_LIMIT_S:g} s")
        return left

    def spawn(self, name: str, cfg: dict) -> dict:
        cfg = dict(cfg, src=os.path.join(ROOT, "src"),
                   result=os.path.join(self.work, name + ".result.json"))
        path = os.path.join(self.work, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        # A blocking wait, with a timer to enforce the limit: Popen.wait(timeout)
        # polls in steps of up to 50 ms, which would quantise set-up times.
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path],
                                env=self.env, stdout=subprocess.DEVNULL)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(self.remaining(), kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
        if timed_out.is_set():
            raise HarnessError(f"{name}: worker did not finish in time")
        if returncode != 0:
            raise HarnessError(f"{name}: worker exited with {returncode}")
        with open(cfg["result"]) as fh:
            return json.load(fh)


def run_record(trace_overhead) -> dict:
    import numpy
    import memsolve.backend as backend

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "backend": backend.resolve_backend("auto"),        # what the workers get
        "have_numba": backend.HAVE_NUMBA,
        "numba_path": "measured" if backend.HAVE_NUMBA else "unmeasured: numba is not importable",
        "env_unset": list(UNSET_ENV),
        "tracing_overhead": trace_overhead,
    }


def measure(args, work: str) -> int:
    run = Run(work)
    inputs = workloads.make_inputs(args.workload, args.seed, os.path.join(work, "inputs"),
                                   os.path.join(ROOT, "equations"))
    dirs = [os.path.join(work, "p0"), os.path.join(work, "p1")]
    pass_cmds = [workloads.commands(inputs, d) for d in dirs]
    n_cmds = len(pass_cmds[0])
    attempted = failed = 0
    values: dict[str, float] = {}

    setup_raw = []
    if not args.trace:
        setup_scaled = []
        for i in range(SETUP_RUNS):
            d = os.path.join(work, f"setup{i}")
            cfg = {"mode": "setup",
                   "passes": [[d, _command_dicts(workloads.commands(inputs, d, setup=True))]]}
            before = calibration.burst(SETUP_BURST_SLICES)
            t0 = time.perf_counter()
            result = run.spawn(f"setup{i}", cfg)
            elapsed = time.perf_counter() - t0
            slice_s = (before + calibration.burst(SETUP_BURST_SLICES)) / 2
            setup_raw.append(elapsed)
            setup_scaled.append(elapsed * calibration.NOMINAL_SLICE_S / slice_s)
            attempted += n_cmds
            failed += sum(rc != 0 for rc in result["rcs"])
        values["setup_s"] = statistics.median(setup_scaled)

    cfg = {"mode": "measure", "trace": bool(args.trace), "seconds": args.seconds,
           "passes": [[d, _command_dicts(c)] for d, c in zip(dirs, pass_cmds)]}
    result = run.spawn("measure", cfg)
    passes = result["passes"]

    checks = workloads.check_outputs(inputs, pass_cmds[0])
    bad_output = {c.command for c in checks if not c.ok}
    reference = passes[0]["digests"]
    identical = True
    for p in passes:
        for i in range(n_cmds):
            same = p["digests"][i] == reference[i] and None not in p["digests"][i]
            identical = identical and same
            attempted += 1
            failed += p["rcs"][i] != 0 or not same or i in bad_output
    max_rel_err = max((c.err for c in checks), default=0.0)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values["pass.wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    values["calibration.slice_s"] = statistics.median(p["slice_s"] for p in passes)
    values["wall_cal"] = statistics.median(p["wall_cal"] for p in untraced)
    overhead = None
    if args.trace:
        overhead = statistics.median(p["wall_cal"] for p in traced) / values["wall_cal"] - 1
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        values["setup.import_s"] = result["import_s"]
        values["trace.overhead"] = overhead
    else:
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0

    record = run_record(overhead)
    record.update(workload=args.workload, seed=args.seed,
                  pass_walls_s=[round(p["wall_s"], 4) for p in passes],
                  pass_walls_cal=[round(p["wall_cal"], 1) for p in passes],
                  setup_raw_s=[round(t, 4) for t in setup_raw],
                  commands_per_pass=n_cmds, closed_loop_clients=1)
    print("record " + json.dumps(record, sort_keys=True))
    for c in checks:
        print(f"check {args.workload} {pass_cmds[0][c.command].label}: "
              f"{'ok' if c.ok else 'FAIL'} {c.detail}")
    print(f"check {args.workload} artifacts byte-identical across {len(passes)} passes (C10): "
          f"{'ok' if identical else 'FAIL'}")

    spec = metric_spec(bool(args.trace))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"metric {args.workload} wall_s {values['pass.wall_s']:.6g} s")
    print(f"metric {args.workload} error_rate {failed / attempted:.6g} ratio")
    print(f"metric {args.workload} max_rel_err {max_rel_err:.6g} ratio")
    if args.trace:
        busy = {k: v for k, v in values.items() if k.endswith("_s")
                and k not in ("setup.import_s", "pass.wall_s", "calibration.slice_s")}
        top = max(busy, key=busy.get)
        wall = statistics.median(p["elapsed_s"] for p in traced)     # spans include sampler ticks
        print(f"blocking layer {args.workload}: {top} ({busy[top] / wall:.1%} of a traced pass)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "memsolve", "__init__.py")
    if not os.path.isfile(package) or not os.path.isdir(os.path.join(ROOT, "equations")):
        print(f"no memsolve source tree (src/memsolve, equations/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, work)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
