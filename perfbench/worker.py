"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py CONFIG.json

``mode: setup`` imports memsolve and runs one list of commands (the
two-step horizon); the parent times the whole process.  ``mode: measure``
runs passes of the workload's commands through ``memsolve.cli.main``
in-process until ``seconds`` have passed and at least ``min_passes`` are
done, then writes per-pass wall times, exit codes and artifact digests.
With ``trace`` set, odd passes run under :class:`spans.Tracer` and even
passes untraced, so the two can be compared.

A :class:`calibration.Sampler` runs alongside every measured pass, so
pass times can be expressed in calibration slices (see ``calibration.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time

def _run(cli, argv) -> int:
    try:
        return int(cli.main(list(argv)))
    except SystemExit as exc:                         # argparse rejects its arguments
        return exc.code if isinstance(exc.code, int) else 1


def _run_pass(cli, argvs, sampler) -> tuple[list[int], float, float, float]:
    """Run the commands under the sampler.

    Returns exit codes, command time without the sampler's share, that
    time in mean calibration slices, and the elapsed time.
    """
    sampler.start()
    start = time.perf_counter()
    try:
        rcs = [_run(cli, argv) for argv in argvs]
    finally:
        elapsed = time.perf_counter() - start
        sampler.stop()
    wall = elapsed - sum(sampler.times)
    return rcs, wall, wall / sampler.mean(), elapsed


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _clear(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))


def measure(cfg: dict) -> dict:
    start = time.perf_counter()
    cli = importlib.import_module("memsolve.cli")
    import_s = time.perf_counter() - start
    import calibration          # loads numpy, so only after the timed import

    sampler = calibration.Sampler()
    tracer = None
    if cfg["trace"]:
        import spans

        tracer = spans.Tracer()
    min_passes = 4 if tracer else 3
    passes: list[dict] = []
    peak_rss_kb = 0
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < cfg["seconds"]:
        k = len(passes)
        directory, commands = cfg["passes"][min(k, 1)]
        _clear(directory)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install(k)
        try:
            rcs, wall, wall_cal, elapsed = _run_pass(cli, [c["argv"] for c in commands], sampler)
        finally:
            if traced:
                tracer.uninstall()
        record = {
            "wall_s": wall,
            "wall_cal": wall_cal,
            "elapsed_s": elapsed,
            "slice_s": sampler.mean(),
            "traced": traced,
            "rcs": rcs,
            "digests": [[_digest(p) for p in c["outputs"]] for c in commands],
        }
        if traced:
            record["layers"] = tracer.layer_metrics(k, elapsed)  # spans include sampler ticks
        if k == 0:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.append(record)
    return {"import_s": import_s, "peak_rss_kb": peak_rss_kb, "passes": passes}


def setup(cfg: dict) -> dict:
    cli = importlib.import_module("memsolve.cli")
    directory, commands = cfg["passes"][0]
    _clear(directory)
    return {"rcs": [_run(cli, c["argv"]) for c in commands]}


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    result = measure(cfg) if cfg["mode"] == "measure" else setup(cfg)
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
