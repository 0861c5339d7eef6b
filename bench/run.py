#!/usr/bin/env python3
"""gravwitness benchmark.

    python3 bench/run.py --workload search_mixed --seed 1 --seconds 60 --trace 0

Runs one workload (see workloads.py and README.md) from the sources in
`src/` of the checkout this file sits in, in one process with one caller in
a closed loop and the sweep capped at one worker.  Passes repeat until
`--seconds` have been measured; every output is checked.  The report goes
to standard output, and its last line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run, whose spans are written to `bench/out/`.

With no gravwitness sources next to it, it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The sweep's own thread cap.  The two-thread pool does not repeat within a
# tenth on a two-core machine; the serial path does.
THREADS = "1"
SETUP_SAMPLES = 5        # this process plus four fresh ones
MIN_PASSES = 2           # two passes are needed to compare their output

# BENCHMARK.json lists search_mixed and cli_points: its run budget fits two
# workloads at 60 s a run, and search_mixed enters every layer grid_quiet
# does.  grid_quiet is run by hand (see README.md).
WORKLOAD_NAMES = ("grid_quiet", "search_mixed", "cli_points")


class SourcesMissing(RuntimeError):
    pass


def setup(workload: str, seed: int, tiny: bool):
    """Import gravwitness from the checkout, validate the defaults and build
    the workload's inputs.  Returns (workloads module, inputs, seconds)."""
    start = time.perf_counter()
    if not (SRC / "gravwitness" / "__init__.py").is_file():
        raise SourcesMissing(f"no gravwitness sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gravwitness
    if not Path(gravwitness.__file__).resolve().is_relative_to(SRC):
        raise SourcesMissing(f"gravwitness imported from {gravwitness.__file__}, "
                             f"not from {SRC}")
    import workloads
    inputs = workloads.WORKLOADS[workload].build(seed, tiny)
    return workloads, inputs, time.perf_counter() - start


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh interpreter (the import is not cached)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import gravwitness
    # The resolved worker count, by the library's own rule when it has one.
    resolve = getattr(gravwitness.sweep, "_worker_count", None)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gravwitness": gravwitness.__version__,
        "commit": git_commit(),
        "GRAVWITNESS_THREADS": os.environ.get("GRAVWITNESS_THREADS"),
        "workers": resolve(None) if resolve else 1,
        "machine": platform.machine(),
    }


def measure(wl, inputs, seconds: float, tracer=None):
    """Run passes for `seconds` (at least MIN_PASSES).  A pass is not started
    when the median pass so far would end past the deadline, so a run takes
    `seconds` or a little less.  With a tracer, passes alternate untraced /
    traced.  Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        plain.append(wl.run_pass(inputs))
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                traced.append(wl.run_pass(inputs))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        rounds.append(now - round_start)
        done = len(plain) + len(traced)
        if done >= MIN_PASSES and now + statistics.median(rounds) > deadline:
            return plain, traced


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics' 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def mean_calls(passes) -> list[float]:
    """Each distinct call of a pass at its mean over the run's passes.

    Every pass makes the same calls on the same inputs, so a call's
    repetitions differ only by the machine's speed at the time.  That speed
    drifts over seconds to minutes, and the mean of all repetitions spread
    less from run to run than their median or minimum in most sets of runs
    measured (README.md).
    """
    return [statistics.fmean(times) for times in zip(*(p.calls_s for p in passes))]


def end_to_end(passes, setup_samples) -> dict[str, tuple[float, str]]:
    calls = mean_calls(passes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(calls), "s"),
        "points_per_s": (passes[0].points / sum(calls[:passes[0].point_calls]), "1/s"),
        "call_p50_ms": (quantile(calls, 0.50) * 1e3, "ms"),
        "call_p99_ms": (quantile(calls, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "state_checks": "count",
               "regime_errors": "count", "modes_evaluated": "count",
               "bytes_computed": "B", "rows": "count", "feasible_frac": "ratio",
               "invalid_frac": "ratio", "evals_per_maximize": "count",
               "exit_nonzero": "count", "overhead_frac": "ratio"}


def per_layer(tracer, plain, traced) -> dict[str, tuple[float, str]]:
    """Each layer figure as its median over the traced passes."""
    per_pass = []
    for k, res in enumerate(traced):
        values = tracer.layer_metrics(k)
        rows = res.row_mix.get("rows", 0)
        values["sweep.rows"] = float(rows)
        values["sweep.feasible_frac"] = res.row_mix["feasible"] / rows if rows else 0.0
        values["sweep.invalid_frac"] = res.row_mix["invalid"] / rows if rows else 0.0
        values["cli.exit_nonzero"] = float(res.exit_nonzero)
        per_pass.append(values)
    metrics = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                      / statistics.median(p.wall_s for p in plain) - 1.0)
    return {k: (v, LAYER_UNITS[k.rsplit(".", 1)[-1]]) for k, v in sorted(metrics.items())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print the seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["GRAVWITNESS_THREADS"] = THREADS
    try:
        wl_module, inputs, own_setup = setup(args.workload, args.seed, args.tiny)
    except SourcesMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    wl = wl_module.WORKLOADS[args.workload]

    setup_samples = [own_setup]
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed, args.tiny)
                          for _ in range(SETUP_SAMPLES - 1)]

    # Warm-up on tiny inputs: lazy imports and first-call costs are paid
    # before timing, and the once-per-process warnings are printed here.
    wl.run_pass(wl.build(args.seed, True))

    tracer = None
    if args.trace:
        import gravwitness
        from tracer import Tracer
        tracer = Tracer(gravwitness)
    plain, traced = measure(wl, inputs, args.seconds, tracer)
    passes = plain + traced

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    attempted += len(passes) - 1
    if len(digests) != 1:
        failed += len(passes) - 1
        print(f"check failed: passes gave {len(digests)} different outputs",
              file=sys.stderr)

    prov = provenance(args.workload, args.seed)
    prov["row_mix"] = passes[0].row_mix
    prov["passes"] = {"untraced": len(plain), "traced": len(traced)}
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("pass_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in plain))
    if traced:
        print("traced_pass_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in traced))

    if tracer is None:
        metrics = end_to_end(plain, setup_samples)
        print(f"{'distinct_calls':<36} {len(plain[0].calls_s)} "
              f"(each timed {len(plain)} times)")
    else:
        metrics = per_layer(tracer, plain, traced)
        print(f"{'function':<36} {'calls/pass':>10} {'median_us':>10} "
              f"{'fastest':>10} {'slowest':>10}")
        for name, (count, med, lo, hi) in tracer.per_call_us().items():
            print(f"{name:<36} {count:>10} {med:>10.2f} {lo:>10.2f} {hi:>10.2f}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{args.workload}.npz")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print(f"{'failed_frac':<36} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
