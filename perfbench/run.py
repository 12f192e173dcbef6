#!/usr/bin/env python3
"""pfcontrol benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports pfcontrol from ./src. The
workloads are listed in BENCHMARK.json and built in workloads.py. A run is a
closed loop: one client in one process runs one workload operation (one
`pfcontrol.cli.main(argv)` call) after another for about S seconds, checking
every report, so the loop always waits for the previous operation. Every
operation of a run is the same command on the same config. BLAS and OpenMP
pools are pinned to one thread before numpy is imported.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. The two times
are scaled to the reference speed of speed.py: the wall time the work would
take on a machine that runs a fixed reference kernel in its nominal time.
The workload's kernel (workloads.KERNEL) is timed around and, on a timer,
inside every operation, and the set-up kernel after every set-up, so that
the host's changes of speed do not show up as changes of the program; the
raw wall times are printed on the lines before the result.
  wall_s       median over the run of the scaled wall time of one
               operation. Each operation runs the CLI from its config file,
               so it includes loading the config and filling the grid's
               caches (the Laplacian and the Helmholtz factorization),
               which the CLI builds anew per call;
  setup_s      median over fresh processes, started between the operations
               so that they spread over the run, of the scaled time of
               importing pfcontrol, loading the config, building the spec
               and filling those caches (setup_probe.py);
  peak_rss_mb  peak resident set of this process.
--trace 1 alternates untraced and traced operations, in pairs whose order
also alternates; a traced operation has spans recorded around every module
boundary (spans.py) and the tracer is removed again after it. It reports
the per-layer metrics of BENCHMARK.json: exact counts from the traced
operations, which must agree between them, median self times, and
trace.overhead_s, the median over pairs of traced minus untraced wall time.
The spans are written to perfbench/out/ when the run ends.

An operation fails on a nonzero exit code, an exception, a report that breaks
the workload's checks, or a report that differs from the first report of
the run (reruns of one input must be byte-identical). The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it repeat the metrics for people, with the
failure rate and the machine record. `--smoke` shrinks every workload to a
few cells for the benchmark's own tests (test_perfbench.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# None of these imports numpy, so the thread pinning in main() still comes first.
import spans
import speed
from setup_probe import KERNEL_RUNS, SETUP_KERNEL, warm
from workloads import KERNEL, WORKLOADS, check_report, cli_args, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 9
SETUP_TIMEOUT_S = 120


def pin_threads() -> dict:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def machine_record(threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


def measure_setup(config_path: str) -> tuple[float, float]:
    """Set-up seconds of one fresh process, as measured and scaled to the
    reference speed by the mean kernel time just before the process starts
    and just after its set-up; see setup_probe.py."""
    kernel = speed.KERNELS[SETUP_KERNEL]
    before = speed.kernel_mean(kernel, KERNEL_RUNS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), config_path],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    setup, after = map(float, proc.stdout.split()[-2:])
    return setup, setup * kernel.nominal_s * 2.0 / (before + after)


class Client:
    """The closed-loop client: runs the one command of a workload again and
    again, checks every report and keeps the tally of failures. Reports
    after the first must be byte-identical to it."""

    def __init__(self, workload: str, argv: list[str]):
        self.workload = workload
        self.argv = argv
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_report: str | None = None

    def _call(self) -> tuple[int, str, str]:
        from pfcontrol import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # Looked up on every call, so a traced operation reaches the wrapper.
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = -1
        return code, out.getvalue(), err.getvalue()

    def op(self) -> float:
        """Run and check one operation; returns its wall time."""
        t0 = time.perf_counter()
        code, report, err = self._call()
        elapsed = time.perf_counter() - t0
        bad = check_report(self.workload, code, report)
        if not bad:
            if self.first_report is None:
                self.first_report = report
            elif report != self.first_report:
                bad = ["report differs from the first report of the run"]
        self.attempted += 1
        if bad:
            self.failed += 1
            tail = err.strip().splitlines()[-1:] if err.strip() else []
            self.problems.append("; ".join(bad + tail))
        return elapsed


def untraced(client: Client, seconds: float, kernel: speed.Kernel, probe=None, probes: int = 0):
    """Operations back to back until about `seconds` have passed (the loop
    stops at the operation boundary nearest to it), at least one, each
    timed with `kernel` (speed.scaled_time). Between them, `probe()` runs `probes`
    times, spread evenly over the run. Returns the wall time of each
    operation, that time scaled to the reference speed, and each probe's
    result."""
    problems = []
    leftovers = spans.wrapped_bindings()
    if leftovers:
        problems.append(f"untraced run found wrapped functions: {leftovers}")
    times, scaled, probed = [], [], []
    start = time.perf_counter()
    while True:
        while len(probed) < probes and len(probed) * seconds <= probes * (time.perf_counter() - start):
            probed.append(probe())
        elapsed, norm, _ = speed.scaled_time(client.op, kernel)
        times.append(elapsed)
        scaled.append(norm)
        if time.perf_counter() - start + elapsed / 2 >= seconds:
            break
    while len(probed) < probes:
        probed.append(probe())
    return times, scaled, probed, problems


def paired(client: Client, seconds: float) -> tuple[list[float], list[float], list[list], list[str]]:
    """Pairs of one untraced and one traced operation, the order alternating
    from pair to pair, until about `seconds` have passed, at least two pairs.
    Returns the untraced and the traced wall times, pair by pair, and the
    spans of each traced operation."""
    problems = []
    plain, traced, ops = [], [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while True:
        for trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if trace:
                with tracer:
                    traced.append(client.op())
                ops.append(tracer.take())
            else:
                leftovers = spans.wrapped_bindings()
                if leftovers:
                    problems.append(f"untraced operation found wrapped functions: {leftovers}")
                plain.append(client.op())
        if len(ops) >= 2 and time.perf_counter() - start + (plain[-1] + traced[-1]) / 2 >= seconds:
            break
    leftovers = spans.wrapped_bindings()
    if leftovers:
        problems.append(f"originals not restored after tracing: {leftovers}")
    return plain, traced, ops, problems


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (pct, value)."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_summary(ops: list[list]) -> tuple[dict, list[str]]:
    problems = []
    per_op = [spans.layer_metrics(op) for op in ops]
    counts = per_op[0][0]
    for k, (other, _) in enumerate(per_op[1:], start=2):
        if other != counts:
            diff = sorted(name for name in counts if counts[name] != other[name])
            problems.append(f"traced operation {k} counts differ from the first: {diff}")
    times = {
        name: statistics.median(t[name] for _, t in per_op) for name in per_op[0][1]
    }
    return {**counts, **times}, problems


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pfcontrol" / "__init__.py").is_file():
        print(f"perfbench: no pfcontrol package under {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()[args.trace]
    threads = pin_threads()
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    config_path = OUT / f"{args.workload}-{args.seed}{suffix}.json"
    config_path.write_text(json.dumps(make_config(args.workload, args.seed, args.smoke), indent=2))
    # One-time imports (scipy submodules among them) happen here, not in
    # the first operation.
    warm(str(config_path))
    for kernel in {KERNEL[args.workload], SETUP_KERNEL}:
        speed.kernel_mean(speed.KERNELS[kernel], 5)
    machine = machine_record(threads)

    client = Client(args.workload, cli_args(args.workload, args.seed, str(config_path)))
    setup = []
    if args.trace == 0:
        times, scaled, setup, problems = untraced(
            client,
            args.seconds,
            speed.KERNELS[KERNEL[args.workload]],
            lambda: measure_setup(str(config_path)),
            SETUP_PROCESSES,
        )
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(s for _, s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        plain, times, ops, problems = paired(client, args.seconds)
        metrics, layer_problems = layer_summary(ops)
        problems += layer_problems
        metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(times, plain))
        spans.write_spans(
            OUT / f"spans-{args.workload}-{args.seed}{suffix}.jsonl",
            {"workload": args.workload, "seed": args.seed, "machine": machine},
            ops,
        )

    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} not as declared")
    for problem in client.problems[:5] + problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    error_rate = client.failed / client.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{client.attempted} operations, {client.failed} failed, "
          f"error_rate {error_rate:.4f} (failed/attempted)")
    tail = tail_percentile(times)
    print(f"{'traced ' if args.trace else ''}wall time per operation: median {statistics.median(times):.4f} s over n={len(times)}; "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it")
          + f"; each: {' '.join(f'{t:.3f}' for t in times)}")
    if args.trace == 0:
        print(f"scaled to the reference speed: {' '.join(f'{t:.3f}' for t in scaled)} s")
        print(f"set-up per fresh process: {' '.join(f'{t:.3f}' for t, _ in setup)} s, "
              f"scaled: {' '.join(f'{s:.3f}' for _, s in setup)} s")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {declared.get(name, '?')}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(json.dumps({
        "correct": client.failed == 0 and not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {
            name: {"value": value, "unit": declared.get(name, "?")}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
