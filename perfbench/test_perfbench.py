"""Smoke tests of the benchmark itself, on tiny problem sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@functools.cache
def bench(workload: str, trace: int, repeat: int = 0) -> dict:
    """Result line of one smoke run; a new `repeat` makes a separate run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == run.load_declared()[trace]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_touch_only_their_layers(workload):
    first = bench(workload, 1)["metrics"]
    second = bench(workload, 1, repeat=1)["metrics"]
    counts = [name for name, metric in first.items() if metric["unit"] != "s"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    resolvent = first["potential.resolvent.calls"]["value"]
    assert (resolvent > 0) == (workload == "gradcheck-yosida-1d")
    control = [n for n in first if n.startswith("control.") and first[n]["value"]]
    assert bool(control) == (workload == "optimize-quartic-1d")


def test_tracer_patches_every_binding_and_restores_it():
    import pfcontrol.cli  # noqa: F401  (loads every module)

    before = spans.bindings()
    with spans.Tracer():
        during = spans.bindings()
        assert spans.wrapped_bindings()
        for name, (home, attr, cls_name, _) in spans.TRACED.items():
            original = before[f"{home}.{cls_name}.{attr}" if cls_name else f"{home}.{attr}"]
            still = {key for key, value in during.items() if value is original}
            # The grid's own factorizations are not step-operator LUs.
            assert still <= {"grid.splu"}, (name, still)
    after = spans.bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spans.wrapped_bindings() == []


def _client(tmp_path, config: dict | str) -> run.Client:
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    workload = "sweep-quartic-2d"
    return run.Client(workload, workloads.cli_args(workload, 1, str(path)))


def test_untraced_run_sees_the_original_functions(tmp_path):
    client = _client(tmp_path, workloads.make_config("sweep-quartic-2d", 1, tiny=True))
    with spans.Tracer():
        *_, problems = run.untraced(client, 0.0, speed.KERNELS["factor"])
    assert problems
    *_, problems = run.untraced(client, 0.0, speed.KERNELS["factor"])
    assert problems == []
    assert client.failed == 0


def test_paired_run_traces_every_other_operation(tmp_path):
    client = _client(tmp_path, workloads.make_config("sweep-quartic-2d", 1, tiny=True))
    plain, traced, ops, problems = run.paired(client, 0.0)
    assert problems == []
    assert len(plain) == len(traced) == len(ops) == 2
    assert all(ops) and spans.wrapped_bindings() == []
    assert (client.attempted, client.failed) == (4, 0)


def test_setup_probes_spread_over_the_run():
    class Sleeper:
        attempted = 0

        def op(self):
            self.attempted += 1
            time.sleep(0.05)
            return 0.05

    client = Sleeper()
    times, _, probed, _ = run.untraced(client, 0.2, speed.KERNELS["assembly"], lambda: client.attempted, 3)
    # Probe k runs once k/3 of the run has passed: before the first
    # operation, then between later ones, never all at one point.
    assert len(times) >= 3 and probed[0] == 0
    assert probed == sorted(set(probed)) and probed[-1] < len(times)


def test_scaled_time_leaves_out_the_kernel_and_scales_by_its_speed():
    # A kernel that takes twice its nominal time: the machine runs at half
    # the reference speed.
    kernel = speed.Kernel(lambda: time.sleep(0.02), 0.01)
    span = []

    def op():
        t0 = time.perf_counter()
        for _ in range(300):
            time.sleep(0.001)
        span.append(time.perf_counter() - t0)

    wall, scaled, refs = speed.scaled_time(op, kernel, period=0.05)
    # The kernel ran before and after the operation and several times inside it.
    assert len(refs) >= 5
    assert wall == pytest.approx(span[0] - sum(refs[1:-1]), rel=0.05)
    assert scaled == pytest.approx(wall / 2, rel=0.1)


def test_failed_operations_are_counted_not_raised(tmp_path):
    cfg = workloads.make_config("sweep-quartic-2d", 1, tiny=True)
    cfg["time"]["steps"] = 0  # invalid config: the CLI exits with code 2
    client = _client(tmp_path, cfg)
    client.op()
    client.op()
    assert (client.attempted, client.failed) == (2, 2)
    assert all("exit code 2" in problem for problem in client.problems)

    client = _client(tmp_path, workloads.make_config("sweep-quartic-2d", 1, tiny=True))
    # A repeat that differs from the first report of the run.
    client.first_report = "{}"
    client.op()
    assert (client.attempted, client.failed) == (1, 1)


def test_optimize_check_rejects_a_capped_run():
    report = {"termination": "max_iterations", "residual_final": 1.0, "j_history": [2.0, 1.0]}
    assert workloads.check_report("optimize-quartic-1d", 0, json.dumps(report))
    assert workloads.check_report("optimize-quartic-1d", 1, "") == ["exit code 1"]


def test_optimize_runs_the_same_multi_start_for_every_seed():
    configs = [workloads.make_config("optimize-quartic-1d", seed) for seed in (4, 5)]
    starts = [cfg["control"]["values"] for cfg in configs]
    assert starts[0] != starts[1]
    assert starts[0] == workloads.make_config("optimize-quartic-1d", 4)["control"]["values"]
    assert max(abs(v) for row in starts[0] for v in row) <= workloads.SEEDED_SCALE
    assert configs[0]["optimize"]["starts"] == configs[1]["optimize"]["starts"] == workloads.OPTIMIZE_STARTS


def test_every_workload_is_scaled_by_a_kernel():
    assert set(workloads.KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.KERNEL.values()) | {run.SETUP_KERNEL} <= set(speed.KERNELS)
