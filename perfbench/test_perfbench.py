"""The benchmark harness's own logic: self times, failure counting, hashes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import traced_cli  # noqa: E402


def span(name, start, end, parent=-1, bookkeeping=0.0):
    return [name, start, end, parent, bookkeeping]


def test_self_time_subtracts_children_and_bookkeeping():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("wedge_kernel.kernel_signs", 1.0, 9.0, 0, 0.5),
        span("incidence.enumerate_conics", 1.0, 3.0, 1),
        span("wedge_kernel.wedge_vector", 4.0, 5.0, 1),
        span("wedge_kernel.wedge_vector", 5.0, 6.0, 1),
    ]
    assert bench.self_times(spans) == pytest.approx([2.0, 3.5, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0), span("a", 2.0, 6.0, 0), span("b", 4.0, 12.0, 0)]
    assert bench.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_metrics_account_for_the_process_wall():
    trace = {
        "spans": [
            span("cli.import", 100.25, 101.0),
            span("cli.main", 101.125, 109.0, -1, 0.25),
            span("wedge_kernel.replay", 102.0, 108.0, 1),
            span("incidence.enumerate_conics", 102.0, 105.0, 2),
        ],
        "counters": {"incidence.conics": 2160},
        "weyl_rss_mb": 0.0,
    }
    inv = bench.Invocation(
        "replay (certify --rank 8 --stretch)", Path("x"), 0, 100.0, 9.5, 9.4, 9.4, 200.0, True, trace
    )
    m = bench.layer_metrics([inv])
    assert m["wedge_kernel.replay_s"] == pytest.approx(6.0)
    assert m["wedge_kernel.replay_check_s"] == pytest.approx(3.0)
    assert m["incidence.enumerate_conics_s"] == pytest.approx(3.0)
    assert m["cli.import_s"] == pytest.approx(0.75)
    assert m["cli.main_self_s"] == pytest.approx(1.625)
    assert m["trace.bookkeeping_s"] == pytest.approx(0.375)
    assert m["cli.process_start_s"] == pytest.approx(0.25)
    assert m["cli.process_exit_s"] == pytest.approx(0.5)
    assert m["incidence.conics"] == 2160
    inclusive = set(bench.INCLUSIVE_METRIC.values())
    parts = sum(v for k, v in m.items() if k.endswith("_s") and k not in inclusive)
    assert parts == pytest.approx(inv.wall_s)


def test_unit_cpu_is_the_mean_over_the_window():
    monitor = bench.SpeedMonitor()
    monitor.samples = [(float(t), 0.001 * t * t, t) for t in range(100)]
    # units 10..30 took 0.001 * (30**2 - 10**2) CPU seconds
    assert monitor.unit_cpu(10.0, 30.0) == pytest.approx(0.001 * 800 / 20)
    # a window with too few samples reaches back to MIN_UNITS of them
    first = 52 - bench.MIN_UNITS
    assert monitor.unit_cpu(50.5, 51.5) == pytest.approx(
        0.001 * (51**2 - first**2) / (51 - first)
    )
    with pytest.raises(RuntimeError):
        monitor.unit_cpu(-5.0, -1.0)


def test_reference_cpu_scales_by_the_monitored_speed(tmp_path):
    cpus = os.sched_getaffinity(0)
    with bench.Runner(tmp_path, tmp_path, time.monotonic() + 60) as runner:
        assert os.sched_getaffinity(0) == {runner.cpu}
        code, start, wall, cpu, ref_cpu, _ = runner.spawn(
            [sys.executable, "-c", "sum(range(10**7))"]
        )
        unit = runner.monitor.unit_cpu(start, start + wall)
    assert code == 0 and cpu > 0
    assert ref_cpu == pytest.approx(cpu * bench.UNIT_REF_S / unit)
    assert not runner.monitor._thread.is_alive()
    assert os.sched_getaffinity(0) == cpus


def write_artifact(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def test_check_passes_a_matching_artifact(tmp_path):
    path, digest = write_artifact(tmp_path, "a.json", {"routes": {"x": {"passed": True}}})
    inv = bench.Invocation("all --rank 4 --seed 0", path, 0, 0.0, 1.0, 1.0, 1.0, 70.0)
    assert bench.check_invocation(inv, {inv.key: digest}) == []


def test_check_detects_a_hash_mismatch(tmp_path):
    path, digest = write_artifact(tmp_path, "a.json", {"passed": True})
    inv = bench.Invocation("symbols", path, 0, 0.0, 1.0, 1.0, 1.0, 70.0)
    assert bench.check_invocation(inv, {"symbols": "0" * 64}) == [
        "artifact differs from the reference"
    ]
    assert bench.check_invocation(inv, {}) == ["no reference hash"]


def test_failure_counting(tmp_path):
    good, good_hash = write_artifact(tmp_path, "g.json", {"replay": "pass"})
    flag, flag_hash = write_artifact(
        tmp_path, "f.json", {"routes": {"numeric": {"passed": False}}, "passed": True}
    )
    reference = {"good": good_hash, "flag": flag_hash, "crash": good_hash}
    invocations = [
        bench.Invocation("good", good, 0, 0.0, 1.0, 1.0, 1.0, 70.0),
        bench.Invocation("flag", flag, 0, 0.0, 1.0, 1.0, 1.0, 70.0),
        bench.Invocation("crash", good, 4, 0.0, 1.0, 1.0, 1.0, 70.0),
        bench.Invocation("good", tmp_path / "missing.json", 0, 0.0, 1.0, 1.0, 1.0, 70.0),
        bench.Invocation("good", good, 0, 0.0, 1.0, 1.0, 1.0, 70.0, traced=True),
    ]
    assert bench.check_invocation(invocations[1], reference) == [
        "routes.numeric.passed is not true"
    ]
    assert bench.count_failures(invocations, reference) == (5, 4)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert set(bench.SELF_TIME_METRIC.values()) | set(bench.INCLUSIVE_METRIC.values()) <= set(
        bench.PER_LAYER
    )
    spans = {f"{module}.{fn}" for module, fn in traced_cli.TRACED} | {"cli.import", "cli.main"}
    assert spans == set(bench.SELF_TIME_METRIC)


def test_reference_covers_every_step():
    reference = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    for name in bench.WORKLOADS:
        for seed in range(bench.SEED_SPACE):
            keys = bench.step_keys(bench.workload_steps(name, seed))
            assert set(keys) <= set(reference), (name, seed)


def test_traced_run_keeps_the_artifact(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("DP_HLOG_THREADS", None)
    args = ["certify", "--rank", "4", "--seed", "3"]
    plain, traced, spans = tmp_path / "p.json", tmp_path / "t.json", tmp_path / "s.json"
    subprocess.run(
        [sys.executable, "-m", "dp_hlog.cli", *args, "--out", str(plain)],
        env=env, check=True, timeout=120,
    )
    subprocess.run(
        [sys.executable, str(bench.TRACED_CLI), str(spans), *args, "--out", str(traced)],
        env=env, check=True, timeout=120,
    )
    assert traced.read_bytes() == plain.read_bytes()
    trace = json.loads(spans.read_text(encoding="utf-8"))
    assert trace["missing"] == []
    names = [s[0] for s in trace["spans"]]
    assert names[:3] == ["cli.import", "cli.main", "wedge_kernel.kernel_signs"]
    assert names.count("wedge_kernel.wedge_vector") == 5
    assert trace["counters"]["incidence.conics"] == 5
    assert all(t >= -1e-6 for t in bench.self_times(trace["spans"]))
