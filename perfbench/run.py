"""Cold-process benchmark of the ``dp-hlog`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh interpreter, alone, one after another,
so the interpreter start and imports that users pay on each call are in the
numbers. Each artifact is checked: exit code 0, every ``passed`` and
``matches_expected`` field true, and SHA-256 equal to ``reference.json``.

The host is shared, and the speed of one CPU switches between two levels
about 2x apart every few seconds, more than any affordable run length
averages out. So the end-to-end times are the children's CPU seconds (user
+ system, from ``os.wait4``) rescaled to a reference speed. A low-priority
thread of the runner repeats a fixed unit of work on the same pinned CPU as
the children, taking turns with them, and so samples the speed they see;
each child's CPU time is scaled by the unit's reference time over its mean
time while the child ran.

With ``--trace 0`` the workload's pass repeats for about S seconds and the
last stdout line holds the end-to-end metrics. With ``--trace 1`` one traced
pass gives the per-layer metrics (see ``traced_cli.py``), and an untraced
pass of the same inputs, when it fits, gives the tracing overhead. The line
before the result is an environment record. README.md explains the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
TRACED_CLI = HERE / "traced_cli.py"

RUN_LIMIT_S = 170.0  # children are killed past this, to exit within 180 s
SETUP_IMPORTS = 7  # timed cold imports per run; setup_s is their median
# CPU seconds one speed-monitor unit takes at the reference speed; a child's
# CPU time is scaled by UNIT_REF_S / (the unit's mean time while it ran).
UNIT_REF_S = 0.001
# Nice value of the monitor thread: it gets about a tenth of the pinned CPU
# while a child runs, and all of it in between.
MONITOR_NICE = 10
MIN_UNITS = 20  # a window with fewer units is widened back to this many
PREV = "{prev}"  # stands for the previous step's artifact path

# small-ranks passes --seed (N mod SEED_SPACE) to its r = 6 and r = 7 calls;
# reference.json holds the artifact hashes of every such program seed.
SEED_SPACE = 32
# small-ranks runs its numeric calls on these program seeds, whatever N is.
# The sample plan of one seed changes a numeric run's time by up to 4x, more
# than any affordable number of seeds per pass averages out.
NUMERIC_SEEDS = (1, 2)

WORKLOADS = ("small-ranks", "r7-kernel")

END_TO_END = {"ref_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "cli.process_start_s": "s",
    "cli.process_exit_s": "s",
    "incidence.enumerate_lines_s": "s",
    "incidence.line_tables": "count",
    "incidence.enumerate_conics_s": "s",
    "incidence.conics": "count",
    "weyl.group_data_s": "s",
    "weyl.group_order": "count",
    "weyl.bfs_levels": "count",
    "weyl.rss_mb": "MB",
    "rep_theory.characters_s": "s",
    "rep_theory.conic_character_s": "s",
    "rep_theory.signature_multiplicity_s": "s",
    "rep_theory.elements_summed": "count",
    "wedge_kernel.kernel_signs_s": "s",
    "wedge_kernel.assembly_s": "s",
    "wedge_kernel.solve_s": "s",
    "wedge_kernel.tuples": "count",
    "wedge_kernel.nnz": "count",
    "wedge_kernel.replay_s": "s",
    "wedge_kernel.replay_check_s": "s",
    "hyperlog.words.identities_s": "s",
    "hyperlog.dp4.dp4_data_s": "s",
    "hyperlog.numeric.verify_s": "s",
    "hyperlog.numeric.paths": "count",
    "hyperlog.numeric.word_values": "count",
    "trace.bookkeeping_s": "s",
}

# Span name -> the per-layer metric its self time adds to.
SELF_TIME_METRIC = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_self_s",
    "incidence.enumerate_lines": "incidence.enumerate_lines_s",
    "incidence.enumerate_conics": "incidence.enumerate_conics_s",
    "weyl.group_data": "weyl.group_data_s",
    "rep_theory.line_character": "rep_theory.characters_s",
    "rep_theory.reflection_character": "rep_theory.characters_s",
    "rep_theory.trivial_character": "rep_theory.characters_s",
    "rep_theory.inner_product": "rep_theory.characters_s",
    "rep_theory.conic_character": "rep_theory.conic_character_s",
    "rep_theory.signature_multiplicity": "rep_theory.signature_multiplicity_s",
    "wedge_kernel.fiber_differences": "wedge_kernel.assembly_s",
    "wedge_kernel.wedge_vector": "wedge_kernel.assembly_s",
    "wedge_kernel.kernel_signs": "wedge_kernel.solve_s",
    "wedge_kernel.replay": "wedge_kernel.replay_check_s",
    "hyperlog.words.verify_asym_shuffle_identities": "hyperlog.words.identities_s",
    "hyperlog.dp4.dp4_data": "hyperlog.dp4.dp4_data_s",
    "hyperlog.numeric.verify_identity_numeric": "hyperlog.numeric.verify_s",
}
# Span name -> the per-layer metric its whole duration adds to.
INCLUSIVE_METRIC = {
    "wedge_kernel.kernel_signs": "wedge_kernel.kernel_signs_s",
    "wedge_kernel.replay": "wedge_kernel.replay_s",
}


def workload_steps(name: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one pass, in order, without ``--out``."""
    if name == "r7-kernel":
        # The canonical ordering: a seeded one changes the elimination's
        # fill-in, and with it the time, by about 10%.
        return [["certify", "--rank", "7", "--quotient"], ["replay", PREV]]
    if name == "small-ranks":
        p = str(seed % SEED_SPACE)
        return [
            ["all", "--rank", str(r), "--seed", str(s)]
            for s in NUMERIC_SEEDS
            for r in (4, 5)
        ] + [
            ["all", "--rank", "6", "--seed", p],
            ["certify", "--rank", "7", "--seed", p],
            ["replay", PREV],
            ["enumerate", "--rank", "8"],
        ]
    raise ValueError(f"unknown workload {name!r}")


_UNIT_CODE = compile(
    "\n".join(f"def f{i}(x):\n    return [x + j for j in range({i})]" for i in range(20)),
    "<speed unit>",
    "exec",
)


def speed_unit() -> None:
    """A fixed mix of the work the CLI does, about 1 ms: dicts of tuples,
    Fraction sums, small numpy arrays and module execution."""
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = ((i * 2654435761) & 1023, i & 7)
        table[key] = table.get(key, 0) + 1
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i % 7 - 3, i * i + 1)
    vec = np.zeros(4)
    for i in range(150):
        vec = vec * 0.5 + np.array([1.0, 2.0, 3.0, float(i)])
    exec(_UNIT_CODE, {})


class SpeedMonitor:
    """Repeats ``speed_unit`` in a low-priority thread until stopped.

    Each sample is ``(time.monotonic(), thread CPU seconds, units done)``.
    The thread shares the children's pinned CPU, so the scheduler
    interleaves it with a running child in slices of milliseconds, and its
    units see the same speed the child sees.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-monitor", daemon=True)

    def _run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), MONITOR_NICE)
        units = 0
        while not self._stop.is_set():
            speed_unit()
            units += 1
            self.samples.append((time.monotonic(), time.thread_time(), units))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def unit_cpu(self, start: float, end: float) -> float:
        """Mean CPU seconds per unit over the samples taken in [start, end],
        or over the last MIN_UNITS samples up to ``end`` if it holds fewer."""
        samples = self.samples[:]  # the thread appends while we look
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        lo = min(lo, max(0, hi - MIN_UNITS))
        if hi - lo < 2:
            raise RuntimeError("the speed monitor took fewer than two samples")
        (_, cpu0, units0), (_, cpu1, units1) = samples[lo], samples[hi - 1]
        return (cpu1 - cpu0) / (units1 - units0)


def step_keys(steps: list[list[str]]) -> list[str]:
    """Names for the steps' artifacts; a replay is named after what it replays."""
    keys: list[str] = []
    for step in steps:
        keys.append(" ".join(f"({keys[-1]})" if a == PREV else a for a in step))
    return keys


@dataclass
class Invocation:
    key: str
    artifact: Path
    code: int
    started: float  # time.monotonic() at spawn
    wall_s: float  # spawn to reap
    cpu_s: float  # user + system time of the child
    ref_cpu_s: float  # cpu_s rescaled to the reference speed
    rss_mb: float
    traced: bool = False
    trace: dict | None = None  # what traced_cli.py wrote, if it got that far


class Runner:
    """Spawns CLI children in a clean environment and reaps each with wait4.

    The runner pins its process, and so its children, to one CPU and runs
    a ``SpeedMonitor`` there until ``close``, which restores the process's
    CPUs. Use it as a context manager.
    """

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("DP_HLOG_THREADS", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.count = 0
        self._cpus = os.sched_getaffinity(0)
        self.cpu = min(self._cpus)
        os.sched_setaffinity(0, {self.cpu})
        self.monitor = SpeedMonitor()
        self.monitor.start()

    def close(self) -> None:
        self.monitor.stop()
        os.sched_setaffinity(0, self._cpus)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, float, float, float]:
        """Run one child to its end: (exit code, start, wall seconds, CPU
        seconds, reference CPU seconds, peak RSS MB).

        ``os.wait4`` gives the child's own CPU time and peak RSS;
        RUSAGE_CHILDREN would carry the largest child of the whole run into
        every later RSS reading.
        """
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            return -1, time.monotonic(), 0.0, 0.0, 0.0, 0.0
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, cwd=self.workdir,
        )
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        ref_cpu = cpu * UNIT_REF_S / self.monitor.unit_cpu(start, start + wall)
        return proc.returncode, start, wall, cpu, ref_cpu, usage.ru_maxrss / 1024.0

    def run_step(
        self, key: str, template: list[str], prev: Path | None, traced: bool
    ) -> Invocation:
        self.count += 1
        out = self.workdir / f"artifact{self.count}.json"
        args = [str(prev) if a == PREV else a for a in template] + ["--out", str(out)]
        spans = self.workdir / f"spans{self.count}.json"
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans)] + args
        else:
            cmd = [sys.executable, "-m", "dp_hlog.cli"] + args
        code, started, wall, cpu, ref_cpu, rss = self.spawn(cmd)
        trace = None
        if traced and spans.is_file():
            trace = json.loads(spans.read_text(encoding="utf-8"))
        return Invocation(key, out, code, started, wall, cpu, ref_cpu, rss, traced, trace)

    def run_pass(self, steps: list[list[str]], traced: bool) -> tuple[float, list[Invocation]]:
        start = time.monotonic()
        done: list[Invocation] = []
        for key, template in zip(step_keys(steps), steps):
            prev = done[-1].artifact if done else None
            done.append(self.run_step(key, template, prev, traced))
        return time.monotonic() - start, done

    def import_cpu(self) -> float:
        """Reference CPU seconds of a fresh interpreter that imports
        ``dp_hlog.cli``."""
        code, _, _, _, ref_cpu, _ = self.spawn([sys.executable, "-c", "import dp_hlog.cli"])
        if code != 0:
            raise RuntimeError(f"importing dp_hlog.cli failed with exit code {code}")
        return ref_cpu


def failed_flags(artifact) -> list[str]:
    """Paths of every ``passed``/``matches_expected`` that is not true and
    every ``replay`` that is not ``"pass"``."""
    bad = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                here = f"{path}.{key}" if path else key
                if key in ("passed", "matches_expected") and value is not True:
                    bad.append(here)
                elif key == "replay" and value != "pass":
                    bad.append(here)
                else:
                    walk(value, here)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk(artifact, "")
    return bad


def check_invocation(inv: Invocation, reference: dict[str, str]) -> list[str]:
    """Reasons the invocation failed; empty when it passed."""
    problems = []
    if inv.code != 0:
        problems.append(f"exit code {inv.code}")
    if inv.traced and inv.trace is None:
        problems.append("no trace")
    try:
        data = inv.artifact.read_bytes()
    except OSError:
        return problems + ["no artifact"]
    expected = reference.get(inv.key)
    if expected is None:
        problems.append("no reference hash")
    elif hashlib.sha256(data).hexdigest() != expected:
        problems.append("artifact differs from the reference")
    try:
        artifact = json.loads(data)
    except ValueError:
        return problems + ["artifact is not JSON"]
    problems += [f"{flag} is not true" for flag in failed_flags(artifact)]
    return problems


def count_failures(invocations: list[Invocation], reference: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed), printing each failure's reasons to stderr."""
    failed = 0
    for inv in invocations:
        problems = check_invocation(inv, reference)
        if problems:
            failed += 1
            print(f"FAILED {inv.key}: {'; '.join(problems)}", file=sys.stderr)
    return len(invocations), failed


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover, minus
    the tracer's bookkeeping done inside it.

    A span is ``[name, start, end, parent index or -1, bookkeeping_s]``.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, bookkeeping), kids in zip(spans, children):
        covered, edge = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(end - start - covered - bookkeeping)
    return out


def layer_metrics(invocations: list[Invocation]) -> dict[str, float]:
    """Per-layer metrics summed over the traced invocations of one pass."""
    values = {name: 0 for name in PER_LAYER}
    for inv in invocations:
        trace = inv.trace
        if trace is None:
            continue
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            values[SELF_TIME_METRIC[name]] += own
            if name in INCLUSIVE_METRIC:
                values[INCLUSIVE_METRIC[name]] += span[2] - span[1]
        roots = [(start, end) for _, start, end, parent, _ in spans if parent < 0]
        first, last = min(r[0] for r in roots), max(r[1] for r in roots)
        between_roots = last - first - sum(end - start for start, end in roots)
        values["cli.process_start_s"] += first - inv.started
        values["cli.process_exit_s"] += inv.started + inv.wall_s - last
        values["trace.bookkeeping_s"] += between_roots + sum(s[4] for s in spans)
        for key, amount in trace["counters"].items():
            values[key] += amount
        values["weyl.rss_mb"] = max(values["weyl.rss_mb"], trace["weyl_rss_mb"])
    return values


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args, threads) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "dp_hlog" / "cli.py").is_file():
        print(f"no dp_hlog sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    steps = workload_steps(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp, Runner(
        root, Path(tmp), started + RUN_LIMIT_S
    ) as runner:
        runner.import_cpu()  # compiles bytecode in a fresh checkout; not timed
        if args.trace:
            traced_wall, traced = runner.run_pass(steps, traced=True)
            plain_wall, plain = None, []
            if time.monotonic() + traced_wall < runner.deadline:
                plain_wall, plain = runner.run_pass(steps, traced=False)
            invocations = traced + plain
            layers = layer_metrics(traced)
            threads = next(
                (inv.trace["threads"] for inv in traced if inv.trace and inv.trace["threads"]),
                None,
            )
            env = environment(root, args, threads)
            # null when an untraced pass would not have fit in RUN_LIMIT_S
            env["trace_overhead_s"] = None if plain_wall is None else traced_wall - plain_wall
            env["untraced_wall_s"] = plain_wall
            env["traced_wall_s"] = traced_wall
            env["untraced_entry_points"] = sorted(
                {m for inv in traced if inv.trace for m in inv.trace["missing"]}
            )
            metrics = {k: metric(layers[k], unit) for k, unit in PER_LAYER.items()}
        else:
            setups = [runner.import_cpu() for _ in range(SETUP_IMPORTS)]
            measure_start = time.monotonic()
            walls, cpus, ref_cpus, invocations = [], [], [], []
            while True:
                wall, done = runner.run_pass(steps, traced=False)
                walls.append(wall)
                cpus.append(sum(inv.cpu_s for inv in done))
                ref_cpus.append(sum(inv.ref_cpu_s for inv in done))
                invocations += done
                elapsed = time.monotonic() - measure_start
                if elapsed + wall > args.seconds or time.monotonic() + wall > started + RUN_LIMIT_S:
                    break
            env = environment(root, args, os.cpu_count())
            env["passes"] = len(walls)
            env["pass_walls_s"] = walls
            env["pass_cpus_s"] = cpus
            env["pass_ref_cpus_s"] = ref_cpus
            env["setup_imports_ref_cpu_s"] = setups
            metrics = {
                "ref_cpu_s": metric(statistics.median(ref_cpus), "s"),
                "peak_rss_mb": metric(max(inv.rss_mb for inv in invocations), "MB"),
                "setup_s": metric(statistics.median(setups), "s"),
            }
        attempted, failed = count_failures(invocations, reference)
    env["pinned_cpu"] = runner.cpu
    env["speed_units"] = len(runner.monitor.samples)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
