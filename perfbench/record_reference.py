"""Record the SHA-256 of every artifact the benchmark's workloads can produce.

Run from the root of a checkout of the commit whose artifacts are the
reference, then commit ``perfbench/reference.json``:

    python3 perfbench/record_reference.py

An artifact is recorded only if its run exited 0 and every ``passed`` and
``matches_expected`` field in it is true.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import run as bench


def step_chains(steps: list[list[str]]) -> list[list[list[str]]]:
    """Split a pass into runs of a step and the steps that read its artifact,
    so a call shared by many seeds' passes is recorded once."""
    chains: list[list[list[str]]] = []
    for step in steps:
        if bench.PREV in step:
            chains[-1].append(step)
        else:
            chains.append([step])
    return chains


def main() -> int:
    root = Path.cwd()
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp, bench.Runner(
        root, Path(tmp), time.monotonic() + 24 * 3600
    ) as runner:
        chains = {
            tuple(map(tuple, chain))
            for name in bench.WORKLOADS
            for seed in range(bench.SEED_SPACE)
            for chain in step_chains(bench.workload_steps(name, seed))
        }
        for steps in sorted(chains):
            t0 = time.perf_counter()
            _, done = runner.run_pass([list(s) for s in steps], traced=False)
            for inv in done:
                problems = [
                    p for p in bench.check_invocation(inv, {})
                    if p != "no reference hash"
                ]
                if problems:
                    print(f"{inv.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                hashes[inv.key] = hashlib.sha256(inv.artifact.read_bytes()).hexdigest()
            print(f"{time.perf_counter() - t0:7.2f}s  {steps[0]}", file=sys.stderr)
    text = json.dumps(hashes, indent=1, sort_keys=True) + "\n"
    bench.REFERENCE.write_text(text, encoding="utf-8")
    print(f"{len(hashes)} artifact hashes -> {bench.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
