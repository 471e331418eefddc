"""Record the SHA-256 of the artifact of every command line in COMMANDS.

Run from the root of a checkout of the commit whose artifacts are the
reference, then commit ``tests/artifact_hashes.json``:

    PYTHONPATH=src python3 tests/record_artifact_hashes.py

Each command runs in process through ``cli.main`` with ``--out``, whatever
its exit code: ``group --rank 8`` exits 2 with an error artifact, which is
pinned too. A line ``<certify line> | replay`` replays the certificate file
that its certify line wrote; each line runs once per process, so the pair
costs one certify. ``tests/test_artifacts.py`` reruns every recorded line
and compares; the file changes only with a deliberate change of an artifact.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from dp_hlog import cli

HASHES = Path(__file__).resolve().parent / "artifact_hashes.json"

CERTIFY = [
    f"certify --rank {r}{flag}" for r in range(4, 8) for flag in ("", " --quotient", " --seed 3")
] + ["certify --rank 8"]

COMMANDS = (
    [f"characters --rank {r}" for r in range(4, 8)]
    + ["characters --rank 5 --d5-full"]
    + [f"enumerate --rank {r}" for r in range(3, 9)]
    + [f"group --rank {r}{flag}" for r in range(3, 9) for flag in ("", " --orbit", " --count-only")]
    + CERTIFY
    + [f"{line} | replay" for line in CERTIFY]
    + ["symbols"]
    + ["numeric --rank 4", "numeric --rank 5"]
    + ["numeric --rank 5 --samples 2 --seed 7 --tol 1e-5 --gamma=2/5 --pi=-3/4"]
    + [f"all --rank {r}" for r in (3, 5, 6, 7)]
    + ["all --rank 4 --seed 5 --samples 2 --tol 1e-7"]
)


@lru_cache(maxsize=None)
def artifact(command: str) -> bytes:
    """The bytes of the artifact `command` writes, run once per process: a
    replay line reads the file that its certify line wrote."""
    certify, pipe, _ = command.partition(" | ")
    argv = command.split()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact.json"
        if pipe:
            certificate = Path(tmp) / "certificate.json"
            certificate.write_bytes(artifact(certify))
            argv = ["replay", str(certificate)]
        cli.main(argv + ["--out", str(out)])
        return out.read_bytes()


def artifact_hash(command: str) -> str:
    return hashlib.sha256(artifact(command)).hexdigest()


def main() -> int:
    hashes = {command: artifact_hash(command) for command in COMMANDS}
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(hashes)} artifact hashes -> {HASHES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
