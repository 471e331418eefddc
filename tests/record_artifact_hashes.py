"""Record the SHA-256 of the artifact of every command line in COMMANDS.

Run from the root of a checkout of the commit whose artifacts are the
reference, then commit ``tests/artifact_hashes.json``:

    PYTHONPATH=src python3 tests/record_artifact_hashes.py

Each command runs in process through ``cli.main`` with ``--out``, whatever
its exit code: ``group --rank 8`` exits 2 with an error artifact, which is
pinned too. ``tests/test_artifacts.py`` reruns every recorded line and
compares; the file changes only with a deliberate change of an artifact.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dp_hlog import cli

HASHES = Path(__file__).resolve().parent / "artifact_hashes.json"

COMMANDS = (
    [f"characters --rank {r}" for r in range(4, 8)]
    + ["characters --rank 5 --d5-full"]
    + [f"enumerate --rank {r}" for r in range(3, 9)]
    + [f"group --rank {r}{flag}" for r in range(3, 9) for flag in ("", " --orbit", " --count-only")]
)


def artifact_hash(command: str, out: Path) -> str:
    """SHA-256 of the artifact `command` writes to the file out."""
    cli.main(command.split() + ["--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact.json"
        hashes = {command: artifact_hash(command, out) for command in COMMANDS}
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(hashes)} artifact hashes -> {HASHES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
