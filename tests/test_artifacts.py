"""Every pinned command line still writes its recorded bytes."""

import json

import pytest

from record_artifact_hashes import HASHES, artifact_hash

PINNED = json.loads(HASHES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(PINNED))
def test_artifact_keeps_its_bytes(command):
    assert artifact_hash(command) == PINNED[command]
