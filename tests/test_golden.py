"""Artifact bytes are pinned: the SHA-256 of everything the CLI writes at a
tiny config equals tests/golden_sha256.json. `tests/update_golden.py`
describes the run and rewrites the table."""

import json

from update_golden import TABLE, artifact_hashes


def test_artifacts_match_the_golden_table():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    actual = artifact_hashes()
    differing = sorted(name for name in golden.keys() | actual.keys()
                       if golden.get(name) != actual.get(name))
    assert not differing, f"artifacts differ from {TABLE.name}: {differing}"
