"""The committed byte gate: seed 1's artifacts keep the hashes in ``artifact_hashes.txt``."""

import subprocess
import sys
from pathlib import Path

import pytest

import artifact_hashes

HASHES = Path(__file__).with_name("artifact_hashes.txt")


def test_seed_1_artifacts_keep_their_committed_hashes():
    committed = HASHES.read_text(encoding="utf-8").splitlines()
    header = [line for line in committed if line.startswith("# ")]
    running = artifact_hashes.header()
    assert [line.split()[1] for line in header] == [line.split()[1] for line in running]
    for want, have in zip(header, running):
        if have != want:
            field = want.split()[1]
            pytest.skip(f"{field} differs from the committed header: running {have[2:]!r}, committed {want[2:]!r}")
    out = subprocess.run(
        [sys.executable, artifact_hashes.__file__, "--seeds", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out == header + [line for line in committed if line.startswith("1 ")]
