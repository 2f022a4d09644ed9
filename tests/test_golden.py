"""The JSON reports of four commands against the files under tests/golden/,
byte for byte once the timing field elapsed_ms is blanked.

Regenerate the files, after a change that means to alter a report, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import re
import sys
from pathlib import Path

import pytest

from genlift.cli import EXIT_PASS, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name -> the command whose report it holds
COMMANDS = {
    "verify-all-max-q-13.json": ["verify", "all", "--max-q", "13"],
    "orbits-q19-mn.json": ["orbits", "--q", "19", "--mn", "2,3", "--mn", "3,5"],
    "orbits-q13-aut.json": ["orbits", "--q", "13", "--aut", "--mn", "2,3"],
    "orbits-q16-aut.json": ["orbits", "--q", "16", "--aut", "--mn", "3,5"],
}

_ELAPSED = re.compile(r'("elapsed_ms": )[^,\n]*')


def report(name: str, out: Path) -> bytes:
    """The report of COMMANDS[name], written through cli.main to `out`, with elapsed_ms blanked."""
    assert main(COMMANDS[name] + ["--output", str(out)]) == EXIT_PASS, name
    return _ELAPSED.sub(r"\1null", out.read_text(encoding="utf-8")).encode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path):
    assert report(name, tmp_path / name) == (GOLDEN / name).read_bytes()


def test_second_battery_in_one_process_matches_golden(tmp_path):
    # the second run finds every group and Nielsen decomposition the first one made
    name = "verify-all-max-q-13.json"
    golden = (GOLDEN / name).read_bytes()
    for run in range(2):
        assert report(name, tmp_path / f"{run}-{name}") == golden, run


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in COMMANDS:
        path = GOLDEN / name
        path.write_bytes(report(name, path))
        print(path, file=sys.stderr)
