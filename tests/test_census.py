"""The Nielsen census of PSL(2,q) against tests/golden/census.json: one row
per prime power 4 <= q <= 81 with |G|, the Nielsen orbit count, the trace
invariant tau of every orbit (sorted by field element), the Aut and joint
orbit counts and |Gamma|, the number of generating pairs.

Tier-1 recomputes the rows with q <= 27.  Recompute every row with

    PYTHONPATH=src python3 tests/test_census.py

(about 40 s and 1.3 GB at q = 64), and regenerate the file, after a change
that means to alter the census, with `--write`.
"""

import json
import sys
from pathlib import Path

import pytest

from genlift import groupcore
from genlift.groupcore import build_psl2, psl2_order
from genlift.nielsen import aut_orbit_decomposition, decompose_nielsen_orbits, joint_orbit_decomposition

CENSUS = Path(__file__).resolve().parent / "golden" / "census.json"

PRIME_POWERS = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49,
                53, 59, 61, 64, 67, 71, 73, 79, 81]

# |Gamma| of the pair engine at every q of the census, as first recorded
GAMMA_ANCHORS = {
    4: 2280, 5: 2280, 7: 19152, 8: 214704, 9: 76320, 11: 335280, 13: 1081080,
    16: 15324480, 17: 5542272, 19: 10738800, 23: 34986864, 25: 56846400, 27: 92697696,
    29: 141897000, 31: 212337600, 32: 1036094400, 37: 622121256, 41: 1152362400,
    43: 1540012320, 47: 2631448032, 49: 3347131200, 53: 5428355400, 59: 10346074800,
    61: 12646024680, 64: 67457819520, 67: 22256315136, 71: 31531071600, 73: 37282616064,
    79: 59939499360, 81: 69361608960,
}


def census_row(q: int) -> dict:
    """The census row of PSL(2,q), built past the default pair budget."""
    G = build_psl2(q, pair_budget=psl2_order(q) ** 2)
    dec = decompose_nielsen_orbits(G)
    return {
        "q": q,
        "order": G.n,
        "nielsen_orbits": len(dec.orbits),
        "taus": [G.field.format_element(t) for t in sorted(o.tau for o in dec.orbits)],
        "aut_orbits": len(aut_orbit_decomposition(G).orbits),
        "joint_orbits": len(joint_orbit_decomposition(G).orbits),
        "gamma": dec.gamma_size(),
    }


def read_census() -> dict[int, dict]:
    return {row["q"]: row for row in json.loads(CENSUS.read_text(encoding="utf-8"))}


def test_census_covers_every_prime_power_and_matches_the_anchors():
    rows = read_census()
    assert sorted(rows) == PRIME_POWERS
    assert {q: row["gamma"] for q, row in rows.items()} == GAMMA_ANCHORS
    for q, row in rows.items():
        assert row["order"] == psl2_order(q)
        assert row["nielsen_orbits"] == len(row["taus"])


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 27])
def test_census_row(q):
    assert census_row(q) == read_census()[q]


def main(argv: list[str]) -> int:
    """Recompute every row, one q at a time with the kept groups dropped in
    between; with --write, store the rows, else exit 1 on any mismatch."""
    stored = {} if "--write" in argv else read_census()
    rows, bad = [], 0
    for q in PRIME_POWERS:
        rows.append(census_row(q))
        groupcore._BUILT.clear()
        if stored and rows[-1] != stored.get(q):
            bad += 1
            print(f"q={q}: {rows[-1]} != {stored.get(q)}", file=sys.stderr)
        print(f"q={q} done", file=sys.stderr, flush=True)
    if not stored:
        CENSUS.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8")
        print(CENSUS, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
