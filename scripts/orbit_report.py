#!/usr/bin/env python3
"""Tabulate Nielsen orbits of PSL(2,q) generating pairs for a range of q.

Usage:
    python3 scripts/orbit_report.py 2 3 4 5 7 8 9 11 13 [--mn 2,3 --mn 3,3]

Prints one line per orbit (size, trace invariant, commutator order,
freeness flags) and a per-q summary.  Handy for eyeballing how the
spectrum fills out as q grows.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genlift.groupcore import PairBudgetExceeded, build_psl2
from genlift.nielsen import decompose_nielsen_orbits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("q", type=int, nargs="+")
    ap.add_argument("--mn", action="append", default=[], metavar="m,n")
    args = ap.parse_args()
    mn_pairs = [tuple(int(x) for x in s.split(",")) for s in args.mn]

    for q in args.q:
        try:
            G = build_psl2(q)
        except PairBudgetExceeded as exc:
            print(f"PSL(2,{q}) refused: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # not a prime power, or a field without tables
            ap.error(str(exc))
        dec = decompose_nielsen_orbits(G)
        flag_cols = {mn: dec.mn_free_flags(*mn) for mn in mn_pairs}
        print(f"\nPSL(2,{q}): |G| = {G.n}, generating pairs = {dec.gamma_size()}, "
              f"orbits = {len(dec.orbits)}")
        header = "  id  size    tau          comm_ord"
        header += "".join(f"  ({m},{n})-free" for m, n in mn_pairs)
        print(header)
        for o in dec.orbits:
            row = f"  {o.orbit_id:3d} {o.size:6d}  {G.field.format_element(o.tau):12s} {o.commutator_order:5d}"
            row += "".join(f"  {str(flag_cols[mn][o.orbit_id]):>11s}" for mn in mn_pairs)
            print(row)
        spectrum = sorted({o.tau for o in dec.orbits})
        print("  spectrum:", ", ".join(G.field.format_element(t) for t in spectrum))
    return 0


if __name__ == "__main__":
    sys.exit(main())
