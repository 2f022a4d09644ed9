#!/usr/bin/env python3
"""Time and size the PSL(2,q) table build, Nielsen, Aut and joint
decompositions and the orbit verifiers.

Usage:
    python3 scripts/scale_probe.py 19 23 27 31 32 --pair-budget 2000000000

Each q runs in a fresh interpreter, so its kept groups and ru_maxrss
start clean.  One line per q:

    q=19 order=3420 build_s=0.002 stage1_s=0.003 decompose_s=0.005 decompose_minflt=847 aut_s=0.003 joint_s=0.000 verify_s=0.002 verify_peak_mb=0.1 table_mb=0.6 peak_rss_mb=33.7

build_s is `build_psl2`; stage1_s is `nielsen._pair_classes`, the
conjugation classes of pairs with the conjugacy classes they start from,
which the group keeps; decompose_s is the rest of
`decompose_nielsen_orbits`, which reuses them, and decompose_minflt the
minor page faults the process took during both.
aut_s is `aut_orbit_decomposition` after it and joint_s
`joint_orbit_decomposition` after that.  verify_s is
`orbit_tau(check_members=64)` plus `higman_check` on the largest Nielsen
orbit, both of which read the orbit's keys (reps[k], y), not its
members, and verify_peak_mb the most memory they hold at once beyond what
was allocated before them, numpy arrays included, by tracemalloc in a
second, untimed run.  table_mb is the size of the stored rows, `G.mult`:
PSL(2,q) stores the product and conjugation rows of its R factor
elements (the q lower unitriangular matrices and w, the diagonal torus
mod +-1, the q upper unitriangular matrices; R = 3q at even q and
2q + 1 + (q - 1)/2 at odd q), 2R rows of |G| entries, not a |G| x |G|
table.  peak_rss_mb is the process's peak resident set (MB = 2^20
bytes).  Every q is checked before any probe runs: a q that is not a
prime power, or is past the field bound of 256, exits 64, as a usage
error does, and a q whose |G|^2 pairs exceed the pair budget exits 2.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from genlift.groupcore import DEFAULT_PAIR_BUDGET, PairBudgetExceeded, check_pair_budget, psl2_order

# one probe: argv = [q, pair budget]; prints the line for q
PROBE = """
import resource, sys, time, tracemalloc
from genlift.groupcore import build_psl2
from genlift.nielsen import (
    _pair_classes, aut_orbit_decomposition, decompose_nielsen_orbits, higman_check,
    joint_orbit_decomposition, orbit_tau,
)
usage = lambda: resource.getrusage(resource.RUSAGE_SELF)
q, budget = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
G = build_psl2(q, pair_budget=budget)
t1, flt = time.perf_counter(), usage().ru_minflt
_pair_classes(G)
t_stage1 = time.perf_counter()
dec = decompose_nielsen_orbits(G)
t2, flt = time.perf_counter(), usage().ru_minflt - flt
aut_orbit_decomposition(G)
t3 = time.perf_counter()
joint_orbit_decomposition(G)
t4 = time.perf_counter()
largest = max(dec.orbits, key=lambda o: o.size)
verify = lambda: (orbit_tau(dec, largest, check_members=64), higman_check(dec, largest))
verify()
t5 = time.perf_counter()
tracemalloc.start()
verify()
verify_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
rss = usage().ru_maxrss / 1024  # KB on Linux
print(f"q={q} order={G.n} build_s={t1 - t0:.3f} stage1_s={t_stage1 - t1:.3f} decompose_s={t2 - t_stage1:.3f} "
      f"decompose_minflt={flt} "
      f"aut_s={t3 - t2:.3f} joint_s={t4 - t3:.3f} verify_s={t5 - t4:.3f} verify_peak_mb={verify_peak / 2**20:.1f} "
      f"table_mb={G.mult.nbytes / 2**20:.1f} peak_rss_mb={rss:.1f}")
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.error = lambda message: ap.exit(64, f"{ap.prog}: error: {message}\n")  # 2 is the budget refusal
    ap.add_argument("q", type=int, nargs="+")
    ap.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    args = ap.parse_args()

    for q in args.q:  # every q is checked before any probe runs
        try:
            order = psl2_order(q)
        except ValueError as exc:
            ap.error(str(exc))
        try:
            check_pair_budget(order, args.pair_budget)
        except PairBudgetExceeded as exc:
            print(f"PSL(2,{q}) refused: {exc}", file=sys.stderr)
            return 2
    for q in args.q:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(q), str(args.pair_budget)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode:
            return proc.returncode
        print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
