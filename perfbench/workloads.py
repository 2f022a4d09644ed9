"""The three workloads.  A pass makes the inputs from the seed, times the
work, then checks the outputs outside the timed region.

A pass returns a run.PassResult: the timed seconds, the operations
attempted, how many of them failed (an error, a refusal, a non-zero exit
or an output that does not match), and one line per problem found.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from pathlib import Path
from typing import Callable

import numpy as np

from genlift import cli, groupcore, nielsen
from genlift import verify as V
from run import PassResult

BATTERY_ARGV = ["verify", "all", "--max-q", "13"]
BATTERY_CLAIMS = 47

# orbits-q19: element orders of PSL(2,19) other than 1; recorded values
Q19_ORDERS = (2, 3, 5, 9, 10, 19)
Q19_GAMMA = 10_738_800
Q19_ORBITS = 18
PGL2_19 = 19 * (19 * 19 - 1)

# aut-q13: element orders of PSL(2,13) other than 1; recorded values
Q13_ORDERS = (2, 3, 6, 7, 13)
Q13_AUT_ORBITS = 495
Q13_AUT_ORBIT_SIZE = 2184  # |PGL(2,13)|: the action on generating pairs is free
Q13_JOINT_ORBITS = 12


class Timer:
    """Times one region; switches the tracer on for exactly that region."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    @contextlib.contextmanager
    def region(self):
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False


# -- battery ---------------------------------------------------------------


def battery(seed: int, workdir: Path, timer: Timer) -> PassResult:
    """`genlift verify all --max-q 13`, in-process; the seed is unused."""
    out = workdir / "report.json"
    with timer.region():
        code = cli.main(BATTERY_ARGV + ["--output", str(out)])
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return PassResult(timer.elapsed, BATTERY_CLAIMS, BATTERY_CLAIMS, [f"exit {code}, no report: {exc}"])
    claims = report.get("claims", [])
    problems = [f"claim {c.get('claim_id')} {c.get('parameters')} failed"
                for c in claims if not c.get("passed")]
    failed = len(problems) + abs(BATTERY_CLAIMS - len(claims))
    if len(claims) != BATTERY_CLAIMS:
        problems.append(f"expected {BATTERY_CLAIMS} claims, report has {len(claims)}")
    ops = max(BATTERY_CLAIMS, len(claims))
    if code != 0 and not failed:
        problems.append(f"exit code {code}")
        failed = 1
    return PassResult(timer.elapsed, ops, min(failed, ops), problems)


# -- orbit tables ----------------------------------------------------------


def _mn_columns(rng: random.Random, orders: tuple, k: int = 3) -> list[tuple[int, int]]:
    cols = [(m, n) for m in orders for n in orders]
    return sorted(rng.sample(cols, k))


def _check_orbits(dec, rng: random.Random, cols, label: str, k: int = 2) -> list[str]:
    """Spot-check k seed-chosen orbits: tau constant on 64 members, the
    Higman containment, and each (m,n) flag against a direct member scan."""
    problems = []
    G = dec.group
    for oid in sorted(rng.sample(range(len(dec.orbits)), min(k, len(dec.orbits)))):
        orbit = dec.orbits[oid]
        try:
            nielsen.orbit_tau(dec, orbit, check_members=64)
        except AssertionError as exc:
            problems.append(f"{label} orbit {oid}: {exc}")
        if not nielsen.higman_check(dec, orbit)[1]:
            problems.append(f"{label} orbit {oid}: Higman check failed")
        ids = dec.member_ids(oid)
        first, second = G.orders[ids // G.n], G.orders[ids % G.n]
        for m, n in cols:
            scanned_free = not bool(np.any((m % first == 0) & (n % second == 0)))
            if dec.mn_free_flags(m, n)[oid] != scanned_free:
                problems.append(f"{label} orbit {oid}: ({m},{n}) flag disagrees with member scan")
    return problems


def orbits_q19(seed: int, workdir: Path, timer: Timer) -> PassResult:
    """The calls `genlift orbits --q 19 --no-cache --mn m,n` x3 makes."""
    rng = random.Random(seed)
    cols = _mn_columns(rng, Q19_ORDERS)
    with timer.region():
        G = groupcore.build_psl2(19)
        dec, _hit = V.gamma_orbits(G, None)
        report = dec.report(mn_pairs=tuple(cols))
    problems = []
    spectrum = {o.tau for o in dec.orbits}
    if spectrum != V.expected_trace_spectrum(19):
        problems.append("trace spectrum differs from expected_trace_spectrum(19)")
    if report["gamma_size"] != Q19_GAMMA or report["gamma_size"] % PGL2_19:
        problems.append(f"gamma size {report['gamma_size']}, expected {Q19_GAMMA}")
    if len(report["orbits"]) != Q19_ORBITS:
        problems.append(f"{len(report['orbits'])} orbits, expected {Q19_ORBITS}")
    if any(set(o["mn_free"]) != {f"{m},{n}" for m, n in cols} for o in report["orbits"]):
        problems.append("report lacks a requested (m,n) column")
    problems += _check_orbits(dec, rng, cols, "nielsen")
    return PassResult(timer.elapsed, 1, int(bool(problems)), problems)


def _refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """Every class of `fine` lies inside one class of `coarse` (same support)."""
    keep = fine >= 0
    if not np.array_equal(keep, coarse >= 0):
        return False
    f, c = fine[keep].astype(np.int64), coarse[keep].astype(np.int64)
    pairs = np.unique(f * (int(c.max()) + 1) + c)
    return len(pairs) == len(np.unique(f))


def aut_q13(seed: int, workdir: Path, timer: Timer) -> PassResult:
    """Nielsen, automorphism and joint orbits of PSL(2,13)."""
    rng = random.Random(seed)
    cols = _mn_columns(rng, Q13_ORDERS)
    with timer.region():
        G = groupcore.build_psl2(13)
        dec, _hit = V.gamma_orbits(G, None)
        dec.report(mn_pairs=tuple(cols))
        aut = nielsen.aut_orbit_decomposition(G)
        joint = nielsen.joint_orbit_decomposition(G)
    per_op: dict[str, list[str]] = {"nielsen": [], "aut": [], "joint": []}
    per_op["nielsen"] += _check_orbits(dec, rng, cols, "nielsen")
    sizes = {o.size for o in aut.orbits}
    if len(aut.orbits) != Q13_AUT_ORBITS or sizes != {Q13_AUT_ORBIT_SIZE}:
        per_op["aut"].append(f"{len(aut.orbits)} Aut orbits of sizes {sorted(sizes)}")
    if len(joint.orbits) != Q13_JOINT_ORBITS:
        per_op["joint"].append(f"{len(joint.orbits)} joint orbits, expected {Q13_JOINT_ORBITS}")
    if not _refines(dec.labels, joint.labels):
        per_op["joint"].append("Nielsen labels do not refine the joint labels")
    if not _refines(aut.labels, joint.labels):
        per_op["joint"].append("Aut labels do not refine the joint labels")
    problems = [p for lines in per_op.values() for p in lines]
    return PassResult(timer.elapsed, 3, sum(1 for lines in per_op.values() if lines), problems)


# operations one pass attempts, counted as failed if the pass raises
OPS = {"battery": BATTERY_CLAIMS, "orbits-q19": 1, "aut-q13": 3}

WORKLOADS: dict[str, Callable[..., PassResult]] = {
    "battery": battery,
    "orbits-q19": orbits_q19,
    "aut-q13": aut_q13,
}
