"""Acceptance gate: one test per acceptance criterion, one line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
pass/fail lines.  Shared group/orbit computations are memoized inside
the verify module, so the whole gate stays within its time budgets.
"""

import random
import time

import pytest

from genlift import verify as V
from genlift.field import field_for_q
from genlift.fpgroups import parse_presentation, smith_normal_form, todd_coxeter
from genlift.groupcore import build_dihedral, build_psl2, build_sl2
from genlift.matrices import bracket
from genlift.nielsen import decompose_nielsen_orbits, higman_check, is_mn_generated, orbit_tau
from oracles import (
    build_cyclic,
    invariant_factors_via_minors,
    member_higman_check,
    member_taus,
    orbit_partition_fast,
    orbit_partition_naive,
)
from test_field import axioms_hold


def report(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:2d}: {text}")
    assert ok, text


def test_criterion_01_psl25_example():
    t0 = time.perf_counter()
    r = V.verify_example_alt5()
    ok = (
        r.passed
        and r.evidence["gamma_size"] == 2280
        and r.evidence["nielsen_orbit_sizes"] == [600, 600, 1080]
        and r.evidence["aut_orbit_count"] == 19
        and r.evidence["aut_orbit_sizes"] == [120]
        and r.evidence["joint_orbit_sizes"] == [1080, 1200]
        and time.perf_counter() - t0 < 10
    )
    report(1, ok, "PSL(2,5): 2280 pairs, orbits {600,600,1080}, 19x120 aut, joint {1080,1200}, <10s")


def test_criterion_02_trace_spectrum_table():
    ok = all(V.verify_trace_table(q).passed for q in (2, 3, 4, 5, 7, 8, 9, 11, 13))
    report(2, ok, "trace spectrum matches the table for q in {2,3,4,5,7,8,9,11,13}")


def test_criterion_03_prop_key():
    t0 = time.perf_counter()
    ok = V.verify_prop_key(7).passed and V.verify_prop_key(11).passed
    ok = ok and time.perf_counter() - t0 < 300
    report(3, ok, "no order-4 generating pair of SL(2,q) has commutator trace -2, q in {7,11}")


def test_criterion_04_lemmas_5_and_7():
    t0 = time.perf_counter()
    r5 = V.verify_lemma5()
    r7 = V.verify_lemma7()
    ok = r5.passed and r7.passed and r5.elapsed_ms < 30_000 and r7.elapsed_ms < 30_000
    ok = ok and time.perf_counter() - t0 < 60
    report(4, ok, "exhaustive SL(2,5)/SL(2,7) cube-central pair scans")


def test_criterion_05_theorem_case_i():
    ok = all(V.verify_theorem("i", q).passed for q in (4, 5, 7, 8, 11, 13))
    P9 = build_psl2(9)
    ok = ok and not is_mn_generated(P9, 2, 3) and is_mn_generated(P9, 3, 3)
    report(5, ok, "(2,3) non-lifting for q in {4,5,7,8,11,13}; PSL(2,9) (2,3)-gen false, (3,3)-gen true")


def test_criterion_06_theorem_case_ii_and_s2p2():
    ok = all(V.verify_theorem("ii", q).passed for q in (7, 11, 13))
    r = V.verify_s2p2(13)
    ok = ok and r.passed and "4" in r.evidence["spectrum_values_outside_set"]
    report(6, ok, "(2,p) non-lifting for q in {7,11,13}; q=13 spectrum exceeds {s^2+2} at 4")


def test_criterion_07_theorem_case_iii():
    ok = all(
        V.verify_theorem("iii", q, m=m).passed
        for m, q in ((4, 7), (7, 7), (3, 11), (5, 11), (6, 11))
    )
    report(7, ok, "(2,m) non-lifting for (m,q) in {(4,7),(7,7),(3,11),(5,11),(6,11)}")


def test_criterion_08_theorem_case_iv():
    ok = all(V.verify_theorem("iv", q).passed for q in (5, 7, 9, 11))
    report(8, ok, "(3,3) non-lifting for q in {5,7,9,11}")


def test_criterion_09_psl25_lifting():
    r = V.verify_psl25_lift()
    ok = (
        r.passed
        and r.evidence["orbit_count"] == 3
        and r.evidence["every_orbit_has_25_pair"]
        and r.evidence["representative_taus"] == ["3", "1", "3"]
        and r.evidence["tau3_orbits_separated_by_conjugacy"]
    )
    report(9, ok, "PSL(2,5): 3 orbits with (2,5)-pairs, taus (3,1,3), tau=3 orbits separated")


def test_criterion_10_remark_7_13():
    t0 = time.perf_counter()
    r = V.verify_remark(7, 13)
    ok = r.passed and time.perf_counter() - t0 < 600
    report(10, ok, "tau over (2,7)-generating pairs of PSL(2,13) is F13 minus {2}, <10min")


def test_criterion_11_miller_group():
    r = V.verify_miller_332()
    ok = (
        r.passed
        and r.evidence["order"] == 288
        and len(r.evidence["derived_series_orders"]) == 4
        and r.evidence["abelianization"] == [3, 3]
        and r.evidence["second_derived_order"] == 2
        and r.elapsed_ms < 5_000
    )
    report(11, ok, "(3,3,2) group: order 288, derived length 3, K/K'=C3xC3, |K''|=2, <5s")


def test_criterion_12_dihedral_and_small_q():
    ok = all(V.verify_dihedral(m).passed for m in range(3, 13))
    ok = ok and V.verify_small_q_lifting().passed
    report(12, ok, "dihedral (2,2)-lifting for m in 3..12; q in {2,3} (2,3)-lifting")


def test_criterion_13_property_suites():
    ok = True
    # field axioms: 10^4 random triples per field
    for q in (5, 7, 9, 13, 16):
        f = field_for_q(q)
        rng = random.Random(q)
        ok = ok and all(
            axioms_hold(f, rng.randrange(q), rng.randrange(q), rng.randrange(q))
            for _ in range(10_000)
        )
    # bracket sign-independence: 10^3 random pairs
    for q in (5, 7, 9):
        S = build_sl2(q)
        rng = random.Random(q)
        for _ in range(1000):
            a, b = S.labels[rng.randrange(S.n)], S.labels[rng.randrange(S.n)]
            ref = bracket(a, b)
            ok = ok and bracket(a.neg(), b.neg()) == ref
    # orbit invariant constancy, exhaustive for q <= 7: the member oracles
    # sweep every member, and the library's key-level checks agree
    for q in (2, 3, 4, 5, 7):
        dec = decompose_nielsen_orbits(build_psl2(q))
        for o in dec.orbits:
            ok = ok and member_taus(dec, o) == {o.tau} and orbit_tau(dec, o, check_members=None) == o.tau
            ok = ok and member_higman_check(dec, o) == higman_check(dec, o) == (o.commutator_order, True)
    # naive-oracle equivalence for |G| <= 60
    for G in (build_cyclic(8), build_dihedral(5), build_psl2(3), build_psl2(5)):
        ok = ok and orbit_partition_fast(G) == orbit_partition_naive(G)
    # SNF vs gcd-of-minors on 10^3 random matrices up to 5x5
    rng = random.Random(13)
    for _ in range(1000):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        _, diag = smith_normal_form(rows)
        ok = ok and [d for d in diag if d] == invariant_factors_via_minors(rows)
    # Todd-Coxeter sanity
    for pres, order in (
        ("gens: x\nrels: x^5", 5),
        ("gens: x y\nrels: x^3 y^2 (xy)^2", 6),
        ("gens: a b\nrels: a^4 a^2b^-2 b^-1aba", 8),
        ("gens: r s\nrels: r^9 s^2 (sr)^2", 18),
    ):
        ok = ok and todd_coxeter(parse_presentation(pres)).coset_count == order
    report(13, ok, "property suites: field axioms, bracket signs, orbit constancy, naive oracle, SNF, coset enumeration")
