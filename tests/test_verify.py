import json

import numpy as np
import pytest

from genlift import nielsen
from genlift import verify as V
from genlift.field import field_for_q
from genlift.fpgroups import group_from_coset_table, parse_presentation, todd_coxeter
from genlift.groupcore import PairBudgetExceeded, build_dihedral, build_psl2, build_sl2
from genlift.nielsen import (
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    higman_check,
    joint_orbit_decomposition,
    orbit_tau,
)
from oracles import decompose_nielsen_orbits_naive, lemma_scan_scalar, power


def check(report, claim_id):
    assert report.passed, json.dumps(report.evidence, default=str)
    assert report.claim_id == claim_id
    d = report.to_dict()
    assert set(d) == {
        "claim_id", "parameters", "passed", "evidence",
        "elapsed_ms", "tool_version",
    }
    json.dumps(d, default=str)  # reports must be serializable
    return report


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_trace_table(q):
    check(V.verify_trace_table(q), "trace-table")


def test_prop_key():
    check(V.verify_prop_key(7), "prop-key")
    check(V.verify_prop_key(11), "prop-key")


def test_prop_key_precondition():
    with pytest.raises(V.PreconditionError):
        V.verify_prop_key(5)


def test_lemmas():
    check(V.verify_lemma5(), "lemma5")
    check(V.verify_lemma7(), "lemma7")


@pytest.mark.parametrize("case,q,m", [
    ("i", 4, None), ("i", 5, None), ("i", 7, None), ("i", 8, None), ("i", 11, None),
    ("ii", 7, None), ("ii", 11, None),
    ("iii", 7, 4), ("iii", 7, 7), ("iii", 11, 3), ("iii", 11, 5), ("iii", 11, 6),
    ("iv", 5, None), ("iv", 7, None), ("iv", 9, None), ("iv", 11, None),
])
def test_theorem(case, q, m):
    r = check(V.verify_theorem(case, q, m=m), f"thm-{case}")
    assert r.evidence["free_orbit_count"] >= 1
    assert r.evidence["is_mn_generated"]


@pytest.mark.parametrize("case,q,m", [
    ("i", 9, None),   # the one excluded q
    ("i", 3, None),
    ("ii", 4, None),  # even characteristic
    ("iii", 13, 3),   # q = 1 mod 4
    ("iii", 11, None),  # missing m
    ("iii", 11, 13),  # hypothesis fails
    ("iv", 4, None),
    ("iv", 8, None),  # even q: tau = 0 is the reducible tau = 2
    ("iv", 16, None),
    ("bogus", 7, None),
])
def test_theorem_preconditions(case, q, m):
    with pytest.raises(V.PreconditionError):
        V.verify_theorem(case, q, m=m)


def test_s2p2():
    r = check(V.verify_s2p2(13), "s2p2")
    assert "4" in r.evidence["spectrum_values_outside_set"]


def test_s2p2_precondition():
    with pytest.raises(V.PreconditionError):
        V.verify_s2p2(7)


def test_psl25_lift():
    r = check(V.verify_psl25_lift(), "psl25-lift")
    assert r.evidence["representative_taus"] == ["3", "1", "3"]


def test_remark():
    check(V.verify_remark(7, 13), "remark")


@pytest.mark.parametrize("m, q", [(5, 4), (7, 8), (9, 17)])
def test_remark_inside_its_hypothesis(m, q):
    check(V.verify_remark(m, q), "remark")


@pytest.mark.parametrize("m, q", [(9, 19), (10, 19), (19, 19), (11, 23), (3, 13), (5, 9), (3, 2)])
def test_remark_outside_its_hypothesis_is_refused_before_a_build(m, q):
    # q = 3 mod 4 never reaches tau = -2; m must be a multiple of a torus order
    with pytest.raises(V.PreconditionError):
        V.verify_remark(m, q, pair_budget=10)


def test_remark_budget():
    # (19,37) and friends are beyond desk scale and must be refused up front
    with pytest.raises(PairBudgetExceeded):
        V.verify_remark(19, 37)


def test_smaller_budget_refused_after_memo_hit():
    # the build memo keys on (builder, argument), not on the budget, so every
    # call checks its own: a kept group must not let a smaller budget through
    decompose_nielsen_orbits(build_psl2(7))
    for build in (build_psl2, build_sl2, build_dihedral):
        build(7)
        with pytest.raises(PairBudgetExceeded):
            build(7, pair_budget=10)
    check(V.verify_dihedral(5), "dihedral")
    with pytest.raises(PairBudgetExceeded):
        V.verify_dihedral(5, pair_budget=10)


def test_group_memo_shares_one_build_per_spelling():
    # every spelling of a call, and every budget that admits the group, gets one build
    for build in (build_psl2, build_sl2, build_dihedral):
        G = build(7)
        assert build(7, V.DEFAULT_PAIR_BUDGET) is G
        assert build(7, pair_budget=V.DEFAULT_PAIR_BUDGET) is G
        assert build(7, pair_budget=10**9) is G


def test_sl_drivers_leave_the_matrix_labels_unbuilt():
    # the SL drivers compute on entry arrays, not on one matrix object per element;
    # the test starts with no kept groups, so these are the drivers' own builds
    check(V.verify_prop_key(7), "prop-key")
    check(V.verify_prop_key(11), "prop-key")
    check(V.verify_lemma5(), "lemma5")
    check(V.verify_lemma7(), "lemma7")
    for G in (build_sl2(5), build_sl2(7), build_sl2(11), build_psl2(5), build_psl2(7)):
        assert "labels" not in G.__dict__, G.name


def test_verify_all_passes_the_budget_to_sl_drivers():
    # every group up to PSL(2,5) and SL(2,5) (order 120) fits; lemma7's SL(2,7) does not
    with pytest.raises(PairBudgetExceeded, match="order 336"):
        V.verify_all(max_q=5, pair_budget=120**2)


@pytest.mark.parametrize("q", [5, 7])
def test_lemma_scan_matches_scalar_scan(q):
    # the lemma sets, plus single traces: some scans fail, and then the
    # witness must be the first generating suspect in row-major order
    f = field_for_q(q)
    lemma_sets = [{f.neg(f.two)}, {f.from_int(3), f.neg(f.from_int(3))}]
    singles = range(q) if q == 5 else (1, 3, 5, 6)  # q = 7, 0 and 2 scan thousands of closures
    results = []
    for bad in lemma_sets + [{t} for t in singles]:
        results.append(V._lemma_scan(q, bad, V.DEFAULT_PAIR_BUDGET))
        assert results[-1] == lemma_scan_scalar(build_sl2(q), bad), bad
    assert any(ok for ok, _ in results) and any(not ok for ok, _ in results)


def test_miller():
    r = check(V.verify_miller_332(), "miller-332")
    assert r.evidence["order"] == 288
    assert r.evidence["derived_series_orders"] == [288, 32, 2, 1]
    assert r.evidence["abelianization"] == [3, 3]
    assert r.evidence["second_derived_order"] == 2


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral(m):
    check(V.verify_dihedral(m), "dihedral")


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_dihedral_witness_is_the_least_22_member(m):
    # each orbit's witness is its least member pair with both squares trivial,
    # orbits taken from the per-pair union-find in least-member order
    G = build_dihedral(m)
    expected = []
    orbits = [members for members, generating in decompose_nielsen_orbits_naive(G) if generating]
    for oid, members in enumerate(orbits):
        pairs = sorted(p for p in members if all(power(G, g, 2) == G.identity for g in p))
        if pairs:
            expected.append({"orbit": oid, "pair": [G.labels[g] for g in pairs[0]]})
    assert V.verify_dihedral(m).evidence["witnesses"] == expected


def test_dihedral_precondition():
    with pytest.raises(V.PreconditionError):
        V.verify_dihedral(2)


def test_example_alt5():
    r = check(V.verify_example_alt5(), "example-alt5")
    assert r.evidence["gamma_size"] == 2280
    assert r.evidence["nielsen_orbit_sizes"] == [600, 600, 1080]
    assert r.evidence["aut_orbit_count"] == 19
    assert r.evidence["joint_orbit_sizes"] == [1080, 1200]


def test_small_q_lifting():
    check(V.verify_small_q_lifting(), "small-q-lift")


def test_expected_spectrum_char2():
    # 2 = 0 in characteristic 2, so the excluded value is 0
    assert 0 not in V.expected_trace_spectrum(4)
    assert len(V.expected_trace_spectrum(4)) == 3


def test_verify_all_small():
    reports = V.verify_all(max_q=5)
    assert all(r.passed for r in reports)
    ids = {r.claim_id for r in reports}
    assert {"trace-table", "lemma5", "lemma7", "thm-i", "thm-iv",
            "psl25-lift", "miller-332", "dihedral", "example-alt5",
            "small-q-lift"} <= ids


def test_verify_all_runs_the_battery_up_to_max_q():
    # every battery entry names a claim and gives its required parameters
    assert len(V.BATTERY) == 47
    for cid, params in V.BATTERY:
        assert set(V.CLAIMS[cid][1]) <= set(params), cid
    # entries without a q always run; the others while q <= max_q, in battery order
    entries = [(cid, params) for cid, params in V.BATTERY if params.get("q", 0) <= 7]
    reports = V.verify_all(max_q=7)
    assert [r.claim_id for r in reports] == [cid for cid, _ in entries]
    for r, (_, params) in zip(reports, entries):
        assert all(r.parameters[k] == v for k, v in params.items())


def test_claims_look_their_drivers_up_when_called(monkeypatch):
    # a wrapper set on a driver after import (perfbench's tracer does this)
    # sees the claims run through CLAIMS and verify_all
    calls = []
    original = V.verify_theorem

    def wrapped(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(V, "verify_theorem", wrapped)
    check(V.CLAIMS["thm-iv"][0](q=5), "thm-iv")
    assert calls == [("iv",)]
    V.verify_all(max_q=5)
    assert calls[1:] == [("i",), ("i",), ("iv",)]


def test_rebuilt_group_reports_only_the_requested_columns():
    # a rebuild is the kept group, whose records and rep rows every
    # decomposition shares, so flags asked for earlier must not show up in a later report
    dec = decompose_nielsen_orbits(build_psl2(7))
    dec.mn_free_flags(2, 3)
    dec.mn_free_flags(3, 3)
    V.verify_theorem("iii", 7, 7)  # its (2,7) flags
    rebuilt = decompose_nielsen_orbits(build_psl2(7))
    assert rebuilt.orbits is dec.orbits
    report = rebuilt.report(mn_pairs=((2, 7),))
    assert all(list(o["mn_free"]) == ["2,7"] for o in report["orbits"])


def test_queries_leave_the_dense_labels_unbuilt():
    G = build_psl2(7)
    for _computed_then_memoized in range(2):
        dec = decompose_nielsen_orbits(G)
        dec.report(mn_pairs=((2, 3), (3, 3)))
        for o in dec.orbits:
            assert dec.orbit_of(o.canonical_rep) is o
            assert len(dec.member_ids(o.orbit_id)) == o.size
            assert orbit_tau(dec, o, check_members=None) == o.tau
            assert higman_check(dec, o)[1]
        assert "labels" not in dec.__dict__


def test_orbit_queries_leave_the_matrix_labels_unbuilt():
    G = build_psl2(19)
    dec = decompose_nielsen_orbits(G)
    report = dec.report(mn_pairs=((2, 3), (3, 3)))
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    assert "labels" not in G.__dict__
    # built on first read; the report's matrices, serialized from the packed entries, agree
    for entry in report["orbits"]:
        assert entry["rep_matrices"] == [G.labels[g].serialize() for g in entry["rep"]]


def test_coset_groups_get_their_own_orbits():
    # nothing is kept by group name: Q8 and D8 are both fp-group-8, and a
    # second group from the same table computes its own orbits, equal ones
    presentations = {
        "Q8": "gens: a b\nrels: a^4 a^2b^-2 b^-1aba",
        "D8": "gens: x y\nrels: x^4 y^2 (xy)^2",
        "S3": "gens: x y\nrels: x^3 y^2 (xy)^2",
    }
    names, orders = set(), set()
    for label, text in presentations.items():
        table = todd_coxeter(parse_presentation(text))
        G = group_from_coset_table(table)
        dec = decompose_nielsen_orbits(G)
        fresh = decompose_nielsen_orbits(group_from_coset_table(table))
        assert dec.group is G and fresh.rep_rows is not dec.rep_rows, label
        assert np.array_equal(dec.rep_rows, fresh.rep_rows), label
        assert [(o.size, o.canonical_rep, o.commutator_order) for o in dec.orbits] == [
            (o.size, o.canonical_rep, o.commutator_order) for o in fresh.orbits
        ], label
        assert dec.gamma_size() == fresh.gamma_size() <= G.n**2, label
        names.add(G.name)
        orders.add(tuple(dec.rep_orders.tolist()))
    assert names == {"fp-group-8", "fp-group-6"} and len(orders) == 3


def test_rebuilt_group_gets_its_own_decomposition(monkeypatch):
    # a rebuild is the kept group, and each call wraps its kept Nielsen parts
    # in a fresh decomposition, so its Aut and joint orbits run no Nielsen search
    first = decompose_nielsen_orbits(build_psl2(13))
    G = build_psl2(13)
    dec = decompose_nielsen_orbits(G)
    assert first.group is G and dec is not first and dec.rep_rows is first.rep_rows
    rep_rows, actions = nielsen._rep_rows, []

    def counted(G, cls, moves):
        actions.append(moves)
        return rep_rows(G, cls, moves)

    monkeypatch.setattr(nielsen, "_rep_rows", counted)
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    assert nielsen._nielsen_moves not in actions, actions
