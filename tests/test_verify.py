import json

import numpy as np
import pytest

from genlift import cache
from genlift import verify as V
from genlift.field import field_for_q
from genlift.groupcore import PairBudgetExceeded, build_psl2
from genlift.nielsen import (
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    higman_check,
    joint_orbit_decomposition,
    orbit_tau,
)
from oracles import lemma_scan_scalar


def check(report, claim_id):
    assert report.passed, json.dumps(report.evidence, default=str)
    assert report.claim_id == claim_id
    d = report.to_dict()
    assert set(d) == {
        "claim_id", "parameters", "passed", "evidence",
        "elapsed_ms", "tool_version", "cache_hit",
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


def test_remark_budget():
    # (19,37) and friends are beyond desk scale and must be refused up front
    with pytest.raises(PairBudgetExceeded):
        V.verify_remark(19, 37)


def test_smaller_budget_refused_after_memo_hit():
    # the group memos are keyed on the budget, so an earlier default-budget
    # build must not let a smaller budget through
    V.gamma_orbits(V.psl(7), None)
    with pytest.raises(PairBudgetExceeded):
        V.psl(7, pair_budget=10)
    V.sl(7)
    with pytest.raises(PairBudgetExceeded):
        V.sl(7, pair_budget=10)
    check(V.verify_dihedral(5), "dihedral")
    with pytest.raises(PairBudgetExceeded):
        V.verify_dihedral(5, pair_budget=10)


def test_group_memo_shares_one_build_per_spelling():
    for memo in (V.psl, V.sl):
        G = memo(7)
        assert memo(7, V.DEFAULT_PAIR_BUDGET) is G
        assert memo(7, pair_budget=V.DEFAULT_PAIR_BUDGET) is G


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
        assert results[-1] == lemma_scan_scalar(V.sl(q), bad), bad
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


def test_disk_cache(tmp_path):
    V._DECOMP.clear()
    cold = V.verify_trace_table(7, cache_dir=tmp_path)
    V._DECOMP.clear()
    warm = V.verify_trace_table(7, cache_dir=tmp_path)
    assert not cold.cache_hit and warm.cache_hit
    assert cold.evidence == warm.evidence
    assert cold.passed and warm.passed
    V._DECOMP.clear()


@pytest.mark.parametrize(
    "damage",
    ["truncated header", "truncated data", "float dtype", "label below -1",
     "label beyond pairs", "wrong shape"],
)
def test_damaged_cache_entry_is_a_miss(tmp_path, damage):
    shape = (5, 60)  # the rep rows of PSL(2,5): 5 conjugacy classes by 60 elements
    labels = np.arange(300, dtype=np.int64).reshape(shape) % 7 - 1
    cache.save_labels(tmp_path, "PSL(2,5)", labels=labels)
    assert np.array_equal(cache.load_labels(tmp_path, "PSL(2,5)", shape), labels)
    (npy,) = tmp_path.glob("*.npy")
    data = npy.read_bytes()
    bad = {
        "float dtype": labels.astype(np.float64),
        "label below -1": labels - 1,
        "label beyond pairs": labels + 300,
        "wrong shape": labels[:-1],
    }
    if damage == "truncated header":
        npy.write_bytes(data[:50])
    elif damage == "truncated data":
        npy.write_bytes(data[:-8])
    else:
        np.save(npy, bad[damage])
    assert cache.load_labels(tmp_path, "PSL(2,5)", shape) is None


def test_budget_checked_before_cache_read(tmp_path, monkeypatch):
    V._DECOMP.clear()

    def read(*args):
        raise AssertionError("cache read before the budget check")

    monkeypatch.setattr(cache, "load_labels", read)
    with pytest.raises(PairBudgetExceeded):
        V.verify_trace_table(7, cache_dir=tmp_path, pair_budget=10)


def test_queries_leave_the_dense_labels_unbuilt(tmp_path):
    G = V.psl(7)
    for cache_dir in (None, tmp_path, tmp_path):  # no cache, miss, hit
        V._DECOMP.clear()
        dec, _hit = V.gamma_orbits(G, cache_dir)
        dec.report(mn_pairs=((2, 3), (3, 3)))
        for o in dec.orbits:
            assert dec.orbit_of(o.canonical_rep) is o
            assert len(dec.member_ids(o.orbit_id)) == o.size
            assert orbit_tau(dec, o, check_members=None) == o.tau
            assert higman_check(dec, o)[1]
        assert "labels" not in dec.__dict__
    assert _hit
    V._DECOMP.clear()


def test_orbit_queries_leave_the_matrix_labels_unbuilt(monkeypatch):
    monkeypatch.setattr(V, "_DECOMP", {})
    G = build_psl2(19)
    dec, _hit = V.gamma_orbits(G, None)
    report = dec.report(mn_pairs=((2, 3), (3, 3)))
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    assert "labels" not in G.__dict__
    # built on first read; the report's matrices, serialized from the packed entries, agree
    for entry in report["orbits"]:
        assert entry["rep_matrices"] == [G.labels[g].serialize() for g in entry["rep"]]


def test_foreign_cache_entry_does_not_reach_aut_or_joint(tmp_path, monkeypatch):
    # a well-formed PSL(2,5) entry that puts every generating pair in one class
    monkeypatch.setattr(V, "_DECOMP", {})
    generating = decompose_nielsen_orbits(build_psl2(5)).rep_rows >= 0
    cache.save_labels(tmp_path, "PSL(2,5)", labels=np.where(generating, 0, -1))
    G = build_psl2(5)
    dec, hit = V.gamma_orbits(G, tmp_path)
    assert hit and [o.size for o in dec.orbits] == [2280]
    aut = aut_orbit_decomposition(G)
    assert len(aut.orbits) == 19 and {o.size for o in aut.orbits} == {120}
    assert sorted(o.size for o in joint_orbit_decomposition(G).orbits) == [1080, 1200]
