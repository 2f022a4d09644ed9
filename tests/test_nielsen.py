import numpy as np
import pytest

from genlift.groupcore import build_cyclic, build_dihedral, build_psl2, build_sl2
from genlift.nielsen import (
    PairBudgetExceeded,
    _nielsen_moves,
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    higman_check,
    joint_orbit_decomposition,
    nielsen_moves,
    orbit_tau,
    psl_automorphism_perms,
    trace_spectrum,
)
from oracles import (
    count_generating_pairs,
    orbit_partition_fast,
    orbit_partition_naive,
    pair_space_orbits,
)

SMALL_GROUPS = [
    lambda: build_cyclic(8),
    lambda: build_dihedral(5),
    lambda: build_dihedral(6),
    lambda: build_psl2(2),
    lambda: build_psl2(3),
    lambda: build_psl2(5),
]


@pytest.mark.parametrize("build", SMALL_GROUPS)
def test_fast_decomposition_matches_naive_oracle(build):
    G = build()
    assert orbit_partition_fast(G) == orbit_partition_naive(G)


def test_moves_stay_inside_orbits():
    for q in (3, 5, 7):
        G = build_psl2(q)
        dec = decompose_nielsen_orbits(G)
        gamma = np.flatnonzero(dec.labels >= 0)
        i, j = gamma // G.n, gamma % G.n
        # the Nielsen moves, and conjugation by every element, map each
        # generating pair into its own orbit
        conj = [G.mult[G.mult[G.inv[x]], x] for x in range(G.n)]  # y -> x^-1 y x
        images = _nielsen_moves(G, i, j) + [(c[i], c[j]) for c in conj]
        for a, b in images:
            assert np.array_equal(dec.labels[a.astype(np.int64) * G.n + b], dec.labels[gamma])


def test_moves_are_invertible():
    G = build_psl2(5)
    for pair in [(1, 2), (7, 30), (0, 0), (59, 1)]:
        m1, m2, m3 = nielsen_moves(G, pair)
        assert nielsen_moves(G, m1)[0] == pair  # inversion is an involution
        assert nielsen_moves(G, m3)[2] == pair  # swap is an involution
        # (g1 g2^-1, g2) recovers g1 on right-multiplying by g2
        assert G.mul(m2[0], pair[1]) == pair[0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_orbit_invariants_constant_exhaustive(q):
    G = build_psl2(q)
    dec = decompose_nielsen_orbits(G)
    for o in dec.orbits:
        # sweeps every member and asserts constancy internally
        assert orbit_tau(dec, o, check_members=None) == o.tau
        order, consistent = higman_check(dec, o)
        assert consistent
        assert order == o.commutator_order


def test_generating_pair_count_vs_oracle():
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    assert dec.gamma_size() == count_generating_pairs(G) == 2280


ACTIONS = {
    "nielsen": decompose_nielsen_orbits,
    "aut": aut_orbit_decomposition,
    "joint": joint_orbit_decomposition,
}


def test_labels_match_pair_space_reference():
    hosts = [(build_psl2(q), tuple(ACTIONS)) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    hosts += [(build_sl2(q), ("nielsen",)) for q in (3, 5)]
    hosts += [(build_dihedral(m), ("nielsen",)) for m in range(3, 13)]
    for G, actions in hosts:
        for action in actions:
            case = f"{action} on {G.name}"
            dec = ACTIONS[action](G)
            labels, records = pair_space_orbits(G, action)
            # label for label, and record for record
            assert np.array_equal(dec.labels, labels), case
            assert [
                (o.orbit_id, o.size, o.canonical_rep, o.tau, o.commutator_order)
                for o in dec.orbits
            ] == records, case
            assert dec.restricted and (dec.labels >= 0).sum() == dec.gamma_size(), case
        if G.n <= 120:
            assert dec.gamma_size() == count_generating_pairs(G), G.name
        if G.n <= 60:
            assert orbit_partition_fast(G) == orbit_partition_naive(G), G.name


def test_pair_budget():
    G = build_psl2(5)
    with pytest.raises(PairBudgetExceeded):
        decompose_nielsen_orbits(G, pair_budget=100)
    with pytest.raises(PairBudgetExceeded):
        aut_orbit_decomposition(G, pair_budget=100)
    with pytest.raises(PairBudgetExceeded):
        joint_orbit_decomposition(G, pair_budget=100)


def test_trace_spectrum_psl25():
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    assert trace_spectrum(dec) == {1, 3}


def test_automorphisms_are_automorphisms():
    for q in (4, 5, 9):
        G = build_psl2(q)
        for perm in psl_automorphism_perms(G):
            # multiplication-preserving and bijective
            assert sorted(perm) == list(range(G.n))
            sample = np.random.default_rng(q).integers(0, G.n, size=(200, 2))
            for i, j in sample:
                assert perm[G.mul(int(i), int(j))] == G.mul(int(perm[i]), int(perm[j]))


@pytest.mark.parametrize("q,aut_order", [(5, 120), (7, 336), (9, 1440)])
def test_aut_orbits_semiregular(q, aut_order):
    G = build_psl2(q)
    dec = aut_orbit_decomposition(G)
    sizes = {o.size for o in dec.orbits}
    assert sizes == {aut_order}


def test_joint_orbits_psl25():
    G = build_psl2(5)
    dec = joint_orbit_decomposition(G)
    assert sorted(o.size for o in dec.orbits) == [1080, 1200]


def test_cached_labels_round_trip():
    G = build_psl2(7)
    dec = decompose_nielsen_orbits(G)
    # any class numbering is accepted, so scrambled ids must come back canonical
    ids = np.random.default_rng(7).permutation(len(dec.orbits)) + 5
    scrambled = np.where(dec.labels >= 0, ids[dec.labels], -1)
    for cached in (dec.labels.copy(), scrambled):
        redo = decompose_nielsen_orbits(G, labels=cached)
        assert np.array_equal(dec.labels, redo.labels)
        assert redo.orbits == dec.orbits
