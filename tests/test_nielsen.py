import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genlift.groupcore import (
    build_dihedral,
    build_psl2,
    build_sl2,
    closure_mask,
    conjugacy_classes,
)
from genlift.nielsen import (
    _centralizer_generators,
    _components,
    _nielsen_moves,
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    higman_check,
    joint_orbit_decomposition,
    orbit_tau,
    psl_automorphism_perms,
    trace_spectrum,
)
from genlift.matrices import trace_invariant
from oracles import (
    _UnionFind,
    build_cyclic,
    count_generating_pairs,
    mn_free_flags_scan,
    orbit_partition_fast,
    orbit_partition_naive,
    pair_space_orbits,
    psl_automorphism_perms_scan,
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
    i, j = np.divmod(np.arange(G.n * G.n), G.n)  # every pair
    m1, m2, m3 = _nielsen_moves(G, i, j)
    back_i, back_j = _nielsen_moves(G, *m1)[0]
    assert np.array_equal(back_i, i) and np.array_equal(back_j, j)  # inversion is an involution
    back_i, back_j = _nielsen_moves(G, *m3)[2]
    assert np.array_equal(back_i, i) and np.array_equal(back_j, j)  # swap is an involution
    # (g1 g2^-1, g2) recovers g1 on right-multiplying by g2
    assert np.array_equal(G.mult[m2[0], j], i)


def _partition(labels) -> set[frozenset]:
    blocks: dict[int, set] = {}
    for node, lab in enumerate(labels):
        blocks.setdefault(int(lab), set()).add(node)
    return {frozenset(b) for b in blocks.values()}


@st.composite
def _graphs(draw):
    nodes = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))))
    return nodes, edges


def _bit_reversed_path(bits: int) -> tuple[int, list]:
    order = [int(format(v, f"0{bits}b")[::-1], 2) for v in range(2**bits)]
    return 2**bits, list(zip(order, order[1:]))


def _star_of_stars(stars: int, leaves: int) -> tuple[int, list]:
    """A centre with the largest id, joined to sub-centres, each joined to
    leaves with the smallest ids."""
    nodes = stars * leaves + stars + 1
    edges = []
    for s in range(stars):
        edges.append((nodes - 1, stars * leaves + s))
        edges += [(stars * leaves + s, s * leaves + leaf) for leaf in range(leaves)]
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(_graphs())
@example((5, []))  # no edges
@example((6, [(2, 2), (3, 1), (1, 3), (3, 1), (4, 4)]))  # self-loops, duplicates, isolated nodes
@example((64, [(v + 1, v) for v in range(63)]))  # a path with reversed ids
@example(_bit_reversed_path(6))  # one hook round per bit
@example(_star_of_stars(5, 4))
def test_components_match_union_find(graph):
    nodes, edges = graph
    uf = _UnionFind(nodes)
    for a, b in edges:
        uf.union(a, b)
    src, dst = (np.array([e[side] for e in edges], dtype=np.int64) for side in (0, 1))
    labels = _components(nodes, src, dst)
    assert _partition(labels) == _partition([uf.find(v) for v in range(nodes)])


CENTRALIZER_HOSTS = (
    [lambda q=q: build_psl2(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [lambda q=q: build_sl2(q) for q in (3, 5)]
    + [lambda m=m: build_dihedral(m) for m in range(3, 13)]
    + [lambda: build_cyclic(8)]
)


@pytest.mark.parametrize("build", CENTRALIZER_HOSTS)
def test_centralizer_generators(build):
    G = build()
    for r in conjugacy_classes(G).representatives:
        cent = G.mult[r] == G.mult[:, r]
        gens = _centralizer_generators(G, r)
        case = (G.name, r, gens)
        assert all(cent[z] for z in gens), case
        assert G.identity not in gens, case
        assert np.array_equal(closure_mask(G, gens), cent), case  # C(identity) is all of G
        assert 2 ** len(gens) <= cent.sum(), case


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
            # the on-demand queries, orbit for orbit and pair for pair
            for oid in range(len(dec.orbits)):
                assert np.array_equal(dec.member_ids(oid), np.flatnonzero(labels == oid)), case
            gamma = np.flatnonzero(labels >= 0)
            found = [dec.orbit_of(divmod(p, G.n)).orbit_id for p in gamma.tolist()]
            assert np.array_equal(found, labels[gamma]), case
        if G.n <= 120:
            assert dec.gamma_size() == count_generating_pairs(G), G.name
        if G.n <= 60:
            assert orbit_partition_fast(G) == orbit_partition_naive(G), G.name


def test_mn_flags_match_full_scan():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        G = build_psl2(q)
        orders = sorted(set(G.orders.tolist()))
        mn_pairs = [(m, n) for m in orders for n in orders]
        for action, decompose in ACTIONS.items():
            fresh = decompose(G)
            # the cached path renumbers the given rep rows, whatever their ids
            cached = [
                decompose_nielsen_orbits(G, rep_rows=rows)
                for rows in (fresh.rep_rows.copy(), _scrambled(fresh))
            ]
            for dec in cached:
                assert np.array_equal(dec.rep_rows, fresh.rep_rows), (action, G.name)
                assert np.array_equal(dec.labels, fresh.labels), (action, G.name)
            for dec in (fresh, *cached):
                for (m, n), expected in mn_free_flags_scan(dec, mn_pairs).items():
                    assert dec.mn_free_flags(m, n) == expected, (action, G.name, m, n)


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


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 19])
def test_automorphism_perms_match_per_element_scan(q):
    G = build_psl2(q)
    fast = [perm.tolist() for perm in psl_automorphism_perms(G)]
    assert fast == psl_automorphism_perms_scan(G)


@pytest.mark.parametrize(
    "q,aut_order",
    [(5, 120), (7, 336), (8, 1512), (9, 1440), (13, 2184), (16, 16320), (19, 6840)],
)
def test_aut_orbits_semiregular(q, aut_order):
    G = build_psl2(q)
    dec = aut_orbit_decomposition(G)
    sizes = {o.size for o in dec.orbits}
    assert sizes == {aut_order}


def test_aut_and_joint_test_generation_through_nielsen(monkeypatch):
    # generation is settled on the Nielsen classes: Aut and joint add no closure of their own
    import genlift.nielsen

    G = build_psl2(13)
    calls = []
    closure_size = genlift.nielsen.closure_size

    def counted(*args):
        calls.append(args)
        return closure_size(*args)

    monkeypatch.setattr(genlift.nielsen, "closure_size", counted)
    counts = {}
    for action, decompose in ACTIONS.items():
        calls.clear()
        decompose(G)
        counts[action] = len(calls)
    assert counts["nielsen"] > 0
    assert counts["aut"] <= counts["nielsen"] and counts["joint"] <= counts["nielsen"], counts


def test_one_nielsen_base_per_group(monkeypatch):
    # gamma_orbits, Aut and joint on one group run one Nielsen component search
    import genlift.nielsen
    from genlift import verify as V

    rep_rows = genlift.nielsen._rep_rows
    actions = []

    def counted(G, cls, moves):
        actions.append(moves)
        return rep_rows(G, cls, moves)

    monkeypatch.setattr(genlift.nielsen, "_rep_rows", counted)
    monkeypatch.setattr(V, "_DECOMP", {})
    G = build_psl2(13)
    V.gamma_orbits(G, None)
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    assert actions.count(_nielsen_moves) == 1, actions


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
def test_array_records_match_scalar_invariants(q):
    # the records' tau (Fricke identity on entry arrays) and commutator orders
    # (table lookups) against the Mat2 bracket and the scalar commutator
    G = build_psl2(q)
    for action, decompose in ACTIONS.items():
        for o in decompose(G).orbits:
            i, j = o.canonical_rep
            case = (action, q, o.orbit_id)
            assert o.tau == trace_invariant(G.labels[i], G.labels[j]), case
            assert o.commutator_order == G.order_of(G.commutator(i, j)), case


def _least_key_partition(rows: np.ndarray, keys: np.ndarray) -> list[int]:
    """Each key's class, named by the least key with the same label."""
    least: dict = {}
    labels = rows.reshape(-1)[keys].tolist()
    return [least.setdefault(label, key) for key, label in zip(keys.tolist(), labels)]


@pytest.mark.parametrize("q", [16, 17, 19])
def test_joint_is_join_of_nielsen_and_aut(q):
    # beyond the pair-space reference's range: the joint partition of the rep
    # rows is the finest one coarser than both the Nielsen and the Aut partitions
    G = build_psl2(q)
    nielsen, aut, joint = (decompose(G) for decompose in ACTIONS.values())
    keys = np.flatnonzero(nielsen.rep_rows.reshape(-1) >= 0)
    for dec in (aut, joint):
        assert np.array_equal(np.flatnonzero(dec.rep_rows.reshape(-1) >= 0), keys)
    uf = _UnionFind(nielsen.rep_rows.size)
    for dec in (nielsen, aut):
        for key, least in zip(keys.tolist(), _least_key_partition(dec.rep_rows, keys)):
            uf.union(key, least)
    assert [uf.find(key) for key in keys.tolist()] == _least_key_partition(joint.rep_rows, keys)


def test_joint_orbits_psl25():
    G = build_psl2(5)
    dec = joint_orbit_decomposition(G)
    assert sorted(o.size for o in dec.orbits) == [1080, 1200]


def _scrambled(dec):
    """The rep rows with the orbit ids permuted and shifted."""
    ids = np.random.default_rng(len(dec.orbits)).permutation(len(dec.orbits)) + 5
    return np.where(dec.rep_rows >= 0, ids[dec.rep_rows], -1)


def test_cached_labels_round_trip():
    G = build_psl2(7)
    dec = decompose_nielsen_orbits(G)
    # any class numbering is accepted, so scrambled ids must come back canonical
    for cached in (dec.rep_rows.copy(), _scrambled(dec)):
        redo = decompose_nielsen_orbits(G, rep_rows=cached)
        assert np.array_equal(dec.rep_rows, redo.rep_rows)
        assert np.array_equal(dec.labels, redo.labels)
        assert redo.orbits == dec.orbits


def test_orbit_of_refuses_entries_outside_the_group():
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    for pair in [(-1, 61), (-1, 1), (0, -1), (60, 0), (0, 60), (1, 60 * 60 + 1)]:
        with pytest.raises(KeyError):
            dec.orbit_of(pair)


def test_member_ids_round_trip_past_16_bits():
    # 16-bit table entries, pair ids up to 3420^2: member_ids must widen
    # before packing, and orbit_of must take every sampled member back
    G = build_psl2(19)
    assert G.mult.dtype == np.int16
    dec = decompose_nielsen_orbits(G)
    for o in dec.orbits:
        ids = dec.member_ids(o.orbit_id)
        assert len(ids) == o.size and ids[0] >= 0 and ids[-1] < G.n * G.n
        for p in ids[:: len(ids) // 32].tolist() + [int(ids[-1])]:
            assert dec.orbit_of(divmod(p, G.n)) is o, (o.orbit_id, p)
