import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genlift.nielsen
from genlift import groupcore
from genlift.fpgroups import group_from_coset_table, parse_presentation, todd_coxeter
from genlift.groupcore import (
    _id_dtype,
    build_dihedral,
    build_psl2,
    build_sl2,
    centralizer_generators,
    commutators,
    conjugacy_classes,
)
from genlift.nielsen import (
    OrbitDecomposition,
    _aut_moves,
    _components,
    _nielsen_moves,
    _orbits,
    _pair_classes,
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
    cayley_table,
    closure_mask as closure_mask_oracle,
    commutator,
    count_generating_pairs,
    element_order,
    member_higman_check,
    member_taus,
    mn_free_flags_scan,
    orbit_partition_fast,
    orbit_partition_naive,
    pair_class_labels,
    pair_class_sizes,
    pair_space_orbits,
    psl_automorphism_perms_scan,
    rep_rows_single_graph,
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
        table = cayley_table(G)
        conj = [table[table[G.inv[x]], x] for x in range(G.n)]  # y -> x^-1 y x
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
    assert np.array_equal(G.mul(m2[0], j), i)


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


def test_components_refuse_edges_outside_the_nodes():
    for bad in (-1, 5):
        with pytest.raises(IndexError):
            _components(5, np.array([0, 1]), np.array([2, bad]))


CENTRALIZER_HOSTS = (
    [lambda q=q: build_psl2(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [lambda q=q: build_sl2(q) for q in (3, 5)]
    + [lambda m=m: build_dihedral(m) for m in range(3, 13)]
    + [lambda: build_cyclic(8)]
)


@pytest.mark.parametrize("build", CENTRALIZER_HOSTS)
def test_centralizer_generators(build):
    # a central representative gets no generator; any other first its least
    # element of the largest order, alone if C(r) is cyclic, then the least
    # element of C(r) outside <picks so far>, until they generate C(r)
    G = build()
    for r, gens in zip(conjugacy_classes(G).representatives, centralizer_generators(G)):
        cent = G.mul(r, np.arange(G.n)) == G.mul(np.arange(G.n), r)
        gens, size = gens.tolist(), int(cent.sum())
        case = (G.name, r, gens)
        if size == G.n:
            assert gens == [], case
            continue
        orders = [element_order(G, z) if cent[z] else 0 for z in range(G.n)]
        assert gens[0] == orders.index(max(orders)), case
        assert np.array_equal(closure_mask_oracle(G, gens), cent), case
        assert len(gens) == 1 if max(orders) == size else 2 ** len(gens) <= size, case
        for k in range(1, len(gens)):
            reached = closure_mask_oracle(G, gens[:k])
            assert gens[k] == np.flatnonzero(cent & ~reached)[0], case


def _presented(text: str):
    return lambda: group_from_coset_table(todd_coxeter(parse_presentation(text), max_cosets=10**5))


_miller_group = _presented("gens: x y\nrels: x^3 y^3 [x,y]^2")  # the (3,3,2) group

TWO_STAGE_HOSTS = (
    [lambda q=q: build_psl2(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [lambda: build_sl2(3)]
    + [lambda m=m: build_dihedral(m) for m in range(3, 9)]  # D6 to D16
    + [_presented("gens: a b\nrels: a^4 a^2b^-2 b^-1aba")]  # Q8
    + [_miller_group]
)


@pytest.mark.parametrize("build", TWO_STAGE_HOSTS + [lambda: build_psl2(16)])
def test_pair_classes_match_brute_force(build):
    # stage 1, label for label: the least key of each key's conjugation class of
    # pairs, against the brute-force orbits under the centralizers.  PSL(2,16)'s
    # involution rows have four generators, and the Miller group has rows that
    # the first doubling pass leaves unfixed by some generator.  Each class's
    # size, the pairs it stands for, against orbit-stabilizer on its least pair
    G = build()
    least, index, sizes = _pair_classes(G)
    brute = pair_class_labels(G)
    assert np.array_equal(least[index].reshape(brute.shape), brute), G.name
    assert np.array_equal(least, np.flatnonzero(brute.reshape(-1) == np.arange(brute.size))), G.name
    assert np.array_equal(sizes, pair_class_sizes(G, least)) and sizes.sum() == G.n * G.n, G.name
    assert index.dtype == np.int32 and _pair_classes(G)[1] is index  # kept, as int32


@pytest.mark.parametrize("build", TWO_STAGE_HOSTS)
def test_two_stage_search_matches_oracles(build):
    G = build()
    cls = conjugacy_classes(G)
    # both stages, every component kept, against one search over every key
    # with every edge, label for label: an orbit's least key is its rep's key.
    # PSL(2,2) has no outer automorphism, so its Aut action has no moves at all
    actions = [_nielsen_moves] + ([_aut_moves] if G.kind == "psl2" else [])
    classes = _pair_classes(G)
    for moves in actions:
        orbits, rows, _ = _orbits(G, cls, classes, moves, np.ones(len(classes[0]), dtype=bool))
        least = np.array([cls.class_of[a] * G.n + b for a, b in (o.canonical_rep for o in orbits)])
        assert np.array_equal(least[rows], rep_rows_single_graph(G, moves)), (G.name, moves)
        assert sum(o.size for o in orbits) == G.n * G.n, (G.name, moves)
    if G.kind == "psl2":
        # the joint orbits, a quotient of the Nielsen orbits, against one search
        # with the moves and the automorphisms together, on the generating keys
        both = rep_rows_single_graph(G, lambda G, i, j: _nielsen_moves(G, i, j) + _aut_moves(G, i, j))
        joint = joint_orbit_decomposition(G)
        ids = np.full(both.size, -1)
        rep_keys = [cls.class_of[a] * G.n + b for a, b in (o.canonical_rep for o in joint.orbits)]
        ids[rep_keys] = np.arange(len(joint.orbits))
        expected = np.where(decompose_nielsen_orbits(G).rep_rows >= 0, ids[both], -1)
        assert np.array_equal(joint.rep_rows, expected), G.name


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_orbit_invariants_constant_exhaustive(q):
    # the member oracles sweep every member; the library reads the keys.  Only
    # Nielsen orbits: on an Aut orbit the Frobenius moves tau
    G = build_psl2(q)
    dec = decompose_nielsen_orbits(G)
    for o in dec.orbits:
        assert member_taus(dec, o) == {o.tau}, o.orbit_id
        assert orbit_tau(dec, o, check_members=None) == o.tau
        assert member_higman_check(dec, o) == higman_check(dec, o) == (o.commutator_order, True)


def _higman_cases():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for action, decompose in ACTIONS.items():
            yield f"{action} on PSL(2,{q})", decompose(build_psl2(q))
    hosts = [build_sl2(3), build_sl2(5), _miller_group()]
    for G in hosts + [build_dihedral(m) for m in range(3, 13)]:  # D6 to D24
        yield f"nielsen on {G.name}", decompose_nielsen_orbits(G)


def test_higman_check_matches_member_oracle():
    checked = 0
    for case, dec in _higman_cases():
        for o in dec.orbits:
            assert higman_check(dec, o) == member_higman_check(dec, o), (case, o.orbit_id)
            checked += 1
    assert checked == 1159


def test_orbit_checks_read_keys_not_members(monkeypatch):
    def expanded(*args):
        raise AssertionError("an orbit check expanded the members")

    dec = decompose_nielsen_orbits(build_psl2(13))
    monkeypatch.setattr(OrbitDecomposition, "member_ids", expanded)
    monkeypatch.setattr(OrbitDecomposition, "labels", property(expanded))
    for o in dec.orbits:
        assert orbit_tau(dec, o, check_members=None) == o.tau
        assert higman_check(dec, o) == (o.commutator_order, True)


def test_orbit_tau_samples_at_most_check_members_keys(monkeypatch):
    G = build_psl2(7)
    dec = decompose_nielsen_orbits(G)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return trace_invariant(a, b)

    monkeypatch.setattr(genlift.nielsen, "trace_invariant", counted)
    for o in dec.orbits:
        keys = int((dec.rep_rows == o.orbit_id).sum())
        for c in (1, 2, 5, 64, max(1, keys - 1), keys, keys + 1, None):
            calls.clear()
            assert orbit_tau(dec, o, check_members=c) == o.tau
            assert len(calls) == (keys if c is None else min(c, keys)), (o.orbit_id, c)
        for c in (0, -1):
            with pytest.raises(ValueError):
                orbit_tau(dec, o, check_members=c)


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
            # the on-demand queries, orbit for orbit and pair for pair; a stable
            # argsort lists each label's pair ids in increasing order
            by_label = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels + 1)))
            for oid in range(len(dec.orbits)):
                assert np.array_equal(dec.member_ids(oid), by_label[oid + 1]), case
            gamma = np.flatnonzero(labels >= 0)
            assert np.array_equal(dec.orbit_ids(gamma // G.n, gamma % G.n), labels[gamma]), case
            for o in dec.orbits:
                assert dec.orbit_of(o.canonical_rep) is o, case
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
            dec = decompose(G)
            for (m, n), expected in mn_free_flags_scan(dec, mn_pairs).items():
                assert dec.mn_free_flags(m, n) == expected, (action, G.name, m, n)


def test_mn_flags_reduce_m_and_n_by_the_exponent():
    # m and n beyond int64 are reduced to their gcd with the exponent, lcm of
    # the element orders, before any array test; below 1 they are refused
    G = build_psl2(7)
    dec = decompose_nielsen_orbits(G)
    exponent = math.lcm(*set(G.orders.tolist()))
    assert exponent == 84
    big = 10**23
    assert dec.mn_free_flags(big, 3) == dec.mn_free_flags(math.gcd(big, exponent), 3)
    assert dec.mn_free_flags(3, big) == dec.mn_free_flags(3, math.gcd(big, exponent))
    for m, n in ((0, 3), (-2, 3), (3, 0), (3, -2)):
        with pytest.raises(ValueError):
            dec.mn_free_flags(m, n)


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
                assert perm[G.mul(i, j)] == G.mul(perm[i], perm[j])


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
    generates = genlift.nielsen.generates

    def counted(G, a, b):
        calls.append(np.broadcast(a, b).size)  # pairs handed to the generation kernel
        return generates(G, a, b)

    monkeypatch.setattr(genlift.nielsen, "generates", counted)
    counts = {}
    for action, decompose in ACTIONS.items():
        calls.clear()
        decompose(G)
        counts[action] = sum(calls)
    assert counts["nielsen"] > 0
    assert counts["aut"] <= counts["nielsen"] and counts["joint"] <= counts["nielsen"], counts
    assert counts["aut"] == counts["joint"] == 0, counts


def test_one_nielsen_base_per_group(monkeypatch):
    # Nielsen, Aut and joint on one group run one Nielsen component search
    orbits = genlift.nielsen._orbits
    actions = []

    def counted(G, cls, classes, moves, generating=None):
        actions.append(moves)
        return orbits(G, cls, classes, moves, generating)

    monkeypatch.setattr(genlift.nielsen, "_orbits", counted)
    G = build_psl2(13)
    decompose_nielsen_orbits(G)
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    assert actions.count(_nielsen_moves) == 1, actions


def test_joint_runs_no_key_search(monkeypatch):
    # joint orbits are the automorphisms on the Nielsen orbits: no stage 1, and
    # the engine's classes are the Nielsen orbits
    def searched(*args):
        raise AssertionError("the joint decomposition searched the keys")

    orbits, seen = genlift.nielsen._orbits, []

    def counted(G, cls, classes, moves, generating=None):
        seen.append(len(classes[0]))
        return orbits(G, cls, classes, moves, generating)

    G = build_psl2(13)
    dec = decompose_nielsen_orbits(G)
    monkeypatch.setattr(genlift.nielsen, "_pair_classes", searched)
    monkeypatch.setattr(genlift.nielsen, "_orbits", counted)
    assert len(joint_orbit_decomposition(G).orbits) == 12
    assert seen == [len(dec.orbits)]


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
            assert o.commutator_order == element_order(G, commutator(G, i, j)), case


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


def _mn_columns(report) -> list[list[str]]:
    return [list(o["mn_free"]) for o in report["orbits"]]


def test_report_columns_are_exactly_the_requested_ones():
    # earlier flag queries leave no column behind; repeats are shown once, sorted
    dec = decompose_nielsen_orbits(build_psl2(7))
    expected = dec.mn_free_flags(2, 3)
    dec.mn_free_flags(3, 3)
    report = dec.report(mn_pairs=((2, 3),))
    assert _mn_columns(report) == [["2,3"]] * len(dec.orbits)
    assert [o["mn_free"]["2,3"] for o in report["orbits"]] == list(expected.values())
    report = dec.report(mn_pairs=((3, 3), (2, 3), (3, 3)))
    assert _mn_columns(report) == [["2,3", "3,3"]] * len(dec.orbits)
    assert _mn_columns(dec.report()) == [[]] * len(dec.orbits)


@pytest.mark.parametrize("q", [4, 7, 9, 16])
def test_report_matrices_and_taus_match_scalar_formatting(q):
    # the report formats each field value once; every rep matrix and tau
    # must read as Mat2.serialize and format_element give them
    G = build_psl2(q)
    for dec in (decompose_nielsen_orbits(G), aut_orbit_decomposition(G)):
        for o, entry in zip(dec.orbits, dec.report()["orbits"]):
            assert entry["rep_matrices"] == [G.matrix(g).serialize() for g in o.canonical_rep], (q, o)
            assert entry["tau"] == G.field.format_element(o.tau), (q, o)


def test_automorphism_perms_computed_once_per_group(monkeypatch):
    # PSL(2,9) has both outer generators; Aut and joint share one computation,
    # also for a rebuild of the group
    calls = []
    real = genlift.nielsen.entry_perm
    monkeypatch.setattr(genlift.nielsen, "entry_perm", lambda G, m: calls.append(G.name) or real(G, m))
    G = build_psl2(9)
    aut_orbit_decomposition(G)
    joint_orbit_decomposition(G)
    perms = psl_automorphism_perms(build_psl2(9))
    assert calls == ["PSL(2,9)"] * 2 and len(perms) == 2
    for perm in perms:
        with pytest.raises(ValueError, match="read-only"):
            perm[0] = 0


def test_decomposition_parts_are_read_only():
    # a group is shared by every caller in the process: its arrays, and the
    # classes, classes of pairs and Nielsen parts it keeps, are read-only
    q8 = _presented("gens: a b\nrels: a^4 a^2b^-2 b^-1aba")
    for G in (build_psl2(7), build_sl2(5), build_dihedral(5), q8()):
        fresh = decompose_nielsen_orbits(G)
        decs = [fresh] + ([aut_orbit_decomposition(G), joint_orbit_decomposition(G)] if G.kind == "psl2" else [])
        for dec in decs:
            assert isinstance(dec.orbits, tuple)
            with pytest.raises(ValueError, match="read-only"):
                dec.rep_rows[0, 0] = 0
            with pytest.raises(AttributeError):  # records are named tuples
                dec.orbits[0].size = 0
            with pytest.raises(ValueError, match="read-only"):
                dec.rep_orders[0] = 0
        again = decompose_nielsen_orbits(G)
        assert again is not fresh and again.orbits is fresh.orbits and again.rep_rows is fresh.rep_rows
        cls = conjugacy_classes(G)
        shared = [G.mult, G.inv, G.orders, cls.class_of, cls.representatives, cls.conjugator, *_pair_classes(G)]
        if G.entries is not None:
            assert G.entries.dtype == np.int32 and G.entries.shape == (4, G.n) and G.entries.flags.c_contiguous
            shared.append(G.entries)
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[0] = 0


def test_rebuild_reuses_classes_and_stage_1(monkeypatch):
    # a second build_psl2(13) is the kept group: Aut and joint on it walk no
    # conjugacy classes and fold no orbit minima, as the Nielsen orbits kept both
    calls = []
    for module, name in ((groupcore, "_class_walk"), (genlift.nielsen, "_orbit_minima")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda G, name=name, real=real: calls.append(name) or real(G))
    G = build_psl2(13)
    decompose_nielsen_orbits(G)
    assert calls == ["_class_walk", "_orbit_minima"]
    assert build_psl2(13) is G
    assert len(aut_orbit_decomposition(build_psl2(13)).orbits) == 495
    assert len(joint_orbit_decomposition(build_psl2(13)).orbits) == 12
    assert calls == ["_class_walk", "_orbit_minima"]


def test_orbit_of_refuses_entries_outside_the_group():
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    a, b = dec.orbits[0].canonical_rep
    for bad_a, bad_b in [(-1, 61), (-1, 1), (0, -1), (60, 0), (0, 60), (1, 60 * 60 + 1)]:
        with pytest.raises(KeyError):
            dec.orbit_of((bad_a, bad_b))
        # orbit_ids refuses a bad pair among good ones, and alone
        for args in (([a, bad_a, a], [b, bad_b, b]), ([bad_a], [bad_b]), (bad_a, bad_b)):
            with pytest.raises(KeyError):
                dec.orbit_ids(*args)


def test_orbit_ids_are_minus_one_off_the_generating_pairs():
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    i, j = np.divmod(np.arange(G.n * G.n), G.n)
    ids = dec.orbit_ids(i, j)
    generating = np.array([closure_mask_oracle(G, p).all() for p in zip(i.tolist(), j.tolist())])
    assert np.array_equal(ids >= 0, generating)
    assert (ids == -1).sum() == G.n * G.n - dec.gamma_size()
    with pytest.raises(KeyError):
        dec.orbit_of((G.identity, 1))


def test_member_ids_refuse_ids_outside_the_orbits():
    # -1 and len(orbits) name no orbit: -1 would list the pairs off the orbits
    dec = decompose_nielsen_orbits(build_psl2(5))
    assert len(dec.orbits) == 3 and len(dec.member_ids(2)) == dec.orbits[2].size
    for bad in (-1, 3, 10):
        with pytest.raises(KeyError):
            dec.member_ids(bad)


def test_member_ids_round_trip_past_16_bits():
    # 16-bit table entries, pair ids up to |G|^2, past the pair-space reference's
    # range: member_ids must widen before packing, and orbit_ids must take every
    # member of every orbit back
    for q in (16, 17, 19):
        G = build_psl2(q)
        assert G.mult.dtype == np.int16
        gamma = decompose_nielsen_orbits(G).gamma_size()
        assert gamma > 0 and gamma % (q * (q * q - 1)) == 0  # PGL(2,q) acts freely
        for action, decompose in ACTIONS.items():
            dec = decompose(G)
            counted = 0
            assert dec.rep_rows.dtype == np.int32, (action, q)
            for o in dec.orbits:
                ids = dec.member_ids(o.orbit_id)
                case = (action, q, o.orbit_id)
                assert ids.dtype == np.int32, case
                assert len(ids) == o.size and ids[0] >= 0 and ids[-1] < G.n * G.n, case
                assert np.all(dec.orbit_ids(ids // G.n, ids % G.n) == o.orbit_id), case
                counted += len(ids)
            assert counted == dec.gamma_size() == gamma, (action, q)


def test_id_width_rule_at_its_bounds(monkeypatch):
    # ids below 2^31 are int32; n^2 = 2^31, past any group the default budget
    # admits, switches member_ids to int64 through the same helper
    assert _id_dtype(2**31 - 1) is np.int32 and _id_dtype(2**31) is np.int64
    assert _id_dtype(46340**2) is np.int32  # the last n with n^2 < 2^31
    assert _id_dtype(46341**2) is np.int64
    G = build_psl2(5)
    dec = decompose_nielsen_orbits(G)
    # member_ids asks the helper for bound n^2: answered as if n^2 were 2^31
    widened = lambda bound: _id_dtype(2**31 if bound == G.n * G.n else bound)
    monkeypatch.setattr(genlift.nielsen, "_id_dtype", widened)
    wide = [dec.member_ids(o.orbit_id) for o in dec.orbits]
    monkeypatch.undo()
    for o, ids in zip(dec.orbits, wide):
        narrow = dec.member_ids(o.orbit_id)
        assert ids.dtype == np.int64 and narrow.dtype == np.int32, o.orbit_id
        assert np.array_equal(ids, narrow), o.orbit_id


@pytest.mark.parametrize("block_entries", [None, 1])
def test_higman_check_reaches_the_last_member_block(monkeypatch, block_entries):
    # a key of the last class row with generating pairs, from an orbit whose
    # commutators lie in another class, forged into an orbit's rep rows:
    # higman_check reads that key, and member_ids lists its pairs in the last
    # blocks, one member of that class per block at block size 1, where the
    # member oracle finds them
    G = build_psl2(13)
    dec, cls = decompose_nielsen_orbits(G), conjugacy_classes(G)
    default = [dec.member_ids(o.orbit_id) for o in dec.orbits]
    if block_entries is not None:
        monkeypatch.setattr(genlift.nielsen, "_BLOCK_ENTRIES", block_entries)
    k = np.flatnonzero((dec.rep_rows >= 0).any(axis=1))[-1]
    rep = cls.representatives[k]
    for o in dec.orbits:
        assert np.array_equal(dec.member_ids(o.orbit_id), default[o.orbit_id]), o.orbit_id
    for o in dec.orbits:
        assert higman_check(dec, o)[1]
        c0 = commutators(G, *o.canonical_rep)
        allowed = [cls.class_of[c0], cls.class_of[G.inv[c0]]]
        comm_classes = cls.class_of[commutators(G, rep, np.arange(G.n))]
        foreign = (dec.rep_rows[k] >= 0) & ~np.isin(comm_classes, allowed)
        if not foreign.any() or not (dec.rep_rows[:k] == o.orbit_id).any():
            continue
        rows = dec.rep_rows.copy()
        rows[k, np.flatnonzero(foreign)[-1]] = o.orbit_id
        broken = OrbitDecomposition(G, dec.orbits, rows, dec.rep_orders)
        assert not higman_check(broken, o)[1], o.orbit_id
        assert not member_higman_check(broken, o)[1], o.orbit_id
        break
    else:
        raise AssertionError("no orbit with a foreign key in the last generating class row")
