import math
import random
import subprocess
import sys

import numpy as np
import pytest

from genlift import groupcore
from genlift.field import field_for_q
from genlift.fpgroups import group_from_coset_table, parse_presentation, todd_coxeter
from genlift.groupcore import (
    FiniteGroup,
    PairBudgetExceeded,
    build_dihedral,
    build_psl2,
    build_sl2,
    closure_mask,
    commutators,
    conjugacy_classes,
    derived_series,
    generates,
)
from genlift import is_mn_generated
from genlift.matrices import Mat2, mat_from_ints
from oracles import (
    build_cyclic,
    cayley_table,
    closure_mask as closure_mask_oracle,
    derived_length,
    dihedral_cayley_table,
    element_order,
    matrix_cayley_table,
    matrix_inverses,
    matrix_table_blocks,
    pack,
    possible_psl_orders,
    power,
    sl2_matrices_grid,
    subgroup_closure,
    _dense_index,
    validate_group,
)


def sl_order(q):
    return q * (q * q - 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_group_orders(q):
    S = build_sl2(q)
    P = build_psl2(q)
    assert S.n == sl_order(q)
    assert P.n == sl_order(q) // math.gcd(2, q - 1)


@pytest.mark.parametrize("build", [lambda: build_sl2(5), lambda: build_psl2(7),
                                   lambda: build_dihedral(6), lambda: build_cyclic(12)])
def test_cayley_table_valid(build):
    G = build()
    validate_group(G)
    # orders divide |G|
    for g in range(G.n):
        assert G.n % G.orders[g] == 0
        assert power(G, g, G.orders[g]) == G.identity


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matrix_tables_entry_for_entry(q):
    for G in (build_sl2(q), build_psl2(q)):
        assert cayley_table(G).tolist() == matrix_cayley_table(G), G.name


@pytest.mark.parametrize("build,q", [(build_psl2, 16), (build_psl2, 19), (build_sl2, 13)])
def test_multi_block_tables_entry_for_entry(build, q):
    # the largest groups checked entry for entry; at PSL(2,16) some
    # composition steps span several blocks of _BLOCK_ENTRIES // n rows
    G = build(q)
    for first, rows in matrix_table_blocks(G):
        np.testing.assert_array_equal(cayley_table(G, range(first, first + len(rows))), rows)
    np.testing.assert_array_equal(G.inv, matrix_inverses(G))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matrix_groups_store_the_rows_of_three_factors(q):
    # a matrix group stores no n x n table: 2R rows for the R elements of
    # {L(e)} + {w}, the torus and {U(e)} (products, then conjugations), and
    # every element is x = u t s with the three factors' rows among them,
    # checked in scalar Mat2 products
    for G in (build_sl2(q), build_psl2(q)):
        f, case = G.field, G.name
        psl_odd = G.kind == "psl2" and q % 2
        r = 2 * q + 1 + (q - 1) // 2 if psl_odd else 3 * q
        assert G.mult.shape == (2 * r, G.n), case
        held = G.mult[:r, G.identity].tolist()  # row e holds e x for every x; at x = 1, e
        signs = (lambda m: {m.entries(), m.neg().entries()}) if G.kind == "psl2" else (lambda m: {m.entries()})
        for t in range(q):
            assert (f.one, 0, t, f.one) in signs(G.matrix(held[t])), case
        assert (0, f.one, f.minus_one, 0) in signs(G.matrix(held[q])), case
        torus = [x for x in range(G.n) if G.matrix(x).b == G.matrix(x).c == 0]
        u0 = q + 1 + len(torus)
        assert len(torus) == ((q - 1) // 2 if psl_odd else q - 1), case
        assert held[q + 1 : u0] == torus, case
        for s in range(q):
            assert (f.one, s, 0, f.one) in signs(G.matrix(held[u0 + s])), case
        u_row, t_row, s_row = (offsets // G.n for offsets in G._factors[0])
        assert u_row.max() <= q < t_row.min() and t_row.max() < u0 <= s_row.min() and s_row.max() < r, case
        for x in range(G.n):
            u, t, s = (G.matrix(held[row[x]]) for row in (u_row, t_row, s_row))
            assert (u * t * s).entries() in signs(G.matrix(x)), (case, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_closed_form_index_matches_the_dense_oracle(q):
    # every det-1 matrix and its negation, through the one index map
    f = field_for_q(q)
    sl = sl2_matrices_grid(q)
    det2 = np.array(mat_from_ints(f, 2, 0, 0, 1).entries())[:, None]  # det 0 in characteristic 2
    for G in (build_sl2(q), build_psl2(q)):
        dense = _dense_index(G)
        for entries in (sl, f.neg_table[sl]):
            expected = dense[pack(q, *entries)]
            assert (expected >= 0).all(), G.name  # -M is an element of SL, and maps to M's in PSL
            np.testing.assert_array_equal(G.entry_indices(*entries), expected)
        with pytest.raises(KeyError):
            G.entry_indices(*det2)
        with pytest.raises(KeyError):
            G.entry_indices(*np.concatenate([sl[:, :3], det2], axis=1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_conjugates_match_products(q):
    # conj reads stored conjugation rows; the full table is checked against
    # scalar Mat2 products above
    for G in (build_sl2(q), build_psl2(q)):
        table, g = cayley_table(G), np.arange(G.n)
        np.testing.assert_array_equal(G.conj(g[:, None], g), table[table[g[:, None], g], G.inv[g][:, None]])


@pytest.mark.parametrize("build", [lambda: build_psl2(7), lambda: build_sl2(5), lambda: build_dihedral(6),
                                   lambda: build_cyclic(12)])
def test_mul_and_conj_broadcast_over_any_integer_indices(build):
    G = build()
    table = cayley_table(G)
    rng = np.random.default_rng(G.n)
    a, b = rng.integers(0, G.n, size=(2, 5, 1)), rng.integers(0, G.n, size=(2, 1, 7))
    for dtype in (np.int16, np.int32, np.int64, np.intp):
        x, y = a.astype(dtype), b.astype(dtype)
        prod = G.mul(x, y)
        assert prod.shape == (2, 5, 7) and prod.dtype == G.mult.dtype
        np.testing.assert_array_equal(prod, table[a, b])
        np.testing.assert_array_equal(G.conj(x, y), table[table[a, b], G.inv[a]])
        # the same broadcasting as commutators, which is built on them
        np.testing.assert_array_equal(
            commutators(G, x, y), table[table[G.inv[a], G.inv[b]], table[a, b]]
        )
    assert int(G.mul(int(a[0, 0, 0]), int(b[0, 0, 0]))) == table[a[0, 0, 0], b[0, 0, 0]]


def test_one_row_blocks_compose_the_same_tables(monkeypatch):
    # blocks of one row: every composition step of these builds spans
    # several, the doubling steps of SL and PSL among them (q = 8 and 9
    # double along two and three coefficient directions)
    builds = [(build_psl2, 9), (build_sl2, 5), (build_sl2, 8), (build_psl2, 7), (build_sl2, 9)]
    stored = [build(q).mult for build, q in builds]
    monkeypatch.setattr(groupcore, "_BLOCK_ENTRIES", 1)
    for (build, q), rows in zip(builds, stored):
        G = build(q)
        np.testing.assert_array_equal(G.mult, rows)
        assert cayley_table(G).tolist() == matrix_cayley_table(G), G.name
    assert build_dihedral(7).mult.tolist() == dihedral_cayley_table(7)


PRIME_POWERS_TO_27 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_27)
def test_orders_and_inverses_match_the_power_walk(q):
    # matrix groups take orders from traces and inverses from entries; the
    # power walk that dense groups still run is the oracle, dtypes included
    for G in (build_sl2(q, pair_budget=10**9), build_psl2(q, pair_budget=10**9)):
        orders, inv = FiniteGroup._orders_and_inverses(G)
        assert G.orders.dtype == orders.dtype and G.inv.dtype == inv.dtype, G.name
        np.testing.assert_array_equal(G.orders, orders, err_msg=G.name)
        np.testing.assert_array_equal(G.inv, inv, err_msg=G.name)


def test_matrix_builds_do_not_walk_the_powers(monkeypatch):
    def no_walk(self):
        raise AssertionError(f"{self.name} walked the powers of its elements")

    monkeypatch.setattr(FiniteGroup, "_orders_and_inverses", no_walk)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 19):
        for build in (build_sl2, build_psl2):
            assert build(q, pair_budget=10**9).n, q
    for m in range(1, 25):  # orders and inverses in closed form
        assert build_dihedral(m).n == 2 * m, m
    with pytest.raises(AssertionError, match="walked"):  # coset-table groups still walk
        build_cyclic(4)


def test_wrong_inverse_map_refused(monkeypatch):
    # the build hands its inverses to FiniteGroup, which checks x inv[x] = 1
    real = groupcore.FiniteGroup

    def forged(*args, inv, **kw):
        return real(*args, inv=np.roll(inv, 1), **kw)

    monkeypatch.setattr(groupcore, "FiniteGroup", forged)
    for build in (build_sl2, build_psl2):
        with pytest.raises(ValueError, match="not a group table"):
            build(5)


def test_dihedral_tables_entry_for_entry():
    for m in range(1, 13):  # D2 and D4 are the quadrant edge cases
        G = build_dihedral(m)
        assert G.mult.tolist() == dihedral_cayley_table(m), m
        validate_group(G)
        assert G.orders.tolist() == [element_order(G, g) for g in range(G.n)], m


def test_table_entries_are_16_bit_up_to_2_15_elements():
    # every index 0..n-1 fits int16 exactly while n <= 2^15; no table is allocated here
    assert groupcore._table_dtype(1 << 15) == np.int16
    assert groupcore._table_dtype((1 << 15) + 1) == np.int32
    miller = parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")
    miller = group_from_coset_table(todd_coxeter(miller))
    for G in (build_sl2(5), build_psl2(7), build_dihedral(5), miller):
        assert G.mult.dtype == np.int16 and G.inv.dtype == np.int16, G.name


def test_non_group_table_refused():
    # 1 * 1 = 1: the powers of 1 never reach the identity 0
    with pytest.raises(ValueError, match="not a group table"):
        FiniteGroup("bad", np.array([[0, 1], [1, 1]], dtype=np.int32), 0)


def test_conjugacy_class_counts():
    assert len(conjugacy_classes(build_psl2(5)).representatives) == 5
    assert len(conjugacy_classes(build_sl2(5)).representatives) == 9
    assert len(conjugacy_classes(build_psl2(7)).representatives) == 6


def test_conjugacy_classes_partition():
    G = build_psl2(5)
    cc = conjugacy_classes(G)
    for g in range(G.n):
        rep = cc.representatives[cc.class_of[g]]
        assert G.orders[rep] == G.orders[g]
    # identity sits alone
    assert sum(1 for g in range(G.n) if cc.class_of[g] == cc.class_of[G.identity]) == 1


def test_conjugator_transversal():
    for G in (build_psl2(5), build_sl2(3), build_dihedral(6), build_cyclic(4)):
        cc = conjugacy_classes(G)
        for a in range(G.n):
            x = int(cc.conjugator[a])
            rep = cc.representatives[cc.class_of[a]]
            assert G.mul(G.mul(x, a), G.inv[x]) == rep
            assert rep <= a  # each representative is its class's least member


def test_closure_and_generation():
    G = build_psl2(5)
    assert closure_mask(G, (G.identity,)).sum() == 1
    assert closure_mask(G, range(G.n)).sum() == G.n
    # some pair generates (the group is 2-generated)
    assert any(generates(G, i, j) for i in range(G.n) for j in range(G.n))
    # a cyclic subgroup is its own closure
    g = next(g for g in range(G.n) if G.orders[g] == 5)
    assert len(subgroup_closure(G, (g,))) == 5


def _miller_group():
    pres = parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")
    return group_from_coset_table(todd_coxeter(pres, max_cosets=10**5))


CLOSURE_HOSTS = (
    [lambda q=q: build_psl2(q) for q in (2, 3, 4, 5, 7)]
    + [lambda: build_sl2(3)]
    + [lambda m=m: build_dihedral(m) for m in range(3, 9)]
    + [lambda: build_cyclic(8), _miller_group]
)


@pytest.mark.parametrize("build", CLOSURE_HOSTS)
def test_lockstep_closures_match_scalar_bfs(build):
    # every pair, in blocks of rows past _BLOCK_ENTRIES at PSL(2,7); the 288
    # elements of the Miller group take each class representative against
    # every element, as closures commute with conjugation
    G = build()
    n = G.n
    firsts = conjugacy_classes(G).representatives if n > 200 else range(n)
    i, j = (e.ravel() for e in np.meshgrid(firsts, np.arange(n), indexing="ij"))
    # the oracle closes the set {i, j}, so (i, j) and (j, i) share one call
    ref = {}
    for a, b in zip(i.tolist(), j.tolist()):
        if (b, a) not in ref:
            ref[a, b] = closure_mask_oracle(G, (a, b))
    masks = np.array([ref.get((a, b), ref.get((b, a))) for a, b in zip(i.tolist(), j.tolist())])
    assert np.array_equal(groupcore._closures(G, np.stack([i, j], axis=1)), masks), G.name
    assert np.array_equal(generates(G, i, j), masks.all(axis=1)), G.name
    assert np.array_equal(generates(G, i.reshape(-1, n), j[:n]), masks.all(axis=1).reshape(-1, n))


def test_lockstep_closures_odd_rows():
    G = build_psl2(5)
    e = G.identity
    pairs = np.array([(3, 7), (1, 2), (5, 5), (e, e)])
    plain = groupcore._closures(G, pairs)
    # identity padding and repeated generators leave every row's subgroup alone
    padded = np.column_stack([pairs, np.full(len(pairs), e), pairs[:, :1]])
    assert np.array_equal(groupcore._closures(G, padded), plain)
    assert np.array_equal(groupcore._closures(G, pairs, G.n // 2), plain.all(axis=1))
    assert np.array_equal(groupcore._closures(G, pairs, 11), plain.sum(axis=1) > 11)
    for p, row in zip(pairs, plain):
        assert np.array_equal(row, closure_mask_oracle(G, p))
    # no rows, and rows without generators
    assert groupcore._closures(G, np.empty((0, 2), dtype=int)).shape == (0, G.n)
    assert groupcore._closures(G, np.empty((0, 2), dtype=int), G.n // 2).shape == (0,)
    assert generates(G, np.empty(0, dtype=int), 3).shape == (0,)
    bare = groupcore._closures(G, np.empty((3, 0), dtype=int))
    assert np.array_equal(np.flatnonzero(bare), [e, G.n + e, 2 * G.n + e])


def test_index_two_subgroups_do_not_generate():
    # the n/2 stop needs strictly more than half: an index-2 subgroup has exactly half
    for m in range(3, 9):
        G = build_dihedral(m)
        shifts = np.arange(m)
        assert not generates(G, shifts[:, None], shifts).any(), m  # the rotations
        assert generates(G, 1, m), m  # the least rotation and a reflection
        if m % 2 == 0:  # even rotations and a reflection: the other dihedral halves
            assert not generates(G, 2, m) and not generates(G, m + 1, 2), m
    C8 = build_cyclic(8)
    assert not generates(C8, 2, 4) and not generates(C8, 6, 6) and not generates(C8, 2, 6)
    assert generates(C8, 2, 3) and generates(C8, 0, 5) and not generates(C8, 0, 4)
    assert generates(build_cyclic(1), 0, 0)  # a stop of |G|/2 = 0 elements still decides


def test_dihedral_structure():
    m = 7
    G = build_dihedral(m)
    assert G.n == 2 * m
    orders = sorted(G.orders.tolist())
    assert orders.count(2) == m  # the reflections (m odd)
    assert derived_length(G) == 2
    series = derived_series(G)
    assert [len(s) for s in series] == [2 * m, m, 1]


def test_cyclic_structure():
    G = build_cyclic(12)
    assert G.n == 12
    assert derived_length(G) == 1
    assert sorted(set(G.orders.tolist())) == [1, 2, 3, 4, 6, 12]


def test_derived_series_psl():
    # PSL(2,5) is perfect
    series = derived_series(build_psl2(5))
    assert [len(s) for s in series] == [60]


def test_derived_series_sl23():
    assert [len(s) for s in derived_series(build_sl2(3))] == [24, 8, 2, 1]


def test_derived_series_marks_commutators_in_bounded_blocks(monkeypatch):
    sizes = []

    def counted(G, i, j, real=groupcore.commutators):
        sizes.append(np.broadcast(i, j).size)
        return real(G, i, j)

    monkeypatch.setattr(groupcore, "commutators", counted)
    G = build_psl2(13)
    assert [len(s) for s in derived_series(G)] == [G.n]
    assert max(sizes) <= groupcore._BLOCK_ENTRIES
    assert sum(sizes) == G.n**2  # every pair of the one term, once


@pytest.mark.parametrize("q,expected", [
    (5, {1, 2, 3, 5}),
    (7, {1, 2, 3, 4, 7}),
    (9, {1, 2, 3, 4, 5}),
])
def test_possible_psl_orders(q, expected):
    assert possible_psl_orders(q) == expected
    G = build_psl2(q)
    assert set(G.orders.tolist()) == expected


def test_mn_generation_psl29():
    G = build_psl2(9)
    assert not is_mn_generated(G, 2, 3)
    assert is_mn_generated(G, 3, 3)


def test_mn_generation_small():
    assert is_mn_generated(build_psl2(5), 2, 5)
    assert is_mn_generated(build_psl2(7), 2, 3)
    assert not is_mn_generated(build_cyclic(4), 2, 2)  # only reaches the subgroup of order 2
    for m, n in ((0, 3), (2, 0), (-1, 1)):  # as mn_free_flags refuses them
        with pytest.raises(ValueError, match="m, n >= 1"):
            is_mn_generated(build_psl2(5), m, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_sl2_listing_matches_grid_filter(q):
    listing = groupcore._sl2_entries(field_for_q(q))
    assert listing.dtype == np.int32
    np.testing.assert_array_equal(listing, sl2_matrices_grid(q))


def test_int32_entries_index_at_the_largest_table_field():
    # _entry_indices computes a q + d and SL ranks near q^3 in the entry
    # dtype; at q = 251, the largest prime with field tables, int16 would wrap
    q, rng = 251, random.Random(251)
    f = field_for_q(q)
    triples = [(q - 1, q - 1, q - 1), (0, q - 1, q - 1)] + [tuple(rng.randrange(q) for _ in range(3)) for _ in range(300)]
    entries, ranks = [], []
    for a, b, x in triples:
        if a:  # c = x, d = (1 + bc)/a
            entries.append((a, b, x, f.mul(f.add(f.one, f.mul(b, x)), f.inv(a))))
            ranks.append(q * (q - 1) + ((a - 1) * q + b) * q + x)
        else:  # b != 0, c = -1/b, d = x
            b = b or 1
            entries.append((0, b, f.neg(f.inv(b)), x))
            ranks.append((b - 1) * q + x)
    assert max(ranks) == q**3 - q - 1
    a, b, c, d = np.array(entries, dtype=np.int32).T
    np.testing.assert_array_equal(groupcore._entry_indices(f, None, a, b, c, d), ranks)


def test_size_guard():
    with pytest.raises(PairBudgetExceeded):
        build_sl2(32)
    assert build_dihedral(5, pair_budget=100).n == 10  # 10^2 = 100 entries, at the bound
    with pytest.raises(PairBudgetExceeded):
        build_dihedral(6, pair_budget=100)


def test_size_refused_before_listing(monkeypatch):
    def no_listing(*args):
        raise AssertionError("SL matrices listed before the order check")

    # the listing holds several arrays of q^3 entries
    monkeypatch.setattr(groupcore, "_sl2_entries", no_listing)
    # the least SL and PSL hosts over the default budget, and two far over it
    for build, q in ((build_sl2, 17), (build_sl2, 43), (build_psl2, 23), (build_psl2, 97)):
        with pytest.raises(PairBudgetExceeded):
            build(q)
    with pytest.raises(PairBudgetExceeded):
        build_psl2(5, pair_budget=60 * 60 - 1)


def test_index_of_matrix_round_trip():
    for build in (build_sl2, build_psl2):
        G = build(5)
        for g in range(0, G.n, 7):
            assert G.index_of_matrix(G.labels[g]) == g


def test_index_of_matrix_refuses_non_members():
    for build in (build_sl2, build_psl2):
        G = build(5)
        f = G.field
        with pytest.raises(KeyError):
            G.index_of_matrix(mat_from_ints(f, 2, 0, 0, 1))  # det 2
        for entries in ((5, 0, 0, 1), (-1, 0, 0, 1), (1, 0, 0, 6)):  # entries outside [0, 5)
            with pytest.raises(KeyError):
                G.index_of_matrix(Mat2(f, *entries))
        with pytest.raises(KeyError):  # det 1, but over GF(7)
            G.index_of_matrix(mat_from_ints(field_for_q(7), 1, 1, 0, 1))
        for m in (G.labels[0].entries(), 0, "I"):  # not a Mat2
            with pytest.raises(TypeError):
                G.index_of_matrix(m)


def test_index_of_matrix_canonicalizes_psl_signs():
    G = build_psl2(5)
    for g in range(0, G.n, 7):
        m = G.labels[g]
        assert m.entries() < m.neg().entries()  # the label is the lex-least sign
        assert G.index_of_matrix(m) == G.index_of_matrix(m.neg()) == g


def test_psl_build_and_derived_series_skip_numpy_ma():
    # numpy 2.x imports numpy.ma on the first np.unique call, a cost every cold pass would pay
    script = (
        "import sys\n"
        "from genlift.groupcore import build_psl2, build_sl2, derived_series\n"
        "from genlift.nielsen import decompose_nielsen_orbits\n"
        "build_sl2(13)\n"
        "G = build_psl2(13)\n"
        "print('numpy.ma' in sys.modules)\n"  # a cold build: listing and table
        "decompose_nielsen_orbits(G)\n"
        "derived_series(G)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
