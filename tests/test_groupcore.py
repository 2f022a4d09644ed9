import math

import pytest

from genlift.groupcore import (
    MAX_GROUP_ORDER,
    GroupSizeError,
    build_cyclic,
    build_dihedral,
    build_psl2,
    build_sl2,
    closure_size,
    conjugacy_classes,
    derived_length,
    derived_series,
    generates,
    is_mn_generated,
    possible_psl_orders,
    subgroup_closure,
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
    G.validate()
    # orders divide |G|
    for g in range(G.n):
        assert G.n % G.order_of(g) == 0
        assert G.power(g, G.order_of(g)) == G.identity


def test_conjugacy_class_counts():
    assert len(conjugacy_classes(build_psl2(5)).representatives) == 5
    assert len(conjugacy_classes(build_sl2(5)).representatives) == 9
    assert len(conjugacy_classes(build_psl2(7)).representatives) == 6


def test_conjugacy_classes_partition():
    G = build_psl2(5)
    cc = conjugacy_classes(G)
    for g in range(G.n):
        rep = cc.representatives[cc.class_of[g]]
        assert G.order_of(rep) == G.order_of(g)
    # identity sits alone
    assert sum(1 for g in range(G.n) if cc.class_of[g] == cc.class_of[G.identity]) == 1


def test_conjugator_transversal():
    for G in (build_psl2(5), build_sl2(3), build_dihedral(6), build_cyclic(4)):
        cc = conjugacy_classes(G)
        for a in range(G.n):
            x = int(cc.conjugator[a])
            rep = cc.representatives[cc.class_of[a]]
            assert G.mul(G.mul(x, a), G.inv_of(x)) == rep
            assert rep <= a  # each representative is its class's least member


def test_closure_and_generation():
    G = build_psl2(5)
    assert closure_size(G, (G.identity,)) == 1
    assert closure_size(G, range(G.n)) == G.n
    # some pair generates (the group is 2-generated)
    assert any(generates(G, i, j) for i in range(G.n) for j in range(G.n))
    # a cyclic subgroup is its own closure
    g = next(g for g in range(G.n) if G.order_of(g) == 5)
    assert len(subgroup_closure(G, (g,))) == 5


def test_dihedral_structure():
    m = 7
    G = build_dihedral(m)
    assert G.n == 2 * m
    orders = sorted(G.order_of(g) for g in range(G.n))
    assert orders.count(2) == m  # the reflections (m odd)
    assert derived_length(G) == 2
    series = derived_series(G)
    assert [len(s) for s in series] == [2 * m, m, 1]


def test_cyclic_structure():
    G = build_cyclic(12)
    assert G.n == 12
    assert derived_length(G) == 1
    assert sorted({G.order_of(g) for g in range(G.n)}) == [1, 2, 3, 4, 6, 12]


def test_derived_series_psl():
    # PSL(2,5) is perfect
    series = derived_series(build_psl2(5))
    assert [len(s) for s in series] == [60]


@pytest.mark.parametrize("q,expected", [
    (5, {1, 2, 3, 5}),
    (7, {1, 2, 3, 4, 7}),
    (9, {1, 2, 3, 4, 5}),
])
def test_possible_psl_orders(q, expected):
    assert possible_psl_orders(q) == expected
    G = build_psl2(q)
    assert {G.order_of(g) for g in range(G.n)} == expected


def test_mn_generation_psl29():
    G = build_psl2(9)
    assert not is_mn_generated(G, 2, 3)
    assert is_mn_generated(G, 3, 3)


def test_mn_generation_small():
    assert is_mn_generated(build_psl2(5), 2, 5)
    assert is_mn_generated(build_psl2(7), 2, 3)
    assert not is_mn_generated(build_cyclic(4), 2, 2)  # only reaches the subgroup of order 2


def test_size_guard():
    with pytest.raises(GroupSizeError):
        build_sl2(32)
    with pytest.raises(GroupSizeError):
        build_dihedral(MAX_GROUP_ORDER // 2 + 1)


def test_index_of_matrix_round_trip():
    for build in (build_sl2, build_psl2):
        G = build(5)
        for g in range(0, G.n, 7):
            assert G.index_of_matrix(G.labels[g]) == g
