import math
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
    closure_size,
    conjugacy_classes,
    derived_series,
    generates,
    is_mn_generated,
)
from genlift.matrices import PslElement, mat_from_ints
from oracles import (
    build_cyclic,
    derived_length,
    dihedral_cayley_table,
    matrix_cayley_table,
    possible_psl_orders,
    power,
    sl2_matrices_grid,
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
        assert power(G, g, G.order_of(g)) == G.identity


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matrix_tables_entry_for_entry(q):
    for G in (build_sl2(q), build_psl2(q)):
        assert G.mult.tolist() == matrix_cayley_table(G), G.name


def test_dihedral_tables_entry_for_entry():
    for m in range(3, 13):
        assert build_dihedral(m).mult.tolist() == dihedral_cayley_table(m), m


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_sl2_listing_matches_grid_filter(q):
    assert np.array_equal(groupcore._sl2_matrices(field_for_q(q)), sl2_matrices_grid(q))


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
    monkeypatch.setattr(groupcore, "_sl2_matrices", no_listing)
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
        with pytest.raises(KeyError):
            G.index_of_matrix(mat_from_ints(G.field, 2, 0, 0, 1))  # det 2


def test_index_of_matrix_canonicalizes_psl_signs():
    G = build_psl2(5)
    for g in range(0, G.n, 7):
        m = G.labels[g].rep
        assert G.index_of_matrix(m.neg()) == g
        assert G.index_of_matrix(PslElement(m.neg())) == g  # not the lex-least sign


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
