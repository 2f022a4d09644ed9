import random

import pytest

from genlift.field import field_for_q
from genlift.groupcore import build_sl2
from genlift.matrices import (
    Mat2,
    PslElement,
    bracket,
    mat_from_ints,
    trace_invariant,
)
from oracles import element_order_sl, identity_mat, psl_canonical


def random_sl(G, rng):
    return G.labels[rng.randrange(G.n)]


def test_determinant_and_inverse():
    f = field_for_q(7)
    m = mat_from_ints(f, 1, 2, 3, 0)
    assert m.det() == f.from_int(1)
    assert m * m.inverse() == identity_mat(f)
    assert m.inverse() * m == identity_mat(f)


def test_non_unimodular_inverse_rejected():
    f = field_for_q(5)
    with pytest.raises(ValueError):
        mat_from_ints(f, 2, 0, 0, 1).inverse()


def test_trace_order_dichotomy():
    # for A in SL(2,q) other than +-I, p >= 3:
    # tr A = 2 iff order p, tr A = -2 iff order 2p
    for q in (5, 7, 9, 11):
        f = field_for_q(q)
        G = build_sl2(q)
        two, minus_two = f.two, f.neg(f.two)
        e = G.identity
        minus_e = G.index_of_matrix(G.labels[e].neg())
        for g in range(G.n):
            if g in (e, minus_e):
                continue
            m = G.labels[g]
            assert (m.trace() == two) == (G.orders[g] == f.p)
            assert (m.trace() == minus_two) == (G.orders[g] == 2 * f.p)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_bracket_sign_independence(q):
    # 10^3 random pairs: the commutator ignores the sign choices
    G = build_sl2(q)
    rng = random.Random(q)
    for _ in range(1000):
        a = random_sl(G, rng)
        b = random_sl(G, rng)
        ref = bracket(PslElement(a), PslElement(b))
        assert bracket(PslElement(a.neg()), PslElement(b)) == ref
        assert bracket(PslElement(a), PslElement(b.neg())) == ref
        assert bracket(PslElement(a.neg()), PslElement(b.neg())) == ref


def test_trace_invariant_on_psl_reps():
    f = field_for_q(5)
    A = mat_from_ints(f, 0, 1, -1, 0)
    C = mat_from_ints(f, 1, 1, 0, 1)
    assert trace_invariant(psl_canonical(A), psl_canonical(C)) == f.from_int(3)


def test_psl_canonical_idempotent_and_sign_blind():
    f = field_for_q(7)
    rng = random.Random(17)
    G = build_sl2(7)
    for _ in range(200):
        m = random_sl(G, rng)
        c = psl_canonical(m)
        assert psl_canonical(c.rep) == c
        assert psl_canonical(m.neg()) == c
        assert c.packed() <= m.packed()


def test_element_orders():
    f = field_for_q(5)
    A = mat_from_ints(f, 0, 1, -1, 0)
    assert element_order_sl(A) == 4
    assert element_order_sl(identity_mat(f)) == 1
    assert element_order_sl(mat_from_ints(f, 1, 1, 0, 1)) == 5


def test_serialize():
    f = field_for_q(9)
    m = mat_from_ints(f, 1, 0, 0, 1)
    assert isinstance(m.serialize(), str)
    assert m.serialize().count(",") == 3
