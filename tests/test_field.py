import itertools
import random
import time
import tracemalloc

import pytest

from genlift.field import (
    GF,
    SIZE_BOUND,
    _poly_is_irreducible,
    field_for_q,
    is_prime,
    make_field,
)
from oracles import field_elements, poly_add, poly_mul, poly_neg, poly_pow

FIELD_SIZES = [5, 7, 9, 13, 16]


def axioms_hold(f: GF, a: int, b: int, c: int) -> bool:
    if f.add(a, b) != f.add(b, a):
        return False
    if f.mul(a, b) != f.mul(b, a):
        return False
    if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
        return False
    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
        return False
    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
        return False
    if f.add(a, f.neg(a)) != f.zero:
        return False
    if a != f.zero and f.mul(a, f.inv(a)) != f.one:
        return False
    return True


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_random_triples(q):
    # 10^4 seeded random triples per field
    f = field_for_q(q)
    rng = random.Random(q * 7919)
    for _ in range(10_000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert axioms_hold(f, a, b, c)


def test_field_table_matches_scalar_path():
    # every field within the bound: whole tables up to q = 32, then 2000
    # seeded random pairs per field; every negative, inverse and Frobenius image
    qs = sorted(p**k for p in range(2, SIZE_BOUND + 1) if is_prime(p)
                for k in range(1, 9) if p**k <= SIZE_BOUND)
    assert len(qs) == 70
    rng = random.Random(7919)
    for q in qs:
        f = field_for_q(q)
        if q <= 32:
            pairs = itertools.product(range(q), repeat=2)
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        for a, b in pairs:
            assert (f.add(a, b), f.mul(a, b)) == (poly_add(f, a, b), poly_mul(f, a, b)), (q, a, b)
        assert f.neg_table.tolist() == [poly_neg(f, a) for a in range(q)], q
        assert f.inv_table[0] == 0 and all(poly_mul(f, a, f.inv(a)) == f.one for a in range(1, q)), q
        assert f.frobenius.tolist() == [poly_pow(f, a, f.p) for a in range(q)], q
        assert f.minus_one == poly_neg(f, f.one)


def test_modulus_is_lex_least_irreducible():
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        f = make_field(p, k)
        poly = list(f.modulus) + [1]
        assert _poly_is_irreducible(poly, p)
        # every lex-smaller candidate must be reducible
        me = f.from_coeffs(f.modulus)
        for code in range(me):
            cand = list(f.coeffs(code)) + [1]
            assert not _poly_is_irreducible(cand, p)


def test_known_moduli():
    assert make_field(3, 2).modulus == (1, 0)  # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1)  # x^2 + x + 1


def test_encoding_round_trip():
    f = make_field(3, 2)
    for a in field_elements(f):
        assert f.from_coeffs(f.coeffs(a)) == a
    # int order is lex order on coefficient vectors
    assert f.coeffs(0) == (0, 0)
    assert f.coeffs(1) == (0, 1)
    assert f.coeffs(3) == (1, 0)


def test_char_p_constants():
    f9 = field_for_q(9)
    assert f9.one == 3 and f9.two == 6
    f4 = field_for_q(4)
    assert f4.two == f4.zero  # characteristic 2
    f5 = field_for_q(5)
    assert (f5.one, f5.two, f5.minus_one) == (1, 2, 4)


def test_gf9_arithmetic():
    f = field_for_q(9)  # modulus x^2 + 1
    x = f.from_coeffs((0, 1))
    x1 = f.add(x, f.one)
    # (x+1)^2 = x^2 + 2x + 1 = 2x mod (x^2+1)
    assert f.mul(x1, x1) == f.from_coeffs((0, 2))
    assert f.mul(x, x) == f.neg(f.one)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_square_census_odd_q(q):
    f = field_for_q(q)
    squares = {a for a in field_elements(f) if f.is_square(a)}
    assert len(squares) == (q + 1) // 2
    assert all(f.mul(a, a) in squares for a in field_elements(f))


def test_squares_plus_two():
    f = field_for_q(13)
    s = f.squares_plus_two()
    assert s == {1, 2, 3, 5, 6, 11, 12}
    assert 4 not in s
    f5 = field_for_q(5)
    assert f5.squares_plus_two() == {1, 2, 3}


def test_format_element():
    f = field_for_q(9)
    assert f.format_element(f.zero) == "0"
    assert f.format_element(f.one) == "1"
    assert f.format_element(f.from_coeffs((0, 1))) == "x"
    assert f.format_element(f.from_coeffs((1, 2))) == "1+2*x"
    assert field_for_q(7).format_element(4) == "4"


def test_rejections():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        field_for_q(6)
    with pytest.raises(ValueError):
        make_field(2, 20)  # over the size bound
    with pytest.raises(ZeroDivisionError):
        field_for_q(5).inv(0)


def test_huge_q_refused_before_factoring():
    # trial division would scan every p up to q; the size bound comes first
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds bound 256"):
        field_for_q(100000007)
    assert time.perf_counter() - t0 < 1


def test_field_past_the_bound_is_refused_before_allocating():
    # GF(2^9) would need 512 x 512 tables, 1 MB each
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="field size 2\\^9 exceeds bound 256"):
            GF(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0))  # x^9 + x^4 + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


def test_make_field_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_for_q(9) == make_field(3, 2)


@pytest.mark.parametrize("q", [5, 9])
def test_field_tables_are_read_only(q):
    # every group built over the field shares them
    F = field_for_q(q)
    for table in (F.add_table, F.neg_table, F.mul_table, F.inv_table, F.frobenius):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
