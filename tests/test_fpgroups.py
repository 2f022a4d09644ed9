import itertools
import random

import pytest

from genlift import fpgroups
from genlift.fpgroups import (
    CosetEnumerationOverflow,
    CosetTable,
    PresentationParseError,
    Word,
    abelianization,
    group_from_coset_table,
    invariant_factors,
    parse_presentation,
    parse_word,
    smith_normal_form,
    todd_coxeter,
)
from genlift.groupcore import PairBudgetExceeded
from oracles import coset_cayley_table, element_order, invariant_factors_via_minors, validate_group


def enumerate_order(text, max_cosets=10**5):
    return todd_coxeter(parse_presentation(text), max_cosets=max_cosets).coset_count


# -- coset enumeration sanity -------------------------------------------------


def test_cyclic_5():
    assert enumerate_order("gens: x\nrels: x^5") == 5


def test_columns_are_generator_then_inverse():
    # action[c][2g] is c g and action[c][2g + 1] is c g^-1, cosets numbered as defined
    table = todd_coxeter(parse_presentation("gens: x\nrels: x^5"))
    assert table.action == [[1, 4], [2, 0], [3, 1], [4, 2], [0, 3]]


def test_symmetric_3():
    assert enumerate_order("gens: x y\nrels: x^3 y^2 (xy)^2") == 6


def test_quaternion_8():
    pres = "gens: a b\nrels: a^4 a^2b^-2 b^-1aba"
    assert enumerate_order(pres) == 8
    G = group_from_coset_table(todd_coxeter(parse_presentation(pres)))
    validate_group(G)
    assert sorted(G.orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]


@pytest.mark.parametrize(
    "pres",
    ["gens: x\nrels: x", "gens: x y\nrels: x^3 y^2 (xy)^2", "gens: a b\nrels: a^4 a^2b^-2 b^-1aba",
     "gens: x y\nrels: x^3 y^3 [x,y]^2"],
    ids=["trivial", "S3", "Q8", "miller"],
)
def test_miller_table_entry_for_entry(pres):
    table = todd_coxeter(parse_presentation(pres))
    G = group_from_coset_table(table)
    assert G.mult.tolist() == coset_cayley_table(table)
    validate_group(G)
    assert G.orders.tolist() == [element_order(G, g) for g in range(G.n)]


def test_non_regular_coset_table_refused():
    pres = parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")
    table = todd_coxeter(pres, subgroup_gens=[parse_word("x", pres.generators)])
    with pytest.raises(ValueError, match="regular representation"):
        group_from_coset_table(table)


def test_intransitive_coset_table_refused():
    # one generator fixing both cosets: coset 1 is not reached from coset 0
    with pytest.raises(ValueError, match="not transitive"):
        group_from_coset_table(CosetTable(1, 2, [[0, 0], [1, 1]]))


def test_coset_table_group_refused_over_budget(monkeypatch):
    table = todd_coxeter(parse_presentation("gens: x\nrels: x^4"))
    assert group_from_coset_table(table, pair_budget=16).n == 4  # 4^2 = 16 entries, at the bound

    def no_table(*args):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(fpgroups, "_regular_rows", no_table)
    with pytest.raises(PairBudgetExceeded):
        group_from_coset_table(table, pair_budget=10)


@pytest.mark.parametrize("m", range(3, 9))
def test_dihedral_2m(m):
    assert enumerate_order(f"gens: r s\nrels: r^{m} s^2 (sr)^2") == 2 * m


def test_subgroup_index():
    pres = parse_presentation("gens: x y\nrels: x^3 y^2 (xy)^2")
    sub = (parse_word("x", pres.generators),)
    assert todd_coxeter(pres, subgroup_gens=sub).coset_count == 2


def test_miller_group():
    table = todd_coxeter(parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2"))
    assert table.coset_count == 288


def test_overflow():
    with pytest.raises(CosetEnumerationOverflow):
        enumerate_order("gens: x y\nrels:", max_cosets=1000)


def test_table_is_consistent_action():
    table = todd_coxeter(parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2"))
    pres = parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")
    for rel in pres.relators:
        for c in range(table.coset_count):
            assert table.trace(c, rel) == c


# -- parsing ------------------------------------------------------------------


def test_word_parsing():
    gens = ("x", "y")
    assert parse_word("x y^-1", gens).letters == ((0, 1), (1, -1))
    assert parse_word("x^3", gens).letters == ((0, 1),) * 3
    assert parse_word("[x,y]", gens).letters == (
        (0, -1), (1, -1), (0, 1), (1, 1),
    )
    assert parse_word("(x y)^2", gens).letters == ((0, 1), (1, 1)) * 2
    # free reduction
    assert parse_word("x x^-1 y", gens).letters == ((1, 1),)
    assert parse_word("(x y x^-1)^3", gens).letters == ((0, 1), (1, 1), (1, 1), (1, 1), (0, -1))
    # each word is reduced once; building it factor copy by factor copy took seconds
    assert len(parse_word("x^16000", gens)) == 16000
    assert len(parse_word("xy" * 4000, gens)) == 8000


def test_word_algebra():
    gens = ("a", "b")
    w = parse_word("a b", gens)
    assert (w * w.inverse()).letters == ()
    assert w.inverse().letters == ((1, -1), (0, -1))


def test_parse_errors_carry_position():
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation("gens: x\nrels: x^^2")
    assert exc.value.line == 2
    with pytest.raises(PresentationParseError):
        parse_presentation("rels: x")
    # a misplaced line points at its first non-blank character
    for text, position in [("   rels: x", (1, 4)), ("gens: x\n  foo", (2, 3))]:
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.column) == position, text
    with pytest.raises(PresentationParseError):
        parse_presentation("gens: x\nrels: z")
    with pytest.raises(PresentationParseError):
        parse_presentation("gens: x\nrels: (x")
    # the column of a token that also occurs inside an earlier one
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation("gens: x y\nrels: xy^2 y^")
    assert (exc.value.line, exc.value.column) == (2, 14)
    # generator names: one gens line, each name once, each an identifier
    for text, position in [
        ("gens: x y\nrels: x^2\ngens: b a", (3, 1)),
        ("gens: x\n  gens: x", (2, 3)),
        ("gens: x x", (1, 9)),
        ("gens: ab a ab", (1, 12)),
        ("gens: [ y", (1, 7)),
        ("gens: x,y", (1, 7)),
        ("gens: x 2y", (1, 9)),
        ("  gens:  # none", (1, 8)),
    ]:
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.column) == position, text
    assert parse_presentation("gens: _a x1 X_2\nrels: _a x1 X_2").generators == ("_a", "x1", "X_2")


def test_comments_and_blank_lines():
    pres = parse_presentation("# a cyclic group\ngens: x\n\nrels: x^5  # order five\n")
    assert pres.generators == ("x",)
    assert len(pres.relators) == 1


# -- Smith normal form --------------------------------------------------------

# the clear-and-swap elimination ran away on this matrix, its entries past
# 4 300 digits within 5 s
RUNAWAY_6X6 = [
    [0, 5, -3, 0, 12, -4],
    [-5, 9, 5, -9, -2, 9],
    [-10, 2, 0, -6, -10, 0],
    [12, 0, 12, 0, 12, 0],
    [-9, -5, -8, -11, -9, 7],
    [0, -4, 7, 5, -3, 0],
]


def test_snf_fixed_cases():
    _, diag = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    _, diag = smith_normal_form([[6, 0], [0, 4]])
    assert diag == [2, 12]
    assert invariant_factors([[0, 0], [0, 0]]) == [0, 0]
    D, diag = smith_normal_form(RUNAWAY_6X6)
    assert diag == [1, 1, 1, 1, 6, 257064] == invariant_factors_via_minors(RUNAWAY_6X6)
    assert D == [[d if i == j else 0 for j in range(6)] for i, d in enumerate(diag)]


def test_snf_vs_minor_gcd_oracle():
    rng = random.Random(2026)
    shapes = ((rng.randrange(1, 6), rng.randrange(1, 6), 9) for _ in range(1000))
    # at 6 x 6 and up the clear-and-swap elimination ran away on some matrices
    shapes = itertools.chain(shapes, [(6, n, 12) for n in (6, 7) for _ in range(30)])
    for m, n, bound in shapes:
        rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]
        _, diag = smith_normal_form(rows)
        nonzero = [d for d in diag if d != 0]
        assert nonzero == invariant_factors_via_minors(rows)
        # divisibility chain
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


# -- abelianization -----------------------------------------------------------


def test_abelianization():
    assert abelianization(parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]")) == [3, 3]
    assert abelianization(parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")) == [3, 3]
    assert abelianization(parse_presentation("gens: x\nrels: x^6")) == [6]
    assert abelianization(parse_presentation("gens: x y\nrels: x^2 y^3 [x,y]")) == [6]
    assert abelianization(parse_presentation("gens: x\nrels:")) == [0]
    assert abelianization(parse_presentation("gens: x y\nrels: [x,y]")) == [0, 0]
    # one relator per row of RUNAWAY_6X6, its entries the exponent sums
    gens = "abcdef"
    rels = ["".join(f"{g}^{e}" for g, e in zip(gens, row) if e) for row in RUNAWAY_6X6]
    text = f"gens: {' '.join(gens)}\nrels: {' '.join(rels)}"
    assert abelianization(parse_presentation(text)) == [6, 257064]


def test_abelianization_invariant_under_relator_order():
    a = abelianization(parse_presentation("gens: x y\nrels: x^4 y^2 [x,y]"))
    b = abelianization(parse_presentation("gens: x y\nrels: [x,y] y^2 x^4"))
    assert a == b == [2, 4]
