"""`generates` on PSL(2,q) against full closures (`oracles.closure_mask`),
and the places where a simpler trace or order rule than `_may_generate`
would fail.

Tier-1 compares the least key of every conjugation class of pairs at
q <= 13 and of every Nielsen component at q <= 27.  Compare the Nielsen
components at every prime power q <= 81, and the classes at q <= 19, with

    PYTHONPATH=src python3 tests/test_generation.py

(about a minute, and 1.3 GB at q = 64).
"""

import sys

import numpy as np
import pytest

from genlift import groupcore
from genlift.field import is_prime
from genlift.groupcore import (
    _may_generate, build_psl2, commutators, conjugacy_classes, fricke_traces, generates, matrix_entries,
    psl2_order,
)
from genlift.nielsen import _nielsen_moves, _orbits, _pair_classes
from oracles import closure_mask

PRIME_POWERS = sorted(p**k for p in range(2, 82) if is_prime(p) for k in range(1, 7) if p**k <= 81)


def _psl(q: int):
    return build_psl2(q, pair_budget=psl2_order(q) ** 2)


def _key_pairs(G, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (reps[k], y) of the keys k * n + y."""
    return conjugacy_classes(G).representatives[keys // G.n], keys % G.n


def class_pairs(G):
    """The least key of every conjugation class of pairs, as pairs."""
    return _key_pairs(G, _pair_classes(G)[0])


def component_pairs(G):
    """The least pair of every Nielsen component, generating or not."""
    classes = _pair_classes(G)
    everything = np.ones(len(classes[0]), dtype=bool)
    orbits = _orbits(G, conjugacy_classes(G), classes, _nielsen_moves, everything)[0]
    return np.array([o.canonical_rep for o in orbits], dtype=np.intp).reshape(-1, 2).T


def closure_generates(G, a, b) -> np.ndarray:
    return np.array([closure_mask(G, (x, y)).all() for x, y in zip(a.tolist(), b.tolist())], dtype=bool)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 13])
def test_generates_matches_closures_on_pair_classes(q):
    G = _psl(q)
    a, b = class_pairs(G)
    assert np.array_equal(generates(G, a, b), closure_generates(G, a, b))


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 27])
def test_generates_matches_closures_on_nielsen_components(q):
    G = _psl(q)
    a, b = component_pairs(G)
    assert np.array_equal(generates(G, a, b), closure_generates(G, a, b))


def test_two_involutions_generate_psl22():
    # PSL(2,2) = S3 is dihedral: the dihedral clause would rule out its
    # generating pairs, so q = 2 takes closures only
    G = _psl(2)
    inv = np.flatnonzero(G.orders == 2)
    a, b = np.broadcast_arrays(inv[:, None], inv)
    assert np.array_equal(generates(G, a, b), a != b)
    assert not _may_generate(G, *fricke_traces(G, a, b)).any()


@pytest.mark.parametrize("q, count", [(3, 96), (4, 2280), (5, 2280)])
def test_generating_pairs_of_a4_and_a5(q, count):
    # the stop is |G|/2 = 6 or 30 here, below 60; the A4 count is 144 minus
    # the 48 pairs in V4 or one of the four C3 (inclusion-exclusion), the A5
    # count 19 Aut-classes of 120 (P. Hall 1936).  test_groupcore compares
    # every pair of these groups with the closure oracle.
    G = _psl(q)
    assert generates(G, np.arange(G.n)[:, None], np.arange(G.n)).sum() == count


@pytest.mark.parametrize("q, count", [(9, 7), (11, 1)])
def test_element_orders_do_not_bound_the_subgroup(q, count):
    # every element of PSL(2,9) = A6 has order <= 5, as in A5: a rule that
    # calls a pair non-generating when a, b, ab, ab^-1 and [a, b] all have
    # order <= 5 fails on `count` generating components
    G = _psl(q)
    a, b = component_pairs(G)
    o = G.orders
    small = np.logical_and.reduce([o[e] <= 5 for e in (a, b, G.mul(a, b), G.mul(a, G.inv[b]), commutators(G, a, b))])
    got = generates(G, a, b)
    assert np.array_equal(got, closure_generates(G, a, b))
    assert (small & got).sum() == count


@pytest.mark.parametrize("q, sub", [(8, 2), (16, 4), (25, 5), (27, 3)])
def test_subfield_pairs_do_not_generate(q, sub):
    # PSL(2,sub), the elements with entries in GF(sub): every pair of them is
    # ruled out by its traces, and some pair generates all of PSL(2,sub)
    G = _psl(q)
    in_sub = np.array([G.field.pow(v, sub) == v for v in range(q)])
    elts = np.flatnonzero(np.logical_and.reduce([in_sub[v] for v in matrix_entries(G)]))
    assert len(elts) == psl2_order(sub)
    a, b = np.broadcast_arrays(elts[:, None], elts)
    assert not _may_generate(G, *fricke_traces(G, a, b)).any()
    assert not generates(G, a, b).any()
    assert max(closure_mask(G, pair).sum() for pair in zip(a.flat, b.flat)) == psl2_order(sub)


def test_pgl_over_a_subfield_is_ruled_out_by_squared_traces():
    # PGL(2,5) = S5 in PSL(2,25): Nielsen components with a trace outside
    # GF(5), but their squared traces and xyz inside it, neither reducible nor
    # dihedral; the subfield clause alone rules them out, and the largest
    # subgroup among them is S5
    G = _psl(25)
    a, b = component_pairs(G)
    x, y, z, tau = fricke_traces(G, a, b)
    f, mul = G.field, G.field.mul_table
    in_sub = np.array([f.pow(v, 5) == v for v in range(25)])
    squares = in_sub[mul[x, x]] & in_sub[mul[y, y]] & in_sub[mul[z, z]] & in_sub[mul[mul[x, y], z]]
    dihedral = np.count_nonzero([x == 0, y == 0, z == 0], axis=0) >= 2
    pgl = squares & ~(in_sub[x] & in_sub[y] & in_sub[z]) & (tau != f.two) & ~dihedral
    assert not _may_generate(G, x, y, z, tau)[pgl].any()
    assert max(closure_mask(G, pair).sum() for pair in zip(a[pgl], b[pgl])) == 120


def main() -> int:
    """The Nielsen-component comparison at every prime power q <= 81 and the
    class comparison at q <= 19, one q at a time with the kept groups dropped
    in between; exit 1 on any disagreement."""
    bad = 0
    for q in PRIME_POWERS:
        G = _psl(q)
        for what, pairs in [("components", component_pairs)] + [("classes", class_pairs)] * (q <= 19):
            a, b = pairs(G)
            got, want = generates(G, a, b), closure_generates(G, a, b)
            bad += not np.array_equal(got, want)
            print(f"q={q} {what}={len(a)} generating={int(want.sum())} agree={np.array_equal(got, want)}", flush=True)
        groupcore._BUILT.clear()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
