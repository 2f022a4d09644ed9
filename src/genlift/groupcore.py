"""Finite groups as indexed element sets with dense multiplication tables.

Builders for SL(2,q), PSL(2,q) and dihedral groups, plus the
generic queries the orbit machinery needs: subgroup closure, generation
testing, conjugacy classes, derived series.

The SL/PSL, dihedral and coset-table builders compute only the rows of a
few generators directly and compose every other row from them
(`_cayley_table`), so a build costs a few field-table rows plus |G|
row gathers, made a bounded block of rows at a time.  Table entries are
int16 up to 2^15 elements, int32 beyond (`_table_dtype`).  SL(2,q) is
listed directly, q^3 - q matrices from the field tables, not filtered
from the q^4 grid of entries.

The pair budget is the one size limit: the n x n table holds one entry
per pair, and every builder of a table (these three and
`fpgroups.group_from_coset_table`) passes its predicted order to
`check_pair_budget` before it lists any element.

Element indexing is by lex order of canonical matrix entries (matrix
groups) or by the obvious shift/reflection layout (dihedral), so element
indices, orbit representatives and reports are reproducible across runs.
A matrix group keeps its sorted packed elements; `_matrix_indices`
(canonicalize, then binary search) is its one map back to indices, and
`matrix_entries` unpacks them into the entry arrays (a, b, c, d) that
vectorized callers compute with.  Its `labels`, one matrix object per
element, are built only when something reads them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .field import GF, field_for_q
from .matrices import Mat2, PslElement

DEFAULT_PAIR_BUDGET = 2 * 10**7


class PairBudgetExceeded(ValueError):
    """A group's n x n table would exceed the pair budget."""


def check_pair_budget(order: int, pair_budget: int) -> None:
    """Refuse a group of this order whose order^2 table entries, one per
    pair, exceed the budget."""
    if order * order > pair_budget:
        raise PairBudgetExceeded(
            f"group order {order} needs {order * order} table entries; budget is {pair_budget}"
        )


class FiniteGroup:
    """Indexed finite group with dense multiplication/inverse/order tables.

    `mult` is n x n; `inv` has its dtype (int16 from the builders up to
    2^15 elements), so a value read from either must be widened before
    it is packed into a pair id such as first * n + second.

    A matrix group (SL/PSL) also keeps `elements`, its sorted packed
    matrices; its `labels`, a Mat2 (SL) or PslElement (PSL) per element,
    are built from them on first read.  Other groups take their labels, if
    any, at construction.  `_classes` keeps the conjugacy classes and
    `_nielsen` the records and rep rows of the Nielsen decomposition,
    once computed.
    """

    def __init__(
        self,
        name: str,
        mult: np.ndarray,
        identity: int,
        labels: Optional[list] = None,
        field: Optional[GF] = None,
        kind: str = "generic",
    ):
        self.name = name
        self.n = mult.shape[0]
        self.mult = mult
        self.identity = identity
        if labels is not None:
            self.labels = labels
        self.field = field
        self.kind = kind
        self.orders, self.inv = self._orders_and_inverses()
        self._classes: Optional[ConjugacyClasses] = None
        self._nielsen: Optional[tuple] = None  # (records, rep rows), set by decompose_nielsen_orbits
        self.elements: Optional[np.ndarray] = None  # sorted packed matrices

    @functools.cached_property
    def labels(self) -> Optional[list]:
        if self.elements is None:
            return None
        return _matrix_labels(self.field, *matrix_entries(self), self.kind)

    # -- table derivation --

    def _orders_and_inverses(self) -> tuple[np.ndarray, np.ndarray]:
        """Element orders by walking the powers g, g^2, ... of every element
        at once; the last power before the identity is g^(ord-1) = g^-1."""
        g = np.arange(self.n, dtype=self.mult.dtype)
        power = g.copy()
        inv = g.copy()
        orders = np.ones(self.n, dtype=np.int32)
        live = np.flatnonzero(power != self.identity)
        for _ in range(self.n):  # no order exceeds n
            if not live.size:
                return orders, inv
            inv[live] = power[live]
            power[live] = self.mult[power[live], live]
            orders[live] += 1
            live = live[power[live] != self.identity]
        raise ValueError("not a group table: some power walk misses the identity")

    # -- element access --

    def mul(self, i: int, j: int) -> int:
        return int(self.mult[i, j])

    def inv_of(self, i: int) -> int:
        return int(self.inv[i])

    def order_of(self, i: int) -> int:
        return int(self.orders[i])

    def commutator(self, i: int, j: int) -> int:
        m = self.mult
        return int(m[m[self.inv[i], self.inv[j]], m[i, j]])

    def matrix(self, i: int) -> Mat2:
        """The matrix of element i (its sign representative in PSL), from its packed entries."""
        return Mat2(self.field, *(int(e) for e in _unpack(self.elements[i], self.field.q)))

    def index_of_matrix(self, m) -> int:
        """Index of an SL matrix / PSL element in a matrix-group build."""
        if self.elements is None:
            raise ValueError("group carries no matrix labels")
        if not isinstance(m, (Mat2, PslElement)):
            raise TypeError("expected Mat2 or PslElement")
        return int(_matrix_indices(self.field, self.elements, self.kind, m.packed()))

    # -- structural checks (exercised by the test suite) --

    def validate(self) -> None:
        n = self.n
        ref = np.arange(n)
        expected = np.tile(ref, (n, 1))
        if not np.array_equal(np.sort(self.mult, axis=1), expected):
            raise AssertionError("some row is not a permutation")
        if not np.array_equal(np.sort(self.mult, axis=0), expected.T):
            raise AssertionError("some column is not a permutation")
        if not np.array_equal(self.mult[self.identity], ref):
            raise AssertionError("identity fails on the left")
        if not np.array_equal(self.mult[:, self.identity], ref):
            raise AssertionError("identity fails on the right")
        if not np.all(self.mult[ref, self.inv] == self.identity):
            raise AssertionError("inverse table broken")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.n})"


@dataclass
class ConjugacyClasses:
    class_of: np.ndarray
    representatives: list[int]  # the least member of each class
    conjugator: np.ndarray  # x with x a x^-1 = representatives[class_of[a]]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# rows composed per block: _BLOCK_ENTRIES // n, so no step allocates an n x n temporary
_BLOCK_ENTRIES = 1 << 18


def _table_dtype(n: int) -> type:
    """The entry type of an n x n table: int16 while every index
    0..n-1 fits (n <= 2^15), int32 beyond."""
    return np.int16 if n <= 1 << 15 else np.int32


def _cayley_table(n: int, identity: int, row_of: Callable[[int], np.ndarray]) -> np.ndarray:
    """The n x n multiplication table from the rows of a few generators.

    Each generator is the least element that has no row yet, and
    `row_of(g)` computes its row directly.  Every other row is composed
    breadth-first: (s p) x = s (p x), so mult[s p] = mult[s][mult[p]],
    a block of rows at a time through one reused buffer.
    """
    mult = np.empty((n, n), dtype=_table_dtype(n))
    mult[identity] = np.arange(n)
    done = np.zeros(n, dtype=bool)
    done[identity] = True
    block = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((block, n), dtype=mult.dtype)
    gens: list[int] = []
    while not done.all():
        s = int(np.argmin(done))
        mult[s] = row_of(s)
        done[s] = True
        gens.append(s)
        frontier = np.flatnonzero(done)
        while frontier.size:
            reached = []
            for g in gens:
                prod = mult[g, frontier]
                new = ~done[prod]
                # p -> g p is injective, so the new products are distinct
                targets, sources = prod[new], frontier[new]
                for k in range(0, len(targets), block):
                    t = targets[k : k + block]
                    out = buf[: len(t)]
                    # every index is in range; mode "raise" would buffer the output
                    np.take(mult[g], mult[sources[k : k + block]], out=out, mode="clip")
                    mult[t] = out
                done[targets] = True
                reached.append(targets)
            frontier = np.concatenate(reached)
    return mult


def _sl2_matrices(f: GF) -> np.ndarray:
    """All q^3 - q det-1 matrices as packed ints, sorted (= lex order of
    entries): for a = 0, any b != 0, c = -1/b and any d; for a != 0, any
    b, c and d = (1 + bc)/a.  Both blocks are listed in lex order, the
    first below the second."""
    q, mulT, addT, invT = f.q, f.mul_table, f.add_table, f.inv_table
    b0, d0 = np.indices((q - 1, q)).reshape(2, -1)
    b0 += 1
    a, b, c = np.indices((q - 1, q, q)).reshape(3, -1)
    a += 1
    d = mulT[addT[f.one, mulT[b, c]], invT[a]]
    return np.concatenate([_pack(q, 0, b0, f.neg_table[invT[b0]], d0), _pack(q, a, b, c, d)])


def _pack(q: int, a, b, c, d) -> np.ndarray:
    """Entries packed into one int each; int order = lex order on entries."""
    return ((np.asarray(a, dtype=np.int64) * q + b) * q + c) * q + d


def _unpack(packed: np.ndarray, q: int) -> tuple[np.ndarray, ...]:
    return packed // q**3, packed // q**2 % q, packed // q % q, packed % q


def _negated(f: GF, packed: np.ndarray) -> np.ndarray:
    """Packed -M of packed matrices M."""
    return _pack(f.q, *(f.neg_table[e] for e in _unpack(packed, f.q)))


def _matrix_indices(f: GF, elements: np.ndarray, kind: str, packed) -> np.ndarray:
    """Indices of packed det-1 matrices among the sorted packed elements
    of a matrix group: PSL takes the sign representative min(M, -M)
    first, then a binary search finds each one.  KeyError if some matrix
    is not an element (det != 1 included)."""
    packed = np.asarray(packed, dtype=np.int64)
    if kind == "psl2":
        packed = np.minimum(packed, _negated(f, packed))
    idx = np.minimum(np.searchsorted(elements, packed), len(elements) - 1)
    if not np.array_equal(elements[idx], packed):
        raise KeyError("matrix is not an element of the group")
    return idx


def _matrix_group(name: str, f: GF, packed: np.ndarray, kind: str) -> FiniteGroup:
    """Shared SL/PSL construction from the sorted packed element matrices.

    Generator rows are products over the field tables, mapped back to
    indices by `_matrix_indices`, the group's one index map.
    """
    q = f.q
    a, b, c, d = _unpack(packed, q)
    mulT, addT = f.mul_table, f.add_table

    def row_of(i: int) -> np.ndarray:
        na = addT[mulT[a[i], a], mulT[b[i], c]]
        nb = addT[mulT[a[i], b], mulT[b[i], d]]
        nc = addT[mulT[c[i], a], mulT[d[i], c]]
        nd = addT[mulT[c[i], b], mulT[d[i], d]]
        return _matrix_indices(f, packed, kind, _pack(q, na, nb, nc, nd))

    ident = int(_matrix_indices(f, packed, kind, _pack(q, f.one, 0, 0, f.one)))
    g = FiniteGroup(name, _cayley_table(len(packed), ident, row_of), ident, field=f, kind=kind)
    g.elements = packed
    return g


def matrix_entries(G: FiniteGroup) -> tuple[np.ndarray, ...]:
    """The entry arrays (a, b, c, d) of all elements of a matrix group, by index."""
    return _unpack(G.elements, G.field.q)


def entry_perm(G: FiniteGroup, entry_map: Callable) -> np.ndarray:
    """Index permutation of a matrix group induced by a map on the entry
    arrays (a, b, c, d) of all its elements, re-canonicalized."""
    images = _pack(G.field.q, *entry_map(*matrix_entries(G)))
    return _matrix_indices(G.field, G.elements, G.kind, images)


def _matrix_labels(f: GF, a, b, c, d, kind: str) -> list:
    mats = [Mat2(f, int(a[i]), int(b[i]), int(c[i]), int(d[i])) for i in range(len(a))]
    if kind == "psl2":
        return [PslElement(m) for m in mats]
    return mats


def build_sl2(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """SL(2,q); order q(q^2-1); elements indexed in lex order of entries."""
    f = field_for_q(q)
    check_pair_budget(q * (q * q - 1), pair_budget)
    return _matrix_group(f"SL(2,{q})", f, _sl2_matrices(f), "sl2")


def psl2_order(q: int) -> int:
    """|PSL(2,q)| = q(q^2-1)/gcd(2,q-1), without building the group."""
    field_for_q(q)  # rejects q that is not a prime power
    return q * (q * q - 1) // (2 if q % 2 else 1)


def build_psl2(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """PSL(2,q) via canonical sign representatives min(M, -M) of SL(2,q)."""
    check_pair_budget(psl2_order(q), pair_budget)
    f = field_for_q(q)
    sl = _sl2_matrices(f)
    # the sign representatives M <= -M of the sorted list stay sorted and distinct
    return _matrix_group(f"PSL(2,{q})", f, sl[sl <= _negated(f, sl)], "psl2")


def build_dihedral(m: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """Dihedral group of order 2m: indices 0..m-1 shifts, m..2m-1 reflections."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m
    check_pair_budget(n, pair_budget)
    j = np.arange(m)

    def row_of(g: int) -> np.ndarray:
        i = g % m
        if g < m:  # shift * shift, shift * reflection
            return np.concatenate([(i + j) % m, m + (i + j) % m])
        return np.concatenate([m + (i - j) % m, (i - j) % m])  # reflection * (shift, reflection)

    labels = [("shift", j) for j in range(m)] + [("reflection", j) for j in range(m)]
    return FiniteGroup(f"D{2 * m}", _cayley_table(n, 0, row_of), 0, labels=labels, kind="dihedral")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def closure_mask(G: FiniteGroup, gens: Sequence[int]) -> np.ndarray:
    """Boolean membership array of <gens>, by BFS from the identity.

    Right multiplication by the generators reaches exactly the generated
    subgroup, since every generator has finite order.
    """
    if len(gens) == 0:
        raise ValueError("gens must be nonempty")
    garr = np.asarray(sorted(set(int(g) for g in gens)), dtype=np.int64)
    visited = np.zeros(G.n, dtype=bool)
    visited[G.identity] = True
    frontier = np.array([G.identity], dtype=np.int64)
    while frontier.size:
        # a boolean mask dedupes the next frontier without a sort
        fresh = np.zeros(G.n, dtype=bool)
        fresh[G.mult[frontier[:, None], garr]] = True
        fresh &= ~visited
        visited |= fresh
        frontier = np.flatnonzero(fresh)
    return visited


def commutators(G: FiniteGroup, i, j) -> np.ndarray:
    """The commutators [i, j] = i^-1 j^-1 i j, elementwise over broadcast index arrays."""
    m = G.mult
    return m[m[G.inv[i], G.inv[j]], m[i, j]]


def closure_size(G: FiniteGroup, gens: Sequence[int]) -> int:
    return int(closure_mask(G, gens).sum())


def generates(G: FiniteGroup, g1: int, g2: int) -> bool:
    return closure_size(G, (g1, g2)) == G.n


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    if G._classes is not None:
        return G._classes
    n = G.n
    class_of = np.full(n, -1, dtype=np.int32)
    conjugator = np.empty(n, dtype=np.int64)
    reps: list[int] = []
    allx = np.arange(n)
    for g in range(n):
        if class_of[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        cls = G.mult[G.mult[G.inv, g], allx]  # x^-1 g x for every x
        class_of[cls] = cid
        conjugator[cls] = allx
    G._classes = ConjugacyClasses(class_of=class_of, representatives=reps, conjugator=conjugator)
    return G._classes


def derived_series(G: FiniteGroup) -> list[np.ndarray]:
    """[G, G', G'', ...] as sorted index arrays, until the series stabilizes."""
    current = np.arange(G.n)
    series = [current]
    while True:
        x = np.repeat(current, len(current))
        y = np.tile(current, len(current))
        gens = np.flatnonzero(np.bincount(commutators(G, x, y), minlength=G.n))
        if len(gens) == 1 and gens[0] == G.identity:
            nxt = np.array([G.identity])
        else:
            nxt = np.flatnonzero(closure_mask(G, gens))
        if len(nxt) == len(current):
            break
        series.append(nxt)
        current = nxt
        if len(current) == 1:
            break
    return series


def is_mn_generated(G: FiniteGroup, m: int, n: int) -> bool:
    """Whether some pair (g1,g2) with g1^m = g2^n = 1 generates G.

    g1 only runs over conjugacy class representatives; generation is
    invariant under simultaneous conjugation and g2 runs over everything.
    """
    classes = conjugacy_classes(G)
    cands1 = [g for g in classes.representatives if m % G.order_of(g) == 0]
    cands2 = [g for g in range(G.n) if n % G.order_of(g) == 0]
    for g1 in cands1:
        for g2 in cands2:
            if generates(G, g1, g2):
                return True
    return False
