"""Finite groups as indexed element sets with stored multiplication rows.

Builders for SL(2,q), PSL(2,q) and dihedral groups, plus the
generic queries the orbit machinery needs: subgroup closure, generation
testing, centralizer generators, conjugacy classes, derived series.
Every query reads products through `FiniteGroup.mul` and conjugates
through `FiniteGroup.conj`, elementwise over broadcast index arrays.

Every subgroup closure goes through `_closures`, a breadth-first search
that runs P closures in lockstep on the flat ids p * n + e: one step
reads the products of every row's generators with that row's frontier
and dedupes the new ids by sorting.  A generation test (`generates`,
elementwise over index arrays) stops a row once it has reached more
than n/2 elements, as a subgroup of index below 2 is G.  The greedy
centralizer generators of all class representatives are picked in
lockstep rounds of it and kept with the conjugacy classes.

Dihedral and coset-table groups store the dense n x n table.  SL and PSL
store no such table: every element factors as x = u v, u in the q + 1
elements L(t) = (1 0; t 1) and w = (0 1; -1 0), v in the Borel subgroup
B of upper triangular matrices, so x y = u (v y) reads the rows of v and
u, and x y x^-1 reads their conjugation rows; the rows of U and B are
2(q + 1 + |B|) x n entries, 2.5 MB at q = 19 where the dense table took
22.3 MB (`_matrix_group`).  Every builder computes only the rows of a
few generators directly and composes every other row of a subgroup from
them by right multiplication (`_compose_rows`):
row[p s] = row[p][row[s]], row p read through the row of generator s.
That index is each generator's row, widened once, so a build costs a
few field-table rows plus one row gather per stored row at fixed
indices, made a bounded block of rows at a time; the dense table is the
case where the subgroup is G (`_cayley_table`).  Table entries are int16
up to 2^15 elements, int32 beyond (`_table_dtype`); stored orbit, key
and pair ids are int32 while they fit, int64 beyond (`_id_dtype`).
SL(2,q) is listed directly, q^3 - q matrices from the field tables, not
filtered from the q^4 grid of entries.

The pair budget is the one size limit: it counts one entry per pair of
elements, n^2, and every builder (these three and
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

from .field import GF, TABLE_LIMIT, field_for_q
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
    """Indexed finite group with a stored multiplication table, inverse and
    order arrays; `mul` is its one product and `conj` its conjugation.

    `mult` holds the stored rows: a dense group stores all n x n products
    (row x is x y for every y).  A matrix group (SL/PSL) factors every
    element x = u v (`_matrix_group`) and stores 2R rows for the R
    elements of U and B: their products, then their conjugations
    y -> e y e^-1; `factors` = (u_row, v_row) gives the places of u and v
    among the R.  `inv` has the entry dtype (int16 from the builders up to
    2^15 elements), so a value read from it, `mul` or `conj` must be
    widened before it is packed into a pair id such as first * n + second.

    A matrix group also keeps `elements`, its sorted packed matrices; its
    `labels`, a Mat2 (SL) or PslElement (PSL) per element, are built from
    them on first read.  Other groups take their labels, if any, at
    construction.  `_classes` keeps the conjugacy classes, once computed.
    """

    def __init__(
        self,
        name: str,
        mult: np.ndarray,
        identity: int,
        labels: Optional[list] = None,
        field: Optional[GF] = None,
        kind: str = "generic",
        factors: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        self.name = name
        self.n = mult.shape[1]
        self.mult = mult
        # flat offsets of the rows of u and v: (u, v) for products, then for
        # conjugations, which fill the second half of mult
        self._factors = None
        if factors is not None:
            u, v = (np.asarray(r, dtype=np.intp) * self.n for r in factors)
            half = mult.size // 2
            self._factors = ((u, v), (u + half, v + half))
        self.identity = identity
        if labels is not None:
            self.labels = labels
        self.field = field
        self.kind = kind
        self.orders, self.inv = self._orders_and_inverses()
        self._classes: Optional[ConjugacyClasses] = None
        self.elements: Optional[np.ndarray] = None  # sorted packed matrices

    @functools.cached_property
    def labels(self) -> Optional[list]:
        if self.elements is None:
            return None
        return _matrix_labels(self.field, *matrix_entries(self), self.kind)

    def mul(self, a, b) -> np.ndarray:
        """The products a b, elementwise over broadcast index arrays of any
        integer type, in the table's entry type, by flat gathers: mult[a, b]
        for a dense table; u (v b) for a factored one, a = u v, through the
        rows of v and then u."""
        if self._factors is None:
            return self.mult.reshape(-1).take(np.multiply(a, self.n, dtype=np.intp) + b)
        return self._through_factors(self._factors[0], a, b)

    def conj(self, x, b) -> np.ndarray:
        """The conjugates x b x^-1, elementwise over broadcast index arrays,
        in the table's entry type.  For a factored table, conjugation by
        x = u v is conjugation by v and then by u, read from the stored
        conjugation rows at the gathers of one product."""
        if self._factors is None:
            return self.mul(self.mul(x, b), self.inv[x])
        return self._through_factors(self._factors[1], x, b)

    def _through_factors(self, offsets: tuple[np.ndarray, np.ndarray], a, b) -> np.ndarray:
        flat, (u, v) = self.mult.reshape(-1), offsets
        return flat.take(u.take(a) + flat.take(v.take(a) + b))

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
            power[live] = self.mul(live, power[live])
            orders[live] += 1
            live = live[power[live] != self.identity]
        raise ValueError("not a group table: some power walk misses the identity")

    # -- element access --

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

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.n})"


@dataclass
class ConjugacyClasses:
    class_of: np.ndarray
    representatives: list[int]  # the least member of each class
    conjugator: np.ndarray  # x with x a x^-1 = representatives[class_of[a]]
    centralizer_gens: Optional[list[np.ndarray]] = None  # set by centralizer_generators
    pair_classes: Optional[tuple[np.ndarray, np.ndarray]] = None  # set by nielsen._pair_classes


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# entries per block: table composition, `_closures` and `derived_series` work
# _BLOCK_ENTRIES // n rows at a time, so no step allocates an n x n temporary
_BLOCK_ENTRIES = 1 << 18


def _table_dtype(n: int) -> type:
    """The entry type of an n x n table: int16 while every index
    0..n-1 fits (n <= 2^15), int32 beyond."""
    return np.int16 if n <= 1 << 15 else np.int32


def _id_dtype(bound: int) -> type:
    """The type of stored ids below `bound`, such as orbit ids and keys
    (bound K * n) or pair ids first * n + second (bound n^2): int32 while
    bound < 2^31, int64 from there.  Gather indices stay intp, since
    numpy converts a narrower index array on every take."""
    return np.int32 if bound < 1 << 31 else np.int64


def _compose_rows(
    rows: np.ndarray, members: np.ndarray, identity: int, row_of: Callable,
    products: Optional[np.ndarray] = None,
) -> None:
    """Fill rows[i] with the row of members[i] under an action of one
    subgroup on the n elements whose rows compose like permutations,
    row[p s] = row[p][row[s]]: left multiplication (row x is x y for
    every y), or conjugation with `products`, the left multiplication
    rows of the same members.

    Each generator is the first member, in the order given, that has no
    row yet, and `row_of(g)` computes its row directly.  Every other row
    is composed breadth-first by right multiplication inside the
    subgroup, the products p s read at column s of the left
    multiplication rows (`products`, by default `rows` itself).  The
    index is generator s's row, widened to intp once, and the source rows
    are read through it a block at a time into one reused buffer, then
    written straight into `rows`.
    """
    n, products = rows.shape[1], rows if products is None else products
    local = np.full(n, -1, dtype=np.intp)  # element -> its place in members
    local[members] = np.arange(len(members))
    rows[local[identity]] = np.arange(n)
    done = np.zeros(len(members), dtype=bool)
    done[local[identity]] = True
    block = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((block, n), dtype=rows.dtype)
    gens: list[tuple[int, np.ndarray]] = []  # (generator, its row as intp)
    while not done.all():
        s = int(np.argmin(done))
        rows[s] = row_of(int(members[s]))
        done[s] = True
        gens.append((int(members[s]), rows[s].astype(np.intp)))
        frontier = np.flatnonzero(done)
        while frontier.size:
            reached = []
            for g, g_row in gens:
                prod = local[products[frontier, g]]
                new = ~done[prod]
                # p -> p g is injective, so the new products are distinct
                targets, sources = prod[new], frontier[new]
                for k in range(0, len(targets), block):
                    t = targets[k : k + block]
                    out = buf[: len(t)]
                    # every index is in range; mode "raise" would buffer the output
                    np.take(rows[sources[k : k + block]], g_row, axis=1, out=out, mode="clip")
                    rows[t] = out
                done[targets] = True
                reached.append(targets)
            frontier = np.concatenate(reached)


def _cayley_table(n: int, identity: int, row_of: Callable[[int], np.ndarray]) -> np.ndarray:
    """The dense n x n table: `_compose_rows` on the subgroup G itself."""
    mult = np.empty((n, n), dtype=_table_dtype(n))
    _compose_rows(mult, np.arange(n), identity, row_of)
    return mult


def _sl2_matrices(f: GF) -> np.ndarray:
    """All q^3 - q det-1 matrices as packed ints, sorted (= lex order of
    entries): for a = 0, any b != 0, c = -1/b and any d; for a != 0, any
    b, c and d = (1 + bc)/a.  Both blocks are listed in lex order, the
    first below the second.  ValueError if the field has no tables."""
    if f.mul_table is None:
        raise ValueError(f"GF({f.q}) has no arithmetic tables (q > {TABLE_LIMIT})")
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

    Every element x = (a b; c d) factors as x = u v, u in
    U = {L(t) = (1 0; t 1)} + {w = (0 1; -1 0)} and v in the Borel
    subgroup B of upper triangular matrices (B/+-1 in PSL):
    x = L(c/a) (a b; 0 1/a) if a != 0, x = w (-c -d; 0 b) if a = 0.  So
    the group stores the rows of U and B only, R = q + 1 + |B| of them:
    L(t) at row t, w at row q, then B in index order, the rows of the
    subgroups {L(t)} and B composed by `_compose_rows` and w's from
    w = L(-1) U(1) L(-1); then, at R + r, the conjugation rows of the same
    elements, composed the same way.  Generator rows of products are
    computed over the field tables, mapped back to indices by
    `_matrix_indices`, the group's one index map; those of conjugations
    by two products each.
    """
    q, n = f.q, len(packed)
    a, b, c, d = _unpack(packed, q)
    mulT, addT, negT = f.mul_table, f.add_table, f.neg_table
    index = functools.partial(_matrix_indices, f, packed, kind)

    def row_of(i: int) -> np.ndarray:
        na = addT[mulT[a[i], a], mulT[b[i], c]]
        nb = addT[mulT[a[i], b], mulT[b[i], d]]
        nc = addT[mulT[c[i], a], mulT[d[i], c]]
        nd = addT[mulT[c[i], b], mulT[d[i], d]]
        return index(_pack(q, na, nb, nc, nd))

    lower = index(_pack(q, f.one, 0, np.arange(q), f.one))  # L(t), t = 0 the identity
    borel = np.flatnonzero(c == 0)
    ident, r = int(lower[0]), q + 1 + len(borel)
    unit = q + 1 + int(np.searchsorted(borel, index(_pack(q, f.one, f.one, 0, f.one))))  # U(1) = (1 1; 0 1)
    rows = np.empty((2 * r, n), dtype=_table_dtype(n))

    def compose(base: int, row_of: Callable) -> None:
        """The R rows of one action from base: L(t), then w, then B; the
        products that place them are read off the product rows."""
        _compose_rows(rows[base : base + q], lower, ident, row_of, rows[:q])
        _compose_rows(rows[base + q + 1 : base + r], borel, ident, row_of, rows[q + 1 : r])
        minus = rows[base + f.minus_one]  # w = L(-1) U(1) L(-1): compose their rows
        rows[base + q] = minus[rows[base + unit][minus]]

    compose(0, row_of)
    top, inv_a = a != 0, f.inv_table[a]
    u_row = np.where(top, mulT[c, inv_a], q)
    v = np.where(top, _pack(q, a, b, 0, inv_a), _pack(q, negT[c], negT[d], 0, b))
    v_row = q + 1 + np.searchsorted(borel, index(v))
    g = FiniteGroup(name, rows, ident, field=f, kind=kind, factors=(u_row, v_row))
    y = np.arange(n)
    compose(r, lambda e: g.mul(g.mul(e, y), g.inv[e]))  # e y e^-1
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


def _closures(G: FiniteGroup, gens, generation: bool = False) -> np.ndarray:
    """The subgroups <gens[p]> of P generator rows (a P x k index array;
    pad a short row with the identity), by one breadth-first search from
    the identity that runs every row in lockstep.

    A row's elements are the flat ids p * n + e.  Each step reads the
    products gens[p] e of every frontier id at once, drops the ids
    already visited and dedupes the rest by sorting, so no step allocates
    an index array over all P * n ids.  Left multiplication by the
    generators reaches exactly the generated subgroup, since every
    generator has finite order.  Rows run _BLOCK_ENTRIES // n at a time.

    Returns the P x n membership masks, or with `generation` whether each
    row generates G: such a row stops once it has reached more than n/2
    elements, since a subgroup of index below 2 is G itself.
    """
    n = G.n
    gens = np.asarray(gens, dtype=np.intp)
    out = np.zeros(len(gens) if generation else (len(gens), n), dtype=bool)
    block = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, len(gens), block):
        rows = gens[lo : lo + block]
        if generation:
            visited = np.zeros(len(rows) * n, dtype=bool)
        else:  # the masks are filled in place, through a view of these rows of out
            visited = out[lo : lo + block].reshape(-1)
        frontier = np.arange(len(rows), dtype=np.intp) * n + G.identity
        visited[frontier] = True
        size = np.ones(len(rows), dtype=np.intp)
        while frontier.size:
            row = frontier // n
            base = row * n
            products = G.mul(rows[row], (frontier - base)[:, None])  # gens[p] e
            ids = (base[:, None] + products).reshape(-1)
            ids = ids[~visited[ids]]
            ids.sort()
            keep = np.ones(len(ids), dtype=bool)
            keep[1:] = ids[1:] != ids[:-1]
            frontier = ids[keep]
            visited[frontier] = True
            if generation:
                row = frontier // n
                size += np.bincount(row, minlength=len(rows))
                frontier = frontier[2 * size[row] <= n]
        if generation:
            out[lo : lo + block] = 2 * size > n
    return out


def closure_mask(G: FiniteGroup, gens: Sequence[int]) -> np.ndarray:
    """Boolean membership array of <gens>: one row of `_closures`."""
    if len(gens) == 0:
        raise ValueError("gens must be nonempty")
    return _closures(G, [np.asarray(gens, dtype=np.intp)])[0]


def commutators(G: FiniteGroup, i, j) -> np.ndarray:
    """The commutators [i, j] = i^-1 j^-1 i j, elementwise over broadcast index arrays."""
    return G.mul(G.inv[i], G.conj(G.inv[j], i))  # i^-1 (j^-1 i j)


def generates(G: FiniteGroup, a, b) -> np.ndarray:
    """Whether <a, b> = G, elementwise over broadcast index arrays: all
    the pairs' closures in one call of `_closures`."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return _closures(G, np.stack([a.reshape(-1), b.reshape(-1)], axis=1), True).reshape(a.shape)


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
        cls = G.conj(G.inv, g)  # x^-1 g x for every x
        class_of[cls] = cid
        conjugator[cls] = allx
    G._classes = ConjugacyClasses(class_of=class_of, representatives=reps, conjugator=conjugator)
    return G._classes


def centralizer_generators(G: FiniteGroup) -> list[np.ndarray]:
    """Generators of the centralizer C(r) of every class representative r,
    computed once per group and kept with its conjugacy classes.

    Each row is picked greedily from {identity}: each generator is the
    least element of C(r) outside the subgroup generated so far, so each
    at least doubles it and there are at most log2 |C(r)|.  Every
    representative takes its next pick in the same round, and one call
    of `_closures` closes all the unfinished rows, finished rows being
    left out.
    """
    cls = conjugacy_classes(G)
    if cls.centralizer_gens is None:
        reps = np.asarray(cls.representatives, dtype=np.intp)
        allx = np.arange(G.n)
        cent = G.conj(reps[:, None], allx) == allx  # r x r^-1 == x, a row per representative
        reached = np.zeros_like(cent)
        reached[:, G.identity] = True
        gens = np.empty((len(reps), 0), dtype=np.intp)
        live = np.flatnonzero((cent != reached).any(axis=1))
        while live.size:
            picks = np.full(len(reps), G.identity, dtype=np.intp)  # finished rows: the identity
            picks[live] = np.argmax(cent[live] & ~reached[live], axis=1)
            gens = np.column_stack([gens, picks])
            reached[live] = _closures(G, gens[live])
            live = live[(cent[live] != reached[live]).any(axis=1)]
        cls.centralizer_gens = [row[row != G.identity] for row in gens]
    return cls.centralizer_gens


def derived_series(G: FiniteGroup) -> list[np.ndarray]:
    """[G, G', G'', ...] as sorted index arrays, until the series stabilizes.

    The commutators of each term are marked a block of rows at a time,
    at most _BLOCK_ENTRIES pairs per call, never all |term|^2 at once.
    """
    series = [np.arange(G.n)]
    while True:
        current = series[-1]
        rows = max(1, _BLOCK_ENTRIES // len(current))
        is_comm = np.zeros(G.n, dtype=bool)
        for k in range(0, len(current), rows):
            is_comm[commutators(G, current[k : k + rows, None], current)] = True
        gens = np.flatnonzero(is_comm)
        if len(gens) == len(current):  # every element is a commutator: the term is perfect
            return series
        nxt = np.flatnonzero(closure_mask(G, gens))
        if len(nxt) == len(current):
            return series
        series.append(nxt)


def is_mn_generated(G: FiniteGroup, m: int, n: int) -> bool:
    """Whether some pair (g1,g2) with g1^m = g2^n = 1 generates G.

    g1 only runs over conjugacy class representatives; generation is
    invariant under simultaneous conjugation and g2 runs over everything,
    one `generates` call per g1.
    """
    classes = conjugacy_classes(G)
    cands1 = [g for g in classes.representatives if m % G.orders[g] == 0]
    cands2 = np.flatnonzero(n % G.orders == 0)
    return any(generates(G, g1, cands2).any() for g1 in cands1)
