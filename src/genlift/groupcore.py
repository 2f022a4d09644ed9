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
than n/2 elements, as a subgroup of index below 2 is G.  On PSL(2,q),
q >= 3, the trace triple (tr a, tr b, tr ab) of sign representatives
(`fricke_traces`) first rules out the reducible, dihedral and subfield
pairs with no closure (`_may_generate`); what is left generates G, A4,
S4 or A5, so its row stops past min(60, n/2) elements.  The centralizer
generators of the class representatives are picked in lockstep rounds of
`_closures`; a cyclic centralizer needs no round.

Dihedral and coset-table groups store the dense n x n table, written
straight from its definition: the dihedral table as four quadrants of
index sums and differences mod m (`_dihedral`), a coset-table group's
rows down a spanning tree of the enumeration (`fpgroups._regular_rows`).
SL and PSL store only the product and conjugation rows of three factor
sets, as every element factors as x = u t s (`_matrix_group`): 0.63 MB
at q = 19 where the dense table took 22.3 MB.  Their builder computes
the rows of a few generators directly and composes the others by
doubling, row[p s] = row[p][row[s]], a bounded block of rows at a time
(`_double_rows`), as the places of their products are known in closed
form.  Table entries are int16 up to 2^15 elements, int32 beyond
(`_table_dtype`); stored orbit, key and pair ids are int32 while they
fit, int64 beyond (`_id_dtype`).  A coset-table group walks the powers
of all its elements for their orders and inverses; a dihedral group
passes them in closed form, a matrix group reads them off the entries
(`_trace_orders`), and x inv[x] = 1 is checked.

The pair budget is the one size limit: it counts one entry per pair of
elements, n^2, and every builder (these three and
`fpgroups.group_from_coset_table`) passes its predicted order to
`check_pair_budget` before it lists any element.

Element indexing is by lex order of canonical matrix entries (matrix
groups) or by the obvious shift/reflection layout (dihedral), so element
indices, orbit representatives and reports are reproducible across runs.
A matrix group keeps its elements' entries, `G.entries`, one 4 x n int32
array whose rows a, b, c, d are the entry arrays that vectorized callers
compute with (`matrix_entries`), and one map back to indices,
`G.entry_indices` (`_entry_indices`): the closed-form rank of a matrix
in the sorted SL listing, read through one array of PSL indices for PSL.
A PSL element is its sign representative, the lex-lesser of M and -M.
Its `labels`, one Mat2 per element, are built only when read.

A builder keeps the one group it makes for an argument (`_BUILT`), and
returns it to every later call that its budget admits.  The group owns
what is computed from it (`FiniteGroup.computed`), and its arrays are
read-only, as every caller in the process shares them.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import GF, TABLE_LIMIT, field_for_q, is_prime
from .matrices import Mat2

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
    element x = u t s (`_matrix_group`) and stores 2R rows for the R
    elements of the three factor sets: their products, then their
    conjugations y -> e y e^-1; `factors` = (u_row, t_row, s_row) gives
    the places of each element's factors among the R.  `inv` has the
    entry dtype (int16 from the builders up to 2^15 elements), so a value
    read from it, `mul` or `conj` must be widened before it is packed
    into a pair id such as first * n + second.

    `orders` and `inv` are computed by walking the powers of every
    element (`_orders_and_inverses`), unless the builder passes both, as
    the SL/PSL builders do from the entries and the dihedral builder in
    closed form; then x inv[x] = 1 is checked for every x, and
    ValueError raised if it fails.

    A matrix group also keeps `entries` (4 x n int32, rows a, b, c, d)
    and `entry_indices`, its map from entry arrays to indices; its
    `labels`, a Mat2 per element (the sign representative in PSL), are
    built on first read.  Other groups take their labels, if any, at
    construction.  `computed` keeps what is derived from the group.
    """

    def __init__(
        self,
        name: str,
        mult: np.ndarray,
        identity: int,
        labels: Optional[list] = None,
        field: Optional[GF] = None,
        kind: str = "generic",
        factors: Optional[tuple[np.ndarray, ...]] = None,
        orders: Optional[np.ndarray] = None,
        inv: Optional[np.ndarray] = None,
    ):
        self.name = name
        self.n = mult.shape[1]
        self.mult = mult
        # flat offsets of the rows of each factor, outermost first: for
        # products, then for conjugations, which fill the second half of mult
        self._factors = None
        if factors is not None:
            offsets = tuple(np.asarray(r, dtype=np.intp) * self.n for r in factors)
            half = mult.size // 2
            self._factors = (offsets, tuple(o + half for o in offsets))
        self.identity = identity
        if labels is not None:
            self.labels = labels
        self.field = field
        self.kind = kind
        if inv is None:
            self.orders, self.inv = self._orders_and_inverses()
        else:
            self.orders, self.inv = orders, inv
            if (self.mul(np.arange(self.n), inv) != identity).any():
                raise ValueError("not a group table: some x inv[x] is not the identity")
        self._computed: dict[str, object] = {}
        self.entries: Optional[np.ndarray] = None  # 4 x n int32: rows a, b, c, d
        self.entry_indices: Optional[Callable] = None  # entry arrays (a, b, c, d) -> indices

    @functools.cached_property
    def labels(self) -> Optional[list]:
        if self.entries is None:
            return None
        return [Mat2(self.field, *e) for e in self.entries.T.tolist()]

    def mul(self, a, b) -> np.ndarray:
        """The products a b, elementwise over broadcast index arrays of any
        integer type, in the table's entry type, by flat gathers: mult[a, b]
        for a dense table; u (t (s b)) for a factored one, a = u t s,
        through the rows of s, then t, then u."""
        if self._factors is None:
            return self.mult.reshape(-1).take(np.multiply(a, self.n, dtype=np.intp) + b)
        return self._through_factors(self._factors[0], a, b)

    def conj(self, x, b) -> np.ndarray:
        """The conjugates x b x^-1, elementwise over broadcast index arrays,
        in the table's entry type.  For a factored table, conjugation by
        x = u t s is conjugation by s, then t, then u, read from the stored
        conjugation rows at the gathers of one product."""
        if self._factors is None:
            return self.mul(self.mul(x, b), self.inv[x])
        return self._through_factors(self._factors[1], x, b)

    def _through_factors(self, offsets: tuple[np.ndarray, ...], a, b) -> np.ndarray:
        flat, a = self.mult.reshape(-1), np.asarray(a, dtype=np.intp)  # a widened once, not per gather
        for rows in reversed(offsets):  # innermost factor first
            b = flat.take(rows.take(a) + b)
        return b

    def computed(self, key: str, compute: Callable[[FiniteGroup], object]):
        """compute(self) on the first request for `key`, kept for every later one."""
        if key not in self._computed:
            self._computed[key] = compute(self)
        return self._computed[key]

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
        """The matrix of element i (its sign representative in PSL), from its entries."""
        return Mat2(self.field, *self.entries[:, i].tolist())

    def index_of_matrix(self, m: Mat2) -> int:
        """Index of a matrix of either sign (PSL) in a matrix-group build.  TypeError unless m
        is a Mat2; KeyError if it is over another field, has an entry outside [0, q) or det != 1."""
        if self.entries is None:
            raise ValueError("group carries no matrix labels")
        if not isinstance(m, Mat2):
            raise TypeError("expected Mat2")
        if m.field != self.field or not all(0 <= e < self.field.q for e in m.entries()):
            raise KeyError("matrix is not over the group's field")
        return int(self.entry_indices(*m.entries()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.n})"


class ConjugacyClasses(NamedTuple):
    class_of: np.ndarray  # int32: the class of every element
    representatives: np.ndarray  # intp: the least member of each class, in increasing order
    conjugator: np.ndarray  # x with x a x^-1 = representatives[class_of[a]]


def _read_only(*arrays: Optional[np.ndarray]) -> tuple:
    """The arrays, marked not writeable but for None: every caller in the process shares them."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# entries per block: `_double_rows`, `_closures` and `derived_series` work
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


def _double_rows(rows: np.ndarray, row_of: Callable[[int], np.ndarray], radix: Sequence[int]) -> None:
    """Fill rows[e] with the row of element e of an abelian subgroup under
    an action whose rows compose like permutations, row[x y] =
    row[x][row[y]]: left multiplication (row x is x y for every y) or
    conjugation (row x is x y x^-1).

    The elements are numbered in mixed radix: e = sum_i j_i B_i,
    B_0 = 1 and B_(i+1) = B_i radix[i], is the element g_0^j_0 g_1^j_1 ...,
    so the product of e and k is e + k while no digit reaches its radix.
    `row_of(B_i)` computes the row of g_i directly, and every other row is
    composed by doubling: with the rows up to k = j B_i done, the rows
    k + 1 .. 2k are the rows 1 .. k read through row k, one 2-D take of
    at most _BLOCK_ENTRIES // n rows at a time.
    """
    n = rows.shape[1]
    rows[0] = np.arange(n)
    block = max(1, _BLOCK_ENTRIES // n)
    base = 1
    for m in radix:
        end = base * m  # the rows below end are done once this digit is
        if m > 1:
            rows[base] = row_of(base)
        k = base
        while k + 1 < end:
            g, hi = rows[k].astype(np.intp), min(2 * k, end - 1)
            for lo in range(k + 1, hi + 1, block):
                top = min(lo + block, hi + 1)
                # the sources lie below k, the targets above; no index is out of range
                np.take(rows[lo - k : top - k], g, axis=1, out=rows[lo:top], mode="clip")
            k = hi
        base = end


def _sl2_entries(f: GF) -> np.ndarray:
    """The entries of all q^3 - q det-1 matrices in lex order, as a
    4 x (q^3 - q) int32 array with rows a, b, c, d: for a = 0, any
    b != 0, c = -1/b and any d; for a != 0, any b, c and d = (1 + bc)/a.
    Both blocks are listed in lex order, the first below the second.
    ValueError if the field has no tables."""
    if f.mul_table is None:
        raise ValueError(f"GF({f.q}) has no arithmetic tables (q > {TABLE_LIMIT})")
    q, mulT, addT, invT = f.q, f.mul_table, f.add_table, f.inv_table
    b0, d0 = np.indices((q - 1, q), dtype=np.int32).reshape(2, -1)
    b0 += 1
    a, b, c = np.indices((q - 1, q, q), dtype=np.int32).reshape(3, -1)
    a += 1
    d = mulT[addT[f.one, mulT[b, c]], invT[a]]
    return np.concatenate([[np.zeros_like(b0), b0, f.neg_table[invT[b0]], d0], [a, b, c, d]], axis=1)


def _sl_rank(q: int, a, b, c, d) -> np.ndarray:
    """Places of det-1 matrices (a b; c d) in the sorted SL(2,q) listing of
    `_sl2_entries`, in closed form: (b - 1) q + d in the a = 0 block,
    q(q - 1) + ((a - 1) q + b) q + c after it."""
    return np.where(a == 0, (b - 1) * q + d, q * (q - 1) + ((a - 1) * q + b) * q + c)


def _entry_indices(f: GF, psl_of: Optional[np.ndarray], a, b, c, d) -> np.ndarray:
    """Indices of the det-1 matrices (a b; c d) in a matrix group,
    elementwise over broadcast entry arrays: their SL rank (`_sl_rank`),
    read through `psl_of`, the PSL index of every SL rank, for PSL.
    KeyError if some matrix has det != 1, ad - bc read off the field
    tables."""
    q, mul, add = f.q, f.mul_table.reshape(-1), f.add_table.reshape(-1)
    if (add.take(mul.take(a * q + d) * q + f.neg_table.take(mul.take(b * q + c))) != f.one).any():
        raise KeyError("matrix is not an element of the group")
    rank = _sl_rank(q, a, b, c, d)
    return rank if psl_of is None else psl_of.take(rank)


def _trace_orders(f: GF, psl: bool) -> np.ndarray:
    """The order of every non-central element of SL(2,q), or PSL(2,q), by
    its trace t (of a sign representative in PSL), as int32 by t.

    For t != +-2 the element is semisimple, with eigenvalues l and 1/l,
    and its k-th power has trace s_k = l^k + l^-k: s_0 = 2, s_1 = t,
    s_(k+1) = t s_k - s_(k-1).  Its order is the least k with s_k = 2
    (l^k = 1), or s_k = +-2 in PSL (l^k = +-1).  For t = 2 the element is
    unipotent, of order p; for t = -2 it is minus a unipotent, of order 2p
    in SL at odd q and p otherwise."""
    two, minus_two = f.two, f.neg(f.two)
    add, neg = f.add_table.tolist(), f.neg_table.tolist()
    ends = (two, minus_two) if psl else (two,)
    orders = [f.p] * f.q
    if not psl and f.p != 2:
        orders[minus_two] = 2 * f.p
    for t in range(f.q):
        if t == two or t == minus_two:
            continue
        times_t, prev, s, k = f.mul_table[t].tolist(), two, t, 1
        while s not in ends:
            prev, s, k = s, add[times_t[s]][neg[prev]], k + 1
        orders[t] = k
    return np.array(orders, dtype=np.int32)


def _primitive_powers(f: GF) -> list[int]:
    """The powers 1, nu, ..., nu^(q-2) of the least primitive element nu of
    GF(q), walked in plain ints along the rows of the multiplication table."""
    for nu in range(1, f.q):
        times_nu, powers = f.mul_table[nu].tolist(), [f.one]
        while (e := times_nu[powers[-1]]) != f.one:
            powers.append(e)
        if len(powers) == f.q - 1:
            return powers
    raise ValueError(f"GF({f.q}) has no primitive element")


def _matrix_group(name: str, f: GF, entries: np.ndarray, kind: str, psl_of: Optional[np.ndarray]) -> FiniteGroup:
    """Shared SL/PSL construction from the 4 x n int32 entries of the
    sorted element matrices, kept as `G.entries`, and the group's index
    map (`_entry_indices` through `psl_of`).

    Every element x = (a b; c d) factors as x = u t s, u in
    {L(e) = (1 0; e 1)} + {w = (0 1; -1 0)}, t in the torus
    {D(e) = diag(e, 1/e)} (mod +-1 in PSL) and s in {U(e) = (1 e; 0 1)}:
    x = L(c/a) D(a) U(b/a) if a != 0, x = w D(-c) U(d/c) if a = 0.  So the
    group stores the rows of these three factor sets only, R of them:
    L(e) at row e, w at row q, the torus in index order, then U(e) at row
    U0 + e; R = 3q, or 2q + 1 + (q - 1)/2 for PSL at odd q.  Then, at
    R + r, the conjugation rows of the same elements.

    The rows of {L(e)}, the torus and {U(e)} are composed by doubling
    (`_double_rows`), as the places of their products are known:
    L(e) L(e') = L(e + e') and U(e) U(e') = U(e + e'), along the
    coefficient basis of the field, and D(nu)^j = D(nu^j) for a primitive
    nu.  w's row is composed from w = L(-1) U(1) L(-1).  Generator rows of
    products are computed over the field tables and mapped back to indices
    by the index map; those of conjugations by two products each.

    Inverses and orders come from the entries, not from the rows: the
    inverse of (a b; c d) is (d -b; -c a), and a non-central element's
    order depends only on its trace (`_trace_orders`).  FiniteGroup checks
    x inv[x] = 1 for every x.
    """
    q, (a, b, c, d) = f.q, entries
    n = len(a)
    mulT, add, negT, invT = f.mul_table, f.add_table.reshape(-1), f.neg_table, f.inv_table
    index = functools.partial(_entry_indices, f, psl_of)

    def row_of(i: int) -> np.ndarray:
        # the entries of x_i y for every y, each a sum of two products read
        # off the rows of the multiplication table at x_i's entries
        ai, bi, ci, di = mulT[a[i]], mulT[b[i]], mulT[c[i]], mulT[d[i]]
        return index(add.take(ai.take(a) * q + bi.take(c)), add.take(ai.take(b) * q + bi.take(d)),
                     add.take(ci.take(a) * q + di.take(c)), add.take(ci.take(b) * q + di.take(d)))

    elts = np.arange(q)
    lower = index(f.one, 0, elts, f.one)  # L(e), e = 0 the identity
    unipotent = index(f.one, elts, 0, f.one)  # U(e)
    torus = np.flatnonzero((b == 0) & (c == 0))
    ident, u0 = int(lower[0]), q + 1 + len(torus)
    r = u0 + q
    torus_row = np.zeros(q, dtype=np.intp)  # e -> the row of D(e), e != 0
    torus_row[1:] = q + 1 + np.searchsorted(torus, index(elts[1:], 0, 0, invT[1:]))
    # the torus rows of D(nu^j), j = 0 .. T - 1: D(nu) generates the torus
    by_power = torus_row[_primitive_powers(f)[: len(torus)]]
    additive = [f.p] * f.k  # L(e) and U(e) along the coefficient basis, e the field int
    rows = np.empty((2 * r, n), dtype=_table_dtype(n))
    powers = np.empty((len(torus), n), dtype=rows.dtype)

    def compose(base: int, row_of: Callable) -> None:
        """The R rows of one action from base: L(e), then w, the torus and U(e)."""
        _double_rows(rows[base : base + q], lambda e: row_of(lower[e]), additive)
        _double_rows(rows[base + u0 : base + r], lambda e: row_of(unipotent[e]), additive)
        _double_rows(powers, lambda j: row_of(torus[by_power[j] - q - 1]), [len(torus)])
        rows[base + by_power] = powers
        minus = rows[base + f.minus_one]  # w = L(-1) U(1) L(-1): compose their rows
        rows[base + q] = minus[rows[base + u0 + f.one][minus]]

    compose(0, row_of)
    top, inv_a = a != 0, invT[a]
    u_row = np.where(top, mulT[c, inv_a], q)
    t_row = torus_row[np.where(top, a, negT[c])]
    s_row = u0 + np.where(top, mulT[b, inv_a], mulT[d, invT[c]])
    orders = _trace_orders(f, kind == "psl2")[add.take(a * q + d)]
    orders[ident] = 1
    if kind == "sl2" and f.p != 2:
        orders[torus[torus_row[f.minus_one] - q - 1]] = 2  # -I = D(-1)
    inv = index(d, negT[b], negT[c], a).astype(rows.dtype)  # (a b; c d)^-1 = (d -b; -c a)
    g = FiniteGroup(name, rows, ident, field=f, kind=kind, factors=(u_row, t_row, s_row),
                    orders=orders, inv=inv)
    y = np.arange(n)
    compose(r, lambda e: g.mul(g.mul(e, y), g.inv[e]))  # e y e^-1
    g.entries, g.entry_indices = entries, index
    return g


def matrix_entries(G: FiniteGroup, which=slice(None)) -> tuple[np.ndarray, ...]:
    """The entry arrays (a, b, c, d), int32, of the elements `which` (by
    default all, by index) of a matrix group: rows of `G.entries`."""
    return tuple(G.entries[:, which])


def entry_perm(G: FiniteGroup, entry_map: Callable) -> np.ndarray:
    """Index permutation of a matrix group induced by a map on the entry
    arrays (a, b, c, d) of all its elements, whose images are mapped
    straight to indices."""
    return G.entry_indices(*entry_map(*matrix_entries(G)))


_BUILT: dict[tuple[str, int], FiniteGroup] = {}  # (builder, argument) -> its one group


def _kept(builder: str, arg: int, build: Callable[[], FiniteGroup]) -> FiniteGroup:
    """The group kept for (builder, arg), built on the first request and made
    read-only.  The caller has checked its budget."""
    if (builder, arg) not in _BUILT:
        G = _BUILT[builder, arg] = build()
        _read_only(G.mult, G.inv, G.orders, G.entries)
    return _BUILT[builder, arg]


def build_sl2(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """SL(2,q); order q(q^2-1); elements indexed in lex order of entries."""
    f = field_for_q(q)
    check_pair_budget(q * (q * q - 1), pair_budget)
    return _kept("sl2", q, lambda: _matrix_group(f"SL(2,{q})", f, _sl2_entries(f), "sl2", None))


def psl2_order(q: int) -> int:
    """|PSL(2,q)| = q(q^2-1)/gcd(2,q-1), without building the group."""
    field_for_q(q)  # rejects q that is not a prime power
    return q * (q * q - 1) // (2 if q % 2 else 1)


def build_psl2(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """PSL(2,q) via canonical sign representatives min(M, -M) of SL(2,q)."""
    check_pair_budget(psl2_order(q), pair_budget)

    def build() -> FiniteGroup:
        f = field_for_q(q)
        reps, psl_of = _sign_representatives(f, _sl2_entries(f))
        return _matrix_group(f"PSL(2,{q})", f, reps, "psl2", psl_of)

    return _kept("psl2", q, build)


def _sign_representatives(f: GF, sl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the sign representatives M <= -M of the sorted SL
    listing `sl`, which stay sorted and distinct, and the PSL index of
    every SL rank, -M taking its representative's place.  The listing,
    4 x (q^3 - q) entries, is freed when this returns, before the group's
    rows are allocated."""
    minus = _sl_rank(f.q, *f.neg_table.take(sl))  # the SL rank of -M
    is_rep = np.arange(len(minus)) <= minus
    pos = np.cumsum(is_rep) - 1
    return sl.compress(is_rep, axis=1), np.where(is_rep, pos, pos[minus])


def build_dihedral(m: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    """Dihedral group of order 2m: indices 0..m-1 shifts, m..2m-1 reflections."""
    if m < 1:
        raise ValueError("m must be >= 1")
    check_pair_budget(2 * m, pair_budget)
    return _kept("dihedral", m, lambda: _dihedral(m))


def _dihedral(m: int) -> FiniteGroup:
    """The dihedral group of order 2m, shifts s_i at index i and reflections
    r_i at m + i, its dense table written in four quadrants in the entry type:
    s_i s_j = s_(i+j), s_i r_j = r_(i+j), r_i s_j = r_(i-j), r_i r_j = s_(i-j),
    indices mod m, each row of s_(i+-j) a window of 0, 1, ..., m-1 repeated.
    Orders and inverses in closed form: s_i has order m / gcd(i, m) and
    inverse s_(-i), and every reflection is an involution."""
    mult = np.empty((2 * m, 2 * m), dtype=_table_dtype(2 * m))
    windows = sliding_window_view(np.arange(2 * m, dtype=mult.dtype) % m, m)  # t + j mod m at [t, j]
    mult[:m, :m] = windows[:m]  # s_i s_j: i + j
    mult[m:, m:] = windows[1:, ::-1]  # r_i r_j: i + 1 + (m - 1 - j) = i - j
    np.add(mult[:m, :m], m, out=mult[:m, m:])  # s_i r_j
    np.add(mult[m:, m:], m, out=mult[m:, :m])  # r_i s_j
    labels = [("shift", j) for j in range(m)] + [("reflection", j) for j in range(m)]
    i = np.arange(m)
    orders = np.concatenate([m // np.gcd(i, m), np.full(m, 2)]).astype(np.int32)
    inv = np.concatenate([-i % m, i + m]).astype(mult.dtype)
    return FiniteGroup(f"D{2 * m}", mult, 0, labels=labels, kind="dihedral", orders=orders, inv=inv)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _closures(G: FiniteGroup, gens, stop: Optional[int] = None) -> np.ndarray:
    """The subgroups <gens[p]> of P generator rows (a P x k index array;
    pad a short row with the identity), by one breadth-first search from
    the identity that runs every row in lockstep.

    A row's elements are the flat ids p * n + e.  Each step reads the
    products gens[p] e of every frontier id at once, drops the ids
    already visited and dedupes the rest by sorting, so no step allocates
    an index array over all P * n ids.  Left multiplication by the
    generators reaches exactly the generated subgroup, since every
    generator has finite order.  Rows run _BLOCK_ENTRIES // n at a time.

    Returns the P x n membership masks, or given a stop size whether each
    row's subgroup has more than `stop` elements: such a row stops once
    it has reached stop + 1 of them.
    """
    n = G.n
    gens = np.asarray(gens, dtype=np.intp)
    out = np.zeros(len(gens) if stop is not None else (len(gens), n), dtype=bool)
    block = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, len(gens), block):
        rows = gens[lo : lo + block]
        if stop is not None:
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
            if stop is not None:
                row = frontier // n
                size += np.bincount(row, minlength=len(rows))
                frontier = frontier[size[row] <= stop]
        if stop is not None:
            out[lo : lo + block] = size > stop
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
    the pairs' closures in one call of `_closures`, each stopped once it
    has more than n/2 elements, as a subgroup of index below 2 is G.

    On PSL(2,q), q >= 3, the trace triple decides first (`_may_generate`):
    a pair it rules out takes no closure, and every other pair generates
    G, A4, S4 or A5, so its closure stops past min(60, n/2) elements.
    PSL(2,2) = S3 is itself dihedral, so it takes closures only."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    pairs = np.stack([a.reshape(-1), b.reshape(-1)], axis=1)
    live, stop = np.arange(len(pairs)), G.n // 2
    if G.kind == "psl2" and G.field.q > 2:
        live = np.flatnonzero(_may_generate(G, *fricke_traces(G, pairs[:, 0], pairs[:, 1])))
        stop = min(60, stop)
    out = np.zeros(len(pairs), dtype=bool)
    out[live] = _closures(G, pairs[live], stop)
    return out.reshape(a.shape)


def fricke_traces(G: FiniteGroup, i, j) -> tuple[np.ndarray, ...]:
    """(x, y, z, tau) of the PSL(2,q) pairs (i, j), elementwise over index
    arrays: the traces x = tr A, y = tr B and z = tr AB of their sign
    representatives A and B, and the Fricke invariant
    tau = tr [A, B] = x^2 + y^2 + z^2 - xyz - 2.  Flipping the sign of A
    or B flips x or y and z, which leaves tau, x^2, y^2, z^2 and xyz alone."""
    f = G.field
    add, mul = f.add_table, f.mul_table
    (ai, bi, ci, di), (aj, bj, cj, dj) = matrix_entries(G, i), matrix_entries(G, j)
    x, y = add[ai, di], add[aj, dj]
    z = add[add[mul[ai, aj], mul[bi, cj]], add[mul[ci, bj], mul[di, dj]]]
    squares = add[add[mul[x, x], mul[y, y]], mul[z, z]]
    return x, y, z, add[squares, f.neg_table[add[mul[mul[x, y], z], f.two]]]


def _may_generate(G: FiniteGroup, x, y, z, tau) -> np.ndarray:
    """False where the trace triple puts the pair in a proper subgroup of
    PSL(2,q), q >= 3, by Dickson's list of subgroups (Macbeath, "Generators
    of the linear fractional groups", 1969):
    - tau = 2: A and B share an eigenvector, so the pair is in a Borel
      subgroup or a torus;
    - two of x, y, z are 0: two of a, b, ab are involutions (or 1), which
      generate a dihedral group;
    - x^2, y^2, z^2 and xyz all lie in one proper subfield GF(p^m), and so
      in a maximal one: the pair is in a conjugate of PGL(2,p^m).
    True leaves G, A4, S4 and A5."""
    f = G.field
    mul = f.mul_table
    out = (tau != f.two) & ((x == 0).astype(np.int8) + (y == 0) + (z == 0) < 2)
    x2, y2, z2, xyz = mul[x, x], mul[y, y], mul[z, z], mul[mul[x, y], z]
    for sub in G.computed("subfields", _maximal_subfields):
        out &= ~(sub[x2] & sub[y2] & sub[z2] & sub[xyz])
    return out


def _maximal_subfields(G: FiniteGroup) -> list[np.ndarray]:
    """Membership masks over the field of G of its maximal proper subfields
    GF(s), s = p^(k/r) for each prime factor r of k: e lies in GF(s) when
    e^s = e, the powers read off the multiplication table."""
    f, e = G.field, np.arange(G.field.q)
    masks = []
    for s in (f.p ** (f.k // r) for r in range(2, f.k + 1) if f.k % r == 0 and is_prime(r)):
        power = e
        for _ in range(s - 1):
            power = f.mul_table[power, e]
        masks.append(power == e)
    return masks


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """The conjugacy classes, computed once per group (`_class_walk`)."""
    return G.computed("classes", _class_walk)


def _class_walk(G: FiniteGroup) -> ConjugacyClasses:
    """Each class is the conjugates x^-1 g x of its least member g, and the
    next class starts at the least element in no class yet, so there are
    K starts.  The arrays are read-only."""
    n = G.n
    class_of = np.full(n, -1, dtype=np.int32)
    conjugator = np.empty(n, dtype=np.int64)
    reps: list[int] = []
    allx, g, inv = np.arange(n), 0, G.inv.astype(np.intp)  # indices widened once, not per use
    while g < n:
        cls = G.conj(inv, g).astype(np.intp)  # x^-1 g x for every x
        class_of[cls] = len(reps)
        conjugator[cls] = allx
        reps.append(g)
        rest = np.flatnonzero(class_of[g:] < 0)
        g = g + int(rest[0]) if rest.size else n
    return ConjugacyClasses(*_read_only(class_of, np.array(reps, dtype=np.intp), conjugator))


def centralizer_generators(G: FiniteGroup) -> list[np.ndarray]:
    """Generators of the centralizer C(r) of every class representative r;
    none for a central r, whose centralizer is G.

    The first is the least element of C(r) of the largest order, so a
    cyclic C(r) needs no closure.  Any further generator is the least
    element of C(r) outside the subgroup generated so far, which it at
    least doubles.  The unfinished rows take their next pick in the same
    round, and one call of `_closures` a round closes them all.
    """
    reps, allx = conjugacy_classes(G).representatives, np.arange(G.n)
    cent = G.conj(reps[:, None], allx) == allx  # r x r^-1 == x, a row per representative
    size = cent.sum(axis=1)
    picks = np.argmax(np.where(cent, G.orders, 0), axis=1)[:, None]  # least of the largest order
    reached = np.zeros_like(cent)
    live = np.flatnonzero((G.orders[picks[:, 0]] < size) & (size < G.n))  # C(r) neither cyclic nor G
    while live.size:
        reached[live] = _closures(G, picks[live])
        live = live[(cent[live] != reached[live]).any(axis=1)]
        pick = np.full(len(reps), G.identity, dtype=np.intp)  # finished rows: the identity
        pick[live] = np.argmax(cent[live] & ~reached[live], axis=1)
        picks = np.column_stack([picks, pick])
    return [p[p != G.identity] if s < G.n else p[:0] for p, s in zip(picks, size)]


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
