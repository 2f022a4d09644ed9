"""Finite groups as indexed element sets with dense multiplication tables.

Builders for SL(2,q), PSL(2,q), dihedral and cyclic groups, plus the
generic queries the orbit machinery needs: subgroup closure, generation
testing, conjugacy classes, derived series.

Element indexing is by lex order of canonical matrix entries (matrix
groups) or by the obvious shift/reflection layout (dihedral), so element
indices, orbit representatives and reports are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import GF, field_for_q
from .matrices import Mat2, PslElement

# Dense n x n tables stay reasonable up to here (PSL(2,19) has n = 3420).
MAX_GROUP_ORDER = 8000


class GroupSizeError(ValueError):
    """Requested group exceeds the dense-table size bound."""


class FiniteGroup:
    """Indexed finite group with dense multiplication/inverse/order tables."""

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
        self.labels = labels
        self.field = field
        self.kind = kind
        self.inv = self._compute_inverses()
        self.orders = self._compute_orders()
        self._classes: Optional[ConjugacyClasses] = None
        self._packed_index: Optional[dict] = None

    # -- table derivation --

    def _compute_inverses(self) -> np.ndarray:
        rows, cols = np.nonzero(self.mult == self.identity)
        inv = np.empty(self.n, dtype=self.mult.dtype)
        inv[rows] = cols
        return inv

    def _compute_orders(self) -> np.ndarray:
        orders = np.empty(self.n, dtype=np.int32)
        mult = self.mult
        e = self.identity
        for g in range(self.n):
            x = g
            m = 1
            while x != e:
                x = int(mult[x, g])
                m += 1
            orders[g] = m
        return orders

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

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inv_of(g), -e
        acc = self.identity
        for _ in range(e):
            acc = int(self.mult[acc, g])
        return acc

    def index_of_matrix(self, m) -> int:
        """Index of an SL matrix / PSL element in a matrix-group build."""
        if self.labels is None or self._packed_index is None:
            raise ValueError("group carries no matrix labels")
        if isinstance(m, Mat2):
            if self.kind == "psl2":
                from .matrices import psl_canonical

                m = psl_canonical(m)
            key = m.packed()
        elif isinstance(m, PslElement):
            key = m.packed()
        else:
            raise TypeError("expected Mat2 or PslElement")
        return self._packed_index[key]

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


def _sl2_matrices(f: GF) -> np.ndarray:
    """All det-1 matrices as packed ints, sorted (= lex order of entries)."""
    q = f.q
    grid = np.indices((q, q, q, q)).reshape(4, -1)
    a, b, c, d = grid
    mulT, negT = f.mul_table, f.neg_table
    addT = f.add_table
    det = addT[mulT[a, d], negT[mulT[b, c]]]
    keep = det == f.one
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    packed = ((a.astype(np.int64) * q + b) * q + c) * q + d
    packed.sort()
    return packed


def _unpack(packed: np.ndarray, q: int) -> tuple[np.ndarray, ...]:
    d = packed % q
    r = packed // q
    c = r % q
    r //= q
    b = r % q
    a = r // q
    return a, b, c, d


def _matrix_group(name: str, f: GF, packed: np.ndarray, canonical, kind: str) -> FiniteGroup:
    """Shared SL/PSL construction: vectorized table fill over field tables.

    `canonical` maps packed products back to canonical packed form
    (identity for SL, sign-minimum for PSL).
    """
    q = f.q
    n = len(packed)
    if n > MAX_GROUP_ORDER:
        raise GroupSizeError(f"group of order {n} exceeds bound {MAX_GROUP_ORDER}")
    a, b, c, d = _unpack(packed, q)
    lookup = np.full(q**4, -1, dtype=np.int32)
    lookup[packed] = np.arange(n, dtype=np.int32)
    mulT, addT = f.mul_table, f.add_table
    mult = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        na = addT[mulT[a[i], a], mulT[b[i], c]]
        nb = addT[mulT[a[i], b], mulT[b[i], d]]
        nc = addT[mulT[c[i], a], mulT[d[i], c]]
        nd = addT[mulT[c[i], b], mulT[d[i], d]]
        prod = ((na.astype(np.int64) * q + nb) * q + nc) * q + nd
        mult[i] = lookup[canonical(prod)]
    ident = int(lookup[canonical(np.array([Mat2(f, f.one, 0, 0, f.one).packed()]))[0]])
    labels = _matrix_labels(f, a, b, c, d, kind)
    g = FiniteGroup(name, mult, ident, labels=labels, field=f, kind=kind)
    g._packed_index = {int(p): i for i, p in enumerate(packed)}
    return g


def _matrix_labels(f: GF, a, b, c, d, kind: str) -> list:
    mats = [Mat2(f, int(a[i]), int(b[i]), int(c[i]), int(d[i])) for i in range(len(a))]
    if kind == "psl2":
        return [PslElement(m) for m in mats]
    return mats


def build_sl2(q: int) -> FiniteGroup:
    """SL(2,q); order q(q^2-1); elements indexed in lex order of entries."""
    f = field_for_q(q)
    packed = _sl2_matrices(f)
    return _matrix_group(f"SL(2,{q})", f, packed, lambda p: p, "sl2")


def psl2_order(q: int) -> int:
    """|PSL(2,q)| = q(q^2-1)/gcd(2,q-1), without building the group."""
    field_for_q(q)  # rejects q that is not a prime power
    return q * (q * q - 1) // (2 if q % 2 else 1)


def build_psl2(q: int) -> FiniteGroup:
    """PSL(2,q) via canonical sign representatives of SL(2,q)."""
    f = field_for_q(q)
    sl = _sl2_matrices(f)
    negT = f.neg_table

    def canon(packed: np.ndarray) -> np.ndarray:
        a, b, c, d = _unpack(packed, f.q)
        neg = ((negT[a].astype(np.int64) * f.q + negT[b]) * f.q + negT[c]) * f.q + negT[d]
        return np.minimum(packed, neg)

    reps = np.unique(canon(sl))
    return _matrix_group(f"PSL(2,{q})", f, reps, canon, "psl2")


def build_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: indices 0..m-1 shifts, m..2m-1 reflections."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m
    if n > MAX_GROUP_ORDER:
        raise GroupSizeError(f"group of order {n} exceeds bound {MAX_GROUP_ORDER}")
    mult = np.empty((n, n), dtype=np.int32)
    for i in range(m):
        for j in range(m):
            mult[i, j] = (i + j) % m  # shift * shift
            mult[i, m + j] = m + (i + j) % m  # shift * reflection
            mult[m + i, j] = m + (i - j) % m  # reflection * shift
            mult[m + i, m + j] = (i - j) % m  # reflection * reflection
    labels = [("shift", j) for j in range(m)] + [("reflection", j) for j in range(m)]
    return FiniteGroup(f"D{2 * m}", mult, 0, labels=labels, kind="dihedral")


def build_cyclic(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("m must be >= 1")
    mult = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    return FiniteGroup(f"C{m}", mult.astype(np.int32), 0, kind="cyclic")


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
        nxt = np.unique(G.mult[frontier[:, None], garr[None, :]])
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
    return visited


def subgroup_closure(G: FiniteGroup, gens: Sequence[int]) -> set[int]:
    """The subgroup generated by gens, as a set of element indices."""
    return set(int(i) for i in np.flatnonzero(closure_mask(G, gens)))


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
        comms = G.mult[G.mult[G.inv[x], G.inv[y]], G.mult[x, y]]
        gens = np.unique(comms)
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


def derived_length(G: FiniteGroup) -> int:
    series = derived_series(G)
    if len(series[-1]) != 1:
        raise ValueError("derived series does not reach the trivial group")
    return len(series) - 1


def _divisors(n: int) -> set[int]:
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def possible_psl_orders(q: int) -> set[int]:
    """Possible element orders in PSL(2,q): p, and divisors of (q+-1)/gcd(2,q-1)."""
    f = field_for_q(q)
    g = 2 if q % 2 == 1 else 1
    out = {f.p}
    out |= _divisors((q + 1) // g)
    out |= _divisors((q - 1) // g)
    return out


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
