"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: plain-int polynomial
arithmetic, cofactor determinants, per-pair closure scans, a per-pair
union-find, a Mat2 and a dict lookup per element.  The vectorized oracles
are `matrix_table_blocks`, which multiplies entry arrays in the field
tables so that it reaches tables too large for the scalar ones, and
`rep_rows_single_graph`, the one-stage component search over every key
and every edge that the library's two-stage search must reproduce.  The
member-level orbit checks, `member_higman_check` and `member_taus`, walk
every pair of an orbit where the library reads its keys only.  None
of it imports the fast paths it is checking beyond what the test needs.
It also holds the few helpers that only the tests call: cyclic groups,
derived length, powers and so on.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


# -- exact integer linear algebra -------------------------------------------


def invariant_factors_via_minors(rows: list[list[int]]) -> list[int]:
    """d_k = gcd of all k x k minors; invariant factors are d_k / d_{k-1}.

    A minor is the cofactor expansion along its first row, over the minors
    one size smaller, each of them computed once.
    Returns the nonzero invariant factors (no padding for free rank).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    minors = {((), ()): 1}  # (row indices, column indices) -> minor

    def minor(ri: tuple, ci: tuple) -> int:
        if (ri, ci) not in minors:
            top = rows[ri[0]]
            minors[ri, ci] = sum(
                (-1) ** j * top[c] * minor(ri[1:], ci[:j] + ci[j + 1 :]) for j, c in enumerate(ci) if top[c]
            )
        return minors[ri, ci]

    gcds = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = math.gcd(g, minor(ri, ci))
        if g == 0:
            break
        gcds.append(g)
    return [gcds[i] // gcds[i - 1] for i in range(1, len(gcds))]


# -- GF(p^k) by polynomial arithmetic ------------------------------------------


def poly_add(f, a: int, b: int) -> int:
    """a + b in the field f, coefficient by coefficient mod p."""
    return f.from_coeffs([x + y for x, y in zip(f.coeffs(a), f.coeffs(b))])


def poly_neg(f, a: int) -> int:
    return f.from_coeffs([-c for c in f.coeffs(a)])


def poly_mul(f, a: int, b: int) -> int:
    """a b in the field f: the schoolbook product of the coefficient vectors
    (low degree first), reduced from the top degree down by
    x^k = -(c0 + c1 x + ... + c_{k-1} x^(k-1)), f's monic modulus."""
    k = f.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(f.coeffs(a)):
        for j, y in enumerate(f.coeffs(b)):
            prod[i + j] += x * y
    while len(prod) > k:
        lead = prod.pop()
        for i, c in enumerate(f.modulus):
            prod[len(prod) - k + i] -= lead * c
    return f.from_coeffs(prod)


def poly_pow(f, a: int, e: int) -> int:
    """a^e in the field f for e >= 0, by square-and-multiply on `poly_mul`."""
    result = f.one
    while e:
        if e & 1:
            result = poly_mul(f, result, a)
        a = poly_mul(f, a, a)
        e >>= 1
    return result


# -- groups and helpers that only the tests use --------------------------------


def build_cyclic(m: int):
    from genlift.groupcore import FiniteGroup

    if m < 1:
        raise ValueError("m must be >= 1")
    mult = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    return FiniteGroup(f"C{m}", mult.astype(np.int32), 0, kind="cyclic")


def field_elements(f):
    """The elements of GF(q), as the ints 0..q-1."""
    return iter(range(f.q))


def identity_mat(f):
    from genlift.matrices import Mat2

    return Mat2(f, f.one, 0, 0, f.one)


def is_identity(m) -> bool:
    f = m.field
    return m.entries() == (f.one, 0, 0, f.one)


def element_order_sl(m) -> int:
    """Order of m in SL(2,q), by iterated multiplication."""
    f = m.field
    if m.det() != f.one:
        raise ValueError("element_order_sl requires determinant 1")
    bound = f.q * (f.q * f.q - 1)
    acc = m
    for n in range(1, bound + 1):
        if is_identity(acc):
            return n
        acc = acc * m
    raise RuntimeError("order exceeded |SL(2,q)|")  # unreachable for valid input


def cayley_table(G, rows=None) -> np.ndarray:
    """Rows `rows` (default: all) of the full table, table[x, y] = x y,
    through `G.mul`, the library's one product: a matrix group stores
    only the rows of its factors, never this table."""
    rows = np.arange(G.n) if rows is None else np.asarray(rows)
    return G.mul(rows[:, None], np.arange(G.n))


def validate_group(G) -> None:
    """Assert that G's products form a group table: Latin square rows and
    columns, a two-sided identity and a working inverse table."""
    n = G.n
    ref = np.arange(n)
    expected = np.tile(ref, (n, 1))
    mult = cayley_table(G)
    if not np.array_equal(np.sort(mult, axis=1), expected):
        raise AssertionError("some row is not a permutation")
    if not np.array_equal(np.sort(mult, axis=0), expected.T):
        raise AssertionError("some column is not a permutation")
    if not np.array_equal(mult[G.identity], ref):
        raise AssertionError("identity fails on the left")
    if not np.array_equal(mult[:, G.identity], ref):
        raise AssertionError("identity fails on the right")
    if not np.all(mult[ref, G.inv] == G.identity):
        raise AssertionError("inverse table broken")


def psl_canonical(m):
    """Canonical sign representative, the lex-least of m and -m by entries;
    psl_canonical(-m) == psl_canonical(m)."""
    if m.det() != m.field.one:
        raise ValueError("psl_canonical requires determinant 1")
    n = m.neg()
    return m if m.entries() <= n.entries() else n


def power(G, g: int, e: int) -> int:
    """g^e by e scalar products (e >= 0)."""
    acc = G.identity
    for _ in range(e):
        acc = int(G.mul(acc, g))
    return acc


def commutator(G, i: int, j: int) -> int:
    """[i, j] = i^-1 j^-1 i j by three scalar products."""
    mul, inv = G.mul, G.inv
    return int(mul(mul(inv[i], inv[j]), mul(i, j)))


def element_order(G, g: int) -> int:
    """The least e >= 1 with g^e = 1, by successive scalar products."""
    acc, e = int(g), 1
    while acc != G.identity:
        acc, e = int(G.mul(acc, g)), e + 1
    return e


def closure_mask(G, gens) -> np.ndarray:
    """Boolean membership array of <gens>, by a BFS from the identity, one
    subgroup per call; every step marks the products of its frontier in a
    fresh mask of all n elements."""
    if len(gens) == 0:
        raise ValueError("gens must be nonempty")
    garr = np.asarray(sorted(set(int(g) for g in gens)), dtype=np.int64)
    visited = np.zeros(G.n, dtype=bool)
    visited[G.identity] = True
    frontier = np.array([G.identity], dtype=np.int64)
    while frontier.size:
        fresh = np.zeros(G.n, dtype=bool)
        fresh[G.mul(frontier[:, None], garr)] = True
        fresh &= ~visited
        visited |= fresh
        frontier = np.flatnonzero(fresh)
    return visited


def closure_size(G, gens) -> int:
    return int(closure_mask(G, gens).sum())


def subgroup_closure(G, gens) -> set[int]:
    """The subgroup generated by gens, as a set of element indices."""
    return set(int(i) for i in np.flatnonzero(closure_mask(G, gens)))


def lemma_scan_scalar(G, bad_traces: set[int]) -> tuple[bool, dict]:
    """The pair scan of lemmas 5 and 7 on SL(2,q), one Mat2 cube, scalar
    commutator and closure at a time: the first generating pair (a, b), in
    row-major order over the elements with cube +-I, whose commutator trace
    is in bad_traces; else the counts."""
    one = identity_mat(G.field)
    qualifying = [g for g, m in enumerate(G.labels) if (m * m * m) in (one, one.neg())]
    suspects = 0
    for a in qualifying:
        for b in qualifying:
            tr = G.labels[commutator(G, a, b)].trace()
            if tr in bad_traces:
                suspects += 1
                if len(subgroup_closure(G, (a, b))) == G.n:
                    return False, {
                        "violating_pair": [G.labels[a].serialize(), G.labels[b].serialize()],
                        "trace": G.field.format_element(tr),
                    }
    return True, {
        "qualifying_elements": len(qualifying),
        "pairs_scanned": len(qualifying) ** 2,
        "bad_trace_pairs_all_nongenerating": suspects,
    }


def derived_length(G) -> int:
    """Steps of the derived series down to the trivial group; each term is
    the closure of every commutator of the one before, one pair at a time."""
    term, length = list(range(G.n)), 0
    while len(term) > 1:
        comms = sorted({commutator(G, a, b) for a in term for b in term})
        nxt = np.flatnonzero(closure_mask(G, comms)).tolist()
        if len(nxt) == len(term):
            raise ValueError("derived series does not reach the trivial group")
        term, length = nxt, length + 1
    return length


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
    from genlift.field import field_for_q

    f = field_for_q(q)
    g = 2 if q % 2 == 1 else 1
    out = {f.p}
    out |= _divisors((q + 1) // g)
    out |= _divisors((q - 1) // g)
    return out


# -- Cayley tables, entry by entry ---------------------------------------------


def _label_index(G) -> dict:
    """Entries of every element matrix -> element index, read off G.labels;
    for PSL, M and -M both map to their element."""
    neg = G.field.neg_table.tolist()
    index = {}
    for g, m in enumerate(G.labels):
        entries = m.entries()
        index[entries] = g
        if G.kind == "psl2":
            index[tuple(neg[e] for e in entries)] = g
    return index


def sl2_matrices_grid(q: int) -> np.ndarray:
    """The entries of the det-1 matrices of SL(2,q), a 4 x (q^3 - q) array
    with rows a, b, c, d, by filtering the whole q^4 grid of entries in lex
    order."""
    from genlift.field import field_for_q

    f = field_for_q(q)
    a, b, c, d = grid = np.indices((q,) * 4).reshape(4, -1)
    mulT, negT, addT = f.mul_table, f.neg_table, f.add_table
    return grid[:, addT[mulT[a, d], negT[mulT[b, c]]] == f.one]


def pack(q: int, a, b, c, d) -> np.ndarray:
    """Entries packed to ((a q + b) q + c) q + d, int64: an index into a
    q^4 array whose order is the lex order of entries."""
    return ((np.asarray(a, dtype=np.int64) * q + b) * q + c) * q + d


def matrix_cayley_table(G) -> list[list[int]]:
    """SL(2,q) / PSL(2,q) table: every product of two element matrices in
    plain ints over the field's scalar tables, indexed by `_label_index`."""
    f = G.field
    mul, add = f.mul_table.tolist(), f.add_table.tolist()
    mats = [m.entries() for m in G.labels]
    index = _label_index(G)
    table = []
    for a, b, c, d in mats:
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        table.append([
            index[(add[ma[e]][mb[g]], add[ma[f_]][mb[h]], add[mc[e]][md[g]], add[mc[f_]][md[h]])]
            for e, f_, g, h in mats
        ])
    return table


def _dense_index(G) -> np.ndarray:
    """Packed entries (`pack`) of every element matrix -> element index, a
    q^4 array that is -1 off the group; for PSL, M and -M both map to their
    element."""
    q, neg = G.field.q, G.field.neg_table
    a, b, c, d = _entries(G)
    index = np.full(q**4, -1, dtype=np.int64)
    index[pack(q, a, b, c, d)] = np.arange(G.n)
    if G.kind == "psl2":
        index[pack(q, neg[a], neg[b], neg[c], neg[d])] = np.arange(G.n)
    return index


def _entries(G) -> tuple[np.ndarray, ...]:
    """The entry arrays of every element, widened to int64 for packing."""
    return tuple(G.entries.astype(np.int64))


def matrix_table_blocks(G, rows: int = 64):
    """SL(2,q) / PSL(2,q) table a block of rows at a time, as (first row,
    block): every product (a b; c d)(e f; g h) of two element matrices in
    the field's addition and multiplication tables, mapped to indices by
    `_dense_index`.  Vectorized, so it reaches groups of a few thousand
    elements, whose tables the library composes in several blocks."""
    f, q = G.field, G.field.q
    index = _dense_index(G)
    a, b, c, d = _entries(G)
    # row x of each is x times that entry of every element, so a block's
    # products mul[x_i, e_j] are row gathers
    ta, tb, tc, td = (f.mul_table[:, e].astype(np.int64) for e in (a, b, c, d))
    add = f.add_table.reshape(-1)  # x + y at x q + y
    for first in range(0, G.n, rows):
        A, B, C, D = (e[first : first + rows] for e in (a, b, c, d))
        na, nb = add[ta[A] * q + tc[B]], add[tb[A] * q + td[B]]
        nc, nd = add[ta[C] * q + tc[D]], add[tb[C] * q + td[D]]
        yield first, index[pack(q, na, nb, nc, nd)]


def matrix_inverses(G) -> np.ndarray:
    """Index of (d -b; -c a), the inverse of each det-1 element (a b; c d)."""
    q, neg = G.field.q, G.field.neg_table
    a, b, c, d = _entries(G)
    return _dense_index(G)[pack(q, d, neg[b], neg[c], a)]


def psl_automorphism_perms_scan(G) -> list[list[int]]:
    """The outer automorphism generators of PSL(2,q), conjugation by
    diag(nu,1) for the least non-square nu (odd q) and the Frobenius
    (k > 1), one Mat2 per element, indexed by `_label_index`."""
    from genlift.matrices import Mat2

    f = G.field
    index = _label_index(G)
    maps = []
    if f.q % 2 == 1:
        nu = next(x for x in range(1, f.q) if not f.is_square(x))
        maps.append(lambda m: Mat2(f, m.a, f.mul(m.b, f.inv(nu)), f.mul(m.c, nu), m.d))
    if f.k > 1:
        maps.append(lambda m: Mat2(f, *(f.pow(e, f.p) for e in m.entries())))
    return [[index[phi(x).entries()] for x in G.labels] for phi in maps]


def dihedral_cayley_table(m: int) -> list[list[int]]:
    """D_2m with shifts s_i = index i and reflections r_i = index m + i:
    s_i s_j = s_(i+j), s_i r_j = r_(i+j), r_i s_j = r_(i-j), r_i r_j = s_(i-j)."""
    table = []
    for x in range(2 * m):
        i, refl = x % m, x >= m
        row = []
        for y in range(2 * m):
            j, refl_y = y % m, y >= m
            k = (i - j) % m if refl else (i + j) % m
            row.append(k + m * (refl != refl_y))
        table.append(row)
    return table


def coset_cayley_table(table) -> list[list[int]]:
    """Regular representation of a coset enumeration over the trivial
    subgroup: element j is the coset reached from coset 0 by some word w_j,
    and the product of elements i and j is coset i traced along w_j."""
    from genlift.fpgroups import Word

    words = {0: Word(())}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for g in range(table.generator_count):
                for e in (1, -1):
                    d = table.trace(c, Word(((g, e),)))
                    if d not in words:
                        words[d] = words[c] * Word(((g, e),))
                        nxt.append(d)
        frontier = nxt
    n = table.coset_count
    return [[table.trace(i, words[j]) for j in range(n)] for i in range(n)]


# -- (m,n)-freeness by a scan over every pair ---------------------------------


def mn_free_flags_scan(dec, mn_pairs) -> dict:
    """{(m, n): {orbit id: no member (a, b) has a^m = b^n = 1}}, from the
    element orders of every member pair, found by one scan of dec.labels."""
    G = dec.group
    ids = np.flatnonzero(dec.labels >= 0)
    orders = G.orders.astype(np.int64)
    base = int(orders.max()) + 1
    codes = (dec.labels[ids] * base + orders[ids // G.n]) * base + orders[ids % G.n]
    codes = np.flatnonzero(np.bincount(codes))  # the distinct codes, in increasing order
    seen: dict[int, list] = {}
    for code in codes.tolist():
        seen.setdefault(code // base // base, []).append((code // base % base, code % base))
    return {
        (m, n): {
            o.orbit_id: not any(m % oa == 0 and n % ob == 0 for oa, ob in seen[o.orbit_id])
            for o in dec.orbits
        }
        for m, n in mn_pairs
    }


# -- pair-space orbit decompositions ------------------------------------------


def _pair_space_targets(G, action: str) -> list:
    """Packed pair ids hit by each generator of the action, over all of
    G x G.  Automorphisms are the full PGammaL generator set: the outer
    permutations plus conjugation by both members of a generating pair."""
    n = G.n
    # widened first: a pair id outgrows the table's entry type
    mult, inv = cayley_table(G).astype(np.int64), G.inv.astype(np.int64)
    ids = np.arange(n * n, dtype=np.int64)
    i, j = ids // n, ids % n
    targets = []
    if action in ("nielsen", "joint"):
        targets += [inv[i] * n + j, mult[i, inv[j]] * n + j, j * n + i]
    if action in ("aut", "joint"):
        gens = next(divmod(p, n) for p in range(n * n) if closure_size(G, divmod(p, n)) == n)
        inner = [mult[mult[inv[g]], g] for g in gens]  # x -> g^-1 x g
        outer = [np.array(perm) for perm in psl_automorphism_perms_scan(G)]
        targets += [perm[i] * n + perm[j] for perm in inner + outer]
    return targets


def pair_space_orbits(G, action: str = "nielsen"):
    """Orbits of the generating pairs found by connected components over
    all |G|^2 pairs: (labels, records) in the library's layout, labels -1
    off the generating pairs, ids by least member, records as tuples
    (orbit_id, size, canonical_rep, tau, commutator_order)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from genlift.matrices import trace_invariant

    n = G.n
    targets = _pair_space_targets(G, action)
    # row p of the adjacency matrix lists the targets of pair p, one per generator
    edges = np.stack(targets, axis=1).reshape(-1)
    starts = np.arange(0, len(edges) + 1, len(targets))
    graph = csr_matrix((np.ones(len(edges)), edges, starts), shape=(n * n, n * n))
    _, raw = connected_components(graph, directed=False)
    _, first = np.unique(raw, return_index=True)  # least member of each component
    sizes = np.bincount(raw)
    label_of = np.full(len(first), -1, dtype=np.int64)  # component -> orbit id
    records = []
    for comp in np.argsort(first):
        i, j = divmod(int(first[comp]), n)
        if closure_size(G, (i, j)) != n:
            continue
        label_of[comp] = len(records)
        tau = trace_invariant(G.labels[i], G.labels[j]) if G.kind == "psl2" else None
        records.append((len(records), int(sizes[comp]), (i, j), tau,
                        element_order(G, commutator(G, i, j))))
    return label_of[raw], records


def pair_class_labels(G) -> np.ndarray:
    """K x n: the least key k * n + z of the conjugation class of the pair
    (reps[k], y), by brute force: z is the least x y x^-1 over every x in
    the centralizer C(reps[k]), the stabilizer of reps[k] under conjugation,
    256 elements x at a time."""
    from genlift.groupcore import conjugacy_classes

    n, y = G.n, np.arange(G.n)
    rows = []
    for k, r in enumerate(conjugacy_classes(G).representatives):
        cent = np.flatnonzero(G.mul(r, y) == G.mul(y, r))
        least = np.full(n, n)
        for x in np.array_split(cent, -(-len(cent) // 256)):
            least = np.minimum(least, G.mul(G.mul(x[:, None], y), G.inv[x][:, None]).min(axis=0))
        rows.append(k * n + least)
    return np.array(rows)


def pair_class_sizes(G, keys) -> np.ndarray:
    """The number of pairs conjugate to each pair (reps[k], y) of the keys
    k * n + y, by orbit-stabilizer: |G| over the number of elements that
    commute with both, read from the dense table."""
    from genlift.groupcore import conjugacy_classes

    mult = cayley_table(G)
    reps = conjugacy_classes(G).representatives
    counts = [
        np.count_nonzero((mult[:, a] == mult[a]) & (mult[:, y] == mult[y]))
        for a, y in zip(reps[keys // G.n].tolist(), (keys % G.n).tolist())
    ]
    return G.n // np.array(counts, dtype=np.int64)


def rep_rows_single_graph(G, moves) -> np.ndarray:
    """K x n rep rows by one component search over all K * n keys k * n + y:
    each key joined to the keys of its images under moves(G, i, j) and to
    its conjugates (reps[k], z y z^-1) by every element z of the centralizer
    of reps[k], read from the dense table.  Components are labelled by their
    least key."""
    from genlift.groupcore import conjugacy_classes
    from genlift.nielsen import _components, _pair_keys

    n, cls = G.n, conjugacy_classes(G)
    reps = np.asarray(cls.representatives, dtype=np.int64)
    keys = np.arange(len(reps) * n, dtype=np.int64)
    mult = cayley_table(G).astype(np.int64)
    src, dst = [], []
    for a, b in moves(G, reps[keys // n], keys % n):
        src.append(keys)
        dst.append(_pair_keys(G, cls, a, b))
    for k, r in enumerate(reps.tolist()):
        for z in np.flatnonzero(mult[r] == mult[:, r]).tolist():
            src.append(keys[k * n : (k + 1) * n])
            dst.append(k * n + mult[mult[z], G.inv[z]])
    return _components(len(keys), np.concatenate(src), np.concatenate(dst)).reshape(len(reps), n)


def member_higman_check(dec, orbit) -> tuple[int, bool]:
    """The Higman containment check member by member: every pair of the
    orbit (from `member_ids`) has a commutator i^-1 j^-1 i j, by three
    products, in the conjugacy class of [a,b] or [b,a] of the rep and of
    the orbit's commutator order."""
    from genlift.groupcore import conjugacy_classes

    G, class_of = dec.group, conjugacy_classes(dec.group).class_of
    i, j = np.divmod(dec.member_ids(orbit.orbit_id).astype(np.int64), G.n)
    comms = G.mul(G.mul(G.inv[i], G.inv[j]), G.mul(i, j))
    c0 = commutator(G, *orbit.canonical_rep)
    conjugate = np.isin(class_of[comms], [class_of[c0], class_of[G.inv[c0]]]).all()
    return orbit.commutator_order, bool(conjugate and (G.orders[comms] == orbit.commutator_order).all())


def member_taus(dec, orbit) -> set[int]:
    """The trace invariants of every pair of a PSL(2,q) orbit, by scalar
    matrix arithmetic on the members from `member_ids`."""
    from genlift.matrices import trace_invariant

    G = dec.group
    i, j = np.divmod(dec.member_ids(orbit.orbit_id).astype(np.int64), G.n)
    mats = {g: G.matrix(g) for g in set(i.tolist()) | set(j.tolist())}
    return {trace_invariant(mats[a], mats[b]) for a, b in zip(i.tolist(), j.tolist())}


def orbit_partition_fast(G) -> set[frozenset]:
    from genlift.nielsen import decompose_nielsen_orbits

    dec = decompose_nielsen_orbits(G)
    return {frozenset(divmod(int(p), G.n) for p in dec.member_ids(o.orbit_id)) for o in dec.orbits}


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def nielsen_moves(G, pair):
    """The three basic moves (g1^-1, g2), (g1 g2^-1, g2), (g2, g1) of one pair."""
    g1, g2 = pair
    return (
        (int(G.inv[g1]), g2),
        (int(G.mul(g1, G.inv[g2])), g2),
        (g2, g1),
    )


def decompose_nielsen_orbits_naive(G) -> list:
    """Per-pair union-find with per-pair generation closure; no shortcuts.

    Returns (members, is_generating) per orbit, ordered by least member.
    """
    n = G.n
    uf = _UnionFind(n * n)
    for g1 in range(n):
        for g2 in range(n):
            pid = g1 * n + g2
            for h1, h2 in nielsen_moves(G, (g1, g2)):
                uf.union(pid, h1 * n + h2)
    groups: dict[int, list] = {}
    for g1 in range(n):
        for g2 in range(n):
            groups.setdefault(uf.find(g1 * n + g2), []).append((g1, g2))
    out = []
    for root in sorted(groups):
        members = groups[root]
        flags = {closure_size(G, p) == n for p in members}
        assert len(flags) == 1, "generation not constant on a Nielsen component"
        out.append((frozenset(members), flags.pop()))
    return out


def orbit_partition_naive(G) -> set[frozenset]:
    """The naive union-find orbits of the generating pairs."""
    return {members for members, gen in decompose_nielsen_orbits_naive(G) if gen}


# -- brute-force generating pair count ---------------------------------------


def count_generating_pairs(G) -> int:
    n = G.n
    return sum(
        1 for i in range(n) for j in range(n) if closure_size(G, (i, j)) == n
    )
