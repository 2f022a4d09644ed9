"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: plain-int polynomial
arithmetic, cofactor determinants, per-pair closure scans, a per-pair
union-find.  None of it imports the fast paths it is checking beyond
what the test needs.
"""

from __future__ import annotations

import math
from itertools import combinations


# -- exact integer linear algebra -------------------------------------------


def det_int(rows: list[list[int]]) -> int:
    """Cofactor expansion; exact for small integer matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def invariant_factors_via_minors(rows: list[list[int]]) -> list[int]:
    """d_k = gcd of all k x k minors; invariant factors are d_k / d_{k-1}.

    Returns the nonzero invariant factors (no padding for free rank).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    gcds = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        gcds.append(g)
    return [gcds[i] // gcds[i - 1] for i in range(1, len(gcds))]


# -- Cayley tables, entry by entry ---------------------------------------------


def matrix_cayley_table(G) -> list[list[int]]:
    """SL(2,q) / PSL(2,q) table: every product of two element matrices in
    plain ints over the field's scalar tables, indexed by index_of_matrix
    (for PSL, M and -M both map to their element)."""
    from genlift.matrices import Mat2, PslElement

    f = G.field
    mul, add, neg = f.mul_table.tolist(), f.add_table.tolist(), f.neg_table.tolist()
    mats = [(m.rep if isinstance(m, PslElement) else m).entries() for m in G.labels]
    signs = mats + [tuple(neg[e] for e in m) for m in mats] if G.kind == "psl2" else mats
    index = {m: G.index_of_matrix(Mat2(f, *m)) for m in signs}
    table = []
    for a, b, c, d in mats:
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        table.append([
            index[(add[ma[e]][mb[g]], add[ma[f_]][mb[h]], add[mc[e]][md[g]], add[mc[f_]][md[h]])]
            for e, f_, g, h in mats
        ])
    return table


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
    import numpy as np

    G = dec.group
    ids = np.flatnonzero(dec.labels >= 0)
    orders = G.orders.astype(np.int64)
    base = int(orders.max()) + 1
    codes = np.unique((dec.labels[ids] * base + orders[ids // G.n]) * base + orders[ids % G.n])
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
    import numpy as np

    from genlift.groupcore import closure_size
    from genlift.nielsen import psl_automorphism_perms

    n = G.n
    ids = np.arange(n * n, dtype=np.int64)
    i, j = ids // n, ids % n
    targets = []
    if action in ("nielsen", "joint"):
        targets += [G.inv[i] * n + j, G.mult[i, G.inv[j]] * n + j, j * n + i]
    if action in ("aut", "joint"):
        gens = next(divmod(p, n) for p in range(n * n) if closure_size(G, divmod(p, n)) == n)
        inner = [G.mult[G.mult[G.inv[g]], g] for g in gens]  # x -> g^-1 x g
        targets += [perm[i] * n + perm[j] for perm in inner + psl_automorphism_perms(G)]
    return targets


def pair_space_orbits(G, action: str = "nielsen"):
    """Orbits of the generating pairs found by connected components over
    all |G|^2 pairs: (labels, records) in the library's layout, labels -1
    off the generating pairs, ids by least member, records as tuples
    (orbit_id, size, canonical_rep, tau, commutator_order)."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from genlift.groupcore import closure_size
    from genlift.matrices import trace_invariant

    n = G.n
    targets = _pair_space_targets(G, action)
    ids = np.arange(n * n, dtype=np.int64)
    rows = np.concatenate([ids] * len(targets))
    graph = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, np.concatenate(targets))), shape=(n * n, n * n)
    )
    _, raw = connected_components(graph, directed=False)
    _, first = np.unique(raw, return_index=True)  # least member of each component
    labels = np.full(n * n, -1, dtype=np.int64)
    records = []
    for comp in np.argsort(first):
        i, j = divmod(int(first[comp]), n)
        if closure_size(G, (i, j)) != n:
            continue
        members = raw == comp
        labels[members] = len(records)
        tau = trace_invariant(G.labels[i], G.labels[j]) if G.kind == "psl2" else None
        records.append((len(records), int(members.sum()), (i, j), tau,
                        G.order_of(G.commutator(i, j))))
    return labels, records


def orbit_partition_fast(G) -> set[frozenset]:
    from genlift.nielsen import decompose_nielsen_orbits

    dec = decompose_nielsen_orbits(G)
    return {frozenset(dec.members(o.orbit_id)) for o in dec.orbits}


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
        (G.inv_of(g1), g2),
        (G.mul(g1, G.inv_of(g2)), g2),
        (g2, g1),
    )


def decompose_nielsen_orbits_naive(G) -> list:
    """Per-pair union-find with per-pair generation closure; no shortcuts.

    Returns (members, is_generating) per orbit, ordered by least member.
    """
    from genlift.groupcore import closure_size

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
    from genlift.groupcore import closure_size

    n = G.n
    return sum(
        1 for i in range(n) for j in range(n) if closure_size(G, (i, j)) == n
    )
