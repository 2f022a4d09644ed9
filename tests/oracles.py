"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: plain-int polynomial
arithmetic, cofactor determinants, per-pair closure scans.  None of it
imports the fast paths it is checking beyond what the test needs.
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


def orbit_partition_naive(G) -> set[frozenset]:
    """The naive union-find orbits of the generating pairs."""
    from genlift.nielsen import decompose_nielsen_orbits_naive

    return {members for members, gen in decompose_nielsen_orbits_naive(G) if gen}


# -- brute-force generating pair count ---------------------------------------


def count_generating_pairs(G) -> int:
    from genlift.groupcore import closure_size

    n = G.n
    return sum(
        1 for i in range(n) for j in range(n) if closure_size(G, (i, j)) == n
    )
