"""Orbits of pairs of a finite group G under Nielsen moves, automorphisms
or both; trace invariants, (m,n)-freeness and the PGammaL action.

One engine serves every action set.  It works on all of G x G, not just
the generating pairs: the moves preserve the generated subgroup, so
generation is tested once per class, on its least member, instead of
once per pair.  Pairs are packed as first * n + second.  The engine
checks the pair budget, labels the classes with scipy's
connected_components over the move graph (or takes a cached labelling),
numbers them by least member, and builds one OrbitRecord per kept class;
restricted mode keeps only the generating classes and labels every other
pair -1.  The naive per-pair oracle (decompose_nielsen_orbits_naive)
stays for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .groupcore import FiniteGroup, closure_size, conjugacy_classes
from .matrices import Mat2, trace_invariant

DEFAULT_PAIR_BUDGET = 2 * 10**7

Pair = tuple[int, int]


class PairBudgetExceeded(ValueError):
    """|G|^2 exceeds the configured pair budget."""


def check_pair_budget(order: int, pair_budget: int) -> None:
    """Refuse a host of this order whose order^2 pairs exceed the budget."""
    if order * order > pair_budget:
        raise PairBudgetExceeded(
            f"group order {order} needs {order * order} pairs; budget is {pair_budget}"
        )


@dataclass
class OrbitRecord:
    orbit_id: int
    size: int
    canonical_rep: Pair
    is_generating: bool
    tau: Optional[int]  # field element; only for PSL(2,q) hosts
    commutator_order: int
    mn_free: dict = dc_field(default_factory=dict)


class OrbitDecomposition:
    """Partition of G x G (or of the generating pairs) into orbits.

    `labels[first * n + second]` is the orbit id of a pair, or -1 for
    pairs outside the decomposition (restricted mode only).  Orbit ids
    increase with the lex-least member pair, so the numbering is
    reproducible; `orbits[k]` is the record of orbit id k.
    """

    def __init__(
        self,
        group: FiniteGroup,
        labels: np.ndarray,
        restricted: bool,
        orbits: list[OrbitRecord],
    ):
        self.group = group
        self.labels = labels
        self.restricted = restricted
        self.orbits = orbits

    # -- queries --

    def orbit_of(self, pair: Pair) -> OrbitRecord:
        lab = int(self.labels[pair[0] * self.group.n + pair[1]])
        if lab < 0:
            raise KeyError(f"pair {pair} not in decomposition")
        return self.orbits[lab]

    def member_ids(self, orbit_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == orbit_id)

    def members(self, orbit_id: int) -> list[Pair]:
        n = self.group.n
        return [(int(p) // n, int(p) % n) for p in self.member_ids(orbit_id)]

    def generating_orbits(self) -> list[OrbitRecord]:
        return [o for o in self.orbits if o.is_generating]

    def gamma_size(self) -> int:
        return sum(o.size for o in self.generating_orbits())

    def mn_free_flags(self, m: int, n: int) -> dict[int, bool]:
        """(m,n)-freeness of every orbit, computed in one vectorized pass."""
        key = (m, n)
        if self.orbits and key in self.orbits[0].mn_free:
            return {o.orbit_id: o.mn_free[key] for o in self.orbits}
        G = self.group
        ngrp = G.n
        ok_m = (m % G.orders) == 0
        ok_n = (n % G.orders) == 0
        ids = np.flatnonzero(self.labels >= 0)
        mask = ok_m[ids // ngrp] & ok_n[ids % ngrp]
        witnessed = np.zeros(len(self.orbits), dtype=bool)
        witnessed[np.unique(self.labels[ids[mask]])] = True
        for o in self.orbits:
            o.mn_free[key] = not bool(witnessed[o.orbit_id])
        return {o.orbit_id: o.mn_free[key] for o in self.orbits}

    def report(self, mn_pairs: tuple[tuple[int, int], ...] = ()) -> dict:
        G = self.group
        for m, n in mn_pairs:
            self.mn_free_flags(m, n)
        orbits = []
        for o in self.orbits:
            entry = {
                "id": o.orbit_id,
                "size": o.size,
                "rep": list(o.canonical_rep),
                "is_generating": o.is_generating,
                "commutator_order": o.commutator_order,
                "mn_free": {f"{m},{n}": v for (m, n), v in sorted(o.mn_free.items())},
            }
            if G.kind == "psl2":
                entry["tau"] = G.field.format_element(o.tau)
                i, j = o.canonical_rep
                entry["rep_matrices"] = [G.labels[i].serialize(), G.labels[j].serialize()]
            orbits.append(entry)
        out = {
            "group": G.name,
            "group_order": G.n,
            "gamma_size": self.gamma_size(),
            "orbits": orbits,
        }
        if G.field is not None:
            out["q"] = G.field.q
        return out


def nielsen_moves(G: FiniteGroup, pair: Pair) -> tuple[Pair, Pair, Pair]:
    """The three basic moves (g1^-1, g2), (g1 g2^-1, g2), (g2, g1)."""
    g1, g2 = pair
    return (
        (G.inv_of(g1), g2),
        (G.mul(g1, G.inv_of(g2)), g2),
        (g2, g1),
    )


def _move_targets(G: FiniteGroup) -> list[np.ndarray]:
    """Packed pair ids hit by each Nielsen move, over all of G x G."""
    n = G.n
    ids = np.arange(n * n, dtype=np.int64)
    i = ids // n
    j = ids % n
    m1 = G.inv[i].astype(np.int64) * n + j
    m2 = G.mult[i, G.inv[j]].astype(np.int64) * n + j
    m3 = j.astype(np.int64) * n + i
    return [m1, m2, m3]


def _components(n_pairs: int, edge_targets: list[np.ndarray]) -> np.ndarray:
    ids = np.arange(n_pairs, dtype=np.int64)
    rows = np.concatenate([ids] * len(edge_targets))
    cols = np.concatenate(edge_targets)
    graph = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n_pairs, n_pairs)
    )
    _, raw = connected_components(graph, directed=False)
    return raw


def _decompose(
    G: FiniteGroup,
    move_targets: Callable[[FiniteGroup], list[np.ndarray]],
    restrict: bool,
    pair_budget: int,
    labels: Optional[np.ndarray] = None,
) -> OrbitDecomposition:
    """The orbit engine: classes of G x G under the moves `move_targets`
    builds, or under a cached labelling (full, or restricted with -1
    outside; any class numbering is accepted)."""
    check_pair_budget(G.n, pair_budget)
    n, n_pairs = G.n, G.n * G.n
    if labels is None:
        labels = _components(n_pairs, move_targets(G))
    # class c + 1 holds the pairs labelled c, class 0 the pairs labelled -1;
    # bincount and minimum.at find sizes and least members without a sort
    shifted = np.add(labels, 1, dtype=np.int64)
    sizes = np.bincount(shifted)
    least = np.full(len(sizes), n_pairs, dtype=np.int64)
    np.minimum.at(least, shifted, np.arange(n_pairs, dtype=np.int64))
    classes = np.flatnonzero(sizes[1:]) + 1
    classes = classes[np.argsort(least[classes])]
    reps = [divmod(int(least[c]), n) for c in classes]
    generating = [closure_size(G, rep) == n for rep in reps]
    kept = [k for k, gen in enumerate(generating) if gen or not restrict]
    remap = np.full(len(sizes), -1, dtype=np.int64)
    remap[classes[kept]] = np.arange(len(kept))
    orbits = []
    for oid, k in enumerate(kept):
        i, j = reps[k]
        orbits.append(
            OrbitRecord(
                orbit_id=oid,
                size=int(sizes[classes[k]]),
                canonical_rep=(i, j),
                is_generating=generating[k],
                tau=trace_invariant(G.labels[i], G.labels[j]) if G.kind == "psl2" else None,
                commutator_order=G.order_of(G.commutator(i, j)),
            )
        )
    return OrbitDecomposition(G, remap[shifted], restrict, orbits)


def decompose_nielsen_orbits(
    G: FiniteGroup,
    restrict_to_generating: bool = False,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    labels: Optional[np.ndarray] = None,
) -> OrbitDecomposition:
    """Orbits of G x G under the three Nielsen moves.

    `labels` short-circuits the component search with a cached labelling,
    full or restricted; classes are renumbered canonically, so any run's
    output is acceptable input.
    """
    return _decompose(G, _move_targets, restrict_to_generating, pair_budget, labels)


def orbit_tau(dec: OrbitDecomposition, orbit: OrbitRecord, check_members: int = 16) -> int:
    """Trace invariant of an orbit of a PSL(2,q) host.

    Recomputes tau on up to `check_members` members (all, if the orbit is
    smaller) and asserts constancy; pass check_members=None to sweep the
    whole orbit.
    """
    G = dec.group
    if G.kind != "psl2":
        raise ValueError("trace invariants require a PSL(2,q) host")
    ids = dec.member_ids(orbit.orbit_id)
    if check_members is not None and len(ids) > check_members:
        step = max(1, len(ids) // check_members)
        ids = ids[::step]
    n = G.n
    for pid in ids:
        t = trace_invariant(G.labels[int(pid) // n], G.labels[int(pid) % n])
        if t != orbit.tau:
            raise AssertionError(
                f"trace invariant not constant on orbit {orbit.orbit_id}: {t} != {orbit.tau}"
            )
    return orbit.tau


def higman_check(dec: OrbitDecomposition, orbit: OrbitRecord) -> tuple[int, bool]:
    """Commutator order of the orbit, plus the Higman containment check:
    every member's commutator is conjugate to [a,b] or [b,a] of the rep."""
    G = dec.group
    n = G.n
    i, j = orbit.canonical_rep
    c0 = G.commutator(i, j)
    classes = conjugacy_classes(G)
    allowed = {int(classes.class_of[c0]), int(classes.class_of[G.inv_of(c0)])}
    ids = dec.member_ids(orbit.orbit_id)
    xi = ids // n
    xj = ids % n
    comms = G.mult[G.mult[G.inv[xi], G.inv[xj]], G.mult[xi, xj]]
    ok = bool(np.all(np.isin(classes.class_of[comms], list(allowed))))
    ok = ok and bool(np.all(G.orders[comms] == orbit.commutator_order))
    return orbit.commutator_order, ok


# ---------------------------------------------------------------------------
# naive oracle (used by tests to cross-check the component optimization)
# ---------------------------------------------------------------------------


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


def decompose_nielsen_orbits_naive(G: FiniteGroup) -> list[tuple[frozenset[Pair], bool]]:
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
    groups: dict[int, list[Pair]] = {}
    for g1 in range(n):
        for g2 in range(n):
            groups.setdefault(uf.find(g1 * n + g2), []).append((g1, g2))
    gen_flags = {}
    out = []
    for root in sorted(groups):
        members = groups[root]
        flags = {closure_size(G, p) == n for p in members}
        assert len(flags) == 1, "generation not constant on a Nielsen component"
        out.append((frozenset(members), flags.pop()))
    return out


# ---------------------------------------------------------------------------
# automorphism action (PGammaL(2,q) on PSL(2,q) pairs)
# ---------------------------------------------------------------------------


def _conj_perm_by_matrix(G: FiniteGroup, g: Mat2) -> np.ndarray:
    """Permutation of element indices induced by conjugation x -> g^-1 x g.

    det(g) need not be 1; conjugation still lands in SL and descends to
    the sign quotient, which is exactly the PGL action on PSL.
    """
    f = G.field
    det = g.det()
    dinv = f.inv(det)
    # g^-1 = adj(g) / det(g)
    ginv = Mat2(
        f,
        f.mul(dinv, g.d),
        f.mul(dinv, f.neg(g.b)),
        f.mul(dinv, f.neg(g.c)),
        f.mul(dinv, g.a),
    )
    perm = np.empty(G.n, dtype=np.int64)
    for idx in range(G.n):
        m = G.labels[idx].rep if G.kind == "psl2" else G.labels[idx]
        conj = ginv * m * g
        perm[idx] = G.index_of_matrix(conj)
    return perm


def _frobenius_perm(G: FiniteGroup) -> np.ndarray:
    """Entrywise x -> x^p on canonical representatives, re-canonicalized."""
    f = G.field
    p = f.p
    perm = np.empty(G.n, dtype=np.int64)
    for idx in range(G.n):
        m = G.labels[idx].rep if G.kind == "psl2" else G.labels[idx]
        fr = Mat2(f, f.pow(m.a, p), f.pow(m.b, p), f.pow(m.c, p), f.pow(m.d, p))
        perm[idx] = G.index_of_matrix(fr)
    return perm


def _find_generating_pair(G: FiniteGroup) -> Pair:
    for i in range(G.n):
        for j in range(G.n):
            if closure_size(G, (i, j)) == G.n:
                return (i, j)
    raise ValueError("group is not 2-generated")


def psl_automorphism_perms(G: FiniteGroup) -> list[np.ndarray]:
    """Generators of Aut(PSL(2,q)) = PGammaL(2,q) as index permutations:
    conjugation by two group generators, by diag(nu,1) for a non-square
    nu (odd q), and the Frobenius (k > 1)."""
    if G.kind != "psl2":
        raise ValueError("automorphism action implemented for PSL(2,q) hosts")
    f = G.field
    i, j = _find_generating_pair(G)
    perms = [
        _conj_perm_by_matrix(G, G.labels[i].rep),
        _conj_perm_by_matrix(G, G.labels[j].rep),
    ]
    if f.q % 2 == 1:
        nu = next(a for a in range(1, f.q) if not f.is_square(a))
        perms.append(_conj_perm_by_matrix(G, Mat2(f, nu, 0, 0, f.one)))
    if f.k > 1:
        perms.append(_frobenius_perm(G))
    return perms


def _aut_targets(G: FiniteGroup) -> list[np.ndarray]:
    """Packed pair ids hit by each PGammaL(2,q) generator acting diagonally."""
    n = G.n
    ids = np.arange(n * n, dtype=np.int64)
    i = ids // n
    j = ids % n
    return [perm[i] * n + perm[j] for perm in psl_automorphism_perms(G)]


def _joint_targets(G: FiniteGroup) -> list[np.ndarray]:
    return _move_targets(G) + _aut_targets(G)


def aut_orbit_decomposition(
    G: FiniteGroup,
    restrict_to_generating: bool = True,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> OrbitDecomposition:
    """Orbits of pairs under the diagonal PGammaL(2,q) action."""
    return _decompose(G, _aut_targets, restrict_to_generating, pair_budget)


def joint_orbit_decomposition(
    G: FiniteGroup,
    restrict_to_generating: bool = True,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> OrbitDecomposition:
    """Orbits under Nielsen moves and automorphisms combined."""
    return _decompose(G, _joint_targets, restrict_to_generating, pair_budget)


def trace_spectrum(dec: OrbitDecomposition) -> set[int]:
    """Set of trace invariants over the generating orbits of a PSL host."""
    if dec.group.kind != "psl2":
        raise ValueError("trace spectrum requires a PSL(2,q) host")
    return {o.tau for o in dec.generating_orbits()}
