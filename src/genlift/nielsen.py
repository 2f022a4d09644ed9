"""Orbits of the generating pairs of a finite group G under Nielsen moves,
automorphisms or both; trace invariants, (m,n)-freeness and the PGammaL
action.

Only generating pairs are decomposed.  If (a, b) generates G, conjugating
both by any element of G is a product of Nielsen moves (an inner
automorphism of the free group on a, b: the Neumann-Neumann T-system
reduction), so each orbit is a union of conjugation classes of pairs.  A
pair generating a proper subgroup H only reaches its H-conjugates, which
splits those classes; such pairs are out of scope and labelled -1.

So the engine runs connected components over conjugation classes of
pairs.  The class of (a, b) is keyed k * n + y: reps[k] = x a x^-1 is the
class representative of a and y is the least conjugate of x b x^-1 under
the centralizer of reps[k].  A pair's label is its key's component; labels
are numbered by least member (pairs packed as first * n + second), and one
OrbitRecord is built per generating class, tested once on its least member.
The naive per-pair oracle (decompose_nielsen_orbits_naive) stays for
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .groupcore import ConjugacyClasses, FiniteGroup, closure_size, conjugacy_classes
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
    tau: Optional[int]  # field element; only for PSL(2,q) hosts
    commutator_order: int
    mn_free: dict = dc_field(default_factory=dict)


class OrbitDecomposition:
    """Partition of the generating pairs of G into orbits.

    `labels[first * n + second]` is the orbit id of a generating pair and
    -1 for every other pair.  Orbit ids increase with the lex-least member
    pair, so the numbering is reproducible; `orbits[k]` is the record of
    orbit id k.
    """

    restricted = True  # generating pairs only; read by perfbench's span counters

    def __init__(self, group: FiniteGroup, labels: np.ndarray, orbits: list[OrbitRecord]):
        self.group = group
        self.labels = labels
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

    def gamma_size(self) -> int:
        return sum(o.size for o in self.orbits)

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
                "is_generating": True,
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


def _nielsen_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    """nielsen_moves, vectorized over pairs."""
    return [(G.inv[i], j), (G.mult[i, G.inv[j]], j), (j, i)]


def _least_centralizer_conjugates(G: FiniteGroup, cls: ConjugacyClasses) -> np.ndarray:
    """K x n table: row k maps y to its least conjugate under C(reps[k])."""
    least_in_class = np.asarray(cls.representatives)[cls.class_of]  # reps are least members
    rows = []
    for r in cls.representatives:
        cent = np.flatnonzero(G.mult[r] == G.mult[:, r])
        if len(cent) == G.n:
            rows.append(least_in_class)
        else:
            rows.append(G.mult[G.mult[cent], G.inv[cent][:, None]].min(axis=0))
    return np.stack(rows)


def _keys(G: FiniteGroup, cls: ConjugacyClasses, least: np.ndarray, i, j) -> np.ndarray:
    """Conjugation-class keys k * n + y of the pairs (i, j)."""
    k = cls.class_of[i].astype(np.int64)
    x = cls.conjugator[i]
    return k * G.n + least[k, G.mult[G.mult[x, j], G.inv[x]]]


def _pair_labels(G: FiniteGroup, moves: Callable) -> np.ndarray:
    """Component of every pair's key in the graph on the K * n keys whose
    edges are the images under moves(G, i, j) -> [(i', j'), ...]."""
    cls = conjugacy_classes(G)
    least = _least_centralizer_conjugates(G, cls)
    n = G.n
    reps = np.asarray(cls.representatives, dtype=np.int64)
    # key k * n + y stands for the pair (reps[k], y); a key whose y is not
    # least has the same move images as its least conjugate's key, so it
    # joins that component
    keys = np.arange(len(reps) * n, dtype=np.int64)
    i, j = reps[keys // n], keys % n
    targets = [_keys(G, cls, least, a, b) for a, b in moves(G, i, j)]
    # self-loops keep the graph well formed without moves (PSL(2,2) has no outer automorphism)
    rows = np.tile(keys, len(targets) + 1)
    cols = np.concatenate([keys, *targets])
    graph = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(keys), len(keys))
    )
    _, comp = connected_components(graph, directed=False)
    # key the pairs in K blocks, to keep the temporaries near n * n / K entries
    blocks = np.array_split(np.arange(n * n), len(reps))
    return np.concatenate([comp[_keys(G, cls, least, *np.divmod(b, n))] for b in blocks])


def _decompose(
    G: FiniteGroup,
    moves: Callable,
    pair_budget: int,
    labels: Optional[np.ndarray] = None,
) -> OrbitDecomposition:
    """The orbit engine: orbits of the generating pairs under `moves`, or
    under a cached labelling (any class numbering, -1 or not outside the
    generating pairs)."""
    check_pair_budget(G.n, pair_budget)
    n, n_pairs = G.n, G.n * G.n
    if labels is None:
        labels = _pair_labels(G, moves)
    # class c + 1 holds the pairs labelled c, class 0 the pairs labelled -1;
    # bincount and minimum.at find sizes and least members without a sort
    shifted = np.add(labels, 1, dtype=np.int64)
    sizes = np.bincount(shifted)
    least = np.full(len(sizes), n_pairs, dtype=np.int64)
    np.minimum.at(least, shifted, np.arange(n_pairs, dtype=np.int64))
    classes = np.flatnonzero(sizes[1:]) + 1
    classes = classes[np.argsort(least[classes])]
    reps = [divmod(int(least[c]), n) for c in classes]
    kept = [k for k, rep in enumerate(reps) if closure_size(G, rep) == n]
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
                tau=trace_invariant(G.labels[i], G.labels[j]) if G.kind == "psl2" else None,
                commutator_order=G.order_of(G.commutator(i, j)),
            )
        )
    return OrbitDecomposition(G, remap[shifted], orbits)


def decompose_nielsen_orbits(
    G: FiniteGroup,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    labels: Optional[np.ndarray] = None,
) -> OrbitDecomposition:
    """Orbits of the generating pairs under the three Nielsen moves.

    `labels` short-circuits the component search with a cached labelling;
    classes are renumbered canonically, so any run's output is acceptable
    input.
    """
    return _decompose(G, _nielsen_moves, pair_budget, labels)


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


def _entry_perm(G: FiniteGroup, entries: Callable) -> np.ndarray:
    """Index permutation induced by a map on the entries (a, b, c, d) of
    the canonical representatives, re-canonicalized."""
    perm = np.empty(G.n, dtype=np.int64)
    for idx in range(G.n):
        m = G.labels[idx].rep
        perm[idx] = G.index_of_matrix(Mat2(G.field, *entries(m.a, m.b, m.c, m.d)))
    return perm


def psl_automorphism_perms(G: FiniteGroup) -> list[np.ndarray]:
    """The outer generators of Aut(PSL(2,q)) = PGammaL(2,q) as index
    permutations: conjugation by diag(nu,1) for a non-square nu (odd q),
    and the Frobenius (k > 1).  Inner automorphisms fix every conjugation
    class of pairs, the orbit engine's nodes, so they are left out."""
    if G.kind != "psl2":
        raise ValueError("automorphism action implemented for PSL(2,q) hosts")
    f = G.field
    perms = []
    if f.q % 2 == 1:
        nu = next(a for a in range(1, f.q) if not f.is_square(a))
        # x -> g^-1 x g for g = diag(nu, 1), in PGL(2,q) but not PSL as nu is a non-square
        over_nu = f.inv(nu)
        perms.append(_entry_perm(G, lambda a, b, c, d: (a, f.mul(b, over_nu), f.mul(c, nu), d)))
    if f.k > 1:
        perms.append(_entry_perm(G, lambda *entries: [f.pow(e, f.p) for e in entries]))
    return perms


def _aut_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    """Images of the pairs under each outer automorphism generator, diagonally."""
    return [(perm[i], perm[j]) for perm in psl_automorphism_perms(G)]


def _joint_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    return _nielsen_moves(G, i, j) + _aut_moves(G, i, j)


def aut_orbit_decomposition(
    G: FiniteGroup, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> OrbitDecomposition:
    """Orbits of the generating pairs under the diagonal PGammaL(2,q) action."""
    return _decompose(G, _aut_moves, pair_budget)


def joint_orbit_decomposition(
    G: FiniteGroup, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> OrbitDecomposition:
    """Orbits of the generating pairs under Nielsen moves and automorphisms combined."""
    return _decompose(G, _joint_moves, pair_budget)


def trace_spectrum(dec: OrbitDecomposition) -> set[int]:
    """Set of trace invariants over the generating orbits of a PSL host."""
    if dec.group.kind != "psl2":
        raise ValueError("trace spectrum requires a PSL(2,q) host")
    return {o.tau for o in dec.orbits}
