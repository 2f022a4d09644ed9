"""Orbits of the generating pairs of a finite group G under Nielsen moves,
automorphisms or both; trace invariants, (m,n)-freeness and the PGammaL
action.

Only generating pairs are decomposed.  If (a, b) generates G, conjugating
both by any element of G is a product of Nielsen moves (an inner
automorphism of the free group on a, b: the Neumann-Neumann T-system
reduction), so each orbit is a union of conjugation classes of pairs.  A
pair generating a proper subgroup H only reaches its H-conjugates, which
splits those classes; such pairs are out of scope and labelled -1.

So Nielsen and Aut orbits are connected components over conjugation
classes of pairs.  The pair (a, b) is keyed k * n + y by its conjugate
(reps[k], y), reps[k] = x a x^-1 the class representative of a and
y = x b x^-1.  The edges join each key to the keys of its images under
the moves, and to its conjugates (reps[k], z y z^-1) by a few generators
z of the centralizer of reps[k], picked greedily; a numpy union-find
(hooking and pointer jumping) labels each component by its least key,
whose pair is its least member, as representatives are least members.
Generation is tested once per Nielsen class, fresh or cached.  Aut keeps
the components inside generating Nielsen classes, as automorphisms
preserve generation; joint orbits are Nielsen orbits merged under the
outer generators, which commute with the moves.

A group's Nielsen decomposition is computed once: the records and rep
rows of a fresh one are kept on the group (`G._nielsen`), and later
calls, the Aut and joint decompositions among them, start from them.
One built from cached rep rows is never kept, so Aut and joint never see
the disk cache.  The K x n rep rows are the only labelling kept.

Orbit records come from arrays: the commutator orders of all
representative pairs by table lookups, and for PSL(2,q) their trace
invariants by the Fricke identity on the entry arrays of the elements, in
the field tables.  `orbit_tau` re-derives tau with scalar matrix
arithmetic, as an independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .groupcore import (
    ConjugacyClasses, FiniteGroup, closure_mask, closure_size, commutators, conjugacy_classes,
    entry_perm, matrix_entries,
)
from .matrices import trace_invariant

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

    `rep_rows[k, y]` is the orbit id of the pair (reps[k], y), reps the
    conjugacy class representatives of G, and -1 if that pair does not
    generate G.  Orbit ids increase with the lex-least member pair, so the
    numbering is reproducible; `orbits[k]` is the record of orbit id k.
    `labels[first * n + second]`, the same labelling with one entry per
    pair, is expanded from the rep rows on first read.
    """

    restricted = True  # generating pairs only; read by perfbench's span counters

    def __init__(self, group: FiniteGroup, orbits: list[OrbitRecord], rep_rows: np.ndarray):
        self.group = group
        self.orbits = orbits
        self.rep_rows = rep_rows

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return _expand(self.group, conjugacy_classes(self.group), self.rep_rows)

    # -- queries --

    def orbit_of(self, pair: Pair) -> OrbitRecord:
        G = self.group
        a, b = pair
        if not (0 <= a < G.n and 0 <= b < G.n):
            raise KeyError(f"pair {pair} is not a pair of elements of {G.name}")
        cls = conjugacy_classes(G)
        x = cls.conjugator[a]
        lab = int(self.rep_rows[cls.class_of[a], G.mult[G.mult[x, b], G.inv[x]]])
        if lab < 0:
            raise KeyError(f"pair {pair} not in decomposition")
        return self.orbits[lab]

    def member_ids(self, orbit_id: int) -> np.ndarray:
        """Sorted ids first * n + second of the orbit's pairs: (g, x^-1 y x)
        for g in class k, x = conjugator[g] and rep_rows[k, y] == orbit_id."""
        G = self.group
        cls = conjugacy_classes(G)
        ids = []
        for k, row in enumerate(self.rep_rows == orbit_id):
            if row.any():
                g = np.flatnonzero(cls.class_of == k)[:, None]
                x = cls.conjugator[g]
                second = G.mult[G.mult[G.inv[x], np.flatnonzero(row)], x]
                ids.append((g * G.n + second).ravel())
        return np.sort(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)

    def members(self, orbit_id: int) -> list[Pair]:
        n = self.group.n
        return [(int(p) // n, int(p) % n) for p in self.member_ids(orbit_id)]

    def gamma_size(self) -> int:
        return sum(o.size for o in self.orbits)

    def mn_free_flags(self, m: int, n: int) -> dict[int, bool]:
        """(m,n)-freeness of every orbit, read off the rep rows: a pair and
        its conjugate in a rep row have the same element orders."""
        key = (m, n)
        if self.orbits and key in self.orbits[0].mn_free:
            return {o.orbit_id: o.mn_free[key] for o in self.orbits}
        G = self.group
        reps = conjugacy_classes(G).representatives
        ok = ((m % G.orders[reps]) == 0)[:, None] & ((n % G.orders) == 0)
        witnessed = np.zeros(len(self.orbits), dtype=bool)
        witnessed[self.rep_rows[ok & (self.rep_rows >= 0)]] = True
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
                entry["rep_matrices"] = [G.matrix(i).serialize(), G.matrix(j).serialize()]
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


def _nielsen_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    """The three basic moves (g1^-1, g2), (g1 g2^-1, g2), (g2, g1), vectorized over pairs."""
    return [(G.inv[i], j), (G.mult[i, G.inv[j]], j), (j, i)]


def _centralizer_generators(G: FiniteGroup, r: int) -> list[int]:
    """Generators of the centralizer C(r), picked greedily from {identity}:
    each is the least element of C(r) outside the subgroup generated so
    far, so each at least doubles it and there are at most log2 |C(r)|."""
    cent = G.mult[r] == G.mult[:, r]
    reached = np.zeros(G.n, dtype=bool)
    reached[G.identity] = True
    gens: list[int] = []
    while not np.array_equal(reached, cent):
        gens.append(int(np.argmax(cent & ~reached)))
        reached = closure_mask(G, gens)
    return gens


def _components(nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the graph with edges src[e] -- dst[e], each
    labelled by its least node.  Every round hooks each root onto the
    least root it touches, then jumps pointers until every tree is a star."""
    lab = np.arange(nodes, dtype=np.int64)
    while True:
        a, b = lab[src], lab[dst]
        if np.array_equal(a, b):
            return lab
        np.minimum.at(lab, a, b)
        np.minimum.at(lab, b, a)
        while not np.array_equal(lab, up := lab[lab]):
            lab = up


def _rep_rows(G: FiniteGroup, cls: ConjugacyClasses, moves: Callable) -> np.ndarray:
    """K x n rows: the component of the pair (reps[k], y) in the graph on
    the K * n keys k * n + y, one per such pair.  A pair (a, b) is keyed
    by its conjugate (reps[k], x b x^-1), x = conjugator[a]; the edges join
    each key to the keys of its images under moves(G, i, j) -> [(i', j'), ...]
    and to its conjugates (reps[k], z y z^-1) by a few generators z of the
    centralizer of reps[k], so each conjugation class of pairs is connected."""
    n = G.n
    reps = np.asarray(cls.representatives, dtype=np.int64)
    keys = np.arange(len(reps) * n, dtype=np.int64)
    i, j = reps[keys // n], keys % n
    src, dst = [], []
    for a, b in moves(G, i, j):
        x = cls.conjugator[a]
        src.append(keys)
        dst.append(cls.class_of[a].astype(np.int64) * n + G.mult[G.mult[x, b], G.inv[x]])
    for k, r in enumerate(reps):
        for z in _centralizer_generators(G, int(r)):
            src.append(keys[k * n : (k + 1) * n])
            dst.append(k * n + G.mult[G.mult[z], G.inv[z]].astype(np.int64))
    return _components(len(keys), np.concatenate(src), np.concatenate(dst)).reshape(len(reps), n)


def _expand(G: FiniteGroup, cls: ConjugacyClasses, rep_rows: np.ndarray) -> np.ndarray:
    """The |G|^2 labels, one entry per pair: the pair (g, j) is conjugate
    by x = conjugator[g] to (reps[k], x j x^-1), k the class of g."""
    inv = G.inv.astype(np.intp)
    labels = np.empty((G.n, G.n), dtype=rep_rows.dtype)
    for g in range(G.n):
        row = G.mult[cls.conjugator[g]].astype(np.intp)  # j -> x j
        # x j x^-1 = x (x j^-1)^-1, by row gathers only
        np.take(rep_rows[cls.class_of[g]], row.take(inv.take(row.take(inv))), out=labels[g])
    return labels.reshape(-1)


def _least_keys(rows: np.ndarray) -> np.ndarray:
    """Rep rows with each class relabelled by its least key k * n + y, -1 kept."""
    first = np.full(int(rows.max()) + 2, rows.size, dtype=np.int64)
    np.minimum.at(first, rows.reshape(-1) + 1, np.arange(rows.size))
    return np.where(rows >= 0, first[rows + 1], -1)


def _bracket_traces(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """tr [A, B] for the PSL(2,q) pairs (i, j), by the Fricke identity
    tr [A, B] = tA^2 + tB^2 + tAB^2 - tA tB tAB - 2 on sign representatives;
    flipping the sign of A or B flips tA or tB and tAB, which it leaves alone."""
    f = G.field
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    a, b, c, d = matrix_entries(G)
    tA, tB = add[a[i], d[i]], add[a[j], d[j]]
    tAB = add[add[mul[a[i], a[j]], mul[b[i], c[j]]], add[mul[c[i], b[j]], mul[d[i], d[j]]]]
    squares = add[add[mul[tA, tA], mul[tB, tB]], mul[tAB, tAB]]
    return add[squares, neg[add[mul[mul[tA, tB], tAB], f.two]]]


def _decompose(G: FiniteGroup, cls: ConjugacyClasses, rows: np.ndarray) -> OrbitDecomposition:
    """Orbits given by rep rows of generating classes (any ids, -1 outside
    them), numbered in least-key order, which is least-member order.  The
    commutator orders and trace invariants of all the representative pairs
    are computed at once, as arrays."""
    n, rows = G.n, _least_keys(rows)
    # an entry stands for one pair per member of its class; index 0 counts the -1s
    sizes = np.bincount(rows.reshape(-1) + 1, np.repeat(np.bincount(cls.class_of), n))[1:]
    keys = np.flatnonzero(sizes)
    remap = np.full(rows.size + 1, -1, dtype=np.int64)  # its last entry maps -1 to -1
    remap[keys] = np.arange(len(keys))
    i, j = np.asarray(cls.representatives)[keys // n], keys % n
    taus = _bracket_traces(G, i, j).tolist() if G.kind == "psl2" else [None] * len(keys)
    columns = zip(
        sizes[keys].astype(np.int64).tolist(),
        zip(i.tolist(), j.tolist()),
        taus,
        G.orders[commutators(G, i, j)].tolist(),
    )
    orbits = [OrbitRecord(oid, *record) for oid, record in enumerate(columns)]
    return OrbitDecomposition(G, orbits, remap[rows])


def decompose_nielsen_orbits(
    G: FiniteGroup,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    rep_rows: Optional[np.ndarray] = None,
) -> OrbitDecomposition:
    """Orbits of the generating pairs under the three Nielsen moves.

    `rep_rows` short-circuits the component search with cached rep rows;
    classes are renumbered canonically, so any run's rep rows are
    acceptable input.  Without them, the decomposition is computed once
    per group and kept on it; the budget is checked on every call.
    """
    check_pair_budget(G.n, pair_budget)
    if rep_rows is None and G._nielsen is not None:
        return OrbitDecomposition(G, *G._nielsen)
    n, cls = G.n, conjugacy_classes(G)
    rows = _rep_rows(G, cls, _nielsen_moves) if rep_rows is None else _least_keys(rep_rows)
    generating = np.zeros(rows.size, dtype=bool)
    for key in np.flatnonzero(np.bincount(rows[rows >= 0], minlength=rows.size)).tolist():
        generating[key] = closure_size(G, (cls.representatives[key // n], key % n)) == n
    dec = _decompose(G, cls, np.where((rows >= 0) & generating[rows], rows, -1))
    if rep_rows is None:
        # its parts, not dec itself: dec.group -> G -> dec would be a reference
        # cycle, and would keep every such G alive until a full garbage collection
        G._nielsen = (dec.orbits, dec.rep_rows)
    return dec


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
    comms = commutators(G, ids // n, ids % n)
    ok = bool(np.all(np.isin(classes.class_of[comms], list(allowed))))
    ok = ok and bool(np.all(G.orders[comms] == orbit.commutator_order))
    return orbit.commutator_order, ok


# ---------------------------------------------------------------------------
# automorphism action (PGammaL(2,q) on PSL(2,q) pairs)
# ---------------------------------------------------------------------------


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
        over_nu, mulT = f.inv(nu), f.mul_table
        perms.append(entry_perm(G, lambda a, b, c, d: (a, mulT[b, over_nu], mulT[c, nu], d)))
    if f.k > 1:
        frob = np.array([f.pow(e, f.p) for e in range(f.q)])
        perms.append(entry_perm(G, lambda *entries: [frob[e] for e in entries]))
    return perms


def _aut_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    """Images of the pairs under each outer automorphism generator, diagonally."""
    return [(perm[i], perm[j]) for perm in psl_automorphism_perms(G)]


def aut_orbit_decomposition(
    G: FiniteGroup, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> OrbitDecomposition:
    """Orbits of the generating pairs under the diagonal PGammaL(2,q) action."""
    generating = decompose_nielsen_orbits(G, pair_budget).rep_rows >= 0
    cls = conjugacy_classes(G)
    return _decompose(G, cls, np.where(generating, _rep_rows(G, cls, _aut_moves), -1))


def joint_orbit_decomposition(
    G: FiniteGroup, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> OrbitDecomposition:
    """Orbits of the generating pairs under Nielsen moves and automorphisms:
    each Nielsen orbit o merged with that of phi(rep(o)), phi an outer generator."""
    nielsen = decompose_nielsen_orbits(G, pair_budget)
    edges = [
        (o.orbit_id, nielsen.orbit_of(tuple(int(perm[g]) for g in o.canonical_rep)).orbit_id)
        for perm in psl_automorphism_perms(G)
        for o in nielsen.orbits
    ]
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    merged = np.append(_components(len(nielsen.orbits), src, dst), -1)  # -1 stays -1
    return _decompose(G, conjugacy_classes(G), merged[nielsen.rep_rows])


def trace_spectrum(dec: OrbitDecomposition) -> set[int]:
    """Set of trace invariants over the generating orbits of a PSL host."""
    if dec.group.kind != "psl2":
        raise ValueError("trace spectrum requires a PSL(2,q) host")
    return {o.tau for o in dec.orbits}
