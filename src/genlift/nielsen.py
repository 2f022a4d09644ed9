"""Orbits of the generating pairs of a finite group G under Nielsen moves,
automorphisms or both; trace invariants, (m,n)-freeness and the PGammaL
action.

Only generating pairs are decomposed.  If (a, b) generates G, conjugating
both by any element of G is a product of Nielsen moves (an inner
automorphism of the free group on a, b: the Neumann-Neumann T-system
reduction), so each orbit is a union of conjugation classes of pairs.  A
pair generating a proper subgroup H only reaches its H-conjugates, which
splits those classes; such pairs are out of scope and labelled -1.

The pair (a, b) is keyed k * n + y by its conjugate (reps[k], y),
reps[k] = x a x^-1 the class representative of a and y = x b x^-1.
Nielsen and Aut orbits are found in two stages, each labelling a class
or component by its least key, whose pair is its least member, as
representatives are least members.  Stage 1 (`_pair_classes`) labels
the conjugation classes of pairs by orbit minima under the centralizers,
folded by pointer doubling.  Stage 2 applies the moves to the least key
of each class only, as they commute with simultaneous conjugation, reads
the images through the stage-1 labels and joins the classes by a numpy
union-find (hooking and pointer jumping).  Joint orbits, the Neumanns'
T-systems, are the Nielsen orbits up to automorphisms, which commute
with the moves: components over the Nielsen orbit ids, with no
pair-level work.

Generation is decided for every Nielsen class by one `generates` call
on the least members: on PSL(2,q) most of them by their trace triples,
the rest by closures that stop past 60 elements.  Aut keeps its
components inside generating Nielsen classes, as automorphisms preserve
generation.  The group keeps (`FiniteGroup.computed`) its classes of
pairs, outer automorphism permutations and Nielsen parts (records, rep
rows, representative orders), all read-only; each Nielsen call, Aut and joint among them,
wraps the parts in a fresh decomposition.  Aut and joint orbits are not
kept.  `mn_free_flags` reads the rep rows on every call, and
`is_mn_generated` reads its flags.  One vectorized map from pairs to
their keys (`_pair_keys`) serves the move edges and `orbit_ids`, and
through it `orbit_of` and `labels`.

Products and conjugates are read through `FiniteGroup.mul` and
`FiniteGroup.conj`, elementwise over index arrays.  Orbit records come
from arrays: commutator orders by products, and for PSL(2,q) trace
invariants by the Fricke identity on the entries of the rep pairs
(`groupcore.fricke_traces`, whose trace triples also decide generation).
`higman_check` and `orbit_tau` read an orbit's keys, never its members:
a member is a conjugate of its key's pair, with a conjugate commutator
and the same tau; `orbit_tau` re-derives tau by scalar matrix
arithmetic, on sampled keys.  Rep rows, `labels` and member ids are
int32 while their ids fit (`groupcore._id_dtype`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .groupcore import (
    _BLOCK_ENTRIES, ConjugacyClasses, FiniteGroup, _id_dtype, _read_only, centralizer_generators,
    commutators, conjugacy_classes, entry_perm, fricke_traces, generates, matrix_entries,
)
from .matrices import format_matrix, trace_invariant

Pair = tuple[int, int]


class OrbitRecord(NamedTuple):
    orbit_id: int
    size: int
    canonical_rep: Pair
    tau: Optional[int]  # field element; only for PSL(2,q) hosts
    commutator_order: int


class OrbitDecomposition:
    """Partition of the generating pairs of G into orbits.

    `rep_rows[k, y]` is the orbit id of the pair (reps[k], y), reps the
    conjugacy class representatives of G, and -1 if that pair does not
    generate G; `rep_orders[k]` is the element order of reps[k].  Orbit
    ids increase with the lex-least member pair, so the numbering is
    reproducible; `orbits[k]` is the record of orbit id k.  `orbit_ids`
    reads the orbit of any pairs off the rep rows, and
    `labels[first * n + second]`, one entry per pair, is built from it
    on first read.  Both have the rep rows' type, int32 below 2^31 keys.
    """

    restricted = True  # generating pairs only; read by perfbench's span counters

    def __init__(self, group: FiniteGroup, orbits: tuple[OrbitRecord, ...], rep_rows, rep_orders):
        self.group = group
        self.orbits = orbits
        self.rep_rows = rep_rows
        self.rep_orders = rep_orders

    @functools.cached_property
    def labels(self) -> np.ndarray:
        n = self.group.n
        labels, g = np.empty((n, n), dtype=self.rep_rows.dtype), np.arange(n)
        block = max(1, (1 << 16) // n)  # rows per call: int64 temporaries of at most 512 KB
        for first in range(0, n, block):
            labels[first : first + block] = self.orbit_ids(g[first : first + block, None], g)
        return labels.reshape(-1)

    # -- queries --

    def orbit_ids(self, a, b) -> np.ndarray:
        """Orbit ids of the pairs (a, b), elementwise over broadcast index
        arrays; -1 where a pair does not generate G.  KeyError if some
        entry is not an element index."""
        G = self.group
        a, b = np.asarray(a), np.asarray(b)
        if any(e.size and (e.min() < 0 or e.max() >= G.n) for e in (a, b)):
            raise KeyError(f"some pair is not a pair of elements of {G.name}")
        return self.rep_rows.reshape(-1).take(_pair_keys(G, conjugacy_classes(G), a, b))

    def orbit_of(self, pair: Pair) -> OrbitRecord:
        lab = int(self.orbit_ids(*pair))
        if lab < 0:
            raise KeyError(f"pair {pair} not in decomposition")
        return self.orbits[lab]

    def member_ids(self, orbit_id: int) -> np.ndarray:
        """Sorted ids first * n + second of the orbit's pairs (g, x^-1 y x),
        g in class k, x = conjugator[g] and rep_rows[k, y] == orbit_id: int32
        while n^2 < 2^31, filled _BLOCK_ENTRIES pairs at a time."""
        G, cls = self.group, conjugacy_classes(self.group)
        in_orbit = self.rep_rows == orbit_id
        sizes = np.bincount(cls.class_of, minlength=len(in_orbit))
        ids, at = np.empty(int(in_orbit.sum(axis=1) @ sizes), dtype=_id_dtype(G.n * G.n)), 0
        for k, row in enumerate(in_orbit):
            y = np.flatnonzero(row)
            if not y.size:
                continue
            members = np.flatnonzero(cls.class_of == k)
            step = max(1, _BLOCK_ENTRIES // y.size)
            for lo in range(0, members.size, step):
                g = members[lo : lo + step, None]
                block = g.astype(ids.dtype) * G.n + G.conj(G.inv[cls.conjugator[g]], y)
                ids[at : at + block.size] = block.reshape(-1)
                at += block.size
        ids.sort()
        return ids

    def gamma_size(self) -> int:
        return sum(o.size for o in self.orbits)

    @functools.cached_property
    def _exponent(self) -> int:
        """The exponent of G: every element is conjugate to a representative."""
        return math.lcm(*self.rep_orders.tolist())

    def mn_free_flags(self, m: int, n: int) -> dict[int, bool]:
        """(m,n)-freeness of every orbit from the rep-row entries (reps[k], y), ord(reps[k]) | m
        and ord(y) | n: a pair and its conjugates have the same element orders.  ValueError
        unless m, n >= 1."""
        if m < 1 or n < 1:
            raise ValueError(f"(m,n)-freeness needs m, n >= 1, got ({m}, {n})")
        # an order divides m iff it divides gcd(m, exponent), which fits the order arrays
        m, n = math.gcd(m, self._exponent), math.gcd(n, self._exponent)
        k, y = np.flatnonzero(m % self.rep_orders == 0), np.flatnonzero(n % self.group.orders == 0)
        witnessed = np.zeros(len(self.orbits) + 1, dtype=bool)  # -1 lands on the last entry
        witnessed[self.rep_rows.take(k, axis=0).take(y, axis=1)] = True
        return dict(enumerate((~witnessed[:-1]).tolist()))

    def report(self, mn_pairs: tuple[tuple[int, int], ...] = ()) -> dict:
        """The orbit table, one entry per orbit, with a freeness column per
        requested (m, n); for PSL(2,q) also tau and the rep pair's matrices,
        read from the entries of all rep pairs at once."""
        G = self.group
        columns = {f"{m},{n}": self.mn_free_flags(m, n) for m, n in sorted(set(mn_pairs))}
        if G.kind == "psl2":
            # the entries of every rep pair in one gather; each field value formatted once
            reps = np.array([o.canonical_rep for o in self.orbits], dtype=np.intp).reshape(-1)
            entries = [e.tolist() for e in matrix_entries(G, reps)]
            names = {v: G.field.format_element(v) for v in set().union(*entries, (o.tau for o in self.orbits))}
            mats = [format_matrix(names[a], names[b], names[c], names[d]) for a, b, c, d in zip(*entries)]
        orbits = []
        for k, o in enumerate(self.orbits):
            entry = {
                "id": o.orbit_id,
                "size": o.size,
                "rep": list(o.canonical_rep),
                "is_generating": True,
                "commutator_order": o.commutator_order,
                "mn_free": {mn: flags[o.orbit_id] for mn, flags in columns.items()},
            }
            if G.kind == "psl2":
                entry["tau"] = names[o.tau]
                entry["rep_matrices"] = mats[2 * k : 2 * k + 2]
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
    return [(G.inv[i], j), (G.mul(i, G.inv[j]), j), (j, i)]


def _components(nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the graph with edges src[e] -- dst[e], each
    labelled by its least node.  Every round hooks each root onto the
    least root it touches, then jumps pointers until every tree is a star.
    The gathers write into buffers allocated once; they clip rather than
    check their indices, so the edges are checked once, up front."""
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= nodes):
        raise IndexError(f"an edge leaves the {nodes} nodes")
    lab, up = np.arange(nodes, dtype=np.int64), np.empty(nodes, dtype=np.int64)
    a, b = np.empty(src.size, dtype=np.int64), np.empty(src.size, dtype=np.int64)
    while True:
        if np.array_equal(lab.take(src, out=a, mode="clip"), lab.take(dst, out=b, mode="clip")):
            return lab
        np.minimum.at(lab, a, b)
        np.minimum.at(lab, b, a)
        while not np.array_equal(lab, lab.take(lab, out=up, mode="clip")):
            lab, up = up, lab


def _pair_classes(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 of `_rep_rows`, kept with the group: the conjugation classes
    of pairs, as (least, index).  `least` lists the least key of every class
    in increasing order, and key k * n + y lies in class index[k * n + y]."""
    return G.computed("pair_classes", _orbit_minima)


def _orbit_minima(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The (least, index) of `_pair_classes`.

    The class of (reps[k], y) is the orbit of y under conjugation by the
    centralizer C of reps[k], so its least key is k * n + m[y], m[y] the
    least z y z^-1 over C: the representative of y's class if C = G.
    Other rows fold m along each generator z of C in lockstep, by
    doubling: with sigma: y -> z y z^-1, m <- min(m, m o sigma) and
    sigma <- sigma o sigma, ceil(log2 ord z) times.  A row with several
    generators repeats until a pass moves nothing: m is then constant on
    the orbits of C, and m[y], in y's orbit and at most y, is its least."""
    n, gens, cls = G.n, centralizer_generators(G), conjugacy_classes(G)
    allx, lens = np.arange(n), np.array([len(z) for z in gens])
    # entries of the table's type: the gathers of the doubling move fewer bytes
    mins = np.tile(cls.representatives.astype(G.mult.dtype)[cls.class_of], (len(gens), 1))
    live = np.flatnonzero(lens)
    mins[live] = allx
    while live.size:  # until a pass moves no row with several generators
        before = mins[live]
        for s in range(lens[live].max()):
            rows = live[lens[live] > s]
            z = np.array([gens[k][s] for k in rows])
            sigma = (np.arange(len(rows))[:, None] * n + G.conj(z[:, None], allx)).reshape(-1)
            m = mins[rows].reshape(-1)
            for _ in range(int(G.orders[z].max() - 1).bit_length()):
                np.minimum(m, m.take(sigma), out=m)
                sigma = sigma.take(sigma)
            mins[rows] = m.reshape(len(rows), n)
        live = live[(lens[live] > 1) & (mins[live] != before).any(axis=1)]
    lab = (mins + np.arange(len(gens))[:, None] * n).reshape(-1)
    is_least = lab == np.arange(lab.size)
    rank = np.cumsum(is_least, dtype=np.int32) - 1  # at a least key, its place in `least`
    return _read_only(np.flatnonzero(is_least), rank[lab])


def _rep_rows(G: FiniteGroup, cls: ConjugacyClasses, moves: Callable) -> np.ndarray:
    """K x n rows: the component of the pair (reps[k], y) under the moves,
    moves(G, i, j) -> [(i', j'), ...], in the graph on the K * n keys,
    labelled by its least key.  The moves are applied to the least key of
    each conjugation class of pairs (`_pair_classes`) only, and
    `_components` joins the classes; a component's least key is the least
    key of one of its classes, so the rows are those of one search over
    all keys with every edge."""
    n, reps = G.n, cls.representatives
    least, index = _pair_classes(G)
    images = [index[_pair_keys(G, cls, a, b)] for a, b in moves(G, reps[least // n], least % n)]
    src = np.tile(np.arange(len(least)), len(images))
    dst = np.concatenate(images + [np.empty(0, dtype=index.dtype)])  # an action may have no moves
    return least[_components(len(least), src, dst)][index].reshape(len(reps), n)


def _pair_keys(G: FiniteGroup, cls: ConjugacyClasses, a, b) -> np.ndarray:
    """Keys k * n + y of the pairs (a, b), elementwise: k the class of a and
    y = x b x^-1, x = conjugator[a], so (reps[k], y) is conjugate to (a, b).
    Widened to int64 before packing, as the table entries may be int16."""
    y = G.conj(cls.conjugator[a], b)
    return np.multiply(cls.class_of[a], G.n, dtype=np.int64) + y


def _decompose(G: FiniteGroup, cls: ConjugacyClasses, rows: np.ndarray) -> tuple:
    """Read-only (records, rep rows, rep orders) of the orbits given by rep
    rows of generating classes, each labelled by its least key (-1 outside),
    numbered in least-key order, which is least-member order.  The commutator
    orders and trace invariants of all rep pairs are computed at once."""
    n = G.n
    # an entry stands for one pair per member of its class; index 0 counts the -1s
    sizes = np.bincount(rows.reshape(-1) + 1, np.repeat(np.bincount(cls.class_of), n))[1:]
    keys = np.flatnonzero(sizes)
    remap = np.full(rows.size + 1, -1, dtype=_id_dtype(rows.size))  # its last entry maps -1 to -1
    remap[keys] = np.arange(len(keys))
    i, j = cls.representatives[keys // n], keys % n
    taus = fricke_traces(G, i, j)[3].tolist() if G.kind == "psl2" else [None] * len(keys)
    orbits = tuple(map(OrbitRecord._make, zip(
        range(len(keys)),
        sizes[keys].astype(np.int64).tolist(),
        zip(i.tolist(), j.tolist()),
        taus,
        G.orders[commutators(G, i, j)].tolist(),
    )))
    return (orbits, *_read_only(remap[rows], G.orders[cls.representatives]))


def decompose_nielsen_orbits(G: FiniteGroup) -> OrbitDecomposition:
    """Orbits of the generating pairs under the three Nielsen moves: a fresh
    decomposition around the parts the group keeps (`_nielsen_parts`)."""
    return OrbitDecomposition(G, *G.computed("nielsen", _nielsen_parts))


def is_mn_generated(G: FiniteGroup, m: int, n: int) -> bool:
    """Whether some pair (g1, g2) with g1^m = g2^n = 1 generates G: whether
    some Nielsen orbit is not (m,n)-free (`mn_free_flags`), read off the
    kept decomposition.  ValueError unless m, n >= 1."""
    return not all(decompose_nielsen_orbits(G).mn_free_flags(m, n).values())


def _nielsen_parts(G: FiniteGroup) -> tuple:
    """The `_decompose` parts of the Nielsen rows, masked by one generation test per class."""
    n, cls = G.n, conjugacy_classes(G)
    rows = _rep_rows(G, cls, _nielsen_moves)
    keys = np.flatnonzero(np.bincount(rows[rows >= 0], minlength=rows.size))  # one per class
    generating = np.zeros(rows.size, dtype=bool)
    generating[keys] = generates(G, cls.representatives[keys // n], keys % n)
    return _decompose(G, cls, np.where((rows >= 0) & generating[rows], rows, -1))


def _key_pairs(dec: OrbitDecomposition, orbit_id: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit's keys as pairs (reps[k], y), rep_rows[k, y] == orbit_id."""
    k, y = np.nonzero(dec.rep_rows == orbit_id)
    return conjugacy_classes(dec.group).representatives[k], y


def orbit_tau(dec: OrbitDecomposition, orbit: OrbitRecord, check_members: int = 16) -> int:
    """Trace invariant of an orbit of a PSL(2,q) host.

    Recomputes tau on at most `check_members` evenly spaced keys of the
    orbit and asserts constancy; check_members=None sweeps every key, and
    so the whole orbit.  ValueError if check_members < 1.
    """
    G = dec.group
    if G.kind != "psl2":
        raise ValueError("trace invariants require a PSL(2,q) host")
    if check_members is not None and check_members < 1:
        raise ValueError(f"check_members must be >= 1, got {check_members}")
    first, second = _key_pairs(dec, orbit.orbit_id)
    if check_members is not None and len(first) > check_members:
        pick = np.arange(check_members) * len(first) // check_members
        first, second = first[pick], second[pick]
    # the matrices of the sampled elements only; G.labels would make one per element
    mats = {g: G.matrix(g) for g in set(first.tolist()) | set(second.tolist())}
    for a, b in zip(first.tolist(), second.tolist()):
        t = trace_invariant(mats[a], mats[b])
        if t != orbit.tau:
            raise AssertionError(
                f"trace invariant not constant on orbit {orbit.orbit_id}: {t} != {orbit.tau}"
            )
    return orbit.tau


def higman_check(dec: OrbitDecomposition, orbit: OrbitRecord) -> tuple[int, bool]:
    """Commutator order of the orbit, plus the Higman containment check:
    every member's commutator is conjugate to [a,b] or [b,a] of the rep
    and has the orbit's commutator order, checked on the orbit's keys,
    whose commutators are conjugate to those of their members."""
    G = dec.group
    c0 = commutators(G, *orbit.canonical_rep)
    class_of = conjugacy_classes(G).class_of
    comms = commutators(G, *_key_pairs(dec, orbit.orbit_id))
    conjugate = np.isin(class_of[comms], [class_of[c0], class_of[G.inv[c0]]]).all()
    orders_match = (G.orders[comms] == orbit.commutator_order).all()
    return orbit.commutator_order, bool(conjugate and orders_match)


# ---------------------------------------------------------------------------
# automorphism action (PGammaL(2,q) on PSL(2,q) pairs)
# ---------------------------------------------------------------------------


def psl_automorphism_perms(G: FiniteGroup) -> tuple[np.ndarray, ...]:
    """The outer generators of Aut(PSL(2,q)) = PGammaL(2,q) as read-only
    index permutations: conjugation by diag(nu,1) for a non-square nu
    (odd q), and the Frobenius (k > 1).  Inner automorphisms fix every
    conjugation class of pairs, the orbit engine's nodes, so they are left
    out.  Computed once per group (`_outer_perms`)."""
    if G.kind != "psl2":
        raise ValueError("automorphism action implemented for PSL(2,q) hosts")
    return G.computed("aut_perms", _outer_perms)


def _outer_perms(G: FiniteGroup) -> tuple[np.ndarray, ...]:
    f = G.field
    perms = []
    if f.q % 2 == 1:
        nu = next(a for a in range(1, f.q) if not f.is_square(a))
        # x -> g^-1 x g for g = diag(nu, 1), in PGL(2,q) but not PSL as nu is a non-square
        over_nu, mulT = f.inv(nu), f.mul_table
        perms.append(entry_perm(G, lambda a, b, c, d: (a, mulT[b, over_nu], mulT[c, nu], d)))
    if f.k > 1:
        perms.append(entry_perm(G, lambda *entries: [f.frobenius[e] for e in entries]))
    return _read_only(*perms)


def _aut_moves(G: FiniteGroup, i: np.ndarray, j: np.ndarray) -> list:
    """Images of the pairs under each outer automorphism generator, diagonally."""
    return [(perm[i], perm[j]) for perm in psl_automorphism_perms(G)]


def aut_orbit_decomposition(G: FiniteGroup) -> OrbitDecomposition:
    """Orbits of the generating pairs under the diagonal PGammaL(2,q) action:
    the engine's rows, masked by the generating rows of the Nielsen orbits,
    as automorphisms preserve generation."""
    generating = decompose_nielsen_orbits(G).rep_rows >= 0
    cls = conjugacy_classes(G)
    rows = np.where(generating, _rep_rows(G, cls, _aut_moves), -1)
    return OrbitDecomposition(G, *_decompose(G, cls, rows))


def joint_orbit_decomposition(G: FiniteGroup) -> OrbitDecomposition:
    """Orbits of the generating pairs under Nielsen moves and automorphisms.
    Automorphisms commute with the moves, so an outer generator maps each
    Nielsen orbit onto the orbit of its image of the orbit's rep, and
    `_components` over the Nielsen ids, one edge per orbit and generator,
    joins them.  A joint orbit takes the id order, rep, tau and commutator
    order of its least Nielsen orbit, whose least member is its own."""
    dec = decompose_nielsen_orbits(G)
    i, j = np.array([o.canonical_rep for o in dec.orbits], dtype=np.intp).reshape(-1, 2).T
    perms = psl_automorphism_perms(G)
    src = np.tile(np.arange(len(i)), len(perms))
    dst = np.concatenate([dec.orbit_ids(p[i], p[j]) for p in perms] + [np.empty(0, dtype=np.intp)])
    least = _components(len(i), src, dst)
    roots = np.flatnonzero(least == np.arange(len(i)))
    remap = np.full(len(i) + 1, -1, dtype=dec.rep_rows.dtype)  # its last entry maps -1 to -1
    remap[:-1] = np.searchsorted(roots, least)
    sizes = [0] * len(roots)
    for k, o in zip(remap.tolist(), dec.orbits):
        sizes[k] += o.size
    orbits = tuple(dec.orbits[r]._replace(orbit_id=k, size=sizes[k]) for k, r in enumerate(roots.tolist()))
    rows = remap[dec.rep_rows]
    _read_only(rows)
    return OrbitDecomposition(G, orbits, rows, dec.rep_orders)


def trace_spectrum(dec: OrbitDecomposition) -> set[int]:
    """Set of trace invariants over the generating orbits of a PSL host."""
    if dec.group.kind != "psl2":
        raise ValueError("trace spectrum requires a PSL(2,q) host")
    return {o.tau for o in dec.orbits}
