"""One driver per verified claim, each returning a structured report.

Every driver recomputes its claim from group data (no hard-coded
conclusions): spectra come out of orbit decompositions, freeness out of
the (m,n)-flags read off the orbits' rep rows, group orders out of coset
enumeration.  A failed report always carries a concrete witness or
mismatch description in its evidence.

`CLAIMS` is the one list of claims: claim id -> (driver, required
parameter names), which the CLI dispatches through.  `BATTERY` is the
desk-scale battery as (claim id, parameters) entries in report order;
`verify_all` runs each entry whose q, where it has one, is at most max_q.

The drivers call the group builders, which return the one group kept
for each q once its budget is checked, and read a group's Nielsen orbits
through `nielsen.decompose_nielsen_orbits`, which computes them once per
group.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .field import field_for_q
from .fpgroups import abelianization, group_from_coset_table, parse_presentation, todd_coxeter
from .groupcore import (
    DEFAULT_PAIR_BUDGET,
    FiniteGroup,
    build_dihedral,
    build_psl2,
    build_sl2,
    commutators,
    conjugacy_classes,
    derived_series,
    generates,
    matrix_entries,
)
from .matrices import mat_from_ints
from .nielsen import (
    OrbitDecomposition,
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    joint_orbit_decomposition,
)


TOOL_VERSION = "0.1.0"


class PreconditionError(ValueError):
    """Claim driver invoked outside its hypothesis."""


@dataclass
class ClaimReport:
    claim_id: str
    parameters: dict
    passed: bool
    evidence: dict
    elapsed_ms: float
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        # shallow: json.dumps walks the nested evidence anyway, and a deep copy
        # of it costs more than the dump
        return {f.name: getattr(self, f.name) for f in fields(self)}


def gamma_orbits(G: FiniteGroup, _unused=None) -> tuple[OrbitDecomposition, bool]:
    # kept only for perfbench's workloads, which call gamma_orbits(G, None) and
    # unpack two values; ROADMAP item 4 removes it.  Nothing in src/ calls it
    return decompose_nielsen_orbits(G), False


def _orbit_evidence(dec: OrbitDecomposition, mn: tuple[int, int], flags: dict) -> list[dict]:
    f = dec.group.field
    out = []
    for o in dec.orbits:
        out.append(
            {
                "id": o.orbit_id,
                "size": o.size,
                "tau": f.format_element(o.tau) if f is not None else None,
                "commutator_order": o.commutator_order,
                f"{mn[0]},{mn[1]}-free": flags[o.orbit_id],
            }
        )
    return out


def expected_trace_spectrum(q: int) -> set[int]:
    """The known classification of trace invariants over generating pairs."""
    f = field_for_q(q)
    allv = set(range(f.q))
    if q == 5:
        return {f.from_int(1), f.from_int(3)}
    if q == 7:
        return {f.from_int(3), f.from_int(4), f.from_int(5), f.from_int(6)}
    if q in (3, 9, 11):
        return allv - {f.one, f.two}
    return allv - {f.two}


def _timed(claim_id: str, parameters: dict, t0: float, passed: bool, evidence: dict):
    return ClaimReport(
        claim_id=claim_id,
        parameters=parameters,
        passed=passed,
        evidence=evidence,
        elapsed_ms=round((time.perf_counter() - t0) * 1000.0, 3),
    )


# ---------------------------------------------------------------------------
# claim drivers
# ---------------------------------------------------------------------------


def verify_trace_table(q: int, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Spectrum of trace invariants over generating pairs matches the table."""
    t0 = time.perf_counter()
    G = build_psl2(q, pair_budget)
    dec = decompose_nielsen_orbits(G)
    spectrum = {o.tau for o in dec.orbits}
    expected = expected_trace_spectrum(q)
    f = G.field
    evidence = {
        "spectrum": sorted(f.format_element(t) for t in spectrum),
        "expected": sorted(f.format_element(t) for t in expected),
        "orbit_count": len(dec.orbits),
        "gamma_size": dec.gamma_size(),
    }
    return _timed("trace-table", {"q": q}, t0, spectrum == expected, evidence)


def _traces(G: FiniteGroup) -> np.ndarray:
    """The trace a + d of every element of a matrix group, by index."""
    a, _b, _c, d = matrix_entries(G)
    return G.field.add_table[a, d]


def _bad_trace_scan(G: FiniteGroup, a: np.ndarray, b: np.ndarray, bad_traces: set[int]):
    """The pairs (a[x], b[y]) whose commutator trace is in bad_traces, tested
    for generation in one call: how many there are, and the first in row-major
    (x, y) order that generates G, as (a, b, trace), or None."""
    traces = _traces(G)[commutators(G, a[:, None], b[None, :])]
    x, y = np.nonzero(np.isin(traces, list(bad_traces)))  # row-major
    generating = generates(G, a[x], b[y])
    if not generating.any():
        return len(x), None
    first = int(np.argmax(generating))
    i, j = x[first], y[first]
    return len(x), (int(a[i]), int(b[j]), int(traces[i, j]))


def verify_prop_key(q: int, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """No generating pair (A,B) of SL(2,q), q = 3 mod 4, with A^4 = I has
    tr([A,B]) = -2.  One A per conjugacy class; B exhaustive."""
    t0 = time.perf_counter()
    if q % 4 != 3:
        raise PreconditionError(f"q = {q} is not congruent to 3 mod 4")
    G = build_sl2(q, pair_budget)
    f = G.field
    reps = conjugacy_classes(G).representatives
    reps4 = reps[4 % G.orders[reps] == 0]
    suspects, witness = _bad_trace_scan(G, reps4, np.arange(G.n), {f.neg(f.two)})
    if witness is not None:
        evidence = {"violating_pair": [G.matrix(g).serialize() for g in witness[:2]]}
        return _timed("prop-key", {"q": q}, t0, False, evidence)
    evidence = {
        "class_reps_with_A4_eq_I": len(reps4),
        "pairs_scanned": len(reps4) * G.n,
        "trace_minus2_pairs_all_nongenerating": suspects,
    }
    return _timed("prop-key", {"q": q}, t0, True, evidence)


def _cube_in_center(G: FiniteGroup) -> np.ndarray:
    e = G.identity
    minus_e = G.index_of_matrix(G.matrix(e).neg())
    g = np.arange(G.n)
    return np.flatnonzero(np.isin(G.mul(G.mul(g, g), g), (e, minus_e)))


def _lemma_scan(q: int, bad_traces: set[int], pair_budget: int) -> tuple[bool, dict]:
    """Every pair (a, b) of elements with cube +-I whose commutator trace is
    in bad_traces must not generate SL(2,q); `_bad_trace_scan` finds the witness."""
    G = build_sl2(q, pair_budget)
    qualifying = _cube_in_center(G)
    suspects, witness = _bad_trace_scan(G, qualifying, qualifying, bad_traces)
    if witness is not None:
        return False, {
            "violating_pair": [G.matrix(g).serialize() for g in witness[:2]],
            "trace": G.field.format_element(witness[2]),
        }
    return True, {
        "qualifying_elements": len(qualifying),
        "pairs_scanned": len(qualifying) ** 2,
        "bad_trace_pairs_all_nongenerating": suspects,
    }


def verify_lemma5(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Generating pairs of SL(2,5) with A^3, B^3 in {I,-I} avoid trace -2."""
    t0 = time.perf_counter()
    f5 = field_for_q(5)
    ok, evidence = _lemma_scan(5, {f5.neg(f5.two)}, pair_budget)
    # the permutation-level fact behind the lemma: in PSL(2,5) = Alt(5),
    # no commutator of two order-3 elements has order 5
    G = build_psl2(5, pair_budget)
    order3 = np.flatnonzero(G.orders == 3)
    comm5 = int(np.count_nonzero(G.orders[commutators(G, order3[:, None], order3)] == 5))
    evidence["order3_commutators_of_order5"] = comm5
    ok = ok and not comm5
    return _timed("lemma5", {"q": 5}, t0, ok, evidence)


def verify_lemma7(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Generating pairs of SL(2,7) with A^3, B^3 in {I,-I} avoid traces +-3."""
    t0 = time.perf_counter()
    f7 = field_for_q(7)
    ok, evidence = _lemma_scan(7, {f7.from_int(3), f7.neg(f7.from_int(3))}, pair_budget)
    # supporting facts used in the proof
    G = build_sl2(7, pair_budget)
    pm3 = np.isin(_traces(G), [f7.from_int(3), f7.from_int(4)])
    orders8 = set(G.orders[pm3].tolist())
    evidence["orders_of_trace_pm3_elements"] = sorted(orders8)
    P = build_psl2(7, pair_budget)
    images = P.entry_indices(*matrix_entries(G, pm3))
    psl_orders = set(P.orders[images].tolist())
    evidence["psl_image_orders"] = sorted(psl_orders)
    ok = ok and orders8 == {8} and psl_orders == {4}
    return _timed("lemma7", {"q": 7}, t0, ok, evidence)


def _theorem_mn(case: str, q: int, m: Optional[int]) -> tuple[int, int]:
    f = field_for_q(q)
    p = f.p
    if case == "i":
        if q < 4 or q == 9:
            raise PreconditionError("case (i) needs q >= 4, q != 9")
        return (2, 3)
    if case == "ii":
        if p < 3 or q < 7 or q == 9:
            raise PreconditionError("case (ii) needs q = p^k, p >= 3, q >= 7, q != 9")
        return (2, p)
    if case == "iii":
        if q % 4 != 3 or q == 3:
            raise PreconditionError("case (iii) needs q = 3 mod 4, q != 3")
        if m is None or m < 1:
            raise PreconditionError("case (iii) needs m >= 1")
        if not (m % p == 0 or math.gcd(m, (q + 1) // 2) >= 3 or math.gcd(m, (q - 1) // 2) >= 3):
            raise PreconditionError(
                f"(m,q)=({m},{q}) fails: p|m or gcd(m,(q+1)/2)>=3 or gcd(m,(q-1)/2)>=3"
            )
        return (2, m)
    if case == "iv":
        # its mechanism is a (3,3)-free tau = 0 orbit; in characteristic 2,
        # tau = 0 is tau = 2, the reducible value, where no generating pair lies
        if q < 5 or q % 2 == 0:
            raise PreconditionError("case (iv) needs odd q >= 5")
        return (3, 3)
    raise PreconditionError(f"unknown case {case!r}")


def verify_theorem(
    case: str,
    q: int,
    m: Optional[int] = None,
    pair_budget=DEFAULT_PAIR_BUDGET,
) -> ClaimReport:
    """Main non-lifting claim: PSL(2,q) is (m,n)-generated yet some
    Nielsen orbit of its generating pairs is (m,n)-free."""
    t0 = time.perf_counter()
    mn = _theorem_mn(case, q, m)
    G = build_psl2(q, pair_budget)
    dec = decompose_nielsen_orbits(G)
    flags = dec.mn_free_flags(*mn)
    free = [o for o in dec.orbits if flags[o.orbit_id]]
    witnessed = [o for o in dec.orbits if not flags[o.orbit_id]]
    is_generated = bool(witnessed)
    f = G.field
    mechanism_ok = True
    mechanism = "exhaustive scan"
    if case == "i":
        if q % 2 == 1 and q not in (5, 7):
            mechanism = "tau=0 orbit with commutator of order 2 (Alt(4)-type obstruction)"
            mechanism_ok = any(o.tau == 0 and o.commutator_order == 2 for o in free)
        else:
            mechanism = "tau=+-1 orbit with commutator of order 3 (soluble-type obstruction)"
            pm1 = {f.one, f.minus_one}
            mechanism_ok = any(o.tau in pm1 and o.commutator_order == 3 for o in free)
    elif case == "iv" and q not in (5, 7):
        mechanism = "tau=0 orbit is (3,3)-free"
        mechanism_ok = any(o.tau == 0 for o in free)
    passed = is_generated and bool(free) and mechanism_ok
    evidence = {
        "mn": list(mn),
        "is_mn_generated": is_generated,
        "free_orbit_count": len(free),
        "mechanism": mechanism,
        "mechanism_ok": mechanism_ok,
        "orbits": _orbit_evidence(dec, mn, flags),
    }
    params = {"case": case, "q": q}
    if m is not None:
        params["m"] = m
    return _timed(f"thm-{case}", params, t0, passed, evidence)


def verify_s2p2(q: int, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """(2,p)-generating pairs only reach traces of the form s^2+2, and the
    full spectrum is strictly larger."""
    t0 = time.perf_counter()
    f = field_for_q(q)
    if q % 2 == 0 or not (q % 4 == 1 or q >= 11):
        raise PreconditionError("needs odd q with q = 1 mod 4 or q >= 11")
    G = build_psl2(q, pair_budget)
    dec = decompose_nielsen_orbits(G)
    s2p2 = f.squares_plus_two()
    flags = dec.mn_free_flags(2, f.p)
    inside = all(o.tau in s2p2 for o in dec.orbits if not flags[o.orbit_id])
    spectrum = {o.tau for o in dec.orbits}
    outside = sorted(spectrum - s2p2)
    evidence = {
        "squares_plus_two": sorted(f.format_element(v) for v in s2p2),
        "2p_pairs_inside_set": inside,
        "spectrum_values_outside_set": [f.format_element(v) for v in outside],
    }
    return _timed("s2p2", {"q": q}, t0, inside and bool(outside), evidence)


def verify_psl25_lift(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Every generating pair of PSL(2,5) lifts to C_2 * C_5: all three
    Nielsen orbits contain a (2,5)-generating pair; plus the published
    representatives land in three distinct orbits."""
    t0 = time.perf_counter()
    G = build_psl2(5, pair_budget)
    dec = decompose_nielsen_orbits(G)
    flags = dec.mn_free_flags(2, 5)
    all_liftable = not any(flags.values())
    f = G.field
    A = mat_from_ints(f, 0, 1, -1, 0)
    B = mat_from_ints(f, 0, 3, 3, 0)
    C = mat_from_ints(f, 1, 1, 0, 1)
    D = C * C
    pairs = [(A, C), (A, D), (B, D)]
    pair_ids = [(G.index_of_matrix(x), G.index_of_matrix(y)) for x, y in pairs]
    orbit_ids = [dec.orbit_of(p).orbit_id for p in pair_ids]
    taus = [dec.orbit_of(p).tau for p in pair_ids]
    # the two tau=3 orbits are separated by SL(2,5) conjugacy of commutators
    S = build_sl2(5, pair_budget)
    classes = conjugacy_classes(S)
    AC = S.index_of_matrix((A.inverse() * C.inverse()) * (A * C))
    BD = S.index_of_matrix((B.inverse() * D.inverse()) * (B * D))
    rivals = [BD, int(S.inv[BD]), S.index_of_matrix(S.matrix(BD).neg()),
              S.index_of_matrix(S.matrix(int(S.inv[BD])).neg())]
    separated = all(classes.class_of[AC] != classes.class_of[r] for r in rivals)
    passed = (
        len(dec.orbits) == 3
        and all_liftable
        and len(set(orbit_ids)) == 3
        and taus == [f.from_int(3), f.from_int(1), f.from_int(3)]
        and separated
    )
    evidence = {
        "orbit_count": len(dec.orbits),
        "every_orbit_has_25_pair": all_liftable,
        "representative_orbits": orbit_ids,
        "representative_taus": [f.format_element(t) for t in taus],
        "tau3_orbits_separated_by_conjugacy": separated,
    }
    return _timed("psl25-lift", {}, t0, passed, evidence)


def _remark_precondition(m: int, q: int) -> None:
    """The hypothesis of `verify_remark`, checked before any build.

    For odd q an involution A has trace 0, so tau = y^2 + z^2 - 2 with
    y = tr B, z = tr AB, and tau = -2 needs y^2 = -z^2: -1 a square
    (q = 1 mod 4), or y = z = 0, where <A, B> is dihedral.  So q = 3
    mod 4 never reaches -2.  B must also reach the torus orders
    (q - 1)/2 or (q + 1)/2 (q - 1 or q + 1 for even q): on the grid of
    4 <= q <= 29 and m < 64, every passing (m, q) has m a multiple of one
    of them, and q = 5, 9, whose full spectra miss more than 2, pass for
    no m.  The hypothesis is necessary there, not sufficient: (3, 4),
    (6, 13), (8, 17), (12, 25) and (15, 29) meet it and fail, as do their
    multiples that the other torus order does not divide.
    """
    field_for_q(q)  # rejects q that is not a prime power
    if q < 4 or q % 4 == 3 or q in (5, 9):
        raise PreconditionError("remark needs q = 1 mod 4 or q even, q >= 4, q not 5 or 9")
    tori = (q - 1, q + 1) if q % 2 == 0 else ((q - 1) // 2, (q + 1) // 2)
    if m < 1 or all(m % d for d in tori):
        raise PreconditionError(f"remark needs m >= 1 divisible by {tori[0]} or {tori[1]} at q = {q}")


def verify_remark(m: int, q: int, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Traces over (2,m)-generating pairs hit every value except 2, under
    the hypothesis of `_remark_precondition`."""
    t0 = time.perf_counter()
    _remark_precondition(m, q)
    G = build_psl2(q, pair_budget)
    f = G.field
    dec = decompose_nielsen_orbits(G)
    flags = dec.mn_free_flags(2, m)
    values = {o.tau for o in dec.orbits if not flags[o.orbit_id]}
    expected = set(range(f.q)) - {f.two}
    evidence = {
        "tau_over_2m_pairs": sorted(f.format_element(v) for v in values),
        "expected": sorted(f.format_element(v) for v in expected),
    }
    return _timed("remark", {"m": m, "q": q}, t0, values == expected, evidence)


def verify_miller_332(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """The (3,3,2) Miller group: order 288, derived length 3,
    abelianization C3 x C3, second derived subgroup C2."""
    t0 = time.perf_counter()
    pres = parse_presentation("gens: x y\nrels: x^3 y^3 [x,y]^2")
    table = todd_coxeter(pres, max_cosets=10**5)
    K = group_from_coset_table(table, pair_budget)
    series = derived_series(K)
    lengths = [len(s) for s in series]
    ab = abelianization(pres)
    second = series[2] if len(series) > 2 else None
    second_ok = second is not None and len(second) == 2
    passed = (
        table.coset_count == 288
        and lengths == [288, 32, 2, 1]
        and ab == [3, 3]
        and second_ok
    )
    evidence = {
        "order": table.coset_count,
        "derived_series_orders": lengths,
        "abelianization": ab,
        "second_derived_order": None if second is None else len(second),
    }
    return _timed("miller-332", {}, t0, passed, evidence)


def verify_dihedral(m: int, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Every Nielsen orbit of the generating pairs of D_2m contains a
    (2,2)-generating pair (so all generating pairs lift to C_2 * C_2)."""
    t0 = time.perf_counter()
    if m < 3:
        raise PreconditionError("dihedral claim stated for m >= 3")
    G = build_dihedral(m, pair_budget)
    dec = decompose_nielsen_orbits(G)
    flags = dec.mn_free_flags(2, 2)
    stuck = [o.orbit_id for o in dec.orbits if flags[o.orbit_id]]
    # every (2,2) pair in one grid, in id order, so a first hit is an orbit's least witness
    s = np.flatnonzero(2 % G.orders == 0)
    ids, first = np.unique(dec.orbit_ids(s[:, None], s), return_index=True)
    names = [G.labels[x] for x in s.tolist()]
    witnesses = [
        {"orbit": oid, "pair": [names[at // len(s)], names[at % len(s)]]}
        for oid, at in zip(ids.tolist(), first.tolist())
        if oid >= 0
    ]
    evidence = {
        "orbit_count": len(dec.orbits),
        "orbits_without_22_pair": stuck,
        "witnesses": witnesses,
    }
    return _timed("dihedral", {"m": m}, t0, not stuck, evidence)


def verify_example_alt5(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """The PSL(2,5) = Alt(5) example: 2280 generating pairs; Nielsen orbit
    sizes {600,600,1080}; 19 automorphism orbits of size 120; joint
    orbits of sizes {1080,1200}."""
    t0 = time.perf_counter()
    G = build_psl2(5, pair_budget)
    dec = decompose_nielsen_orbits(G)
    nielsen_sizes = sorted(o.size for o in dec.orbits)
    aut = aut_orbit_decomposition(G)
    aut_sizes = [o.size for o in aut.orbits]
    joint = joint_orbit_decomposition(G)
    joint_sizes = sorted(o.size for o in joint.orbits)
    pgl_order = 120  # |PGammaL(2,5)| = |PGL(2,5)|
    passed = (
        dec.gamma_size() == 2280
        and nielsen_sizes == [600, 600, 1080]
        and len(aut_sizes) == 19
        and set(aut_sizes) == {pgl_order}
        and joint_sizes == [1080, 1200]
    )
    evidence = {
        "gamma_size": dec.gamma_size(),
        "nielsen_orbit_sizes": nielsen_sizes,
        "aut_orbit_count": len(aut_sizes),
        "aut_orbit_sizes": sorted(set(aut_sizes)),
        "joint_orbit_sizes": joint_sizes,
    }
    return _timed("example-alt5", {}, t0, passed, evidence)


def verify_small_q_lifting(pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """For q in {2,3} every Nielsen orbit contains a (2,3)-generating pair."""
    t0 = time.perf_counter()
    results = {}
    for q in (2, 3):
        G = build_psl2(q, pair_budget)
        dec = decompose_nielsen_orbits(G)
        flags = dec.mn_free_flags(2, 3)
        results[q] = {
            "orbit_count": len(dec.orbits),
            "orbits_without_23_pair": [oid for oid, fr in flags.items() if fr],
        }
    passed = all(not r["orbits_without_23_pair"] for r in results.values())
    return _timed("small-q-lift", {}, t0, passed, {"per_q": results})


def _driver(name: str, *args) -> Callable[..., ClaimReport]:
    """The driver `name` of this module with leading `args`, looked up when
    called, not now, so a wrapper later set on the module attribute (as
    perfbench's tracer does) sees every claim run through CLAIMS."""
    return lambda **kw: globals()[name](*args, **kw)


# claim id -> (driver, required parameter names); every driver also takes
# pair_budget
CLAIMS: dict[str, tuple[Callable[..., ClaimReport], tuple[str, ...]]] = {
    "trace-table": (_driver("verify_trace_table"), ("q",)),
    "prop-key": (_driver("verify_prop_key"), ("q",)),
    "lemma5": (_driver("verify_lemma5"), ()),
    "lemma7": (_driver("verify_lemma7"), ()),
    "thm-i": (_driver("verify_theorem", "i"), ("q",)),
    "thm-ii": (_driver("verify_theorem", "ii"), ("q",)),
    "thm-iii": (_driver("verify_theorem", "iii"), ("q", "m")),
    "thm-iv": (_driver("verify_theorem", "iv"), ("q",)),
    "s2p2": (_driver("verify_s2p2"), ("q",)),
    "psl25-lift": (_driver("verify_psl25_lift"), ()),
    "remark": (_driver("verify_remark"), ("m", "q")),
    "miller-332": (_driver("verify_miller_332"), ()),
    "dihedral": (_driver("verify_dihedral"), ("m",)),
    "example-alt5": (_driver("verify_example_alt5"), ()),
    "small-q-lift": (_driver("verify_small_q_lifting"), ()),
}

# the desk-scale battery, (claim id, parameters) in report order
BATTERY: list[tuple[str, dict]] = (
    [("trace-table", {"q": q}) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [("prop-key", {"q": q}) for q in (7, 11)]
    + [("lemma5", {}), ("lemma7", {})]
    + [("thm-i", {"q": q}) for q in (4, 5, 7, 8, 11, 13)]
    + [("thm-ii", {"q": q}) for q in (7, 11, 13)]
    + [("thm-iii", {"q": q, "m": m}) for m, q in ((4, 7), (7, 7), (3, 11), (5, 11), (6, 11))]
    + [("thm-iv", {"q": q}) for q in (5, 7, 9, 11)]
    + [("s2p2", {"q": 13}), ("remark", {"m": 7, "q": 13}), ("psl25-lift", {}), ("miller-332", {})]
    + [("dihedral", {"m": m}) for m in range(3, 13)]
    + [("example-alt5", {}), ("small-q-lift", {})]
)


def verify_all(max_q: int = 11, pair_budget=DEFAULT_PAIR_BUDGET) -> list[ClaimReport]:
    """The claims of BATTERY whose q, where they have one, is at most max_q."""
    return [
        CLAIMS[cid][0](**params, pair_budget=pair_budget)
        for cid, params in BATTERY
        if params.get("q", max_q) <= max_q
    ]
