"""One driver per verified claim, each returning a structured report.

Every driver recomputes its claim from group data (no hard-coded
conclusions): spectra come out of orbit decompositions, freeness out of
exhaustive member scans, group orders out of coset enumeration.  A
failed report always carries a concrete witness or mismatch description
in its evidence.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import cache as cache_mod
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
)
from .matrices import mat_from_ints
from .nielsen import (
    OrbitDecomposition,
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    joint_orbit_decomposition,
)


class PreconditionError(ValueError):
    """Claim driver invoked outside its hypothesis."""


@dataclass
class ClaimReport:
    claim_id: str
    parameters: dict
    passed: bool
    evidence: dict
    elapsed_ms: float
    tool_version: str = cache_mod.TOOL_VERSION
    cache_hit: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# shared builders (memoized per process and budget, so a smaller budget
# meets the builder's check again; orbit rep rows optionally disk-cached)
# ---------------------------------------------------------------------------


def psl(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    return _built(build_psl2, q, pair_budget)


def sl(q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FiniteGroup:
    return _built(build_sl2, q, pair_budget)


@functools.lru_cache(maxsize=None)
def _built(build, q: int, pair_budget: int) -> FiniteGroup:
    # positional only, so every spelling of a psl/sl call shares one entry
    return build(q, pair_budget)


# group name -> (decomposition, disk cache hit); a rebuilt group of the
# same name reuses the first decomposition
_DECOMP: dict[str, tuple[OrbitDecomposition, bool]] = {}


def gamma_orbits(
    G: FiniteGroup, cache_dir: Optional[Path] = None
) -> tuple[OrbitDecomposition, bool]:
    """Nielsen decomposition of the generating pairs, with caching."""
    if G.name in _DECOMP:
        return _DECOMP[G.name]
    rows = None
    if cache_dir is not None:
        shape = (len(conjugacy_classes(G).representatives), G.n)
        rows = cache_mod.load_labels(cache_dir, G.name, shape)
    hit = rows is not None
    dec = decompose_nielsen_orbits(G, rep_rows=rows)
    if cache_dir is not None and not hit:
        cache_mod.save_labels(cache_dir, G.name, labels=dec.rep_rows)
    _DECOMP[G.name] = (dec, hit)
    return dec, hit


def _orbit_evidence(dec: OrbitDecomposition, mn: tuple[int, int]) -> list[dict]:
    flags = dec.mn_free_flags(*mn)
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


def _timed(claim_id: str, parameters: dict, t0: float, passed: bool, evidence: dict, hit=False):
    return ClaimReport(
        claim_id=claim_id,
        parameters=parameters,
        passed=passed,
        evidence=evidence,
        elapsed_ms=round((time.perf_counter() - t0) * 1000.0, 3),
        cache_hit=hit,
    )


# ---------------------------------------------------------------------------
# claim drivers
# ---------------------------------------------------------------------------


def verify_trace_table(q: int, cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Spectrum of trace invariants over generating pairs matches the table."""
    t0 = time.perf_counter()
    G = psl(q, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
    spectrum = {o.tau for o in dec.orbits}
    expected = expected_trace_spectrum(q)
    f = G.field
    evidence = {
        "spectrum": sorted(f.format_element(t) for t in spectrum),
        "expected": sorted(f.format_element(t) for t in expected),
        "orbit_count": len(dec.orbits),
        "gamma_size": dec.gamma_size(),
    }
    return _timed("trace-table", {"q": q}, t0, spectrum == expected, evidence, hit)


def verify_prop_key(q: int, pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """No generating pair (A,B) of SL(2,q), q = 3 mod 4, with A^4 = I has
    tr([A,B]) = -2.  One A per conjugacy class; B exhaustive."""
    t0 = time.perf_counter()
    if q % 4 != 3:
        raise PreconditionError(f"q = {q} is not congruent to 3 mod 4")
    G = sl(q, pair_budget)
    f = G.field
    minus_two = f.neg(f.two)
    traces = np.array([m.trace() for m in G.labels], dtype=np.int64)
    classes = conjugacy_classes(G)
    reps4 = [g for g in classes.representatives if 4 % G.order_of(g) == 0]
    allb = np.arange(G.n)
    suspects = 0
    checked_b = 0
    for a in reps4:
        bad = np.flatnonzero(traces[commutators(G, a, allb)] == minus_two)
        checked_b += G.n
        for b in bad:
            suspects += 1
            if generates(G, a, int(b)):
                evidence = {
                    "violating_pair": [G.labels[a].serialize(), G.labels[int(b)].serialize()],
                }
                return _timed("prop-key", {"q": q}, t0, False, evidence)
    evidence = {
        "class_reps_with_A4_eq_I": len(reps4),
        "pairs_scanned": checked_b,
        "trace_minus2_pairs_all_nongenerating": suspects,
    }
    return _timed("prop-key", {"q": q}, t0, True, evidence)


def _cube_in_center(G: FiniteGroup) -> np.ndarray:
    e = G.identity
    minus_e = G.index_of_matrix(G.labels[e].neg())
    g = np.arange(G.n)
    return np.flatnonzero(np.isin(G.mult[G.mult[g, g], g], (e, minus_e)))


def _lemma_scan(q: int, bad_traces: set[int], pair_budget: int) -> tuple[bool, dict]:
    """Every pair (a, b) of elements with cube +-I whose commutator trace is
    in bad_traces must not generate SL(2,q); on failure, the first such
    generating pair in row-major (a, b) order is the witness."""
    G = sl(q, pair_budget)
    f = G.field
    qualifying = _cube_in_center(G)
    traces = np.array([m.trace() for m in G.labels], dtype=np.int64)
    comms = commutators(G, qualifying[:, None], qualifying[None, :])
    suspects = np.isin(traces[comms], list(bad_traces))
    for x, y in np.argwhere(suspects).tolist():
        a, b = int(qualifying[x]), int(qualifying[y])
        if generates(G, a, b):
            return False, {
                "violating_pair": [G.labels[a].serialize(), G.labels[b].serialize()],
                "trace": f.format_element(int(traces[comms[x, y]])),
            }
    return True, {
        "qualifying_elements": len(qualifying),
        "pairs_scanned": len(qualifying) ** 2,
        "bad_trace_pairs_all_nongenerating": int(suspects.sum()),
    }


def verify_lemma5(pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """Generating pairs of SL(2,5) with A^3, B^3 in {I,-I} avoid trace -2."""
    t0 = time.perf_counter()
    f5 = field_for_q(5)
    ok, evidence = _lemma_scan(5, {f5.neg(f5.two)}, pair_budget)
    # the permutation-level fact behind the lemma: in PSL(2,5) = Alt(5),
    # no commutator of two order-3 elements has order 5
    G = psl(5, pair_budget)
    order3 = np.flatnonzero(G.orders == 3)
    comm5 = int(np.count_nonzero(G.orders[commutators(G, order3[:, None], order3)] == 5))
    evidence["order3_commutators_of_order5"] = comm5
    ok = ok and not comm5
    return _timed("lemma5", {"q": 5}, t0, ok, evidence)


def verify_lemma7(pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """Generating pairs of SL(2,7) with A^3, B^3 in {I,-I} avoid traces +-3."""
    t0 = time.perf_counter()
    f7 = field_for_q(7)
    ok, evidence = _lemma_scan(7, {f7.from_int(3), f7.neg(f7.from_int(3))}, pair_budget)
    # supporting facts used in the proof
    G = sl(7, pair_budget)
    tr = {f7.from_int(3), f7.from_int(4)}
    orders8 = {G.order_of(g) for g in range(G.n) if G.labels[g].trace() in tr}
    evidence["orders_of_trace_pm3_elements"] = sorted(orders8)
    P = psl(7, pair_budget)
    psl_orders = {
        P.order_of(P.index_of_matrix(G.labels[g]))
        for g in range(G.n)
        if G.labels[g].trace() in tr
    }
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
        if m is None:
            raise PreconditionError("case (iii) needs m")
        import math

        if not (m % p == 0 or math.gcd(m, (q + 1) // 2) >= 3 or math.gcd(m, (q - 1) // 2) >= 3):
            raise PreconditionError(
                f"(m,q)=({m},{q}) fails: p|m or gcd(m,(q+1)/2)>=3 or gcd(m,(q-1)/2)>=3"
            )
        return (2, m)
    if case == "iv":
        if q < 5:
            raise PreconditionError("case (iv) needs q >= 5")
        return (3, 3)
    raise PreconditionError(f"unknown case {case!r}")


def verify_theorem(
    case: str,
    q: int,
    m: Optional[int] = None,
    cache_dir=None,
    pair_budget=DEFAULT_PAIR_BUDGET,
) -> ClaimReport:
    """Main non-lifting claim: PSL(2,q) is (m,n)-generated yet some
    Nielsen orbit of its generating pairs is (m,n)-free."""
    t0 = time.perf_counter()
    mn = _theorem_mn(case, q, m)
    G = psl(q, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
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
        "orbits": _orbit_evidence(dec, mn),
    }
    params = {"case": case, "q": q}
    if m is not None:
        params["m"] = m
    return _timed(f"thm-{case}", params, t0, passed, evidence, hit)


def verify_s2p2(q: int, cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """(2,p)-generating pairs only reach traces of the form s^2+2, and the
    full spectrum is strictly larger."""
    t0 = time.perf_counter()
    f = field_for_q(q)
    if q % 2 == 0 or not (q % 4 == 1 or q >= 11):
        raise PreconditionError("needs odd q with q = 1 mod 4 or q >= 11")
    G = psl(q, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
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
    return _timed("s2p2", {"q": q}, t0, inside and bool(outside), evidence, hit)


def verify_psl25_lift(cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """Every generating pair of PSL(2,5) lifts to C_2 * C_5: all three
    Nielsen orbits contain a (2,5)-generating pair; plus the published
    representatives land in three distinct orbits."""
    t0 = time.perf_counter()
    G = psl(5, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
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
    S = sl(5, pair_budget)
    classes = conjugacy_classes(S)
    AC = S.index_of_matrix((A.inverse() * C.inverse()) * (A * C))
    BD = S.index_of_matrix((B.inverse() * D.inverse()) * (B * D))
    rivals = [BD, S.inv_of(BD), S.index_of_matrix(S.labels[BD].neg()),
              S.index_of_matrix(S.labels[S.inv_of(BD)].neg())]
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
    return _timed("psl25-lift", {}, t0, passed, evidence, hit)


def verify_remark(m: int, q: int, cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Traces over (2,m)-generating pairs hit every value except 2."""
    t0 = time.perf_counter()
    G = psl(q, pair_budget)
    f = G.field
    dec, hit = gamma_orbits(G, cache_dir)
    flags = dec.mn_free_flags(2, m)
    values = {o.tau for o in dec.orbits if not flags[o.orbit_id]}
    expected = set(range(f.q)) - {f.two}
    evidence = {
        "tau_over_2m_pairs": sorted(f.format_element(v) for v in values),
        "expected": sorted(f.format_element(v) for v in expected),
    }
    return _timed("remark", {"m": m, "q": q}, t0, values == expected, evidence, hit)


def verify_miller_332(pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
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


def verify_dihedral(m: int, cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET) -> ClaimReport:
    """Every Nielsen orbit of the generating pairs of D_2m contains a
    (2,2)-generating pair (so all generating pairs lift to C_2 * C_2)."""
    t0 = time.perf_counter()
    if m < 3:
        raise PreconditionError("dihedral claim stated for m >= 3")
    G = build_dihedral(m, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
    flags = dec.mn_free_flags(2, 2)
    stuck = [o.orbit_id for o in dec.orbits if flags[o.orbit_id]]
    witnesses = []
    for o in dec.orbits:
        if flags[o.orbit_id]:
            continue
        for (i, j) in dec.members(o.orbit_id):
            if 2 % G.order_of(i) == 0 and 2 % G.order_of(j) == 0:
                witnesses.append({"orbit": o.orbit_id, "pair": [G.labels[i], G.labels[j]]})
                break
    evidence = {
        "orbit_count": len(dec.orbits),
        "orbits_without_22_pair": stuck,
        "witnesses": witnesses,
    }
    return _timed("dihedral", {"m": m}, t0, not stuck, evidence, hit)


def verify_example_alt5(cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """The PSL(2,5) = Alt(5) example: 2280 generating pairs; Nielsen orbit
    sizes {600,600,1080}; 19 automorphism orbits of size 120; joint
    orbits of sizes {1080,1200}."""
    t0 = time.perf_counter()
    G = psl(5, pair_budget)
    dec, hit = gamma_orbits(G, cache_dir)
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
    return _timed("example-alt5", {}, t0, passed, evidence, hit)


def verify_small_q_lifting(cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET, **_) -> ClaimReport:
    """For q in {2,3} every Nielsen orbit contains a (2,3)-generating pair."""
    t0 = time.perf_counter()
    results = {}
    for q in (2, 3):
        G = psl(q, pair_budget)
        dec, _hit = gamma_orbits(G, cache_dir)
        flags = dec.mn_free_flags(2, 3)
        results[q] = {
            "orbit_count": len(dec.orbits),
            "orbits_without_23_pair": [oid for oid, fr in flags.items() if fr],
        }
    passed = all(not r["orbits_without_23_pair"] for r in results.values())
    return _timed("small-q-lift", {}, t0, passed, {"per_q": results})


def verify_all(max_q: int = 11, cache_dir=None, pair_budget=DEFAULT_PAIR_BUDGET) -> list[ClaimReport]:
    """The standard desk-scale battery, bounded by max_q."""
    kw = {"cache_dir": cache_dir, "pair_budget": pair_budget}
    reports = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        if q <= max_q:
            reports.append(verify_trace_table(q, **kw))
    for q in (7, 11):
        if q <= max_q:
            reports.append(verify_prop_key(q, **kw))
    reports.append(verify_lemma5(**kw))
    reports.append(verify_lemma7(**kw))
    for q in (4, 5, 7, 8, 11, 13):
        if q <= max_q:
            reports.append(verify_theorem("i", q, **kw))
    for q in (7, 11, 13):
        if q <= max_q:
            reports.append(verify_theorem("ii", q, **kw))
    for m, q in ((4, 7), (7, 7), (3, 11), (5, 11), (6, 11)):
        if q <= max_q:
            reports.append(verify_theorem("iii", q, m=m, **kw))
    for q in (5, 7, 9, 11):
        if q <= max_q:
            reports.append(verify_theorem("iv", q, **kw))
    if max_q >= 13:
        reports.append(verify_s2p2(13, **kw))
        reports.append(verify_remark(7, 13, **kw))
    reports.append(verify_psl25_lift(**kw))
    reports.append(verify_miller_332(**kw))
    for m in range(3, 13):
        reports.append(verify_dihedral(m, **kw))
    reports.append(verify_example_alt5(**kw))
    reports.append(verify_small_q_lifting(**kw))
    return reports
