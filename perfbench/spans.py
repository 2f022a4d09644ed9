"""Spans around genlift's public functions, and the per-layer metrics
computed from them.

The tracer wraps the public names listed in TRACED from the outside: it
resolves each name when tracing starts, replaces it in every genlift
module namespace that holds it (``verify`` imports
``decompose_nielsen_orbits`` by name, for example), and skips and lists
any name that no longer exists.  Nothing under ``src/`` is edited.

A span records name, layer, start, end, parent, run id, ``ru_maxrss`` at
both ends, and a few counters taken from the call's arguments and result.
Spans stay in memory until the traced pass ends; ``rollup`` turns a list
of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

VERIFY_DRIVERS = (
    "verify_trace_table",
    "verify_prop_key",
    "verify_lemma5",
    "verify_lemma7",
    "verify_theorem",
    "verify_s2p2",
    "verify_psl25_lift",
    "verify_remark",
    "verify_miller_332",
    "verify_dihedral",
    "verify_example_alt5",
    "verify_small_q_lifting",
)

CLAIM_IDS = (
    "trace-table", "prop-key", "lemma5", "lemma7", "thm-i", "thm-ii", "thm-iii",
    "thm-iv", "s2p2", "psl25-lift", "remark", "miller-332", "dihedral",
    "example-alt5", "small-q-lift",
)

# layer -> public names to wrap; "Class.method" wraps a method on the class
TRACED = {
    "field": ("field_for_q", "make_field"),
    "matrices": ("trace_invariant",),
    "groupcore": (
        "build_psl2", "build_sl2", "build_dihedral", "closure_mask", "closure_size",
        "generates", "conjugacy_classes", "derived_series",
    ),
    "nielsen": (
        "decompose_nielsen_orbits", "aut_orbit_decomposition", "joint_orbit_decomposition",
        "psl_automorphism_perms", "OrbitDecomposition.__init__",
        "OrbitDecomposition.mn_free_flags",
    ),
    "fpgroups": ("todd_coxeter", "group_from_coset_table", "abelianization"),
    "verify": ("gamma_orbits",) + VERIFY_DRIVERS,
    "cache": ("load_labels", "save_labels"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

MB = 1024 * 1024


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<public name>"
    layer: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    rss_start_kb: int
    rss_end_kb: int
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


# -- counters taken from a call's arguments and result ----------------------


def _table_bytes(args, kwargs, result) -> dict:
    return {"table_bytes": int(result.mult.nbytes)}


def _pairs(args, kwargs, result) -> dict:
    n = result.group.n
    return {"pairs": n * n}


def _records(args, kwargs, result) -> dict:
    dec = args[0]  # OrbitDecomposition.__init__(self, ...)
    out = {"orbits": len(dec.orbits), "labels_bytes": int(dec.labels.nbytes)}
    if not dec.restricted:
        out["full_orbits"] = len(dec.orbits)
        out["full_generating"] = sum(1 for o in dec.orbits if o.is_generating)
    return out


def _cosets(args, kwargs, result) -> dict:
    return {"cosets": int(result.coset_count)}


def _claim(args, kwargs, result) -> dict:
    return {"claim": result.claim_id, "failed": 0 if result.passed else 1}


def _load(args, kwargs, result) -> dict:
    if result is None:
        return {"misses": 1}
    return {"hits": 1, "bytes": int(result.nbytes)}


def _save(args, kwargs, result) -> dict:
    labels = kwargs["labels"] if "labels" in kwargs else args[4]
    return {"bytes": int(labels.nbytes)}


OBSERVERS: dict[str, Callable] = {
    "groupcore.build_psl2": _table_bytes,
    "groupcore.build_sl2": _table_bytes,
    "groupcore.build_dihedral": _table_bytes,
    "nielsen.decompose_nielsen_orbits": _pairs,
    "nielsen.aut_orbit_decomposition": _pairs,
    "nielsen.joint_orbit_decomposition": _pairs,
    "nielsen.OrbitDecomposition.__init__": _records,
    "fpgroups.todd_coxeter": _cosets,
    "cache.load_labels": _load,
    "cache.save_labels": _save,
    **{f"verify.{name}": _claim for name in VERIFY_DRIVERS},
}


class Tracer:
    """Collects spans from wrapped genlift functions while `active`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, qualname: str, layer: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, qualname, layer, 0.0, 0.0, parent, tracer.run_id, _maxrss_kb(), 0)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counters["error"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                span.rss_end_kb = _maxrss_kb()
                tracer._stack.pop()
            if observe is not None:
                span.counters.update(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self, package: str = "genlift") -> None:
        """Wrap every name in TRACED that resolves; list the rest in `missing`."""
        importlib.import_module(package)
        for layer, names in TRACED.items():
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                qualname = f"{layer}.{name}"
                if "." in name:
                    self._install_method(module, qualname, layer, *name.split("."))
                else:
                    self._install_function(package, module, qualname, layer, name)

    def _install_method(self, module, qualname, layer, cls_name, meth_name) -> None:
        cls = getattr(module, cls_name, None)
        if cls is None or meth_name not in vars(cls):
            self.missing.append(qualname)
            return
        original = vars(cls)[meth_name]
        setattr(cls, meth_name, self._wrap(qualname, layer, original))
        self._undo.append(lambda: setattr(cls, meth_name, original))

    def _install_function(self, package, module, qualname, layer, name) -> None:
        original = getattr(module, name, None)
        if not callable(original):
            self.missing.append(qualname)
            return
        wrapper = self._wrap(qualname, layer, original)
        # replace the object in every namespace that imported it by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


# -- rollup -----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are keyed by (run_id, sid).  A span whose parent is not in the
    list counts as a root; child intervals are clipped to the parent and
    merged, so overlapping children are not subtracted twice.
    """
    keys = {(s.run_id, s.sid) for s in spans}
    children: dict[tuple[str, int], list[Span]] = {}
    for s in spans:
        pkey = (s.run_id, s.parent)
        if s.parent is not None and pkey in keys:
            children.setdefault(pkey, []).append(s)
    out = {}
    for s in spans:
        key = (s.run_id, s.sid)
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(key, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[key] = max(0.0, (s.end - s.start) - covered)
    return out


# metric -> span names whose self times it sums
SELF_TIME = {
    "field.build_s": ("field.field_for_q", "field.make_field"),
    "matrices.trace_invariant_s": ("matrices.trace_invariant",),
    "groupcore.build_s": ("groupcore.build_psl2", "groupcore.build_sl2", "groupcore.build_dihedral"),
    "groupcore.closure_s": ("groupcore.closure_mask", "groupcore.closure_size", "groupcore.generates"),
    "groupcore.classes_s": ("groupcore.conjugacy_classes",),
    "groupcore.derived_s": ("groupcore.derived_series",),
    "nielsen.decompose_s": ("nielsen.decompose_nielsen_orbits",),
    "nielsen.records_s": ("nielsen.OrbitDecomposition.__init__",),
    "nielsen.aut_s": ("nielsen.aut_orbit_decomposition",),
    "nielsen.joint_s": ("nielsen.joint_orbit_decomposition",),
    "nielsen.aut_perms_s": ("nielsen.psl_automorphism_perms",),
    "nielsen.mn_flags_s": ("nielsen.OrbitDecomposition.mn_free_flags",),
    "fpgroups.enum_s": ("fpgroups.todd_coxeter",),
    "fpgroups.regrep_s": ("fpgroups.group_from_coset_table",),
    "fpgroups.abelianization_s": ("fpgroups.abelianization",),
    "verify.gamma_orbits_s": ("verify.gamma_orbits",),
    "verify.scan_s": tuple(f"verify.{n}" for n in VERIFY_DRIVERS),
    "cache.load_s": ("cache.load_labels",),
    "cache.save_s": ("cache.save_labels",),
    "cli.main_self_s": ("cli.main",),
}

# metric -> (span name prefix, counter, scale)
COUNTER_SUMS = {
    "groupcore.table_mb": ("groupcore.build_", "table_bytes", 1 / MB),
    "nielsen.pairs": ("nielsen.", "pairs", 1),
    "nielsen.orbits_built": ("nielsen.OrbitDecomposition.__init__", "orbits", 1),
    "nielsen.labels_mb": ("nielsen.OrbitDecomposition.__init__", "labels_bytes", 1 / MB),
    "fpgroups.cosets": ("fpgroups.todd_coxeter", "cosets", 1),
    "verify.claims_failed": ("verify.verify_", "failed", 1),
    "cache.hits": ("cache.load_labels", "hits", 1),
    "cache.misses": ("cache.load_labels", "misses", 1),
    "cache.bytes_read": ("cache.load_labels", "bytes", 1),
    "cache.bytes_written": ("cache.save_labels", "bytes", 1),
}


def _counter(spans: list[Span], prefix: str, key: str) -> float:
    return sum(s.counters.get(key, 0) for s in spans if s.name.startswith(prefix))


def rollup(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from spans: every per_layer metric of
    BENCHMARK.json but trace.overhead_s, which run.py adds."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(selft[(s.run_id, s.sid)] for n in names for s in by_name.get(n, ()))
    for metric, (prefix, key, scale) in COUNTER_SUMS.items():
        out[metric] = _counter(spans, prefix, key) * scale
    out["matrices.trace_invariant_calls"] = len(by_name.get("matrices.trace_invariant", ()))
    out["groupcore.closure_calls"] = len(by_name.get("groupcore.closure_mask", ()))
    full = _counter(spans, "nielsen.OrbitDecomposition.__init__", "full_orbits")
    gen = _counter(spans, "nielsen.OrbitDecomposition.__init__", "full_generating")
    out["nielsen.generating_orbit_ratio"] = gen / full if full else 0.0
    claims = [s for s in spans if "claim" in s.counters]
    out["verify.claims"] = len(claims)
    for cid in CLAIM_IDS:
        out[f"verify.claim.{cid}_s"] = sum(
            s.end - s.start for s in claims if s.counters["claim"] == cid
        )
    out.update(_rss_rise(spans))
    return out


def _rss_rise(spans: list[Span]) -> dict[str, float]:
    """Rise in ru_maxrss across each layer's top-level spans, that is,
    spans with no ancestor of the same layer."""
    index = {(s.run_id, s.sid): s for s in spans}
    rise = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        parent = index.get((s.run_id, s.parent))
        while parent is not None and parent.layer != s.layer:
            parent = index.get((parent.run_id, parent.parent))
        if parent is None and s.layer in rise:
            rise[s.layer] += (s.rss_end_kb - s.rss_start_kb) / 1024
    return {f"{layer}.rss_rise_mb": v for layer, v in rise.items()}
