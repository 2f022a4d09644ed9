"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


def span(sid, start, end, parent=None, run_id="r", name="nielsen.decompose_nielsen_orbits"):
    return spans.Span(sid, name, name.split(".")[0], start, end, parent, run_id, 0, 0)


# -- self time ---------------------------------------------------------------


def test_self_time_nested_children():
    tree = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 2.0, 3.0, 1), span(3, 5.0, 6.0, 0)]
    st = spans.self_times(tree)
    assert st[("r", 0)] == pytest.approx(6.0)  # minus children 1 and 3, not grandchild 2
    assert st[("r", 1)] == pytest.approx(2.0)
    assert st[("r", 2)] == pytest.approx(1.0)
    assert st[("r", 3)] == pytest.approx(1.0)


def test_self_time_missing_children_and_parents():
    # no children: self time is the whole span; a span whose parent was not
    # recorded is a root and subtracts from nothing
    tree = [span(0, 0.0, 2.0), span(5, 0.5, 1.5, parent=4)]
    st = spans.self_times(tree)
    assert st[("r", 0)] == pytest.approx(2.0)
    assert st[("r", 5)] == pytest.approx(1.0)


def test_self_time_clips_and_merges_child_intervals():
    tree = [span(0, 0.0, 10.0), span(1, 8.0, 12.0, 0), span(2, 8.5, 9.0, 0), span(3, -1.0, 1.0, 0)]
    assert spans.self_times(tree)[("r", 0)] == pytest.approx(7.0)


def test_self_time_keeps_runs_apart():
    tree = [span(0, 0.0, 4.0, run_id="a"), span(1, 1.0, 2.0, 0, run_id="b")]
    st = spans.self_times(tree)
    assert st[("a", 0)] == pytest.approx(4.0)
    assert st[("b", 1)] == pytest.approx(1.0)


def test_rollup_counts_and_ratio():
    rec = "nielsen.OrbitDecomposition.__init__"
    tree = [
        span(0, 0.0, 5.0),
        span(1, 1.0, 3.0, 0, name=rec),
        span(2, 3.0, 4.0, 0, name=rec),
        span(3, 0.0, 1.0, name="verify.verify_theorem"),
    ]
    tree[0].counters = {"pairs": 100}
    tree[1].counters = {"orbits": 8, "full_orbits": 8, "full_generating": 2, "labels_bytes": 0}
    tree[2].counters = {"orbits": 2, "labels_bytes": 0}
    tree[3].counters = {"claim": "thm-i", "failed": 1}
    m = spans.rollup(tree)
    assert m["nielsen.decompose_s"] == pytest.approx(2.0)
    assert m["nielsen.records_s"] == pytest.approx(3.0)
    assert m["nielsen.pairs"] == 100
    assert m["nielsen.orbits_built"] == 10
    assert m["nielsen.generating_orbit_ratio"] == pytest.approx(0.25)
    assert m["verify.claims"] == 1 and m["verify.claims_failed"] == 1
    assert m["verify.claim.thm-i_s"] == pytest.approx(1.0)
    assert set(m) | {"trace.overhead_s"} == set(run.spec_units("per_layer"))


# -- metric names --------------------------------------------------------------


def test_metric_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_every_benchmark_workload_exists():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# -- tracer --------------------------------------------------------------------


def test_tracer_patches_importers_and_lists_missing_names(monkeypatch):
    from genlift import cli, nielsen, verify

    monkeypatch.setitem(spans.TRACED, "nielsen", spans.TRACED["nielsen"] + ("no_such_function",))
    original = nielsen.decompose_nielsen_orbits
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert "nielsen.no_such_function" in tracer.missing
        # verify and cli imported these by name; both see the wrapper
        assert verify.decompose_nielsen_orbits is nielsen.decompose_nielsen_orbits
        assert verify.decompose_nielsen_orbits is not original
        assert cli.aut_orbit_decomposition is nielsen.aut_orbit_decomposition
        G = verify.build_dihedral(4)
        tracer.active = True
        verify.gamma_orbits(G, None)
        tracer.active = False
        names = {s.name for s in tracer.spans}
        assert {"verify.gamma_orbits", "nielsen.decompose_nielsen_orbits",
                "nielsen.OrbitDecomposition.__init__", "groupcore.closure_mask"} <= names
    finally:
        tracer.uninstall()
    assert nielsen.decompose_nielsen_orbits is original
    assert verify.decompose_nielsen_orbits is original


# -- isolation -------------------------------------------------------------------


def test_second_runs_cold_pass_misses_the_cache():
    """Each run gets its own cache directory, so no run sees another's entries."""
    hits = []
    run.OUT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for i in range(2):
            r = run.Run("battery", 0, base / f"run{i}")
            r.round(0)
            assert r.failed == 0, r.problems
            for tag in ("cold", "warm"):
                report = json.loads((base / f"run{i}" / "round0" / f"{tag}0" / "report.json").read_text())
                hits.append(sum(c["cache_hit"] for c in report["claims"]))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    cold1, warm1, cold2, _warm2 = hits
    assert cold1 == 0
    assert warm1 > 0
    assert cold2 == 0
