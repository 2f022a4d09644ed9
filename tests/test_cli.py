import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genlift import groupcore
from genlift import verify as V
from genlift.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OVERFLOW,
    EXIT_PARSE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)


@pytest.fixture(autouse=True)
def fresh_decomp_cache():
    V._DECOMP.clear()
    yield
    V._DECOMP.clear()


def run(capsys, *argv):
    code = main(["--no-cache", *argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_spectrum_pass(capsys):
    code, report = run_json(capsys, "spectrum", "--q", "5")
    assert code == EXIT_PASS
    assert report["schema"] == 1
    assert report["spectrum"] == ["1", "3"]
    assert report["match"] is True


def test_spectrum_char2(capsys):
    code, report = run_json(capsys, "spectrum", "--q", "4")
    assert code == EXIT_PASS
    assert "0" not in report["spectrum"]


def test_orbits(capsys):
    code, report = run_json(capsys, "orbits", "--q", "5", "--mn", "2,5", "--aut")
    assert code == EXIT_PASS
    assert report["q"] == 5
    assert report["gamma_size"] == 2280
    assert sorted(o["size"] for o in report["orbits"]) == [600, 600, 1080]
    assert all(o["mn_free"]["2,5"] is False for o in report["orbits"])
    assert report["aut_orbits"]["count"] == 19


def test_orbits_bad_mn(capsys):
    code, _ = run(capsys, "orbits", "--q", "5", "--mn", "nonsense")
    assert code == EXIT_USAGE


def test_verify_claim(capsys):
    code, report = run_json(capsys, "verify", "miller-332")
    assert code == EXIT_PASS
    assert report["passed"] is True
    assert report["evidence"]["order"] == 288


def test_verify_with_params(capsys):
    code, report = run_json(capsys, "verify", "thm-iii", "--q", "11", "--m", "5")
    assert code == EXIT_PASS
    assert report["parameters"] == {"case": "iii", "q": 11, "m": 5}


def test_verify_all(capsys):
    code, report = run_json(capsys, "verify", "all", "--max-q", "5")
    assert code == EXIT_PASS
    assert report["passed"] is True
    assert len(report["claims"]) > 10


def test_unknown_claim(capsys):
    assert run(capsys, "verify", "no-such-claim")[0] == EXIT_USAGE


def test_missing_param(capsys):
    assert run(capsys, "verify", "trace-table")[0] == EXIT_USAGE


def test_precondition_is_usage(capsys):
    assert run(capsys, "verify", "prop-key", "--q", "13")[0] == EXIT_USAGE


def test_budget_exit(capsys):
    code, _ = run(capsys, "--pair-budget", "100", "spectrum", "--q", "11")
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("q", [23, 37])
@pytest.mark.parametrize(
    "command", [("spectrum",), ("orbits",), ("verify", "thm-i")], ids="-".join
)
def test_budget_refused_before_build(capsys, monkeypatch, command, q):
    def no_build(*args):
        raise AssertionError("PSL table built before the budget check")

    # every SL(2,q) and PSL(2,q) build starts by listing the SL matrices
    monkeypatch.setattr(groupcore, "_sl2_matrices", no_build)
    assert run(capsys, *command, "--q", str(q))[0] == EXIT_BUDGET


def test_dihedral_budget_refused_before_build(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("dihedral table built before the budget check")

    monkeypatch.setattr(V, "build_dihedral", no_build)
    assert run(capsys, "verify", "dihedral", "--m", "3000")[0] == EXIT_BUDGET


def test_coset_enum(capsys, tmp_path):
    f = tmp_path / "pres.txt"
    f.write_text("gens: x y\nrels: x^3 y^3 [x,y]^2\n")
    code, report = run_json(capsys, "coset-enum", str(f))
    assert code == EXIT_PASS
    assert report["coset_count"] == 288
    code, report = run_json(capsys, "coset-enum", str(f), "--subgroup", "x")
    assert report["coset_count"] == 96


def test_coset_enum_overflow(capsys, tmp_path):
    f = tmp_path / "free.txt"
    f.write_text("gens: x y\nrels:\n")
    assert run(capsys, "coset-enum", str(f), "--max-cosets", "500")[0] == EXIT_OVERFLOW


def test_coset_enum_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("gens: x\nrels: x^^3\n")
    assert run(capsys, "coset-enum", str(f))[0] == EXIT_PARSE


def test_output_file_and_table_format(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _ = run(capsys, "spectrum", "--q", "5", "--output", str(out))
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["match"] is True
    code, text = run(capsys, "spectrum", "--q", "5", "--format", "table")
    assert code == EXIT_PASS
    assert "match: True" in text


def _strip_volatile(node):
    if isinstance(node, dict):
        return {
            k: _strip_volatile(v)
            for k, v in node.items()
            if k not in ("elapsed_ms", "cache_hit")
        }
    if isinstance(node, list):
        return [_strip_volatile(v) for v in node]
    return node


def test_cold_and_warm_cache_identical(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "verify", "thm-i", "--q", "7"]
    code1 = main(argv)
    cold = json.loads(capsys.readouterr().out)
    V._DECOMP.clear()
    code2 = main(argv)
    warm = json.loads(capsys.readouterr().out)
    assert code1 == code2 == EXIT_PASS
    assert not cold["cache_hit"] and warm["cache_hit"]
    assert _strip_volatile(cold) == _strip_volatile(warm)


def test_damaged_cache_entry_is_recomputed(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "spectrum", "--q", "7"]
    assert main(argv) == EXIT_PASS
    cold = json.loads(capsys.readouterr().out)
    (npy,) = tmp_path.glob("*.npy")
    entry = npy.read_bytes()
    npy.write_bytes(entry[:50])
    V._DECOMP.clear()
    assert main(argv) == EXIT_PASS
    again = json.loads(capsys.readouterr().out)
    assert again == cold and not again["cache_hit"]
    assert npy.read_bytes() == entry


def test_schema1_cache_entry_is_ignored(capsys, tmp_path):
    # an entry of the old layout: |G|^2 labels plus JSON metadata, here
    # claiming one orbit, which would change the spectrum if it were read
    n = 168
    np.save(tmp_path / "v0-1-0_PSL_2-7_gamma.npy", np.zeros(n * n, dtype=np.int64))
    meta = {"schema": 1, "tool_version": "0.1.0", "group": "PSL(2,7)", "n": n}
    (tmp_path / "v0-1-0_PSL_2-7_gamma.json").write_text(json.dumps(meta))
    _, expected = run_json(capsys, "spectrum", "--q", "7")
    V._DECOMP.clear()
    assert main(["--cache-dir", str(tmp_path), "spectrum", "--q", "7"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report == expected and not report["cache_hit"]
    assert len(list(tmp_path.glob("*.npy"))) == 2  # the old entry and the new one


def test_verify_all_is_deterministic():
    argv = [sys.executable, "-m", "genlift.cli", "--no-cache", "verify", "all", "--max-q", "13"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [re.sub(r'\n *"elapsed_ms": [^\n]*', "", p.communicate()[0]) for p in procs]
    assert [p.returncode for p in procs] == [EXIT_PASS, EXIT_PASS]
    assert '"claims"' in outs[0] and '"elapsed_ms"' not in outs[0]
    assert outs[0] == outs[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "genlift.cli", "--no-cache", "verify", "lemma5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_orbit_report_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "orbit_report.py"
    proc = subprocess.run(
        [sys.executable, str(script), "5", "7", "--mn", "2,3"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    spectra = [line for line in proc.stdout.splitlines() if line.strip().startswith("spectrum:")]
    assert len(spectra) == 2  # one per q
