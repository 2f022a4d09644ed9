import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from genlift import cli, fpgroups, groupcore, nielsen
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
from genlift.fpgroups import parse_presentation, todd_coxeter


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_spectrum_pass(capsys):
    code, report = run_json(capsys, "spectrum", "--q", "5")
    assert code == EXIT_PASS
    assert report["schema"] == 2
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


@pytest.mark.parametrize("argv", [
    ("lemma5", "--q", "7"),
    ("dihedral", "--m", "4", "--q", "9"),
    ("trace-table", "--q", "5", "--m", "3"),
    ("psl25-lift", "--m", "5"),
    ("lemma5", "--no-cache"),  # options of the deleted disk cache
    ("lemma5", "--cache-dir", "DIR"),
])
def test_parameter_the_claim_does_not_take_is_usage(capsys, argv):
    code, out = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE and out == ""


def test_remark_outside_its_hypothesis_is_usage(capsys):
    for q, m in (("19", "9"), ("23", "11")):
        assert run(capsys, "verify", "remark", "--q", q, "--m", m)[0] == EXIT_USAGE
    assert run(capsys, "verify", "remark", "--q", "13", "--m", "7")[0] == EXIT_PASS


@pytest.mark.parametrize("argv", [
    ("verify", "thm-iii", "--q", "7", "--m", "0"),
    ("verify", "thm-iii", "--q", "7", "--m", "-7"),
    ("verify", "remark", "--q", "13", "--m", "0"),
    ("orbits", "--q", "5", "--mn", "0,3"),
    ("orbits", "--q", "5", "--mn", "3,-1"),
])
def test_m_or_n_below_one_is_refused_before_build(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("group built before m and n were checked")

    monkeypatch.setattr(groupcore, "_kept", no_build)
    monkeypatch.setattr(groupcore, "_sl2_entries", no_build)
    code, out = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""


def test_thm_iv_at_even_q_is_usage(capsys):
    for q in ("8", "16"):
        assert run(capsys, "verify", "thm-iv", "--q", q)[0] == EXIT_USAGE


def test_budget_exit(capsys):
    code, _ = run(capsys, "--pair-budget", "100", "spectrum", "--q", "11")
    assert code == EXIT_BUDGET


def test_field_without_tables_is_refused(capsys):
    # GF(257) is past the field's SIZE_BOUND: a usage error at any budget,
    # before the budget is checked
    assert run(capsys, "spectrum", "--q", "257")[0] == EXIT_USAGE
    assert run(capsys, "--pair-budget", str(10**20), "spectrum", "--q", "257")[0] == EXIT_USAGE
    # refused before q is factored
    assert run(capsys, "orbits", "--q", "2147483647")[0] == EXIT_USAGE
    for build in (groupcore.build_sl2, groupcore.build_psl2):
        with pytest.raises(ValueError, match="exceeds bound 256"):
            build(257, 10**20)


@pytest.mark.parametrize(
    "argv",
    [
        (*command, "--q", q)
        for command in (("spectrum",), ("orbits",), ("verify", "thm-i"))
        for q in ("23", "37")
    ]
    + [
        ("verify", "prop-key", "--q", "23"),  # SL(2,23), order 12144
        ("--pair-budget", "100000000", "verify", "prop-key", "--q", "27"),
        ("verify", "dihedral", "--m", "3000"),
    ]
    + [("--pair-budget", "10", "verify", *claim)
       for claim in (("prop-key", "--q", "7"), ("lemma5",), ("lemma7",), ("miller-332",))],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--q", "--m")),
)
def test_budget_refused_before_build(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("group listed before the budget check")

    # every SL(2,q) and PSL(2,q) build starts by listing the SL matrices,
    # every dihedral build by writing its table and every coset-table
    # build by filling its rows
    monkeypatch.setattr(groupcore, "_sl2_entries", no_build)
    monkeypatch.setattr(groupcore, "_dihedral", no_build)
    monkeypatch.setattr(fpgroups, "_regular_rows", no_build)
    assert run(capsys, *argv)[0] == EXIT_BUDGET


def _documented_exit_codes(text: str) -> dict[int, str]:
    """{code: meaning} from an "Exit codes: 0 pass, 1 ..., 65 ...." sentence."""
    sentence = " ".join(re.search(r"Exit codes:(.*?)\.", text, re.S).group(1).split())
    return {int(code): meaning for code, meaning in
            (re.fullmatch(r"(\d+) (.+)", item.strip()).groups() for item in sentence.split(","))}


def test_exit_codes_documented():
    # each EXIT_<NAME> constant, named by its meaning, in the README and the CLI help
    constants = {getattr(cli, name): name[5:].lower() for name in dir(cli) if name.startswith("EXIT_")}
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = _documented_exit_codes(readme.read_text(encoding="utf-8"))
    assert documented == _documented_exit_codes(cli.__doc__)
    assert set(documented) == set(constants)
    for code, word in constants.items():
        assert word in documented[code], (code, documented[code])


def test_claim_ids_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Claim ids:(.*?)\.\n", readme, re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted([*V.CLAIMS, "all"])


def test_coset_enum(capsys, tmp_path):
    f = tmp_path / "pres.txt"
    f.write_text("gens: x y\nrels: x^3 y^3 [x,y]^2\n")
    code, report = run_json(capsys, "coset-enum", str(f))
    assert code == EXIT_PASS
    assert report["coset_count"] == 288
    code, report = run_json(capsys, "coset-enum", str(f), "--subgroup", "x")
    assert report["coset_count"] == 96
    f.write_text("gens: x y\nrels: x^3 y^2 (xy)^2\n")
    code, report = run_json(capsys, "coset-enum", str(f), "--table")
    table = todd_coxeter(parse_presentation(f.read_text()))
    assert (code, report["coset_count"]) == (EXIT_PASS, 6)
    assert report["coset_table"] == {
        "generator_count": table.generator_count,
        "coset_count": table.coset_count,
        "action": table.action,
    }


def test_coset_enum_overflow(capsys, tmp_path):
    f = tmp_path / "free.txt"
    f.write_text("gens: x y\nrels:\n")
    assert run(capsys, "coset-enum", str(f), "--max-cosets", "500")[0] == EXIT_OVERFLOW


def test_coset_enum_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("gens: x\nrels: x^^3\n")
    assert run(capsys, "coset-enum", str(f))[0] == EXIT_PARSE


def test_unreadable_path_is_usage(capsys, tmp_path):
    # a directory where a file is read or written; lemma5 itself passes
    for argv in (["coset-enum", str(tmp_path)], ["verify", "lemma5", "--output", str(tmp_path)]):
        assert main(argv) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err


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
            if k != "elapsed_ms"
        }
    if isinstance(node, list):
        return [_strip_volatile(v) for v in node]
    return node


def test_cold_and_warm_memo_identical(capsys, monkeypatch):
    # the second run reads the group and Nielsen orbits the first one kept
    def no_rebuild(*args):
        raise AssertionError("the second run rebuilt what the first one kept")

    argv = ["verify", "thm-i", "--q", "7"]
    code1 = main(argv)
    cold = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(groupcore, "_matrix_group", no_rebuild)
    monkeypatch.setattr(nielsen, "_nielsen_parts", no_rebuild)
    code2 = main(argv)
    warm = json.loads(capsys.readouterr().out)
    assert code1 == code2 == EXIT_PASS
    assert _strip_volatile(cold) == _strip_volatile(warm)


def test_run_writes_only_its_output(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", "trace-table", "--q", "5", "--output", str(out)]) == EXIT_PASS
    assert list(tmp_path.rglob("*")) == [out]


def test_verify_all_is_deterministic():
    argv = [sys.executable, "-m", "genlift.cli", "verify", "all", "--max-q", "13"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [re.sub(r'\n *"elapsed_ms": [^\n]*', "", p.communicate()[0]) for p in procs]
    assert [p.returncode for p in procs] == [EXIT_PASS, EXIT_PASS]
    assert '"claims"' in outs[0] and '"elapsed_ms"' not in outs[0]
    assert outs[0] == outs[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "genlift.cli", "verify", "lemma5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_runs_without_scipy():
    wrapper = (
        "import runpy, sys\n"
        "sys.argv = ['genlift', 'verify', 'trace-table', '--q', '5']\n"
        "try:\n"
        "    runpy.run_module('genlift.cli', run_name='__main__')\n"
        "finally:\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    assert proc.stderr.strip().splitlines()[-1] == "[]"


def test_cli_runs_without_numpy_ma():
    # numpy 2.x imports numpy.ma lazily (np.unique does, on its first call),
    # which costs a fresh interpreter about 15 ms
    script = (
        "import sys\n"
        "from genlift.cli import main\n"
        "codes = [main(['orbits', '--q', '13', '--aut', '--mn', '2,3']),\n"
        "         main(['verify', 'all', '--max-q', '5'])]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == f"[{EXIT_PASS}, {EXIT_PASS}] False"


def test_scale_probe_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"
    proc = subprocess.run([sys.executable, str(script), "5", "7"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [dict(f.split("=") for f in line.split()) for line in proc.stdout.splitlines()]
    assert [(r["q"], r["order"]) for r in lines] == [("5", "60"), ("7", "168")]
    for r in lines:
        fields = {"build_s", "stage1_s", "decompose_s", "decompose_minflt", "aut_s", "joint_s",
                  "verify_s", "verify_peak_mb", "table_mb", "peak_rss_mb"}
        assert fields <= r.keys()
        timed = ("build_s", "stage1_s", "decompose_s", "aut_s", "joint_s", "verify_s", "verify_peak_mb")
        assert all(float(r[f]) >= 0 for f in timed)
        assert int(r["decompose_minflt"]) >= 0
        assert float(r["peak_rss_mb"]) > 0
    # the stored int16 rows, not |G|^2 entries: products and conjugations of the
    # R = 2q + 1 + (q-1)/2 elements of the three factor sets at odd q
    assert [r["table_mb"] for r in lines] == [
        f"{2 * (2 * q + 1 + (q - 1) // 2) * n * 2 / 2**20:.1f}" for q, n in ((5, 60), (7, 168))
    ]
    proc = subprocess.run([sys.executable, str(script), "5", "7", "--pair-budget", "10000"],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_BUDGET and "PSL(2,7) refused" in proc.stderr
    assert proc.stdout == ""  # refused before any probe ran
    for q, reason in (("6", "not a prime power"), ("257", "exceeds bound 256"), ("x", "invalid int")):
        proc = subprocess.run([sys.executable, str(script), "5", q], capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE and reason in proc.stderr, proc.stderr
        assert proc.stdout == ""
