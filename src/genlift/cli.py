"""Command-line front end.

Exit codes: 0 pass, 1 claim failed, 2 pair budget exceeded, 3 coset
enumeration overflow, 64 usage error, 65 presentation parse error.
All JSON reports carry a "schema" version key.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import verify as V
from .cache import ENV_CACHE_DIR, TOOL_VERSION, default_cache_dir
from .fpgroups import (
    CosetEnumerationOverflow,
    PresentationParseError,
    parse_presentation,
    parse_word,
    todd_coxeter,
)
from .groupcore import GroupSizeError
from .nielsen import DEFAULT_PAIR_BUDGET, PairBudgetExceeded, aut_orbit_decomposition

SCHEMA = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_OVERFLOW = 3
EXIT_USAGE = 64
EXIT_PARSE = 65


@dataclass
class Config:
    cache_dir: Optional[Path]
    pair_budget: int
    output: Optional[Path]
    format: str

    def __post_init__(self):
        if self.pair_budget < 1:
            raise ValueError("pair_budget must be >= 1")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the budget code
    def error(self, message):
        raise _UsageError(message)


def _emit(report: dict, cfg: Config) -> None:
    if cfg.format == "table":
        text = _render_table(report)
    else:
        text = json.dumps(report, indent=2)
    if cfg.output is None:
        sys.stdout.write(text + "\n")
    else:
        cfg.output.write_text(text + "\n", encoding="utf-8")


def _render_table(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            cols = list(value[0])
            lines.append(indent + "  " + " | ".join(cols))
            for row in value:
                lines.append(indent + "  " + " | ".join(str(row.get(c, "")) for c in cols))
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args, cfg: Config) -> int:
    q = args.q
    G = V.budgeted_psl(q, cfg.pair_budget)
    f = G.field
    dec, hit = V.gamma_orbits(G, cfg.cache_dir, cfg.pair_budget)
    spectrum = {o.tau for o in dec.orbits}
    expected = V.expected_trace_spectrum(q)
    report = {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "q": q,
        "spectrum": sorted(f.format_element(t) for t in sorted(spectrum)),
        "expected": sorted(f.format_element(t) for t in sorted(expected)),
        "match": spectrum == expected,
        "cache_hit": hit,
    }
    _emit(report, cfg)
    return EXIT_PASS if spectrum == expected else EXIT_FAIL


def cmd_orbits(args, cfg: Config) -> int:
    G = V.budgeted_psl(args.q, cfg.pair_budget)
    dec, hit = V.gamma_orbits(G, cfg.cache_dir, cfg.pair_budget)
    mn_pairs = []
    for item in args.mn or []:
        try:
            m, n = (int(x) for x in item.split(","))
        except ValueError:
            raise _UsageError(f"--mn wants 'm,n', got {item!r}")
        mn_pairs.append((m, n))
    report = dec.report(mn_pairs=tuple(mn_pairs))
    report = {"schema": SCHEMA, "tool_version": TOOL_VERSION, "cache_hit": hit, **report}
    if args.aut:
        aut = aut_orbit_decomposition(G, pair_budget=cfg.pair_budget)
        report["aut_orbits"] = {
            "count": len(aut.orbits),
            "sizes": sorted(o.size for o in aut.orbits),
        }
    _emit(report, cfg)
    return EXIT_PASS


# claim id -> (driver, required args, optional args)
_CLAIMS = {
    "trace-table": (V.verify_trace_table, ("q",), ()),
    "prop-key": (V.verify_prop_key, ("q",), ()),
    "lemma5": (V.verify_lemma5, (), ()),
    "lemma7": (V.verify_lemma7, (), ()),
    "thm-i": (lambda **kw: V.verify_theorem("i", **kw), ("q",), ()),
    "thm-ii": (lambda **kw: V.verify_theorem("ii", **kw), ("q",), ()),
    "thm-iii": (lambda **kw: V.verify_theorem("iii", **kw), ("q", "m"), ()),
    "thm-iv": (lambda **kw: V.verify_theorem("iv", **kw), ("q",), ()),
    "s2p2": (V.verify_s2p2, ("q",), ()),
    "psl25-lift": (V.verify_psl25_lift, (), ()),
    "remark": (V.verify_remark, ("m", "q"), ()),
    "miller-332": (V.verify_miller_332, (), ()),
    "dihedral": (V.verify_dihedral, ("m",), ()),
    "example-alt5": (V.verify_example_alt5, (), ()),
    "small-q-lift": (V.verify_small_q_lifting, (), ()),
}


def cmd_verify(args, cfg: Config) -> int:
    kw = {"cache_dir": cfg.cache_dir, "pair_budget": cfg.pair_budget}
    if args.claim == "all":
        reports = V.verify_all(max_q=args.max_q, **kw)
        passed = all(r.passed for r in reports)
        report = {
            "schema": SCHEMA,
            "tool_version": TOOL_VERSION,
            "passed": passed,
            "claims": [r.to_dict() for r in reports],
        }
        _emit(report, cfg)
        return EXIT_PASS if passed else EXIT_FAIL
    if args.claim not in _CLAIMS:
        raise _UsageError(f"unknown claim id {args.claim!r}")
    driver, required, _opt = _CLAIMS[args.claim]
    for name in required:
        if getattr(args, name) is None:
            raise _UsageError(f"claim {args.claim!r} requires --{name}")
        kw[name] = getattr(args, name)
    claim_report = driver(**kw)
    report = {"schema": SCHEMA, **claim_report.to_dict()}
    _emit(report, cfg)
    return EXIT_PASS if claim_report.passed else EXIT_FAIL


def cmd_coset_enum(args, cfg: Config) -> int:
    text = Path(args.presentation).read_text(encoding="utf-8")
    pres = parse_presentation(text)
    subgroup = tuple(parse_word(w, pres.generators) for w in args.subgroup or [])
    table = todd_coxeter(pres, subgroup_gens=subgroup, max_cosets=args.max_cosets)
    report = {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "generators": list(pres.generators),
        "relator_count": len(pres.relators),
        "subgroup_generators": list(args.subgroup or []),
        "coset_count": table.coset_count,
    }
    if args.table:
        report["coset_table"] = table.to_json()
    _emit(report, cfg)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # registered on the top parser with real defaults and on every
    # subparser with SUPPRESS, so flags work in either position
    kw = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument("--cache-dir", type=Path, **({"default": None} if top else kw),
                        help=f"orbit cache directory (default: ${ENV_CACHE_DIR} or ~/.cache/genlift)")
    parser.add_argument("--no-cache", action="store_true",
                        **({} if top else kw), help="disable the disk cache")
    parser.add_argument("--pair-budget", type=int,
                        **({"default": DEFAULT_PAIR_BUDGET} if top else kw),
                        help="refuse decompositions over this many pairs")
    parser.add_argument("--output", type=Path, **({"default": None} if top else kw),
                        help="write report here instead of stdout")
    parser.add_argument("--format", choices=("json", "table"),
                        **({"default": "json"} if top else kw))


def build_parser() -> _Parser:
    parser = _Parser(prog="genlift", description=__doc__)
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="trace spectrum over generating pairs vs the known table")
    p.add_argument("--q", type=int, required=True)
    _add_common(p, top=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("orbits", help="Nielsen orbit table for PSL(2,q) generating pairs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--aut", action="store_true", help="include automorphism-action orbits")
    p.add_argument("--mn", action="append", metavar="m,n",
                   help="add an (m,n)-freeness column; repeatable")
    _add_common(p, top=False)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="run a claim driver")
    p.add_argument("claim", help="claim id, or 'all' (ids: %s)" % ", ".join(sorted(_CLAIMS)))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-q", type=int, default=11, help="bound for 'all'")
    _add_common(p, top=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coset-enum", help="Todd-Coxeter coset enumeration of a presentation file")
    p.add_argument("presentation", help="presentation file ('gens:'/'rels:' format)")
    p.add_argument("--subgroup", action="append", metavar="WORD",
                   help="subgroup generator word; repeatable (default: trivial subgroup)")
    p.add_argument("--max-cosets", type=int, default=10**6)
    p.add_argument("--table", action="store_true", help="include the full coset table")
    _add_common(p, top=False)
    p.set_defaults(func=cmd_coset_enum)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
        cfg = Config(
            cache_dir=cache_dir,
            pair_budget=args.pair_budget,
            output=args.output,
            format=args.format,
        )
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PairBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CosetEnumerationOverflow as exc:
        print(f"coset enumeration overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except PresentationParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # ValueError last: the specific codes above subclass it
    except (ValueError, FileNotFoundError, GroupSizeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
