"""Command-line front end, a thin shell over `genlift.verify`: `verify
CLAIM` dispatches through `verify.CLAIMS` (claim id -> driver and its
required parameters), `verify all` runs `verify.BATTERY`, and `spectrum`
reports the evidence of the trace-table claim.

Exit codes: 0 pass, 1 claim failed, 2 group over the pair budget
(refused before its table is built), 3 coset enumeration overflow,
64 usage error, 65 presentation parse error.
The pair budget bounds the |G|^2 entries of the table of every group a
command builds.
All JSON reports carry a "schema" version key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import verify as V
from .fpgroups import (
    CosetEnumerationOverflow,
    PresentationParseError,
    parse_presentation,
    parse_word,
    todd_coxeter,
)
from .groupcore import DEFAULT_PAIR_BUDGET, PairBudgetExceeded, build_psl2
from .nielsen import aut_orbit_decomposition, decompose_nielsen_orbits
from .verify import TOOL_VERSION

SCHEMA = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_OVERFLOW = 3
EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the budget code
    def error(self, message):
        raise _UsageError(message)


def _emit(report: dict, args) -> None:
    if args.format == "table":
        text = _render_table(report)
    else:
        text = json.dumps(report, indent=2)
    if args.output is None:
        sys.stdout.write(text + "\n")
    else:
        args.output.write_text(text + "\n", encoding="utf-8")


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


def cmd_spectrum(args) -> int:
    claim = V.verify_trace_table(args.q, args.pair_budget)
    report = {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "q": args.q,
        "spectrum": claim.evidence["spectrum"],
        "expected": claim.evidence["expected"],
        "match": claim.passed,
    }
    _emit(report, args)
    return EXIT_PASS if claim.passed else EXIT_FAIL


def cmd_orbits(args) -> int:
    mn_pairs = []
    for item in args.mn or []:
        try:
            m, n = (int(x) for x in item.split(","))
        except ValueError:
            m = n = 0  # refused below
        if min(m, n) < 1:
            raise _UsageError(f"--mn wants 'm,n' with m, n >= 1, got {item!r}")
        mn_pairs.append((m, n))
    G = build_psl2(args.q, args.pair_budget)
    report = decompose_nielsen_orbits(G).report(mn_pairs=tuple(mn_pairs))
    report = {"schema": SCHEMA, "tool_version": TOOL_VERSION, **report}
    if args.aut:
        aut = aut_orbit_decomposition(G)
        report["aut_orbits"] = {
            "count": len(aut.orbits),
            "sizes": sorted(o.size for o in aut.orbits),
        }
    _emit(report, args)
    return EXIT_PASS


def cmd_verify(args) -> int:
    kw = {"pair_budget": args.pair_budget}
    if args.claim == "all":
        reports = V.verify_all(max_q=args.max_q, **kw)
        passed = all(r.passed for r in reports)
        report = {
            "schema": SCHEMA,
            "tool_version": TOOL_VERSION,
            "passed": passed,
            "claims": [r.to_dict() for r in reports],
        }
        _emit(report, args)
        return EXIT_PASS if passed else EXIT_FAIL
    if args.claim not in V.CLAIMS:
        raise _UsageError(f"unknown claim id {args.claim!r}")
    driver, required = V.CLAIMS[args.claim]
    for name in ("q", "m"):
        if name in required and getattr(args, name) is None:
            raise _UsageError(f"claim {args.claim!r} requires --{name}")
        if name not in required and getattr(args, name) is not None:
            raise _UsageError(f"claim {args.claim!r} takes no --{name}")
    kw.update((name, getattr(args, name)) for name in required)
    claim_report = driver(**kw)
    report = {"schema": SCHEMA, **claim_report.to_dict()}
    _emit(report, args)
    return EXIT_PASS if claim_report.passed else EXIT_FAIL


def cmd_coset_enum(args) -> int:
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
    _emit(report, args)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # registered on the top parser with real defaults and on every
    # subparser with SUPPRESS, so flags work in either position
    kw = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument("--pair-budget", type=int,
                        **({"default": DEFAULT_PAIR_BUDGET} if top else kw),
                        help="refuse groups whose |G|^2 table entries exceed this")
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
    p.add_argument("claim", help="claim id, or 'all' (ids: %s)" % ", ".join(sorted(V.CLAIMS)))
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
        if args.pair_budget < 1:
            raise _UsageError("pair_budget must be >= 1")
        return args.func(args)
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
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
