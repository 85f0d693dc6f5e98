"""Command-line interface: catalog listing, per-group analysis, theorem
suites, and critical-group scans.  Reports are JSON on stdout.

Exit codes: 0 success, 2 load/usage error, 3 cap exceeded, 4 suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import catalog, catalog_group, load_group_file
from .criticality import boundary_scan
from .errors import (
    ClosureCapExceeded,
    FormalabError,
    IsoCapExceeded,
    PreconditionViolated,
    SubgroupCountCapExceeded,
)
from .formations import parse_formation
from .groups import ORDER_CAP
from .lattice import is_small_prime
from .suites import (
    STATEMENTS,
    analyze_report,
    run,
    suite_groups,
    theorem_a_statement,
)

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_CAP = 3
EXIT_SUITE = 4

_CAP_ERRORS = (ClosureCapExceeded, SubgroupCountCapExceeded, IsoCapExceeded)
VERIFY_NAMES = (*dict.fromkeys(s.verify for s in STATEMENTS), "all")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _prime(value) -> int:
    """`value` as a prime up to ORDER_CAP; anything else (0, 1, negatives,
    composites, larger primes, non-integers, empty items) raises
    PreconditionViolated."""
    try:
        p = int(value)
    except ValueError:
        p = 0
    if not is_small_prime(p):
        raise PreconditionViolated(f"{value!r} is not a prime up to {ORDER_CAP}")
    return p


def _parse_pi(text: str | None):
    if text is None or text == "all":
        return None
    return frozenset(_prime(v) for v in text.split(","))


def _check_max_order(value: int | None) -> None:
    """Refuse a --max-order below 1: it admits no catalog group, and a
    suite with no verdicts would pass vacuously."""
    if value is not None and value < 1:
        raise PreconditionViolated(f"--max-order must be at least 1, got {value}")


def _load_group(ref: str):
    if ref.endswith(".json"):
        return load_group_file(ref)
    return catalog_group(ref)


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit([{"name": e.name, **e.tags} for e in catalog()])
        return EXIT_OK
    raise ValueError(f"unknown catalog action {args.action!r}")


def _cmd_analyze(args) -> int:
    G = _load_group(args.group)
    F = parse_formation(args.formation)
    _emit(analyze_report(G, F, _parse_pi(args.pi)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_max_order(args.max_order)
    name = args.suite
    pi = _parse_pi(args.pi)
    if pi is not None and not (name == "theorem_a" and args.formation is not None):
        raise PreconditionViolated(
            "--pi applies only to `verify theorem_a --formation ...`")
    if args.formation is not None and name != "theorem_a":
        raise PreconditionViolated("--formation applies only to `verify theorem_a`")
    if args.formation is not None:
        statements = [theorem_a_statement(parse_formation(args.formation), pi)]
    else:
        statements = [s for s in STATEMENTS if name in (s.verify, "all")]
    if not statements:
        raise ValueError(f"unknown suite {name!r}; valid suites: "
                         + ", ".join(VERIFY_NAMES))
    reports = [run(s, s.groups(args.max_order, args.soluble_only))
               for s in statements]
    _emit([r.to_json() for r in reports])
    certified_failed = any(not r.passed and r.label == "certified"
                           for r in reports)
    return EXIT_SUITE if certified_failed else EXIT_OK


def _cmd_hunt(args) -> int:
    _check_max_order(args.max_order)
    F = parse_formation(args.formation)
    p = _prime(args.p)
    groups = suite_groups(args.max_order, args.soluble_only)
    witnesses = boundary_scan(F, {p}, groups)
    _emit([{"group": w.group, "formation": str(w.formation), "p": w.p,
            "in_f": w.in_f} for w in witnesses])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="formalab",
        description="hypercentre/intersection computations over a catalog "
                    "of small finite groups")
    sub = top.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=["list"])
    p_cat.set_defaults(fn=_cmd_catalog)

    p_an = sub.add_parser("analyze", help="analyze one group")
    p_an.add_argument("group", help="catalog name or group-spec .json file")
    p_an.add_argument("--formation", default="nil")
    p_an.add_argument("--pi", default="all", help="comma list of primes, or 'all'")
    p_an.set_defaults(fn=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help=" | ".join(VERIFY_NAMES))
    p_ver.add_argument("--formation", default=None)
    p_ver.add_argument("--pi", default="all")
    p_ver.add_argument("--max-order", type=int, default=None)
    p_ver.add_argument("--soluble-only", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    p_hunt = sub.add_parser("hunt-critical", help="scan for critical groups")
    p_hunt.add_argument("--formation", required=True)
    p_hunt.add_argument("--p", type=int, required=True, help="a prime")
    p_hunt.add_argument("--max-order", type=int, default=None)
    p_hunt.add_argument("--soluble-only", action="store_true")
    p_hunt.set_defaults(fn=_cmd_hunt)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (FormalabError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD


if __name__ == "__main__":
    sys.exit(main())
