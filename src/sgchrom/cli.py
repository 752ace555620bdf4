"""Command-line interface.

Every command writes a single JSON document (schema field included) to
standard output; diagnostics go to standard error.  Exit codes:
0 success / all checks passed, 1 mathematical failure (invalid coloring,
lemma or campaign violation), 2 usage or input error (an unreadable or
unwritable file included), 3 inconclusive (deadline hit before the
search finished).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import campaigns, catalog, lists
from .clique import CliqueParams, color_from_label
from .core import GraphError, format_graph_text, parse_graph_text
from .criticality import critical_check, potential
from .solver import (
    CeilingExhausted,
    Homomorphism,
    SearchDeadlineExceeded,
    chi_c,
    find_sp_hom,
    verify_hom,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit(doc: dict, fmt: str) -> None:
    doc = {"schema": SCHEMA, **doc}
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for key, value in doc.items():
            sys.stdout.write(f"{key}: {value}\n")


def _read_graph(path: str):
    if path == "-":
        return parse_graph_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _read_coloring(path: str, g, p: int) -> tuple[int, ...]:
    """The colors of a coloring file, by vertex: lines ``v c``, with c a
    +-1..+-5 label when p = 10 and a raw color integer otherwise.  Each
    vertex is listed once."""
    assignment, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: expected 'v c'")
            try:
                v, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: expected integers 'v c'") from None
            if not (0 <= v < g.n):
                raise GraphError(f"line {lineno}: vertex {v} out of range")
            if v in seen:
                raise GraphError(f"line {lineno}: vertex {v} already colored on line {seen[v]}")
            seen[v] = lineno
            if p == 10:
                try:
                    c = color_from_label(c)
                except ValueError:
                    raise GraphError(f"line {lineno}: color label {c} not in +-1..+-5") from None
            if not (0 <= c < p):
                raise GraphError(f"line {lineno}: color {c} out of range")
            assignment[v] = c
    missing = [v for v in range(g.n) if v not in assignment]
    if missing:
        raise GraphError(f"coloring missing vertices {missing}")
    return tuple(assignment[v] for v in range(g.n))


def _parse_fraction(text: str) -> Fraction:
    """``--ceiling``'s value: an integer or a fraction p/q."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--ceiling takes an integer or a fraction p/q with q != 0, not {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgchrom",
        description="Exact circular coloring of signed graphs: solver, catalog, "
        "lemma verifiers, and enumeration campaigns.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--threads", type=int, default=1, metavar="N", help="min(N, cases, CPUs) campaign workers")
    sub = parser.add_subparsers(dest="command")

    p_chi = sub.add_parser("chi-c", help="exact circular chromatic number of a graph file ('-' = stdin)")
    p_chi.add_argument("graph")
    p_chi.add_argument("--q-max", type=int, default=None)
    p_chi.add_argument("--ceiling", type=str, default=None, help="p/q upper bound for the search")
    p_chi.add_argument("--deadline-s", type=float, default=None)

    p_hom = sub.add_parser("check-hom", help="search for a sign-preserving homomorphism into the (p, q) clique")
    p_hom.add_argument("graph")
    p_hom.add_argument("p", type=int)
    p_hom.add_argument("q", type=int)
    p_hom.add_argument("--deadline-s", type=float, default=None)

    p_ver = sub.add_parser("verify-coloring", help="verify a coloring file against a graph")
    p_ver.add_argument("graph")
    p_ver.add_argument("coloring")
    p_ver.add_argument("--p", type=int, default=10)
    p_ver.add_argument("--q", type=int, default=3)

    p_cat = sub.add_parser("catalog", help="list catalog graphs or emit one in the text format")
    p_cat.add_argument("action", choices=("list", "emit"))
    p_cat.add_argument("name", nargs="?")

    p_emit = sub.add_parser("emit", help="shorthand for 'catalog emit NAME'")
    p_emit.add_argument("name")
    p_emit.set_defaults(action="emit")

    p_lem = sub.add_parser("verify-lemma", help="exhaustively verify one list lemma")
    p_lem.add_argument("id", choices=lists.LEMMA_IDS)

    p_cam = sub.add_parser("campaign", help="run a verification campaign")
    p_cam.add_argument("id", choices=campaigns.CAMPAIGN_IDS)
    p_cam.add_argument("--n-max", type=int, default=None)
    p_cam.add_argument("--emit-witnesses", type=str, default=None, help="directory for failure witnesses")

    p_crit = sub.add_parser("critical-check", help="is the graph (p, q)-critical?")
    p_crit.add_argument("graph")
    p_crit.add_argument("p", type=int)
    p_crit.add_argument("q", type=int)
    p_crit.add_argument("--deadline-s", type=float, default=None)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        return _dispatch(args)
    except (GraphError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchDeadlineExceeded:
        _emit({"status": "inconclusive", "reason": "deadline"}, args.format)
        return EXIT_INCONCLUSIVE


def _dispatch(args) -> int:
    fmt = args.format
    if args.command == "chi-c":
        g = _read_graph(args.graph)
        ceiling = _parse_fraction(args.ceiling) if args.ceiling else None
        try:
            res = chi_c(g, args.q_max, ceiling=ceiling, deadline_s=args.deadline_s)
        except CeilingExhausted as exc:
            _emit({"status": "no candidate within ceiling", "ceiling": str(exc.ceiling), "q_max": exc.q_max}, fmt)
            return EXIT_MATH_FAIL
        _emit(res.to_json(), fmt)
        return EXIT_OK

    if args.command == "check-hom":
        g = _read_graph(args.graph)
        hom = find_sp_hom(g, CliqueParams(args.p, args.q), deadline_s=args.deadline_s)
        _emit(
            {
                "p": args.p,
                "q": args.q,
                "found": hom is not None,
                "witness": list(hom.assignment) if hom else None,
            },
            fmt,
        )
        return EXIT_OK

    if args.command == "verify-coloring":
        g = _read_graph(args.graph)
        pr = CliqueParams(args.p, args.q)
        valid = verify_hom(g, Homomorphism(pr, _read_coloring(args.coloring, g, args.p)))
        _emit({"valid": valid, "p": args.p, "q": args.q}, fmt)
        return EXIT_OK if valid else EXIT_MATH_FAIL

    if args.command in ("catalog", "emit"):
        if args.action == "list":
            rows = []
            for name in catalog.names():
                ng = catalog.build(name)
                rows.append(
                    {
                        "name": name,
                        "n": ng.graph.n,
                        "m": ng.graph.m,
                        "potential": potential(ng.graph),
                        "expected_chi_c": str(ng.expected_chi_c) if ng.expected_chi_c else None,
                        "description": ng.description,
                    }
                )
            _emit({"graphs": rows}, fmt)
            return EXIT_OK
        if not args.name:
            print("error: catalog emit needs a name", file=sys.stderr)
            return EXIT_USAGE
        ng = catalog.build(args.name)
        sys.stdout.write(format_graph_text(ng.graph, comment=f"{ng.name}: {ng.description}"))
        return EXIT_OK

    if args.command == "verify-lemma":
        rep = lists.verify_list_lemma(args.id)
        _emit(rep.to_json(), fmt)
        return EXIT_OK if rep.passed else EXIT_MATH_FAIL

    if args.command == "campaign":
        rep = campaigns.run_campaign(args.id, n_max=args.n_max, threads=args.threads)
        if args.emit_witnesses and rep.failures:
            import os

            os.makedirs(args.emit_witnesses, exist_ok=True)
            for i, fail in enumerate(rep.failures):
                if isinstance(fail, dict) and "graph" in fail:
                    path = os.path.join(args.emit_witnesses, f"{rep.id}_fail_{i}.sg")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(fail["graph"])
        _emit(rep.to_json(), fmt)
        return EXIT_OK if rep.passed else EXIT_MATH_FAIL

    if args.command == "critical-check":
        g = _read_graph(args.graph)
        colorable, per_edge, critical = critical_check(g, CliqueParams(args.p, args.q), deadline_s=args.deadline_s)
        _emit(
            {
                "p": args.p,
                "q": args.q,
                "colorable": colorable,
                "critical": critical,
                "per_edge": [
                    {"edge": list(e), "colorable_without": ok} for e, ok in zip(g.edges, per_edge)
                ],
            },
            fmt,
        )
        return EXIT_OK

    print(f"error: unknown command {args.command}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
