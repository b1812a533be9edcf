"""Command-line front end for the chip-firing / tree-decomposition pipeline.

Exit codes: 0 success, 1 validation or domain failure (one-line reason on
stderr), 2 malformed input.

Each ``cmd_*`` imports only the library modules it runs (README: CLI start-up).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .errors import ChipTreeError, DomainError, FormatError, GraphError

if TYPE_CHECKING:
    from .divisors import Divisor
    from .graph import MultiGraph
    from .strategy import MssTree
    from .treedec import TreeDecomposition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_td(args, td: TreeDecomposition, g: MultiGraph) -> None:
    _emit(td.to_dot(g) if args.format == "dot" else formats.write_td(td, g.n), args.out)


def _load_graph(args) -> tuple[MultiGraph, Divisor | None]:
    g, d = formats.parse_graph_auto(_read(args.input))
    if getattr(args, "divisor", None):
        d = formats.parse_divisor(args.divisor, g)
    return g, d


def _load_divisor(args) -> tuple[MultiGraph, Divisor]:
    g, d = _load_graph(args)
    if d is None:
        raise DomainError("no divisor given; use --divisor or a document with one")
    return g, d


def _build_mss(args) -> tuple[MultiGraph, MssTree]:
    """The strategy for the loaded divisor; with ``--trace``, its
    construction steps and fired sets go to stderr."""
    from .strategy import build_mss
    g, d = _load_divisor(args)
    trace = [] if args.trace else None
    tree = build_mss(g, d, trace=trace)
    for step, pos, detail in trace or ():
        line = f"trace step {step} at ({pos.label(g)})"
        if step == "III":
            d2, u = detail
            line += f" fire {g.set_name(u)} from {d2.format(g)}"
        print(line, file=sys.stderr)
    return g, tree


def cmd_info(args) -> int:
    g, d = _load_graph(args)
    lines = [
        f"vertices: {g.n}",
        f"edges: {g.num_edges}",
        f"connected: {str(g.is_connected()).lower()}",
    ]
    if d is not None:
        lines.append(f"divisor: {d.format(g)} (degree {d.degree})")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from .divisors import q_reduce
    g, d = _load_divisor(args)
    q = g.vertex_index(args.q)
    reduced, script = q_reduce(g, d, q)
    script_text = " ".join(
        f"{g.vertex_name(v)}:{script[v]}" for v in range(g.n) if script[v]
    ) or "0"
    _emit(f"reduced: {reduced.format(g)}\nscript: {script_text}\n", args.out)
    return EXIT_OK


def cmd_dhar(args) -> int:
    from .divisors import dhar
    g, d = _load_divisor(args)
    q = g.vertex_index(args.q)
    u = dhar(g, d, q)
    _emit(f"fireable-set: {g.set_name(u)}\n", args.out)
    return EXIT_OK


def cmd_rank(args) -> int:
    from .gonality import has_positive_rank
    g, d = _load_divisor(args)
    result = has_positive_rank(g, d)
    _emit(f"positive-rank: {str(result).lower()}\n", args.out)
    return EXIT_OK


def cmd_gonality(args) -> int:
    from .gonality import dgon_bruteforce
    g, _ = _load_graph(args)
    result = dgon_bruteforce(g, args.max_degree)
    if result is None:
        _emit(f"gonality: none up to degree {args.max_degree}\n", args.out)
    else:
        _emit(
            f"gonality: {result.value}\nwitness: {result.witness.format(g)}\n",
            args.out,
        )
    return EXIT_OK


def cmd_mss(args) -> int:
    g, tree = _build_mss(args)
    _emit(tree.to_dot(g) if args.format == "dot" else tree.to_text(g), args.out)
    return EXIT_OK


def cmd_treedec(args) -> int:
    from .treedec import mss_to_treedec
    g, tree = _build_mss(args)
    _emit_td(args, mss_to_treedec(g, tree), g)
    return EXIT_OK


def cmd_morphism_td(args) -> int:
    from .morphism import morphism_to_treedec, stable_treedec
    from .treedec import RefinementMap
    if args.refinement and not args.original:
        raise DomainError("--refinement needs --original")
    g_refined, _ = _load_graph(args)
    t = formats.parse_gr(_read(args.tree))
    f = formats.parse_morphism(_read(args.morphism), g_refined, t)
    if args.original:
        g_original, _ = formats.parse_graph_auto(_read(args.original))
        rmap = formats.parse_refinement_map(_read(args.refinement)) \
            if args.refinement else RefinementMap.identity(g_original.n)
        td = stable_treedec(g_original, g_refined, rmap, t, f)
    else:
        g_original, td = g_refined, morphism_to_treedec(g_refined, t, f)
    _emit_td(args, td, g_original)
    return EXIT_OK


def cmd_verify_td(args) -> int:
    from .treedec import validate_treedec
    g, _ = _load_graph(args)
    td = formats.parse_td(_read(args.td))
    report = validate_treedec(g, td)
    if report.ok:
        _emit(f"valid: width {report.width}\n", args.out)
        return EXIT_OK
    print(f"error: invalid-treedec: {report.violations[0]}", file=sys.stderr)
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiptree",
        description="Chip-firing divisors, search strategies and tree decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, divisor=True):
        p.add_argument("--input", required=True, help="graph file (.gr or document)")
        if divisor:
            p.add_argument("--divisor", help="sparse divisor text, e.g. 'a:3'")
        p.add_argument("--out", help="output path (default: stdout)")

    def output_format(p, *formats):
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("info", help="basic graph facts")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("reduce", help="q-reduce a divisor")
    common(p)
    p.add_argument("--q", required=True, help="reduction vertex")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dhar", help="maximal fireable set avoiding q")
    common(p)
    p.add_argument("--q", required=True, help="protected vertex")
    p.set_defaults(func=cmd_dhar)

    p = sub.add_parser("rank", help="test whether a divisor has positive rank")
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gonality", help="brute-force divisorial gonality")
    common(p, divisor=False)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_gonality)

    p = sub.add_parser("mss", help="build a monotone search strategy")
    common(p)
    output_format(p, "text", "dot")
    p.add_argument("--trace", action="store_true",
                   help="log construction steps and fired sets to stderr")
    p.set_defaults(func=cmd_mss)

    p = sub.add_parser("treedec", help="tree decomposition from a divisor")
    common(p)
    output_format(p, "pace", "dot")
    p.add_argument("--trace", action="store_true",
                   help="log construction steps and fired sets to stderr")
    p.set_defaults(func=cmd_treedec)

    p = sub.add_parser("morphism-td",
                       help="tree decomposition from a harmonic morphism")
    common(p, divisor=False)
    output_format(p, "pace", "dot")
    p.add_argument("--tree", required=True, help="target tree in .gr format")
    p.add_argument("--morphism", required=True, help="morphism file")
    p.add_argument("--original",
                   help="original graph when --input is a refinement")
    p.add_argument("--refinement", help="refinement map file")
    p.set_defaults(func=cmd_morphism_td)

    p = sub.add_parser("verify-td", help="validate a .td file against a graph")
    common(p, divisor=False)
    p.add_argument("--td", required=True, help=".td file to verify")
    p.set_defaults(func=cmd_verify_td)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError) as exc:
        print(f"error: malformed-input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ChipTreeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
