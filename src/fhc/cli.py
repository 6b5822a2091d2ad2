"""Command line front end for the hierarchy calculus.

Every command is deterministic: identical invocations print identical
bytes.  Exit status is 0 for success, 1 for a user error (bad syntax,
unknown flag, out-of-range color), 2 when a resource guard refuses the
computation (FHC_ORACLE_BOUND overrides the brute-force map-search guard;
input nested past the Python recursion limit, or a ``build-T`` result of more
than BUILD_T_BOUND nodes, is refused too).  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import hierarchy, iterated, ordinals, terms
from .forests import OracleBoundError
from .hierarchy import LevelDescriptor, SegmentBoundError
from .iterated import IForest
from .notation import parse_forest, parse_term, serialize_forest, serialize_term, serialize_tree
from .terms import GradeBoundError


#: the most nodes ``build-T`` prints; its results share subtrees, which print unfolded
BUILD_T_BOUND = 1_000_000


class OutputBoundError(RuntimeError):
    """Raised when a result has too many nodes to print."""


class _Parser(argparse.ArgumentParser):
    # usage problems are user errors: exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def natural(text: str) -> int:
    """Argument type of the bounds: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fhc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text, *positionals, params=("k",), segment=False):
        """A subcommand; ``params`` are the arguments its JSON output echoes."""
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, type=int if arg == "color" else None)
        p.add_argument("--k", type=int, default=2,
                       help="alphabet size (colors 0..k-1); default 2")
        p.add_argument("--n", type=natural, default=0,
                       help="jump shift / relation level; default 0")
        if segment:
            p.add_argument("--nodes", type=natural, required=True,
                           help="node-count bound for the enumeration")
            p.add_argument("--level", type=natural, required=True,
                           help="nesting-level bound for the enumeration")
        p.add_argument("--format", choices=["text", "json", "dot"], default=None)
        p.set_defaults(handler=handler, params=params)
        return p

    p = add("cmp", _cmd_cmp, "compare two forests: prints <  >  =  ||",
            "forest", "forest1", params=("k", "n", "oracle"))
    p.add_argument("--oracle", action="store_true",
                   help="decide by brute-force map search (guarded)")
    add("min", _cmd_min, "minimize a forest to its canonical representative", "forest")
    add("decompose", _cmd_decompose,
        "canonical decomposition into incomparable minimal trees", "forest")
    add("encode", _cmd_encode, "canonical term of a forest at shift n", "forest",
        params=("k", "n"))
    add("eval", _cmd_eval, "evaluate a term to a forest", "term")
    add("g2s", _cmd_g2s, "translate a G-signature term to graded products", "term",
        params=())
    add("s2g", _cmd_s2g, "expand graded products into the G combinator", "term",
        params=())
    add("jump-height", _cmd_jump_height, "jumps above bottom a term denotes", "term",
        params=())
    p = add("normalize", _cmd_normalize,
            "restrict grades below n, or into the window [n, n+m) with --m", "term",
            params=("n", "m"))
    p.add_argument("--m", type=natural, default=None, help="window width")
    add("level-subset", _cmd_level_subset, "inclusion verdict between two levels",
        "forest", "forest1")
    add("witness", _cmd_witness, "complete partition of a level, symbolically",
        "forest", params=("k", "n"))
    add("build-T", _cmd_build_t, "level index for an ordinal and color",
        "ordinal", "color", params=("k", "n"))
    add("enumerate", _cmd_segment, "quotient segment in the cache format",
        params=("k", "nodes", "level"), segment=True)
    add("diagram", _cmd_segment, "quotient segment as a DOT Hasse diagram",
        params=("k", "nodes", "level"), segment=True)
    return parser


def _alphabet(args) -> int | None:
    if args.k == 0:
        return None  # unbounded
    if args.k < 2:
        raise ValueError("alphabet size must be at least 2 (0 for unbounded)")
    return args.k


def _parse_sterm(text: str):
    # a parsed term uses G exactly when its text holds a "G", and a graded
    # product exactly when it holds a "."
    u = parse_term(text)
    return terms.g_to_s(u) if "G" in text else u


def _check_term_colors(u, k: int | None) -> None:
    for x in terms.subterms(u):
        if k is not None and isinstance(x, terms.Const) and x.color >= k:
            raise ValueError(f"color {x.color} outside alphabet of size {k}")


def _cmd_cmp(args) -> tuple:
    k = _alphabet(args)
    a = parse_forest(args.forest, k)
    b = parse_forest(args.forest1, k)
    if args.oracle:
        fwd = iterated.colim_leq_oracle(a, b, args.n)
        bwd = iterated.colim_leq_oracle(b, a, args.n)
    else:
        fwd = iterated.colim_leq(a, b, args.n)
        bwd = iterated.colim_leq(b, a, args.n)
    verdict = {(True, True): "=", (True, False): "<",
               (False, True): ">", (False, False): "||"}[(fwd, bwd)]
    return verdict, a, b


def _cmd_min(args) -> tuple:
    f = parse_forest(args.forest, _alphabet(args))
    m = iterated.representative(f)
    return serialize_forest(m), f, None


def _cmd_decompose(args) -> tuple:
    f = parse_forest(args.forest, _alphabet(args))
    parts = iterated.iminimize(f).trees
    text = "\n".join(serialize_tree(t) for t in parts)
    return text, f, None


def _cmd_encode(args) -> tuple:
    f = parse_forest(args.forest, _alphabet(args))
    u = terms.encode(f, args.n)
    return serialize_term(u), f, None


def _cmd_eval(args) -> tuple:
    u = _parse_sterm(args.term)
    _check_term_colors(u, _alphabet(args))
    f = terms.interpret(u)
    return serialize_forest(f), u, None


def _cmd_g2s(args) -> tuple:
    u = parse_term(args.term)
    if "." in args.term:
        raise ValueError("g2s expects a G-signature term")
    return serialize_term(terms.g_to_s(u)), u, None


def _cmd_s2g(args) -> tuple:
    u = parse_term(args.term)
    if "G" in args.term:
        raise ValueError("s2g expects a star-signature term")
    return serialize_term(terms.s_to_g(u)), u, None


def _cmd_jump_height(args) -> tuple:
    u = parse_term(args.term)
    if "." in args.term:
        u = terms.s_to_g(u)
    return str(terms.jump_height(u)), u, None


def _cmd_normalize(args) -> tuple:
    u = _parse_sterm(args.term)
    out = (terms.restrict_level(u, args.n) if args.m is None
           else terms.window_normalize(u, args.n, args.m))
    return serialize_term(out), u, None


def _cmd_level_subset(args) -> tuple:
    k = _alphabet(args)
    t = LevelDescriptor(parse_forest(args.forest, k))
    v = LevelDescriptor(parse_forest(args.forest1, k))
    verdict = hierarchy.level_relation(t, v)
    return verdict, t.forest, v.forest


def _cmd_witness(args) -> tuple:
    t = LevelDescriptor(parse_forest(args.forest, _alphabet(args)))
    w = hierarchy.complete_witness(t, args.n)
    return serialize_term(w), t.forest, None


def _cmd_build_t(args) -> tuple:
    alpha = ordinals.parse_ordinal(args.ordinal)
    if not alpha.is_zero() and args.k >= BUILD_T_BOUND:
        # every nonzero level index holds a color stacked over all k colors
        raise OutputBoundError(
            f"build-T too large: more than {args.k} nodes exceed the bound {BUILD_T_BOUND}")
    f = ordinals.build_t(alpha, args.color, args.n, args.k)
    if f.size > BUILD_T_BOUND:
        raise OutputBoundError(
            f"build-T too large: {f.size} nodes exceed the bound {BUILD_T_BOUND}")
    return serialize_forest(f), ordinals.format_ordinal(alpha), str(args.color)


def _cmd_segment(args) -> tuple:
    seg = hierarchy.enumerate_segment(args.k, args.nodes, args.level)
    write = (hierarchy.hasse_dot if args.command == "diagram"
             else hierarchy.write_segment)
    return write(seg).rstrip("\n"), None, None


def _echo(operand):
    """An operand's JSON text: a forest or a term prints canonically."""
    if isinstance(operand, IForest):
        return serialize_forest(operand)
    return operand if operand is None or isinstance(operand, str) else serialize_term(operand)


def _render(result: tuple, args) -> str:
    """The text of a handler's ``(verdict, lhs, rhs)``.  The operands lhs and
    rhs (forests, terms, text or None) print only in JSON."""
    verdict, lhs, rhs = result
    fmt = args.format or ("dot" if args.command == "diagram" else "text")
    if fmt == "dot" and args.command != "diagram":
        raise ValueError("dot output is only available for diagram")
    if fmt == "json":
        import json  # only JSON output pays for the import

        params = {p: vars(args)[p] for p in args.params if vars(args)[p] is not None}
        payload = {"verdict": verdict, "lhs": _echo(lhs), "rhs": _echo(rhs), "params": params}
        return json.dumps(payload, sort_keys=True)
    return verdict


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
        print(_render(result, args))
    except (OracleBoundError, SegmentBoundError, OutputBoundError, GradeBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply (Python recursion limit"
              f" {sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
