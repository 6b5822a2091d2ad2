"""Command line front end for the hierarchy calculus.

Every command is deterministic: identical invocations print identical
bytes.  Exit status is 0 for success, 1 for a user error (bad syntax,
unknown flag, out-of-range color), 2 when a resource guard refuses the
computation (FHC_ORACLE_BOUND overrides the brute-force map-search guard;
input nested past the Python recursion limit, or a ``build-T`` result of more
than ordinals.BUILD_T_BOUND nodes, is refused too).  Every error is one line on stderr.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

# a submodule runs when first read: hierarchy, notation, ordinals and terms in handlers
from . import hierarchy, iterated, notation, ordinals, terms
from .forests import BoundError
from .iterated import IForest


class UsageError(ValueError):
    """A command line that does not fit the subcommand table."""


#: every option: its type ("int", "natural", bool for a flag, or a tuple of
#: choices), its default (``...`` if it must be given), usage and help
OPTIONS = {
    "--help": (bool, False, "-h", "show this help and exit"),
    "--k": ("int", 2, "--k K", "alphabet size (colors 0..k-1); default 2"),
    "--n": ("natural", 0, "--n N", "jump shift / relation level; default 0"),
    "--format": (("text", "json", "dot"), None, "--format {text,json,dot}",
                 "output format; default text, dot for diagram"),
    "--oracle": (bool, False, "--oracle", "decide by brute-force map search (guarded)"),
    "--m": ("natural", None, "--m M", "window width"),
    "--nodes": ("natural", ..., "--nodes NODES", "node-count bound for the enumeration"),
    "--level": ("natural", ..., "--level LEVEL", "nesting-level bound for the enumeration"),
}


def build_parser() -> dict[str, tuple]:
    """The subcommand table: name -> (handler, help, positionals, options,
    params), ``params`` being the arguments its JSON output echoes."""
    table = {}

    def add(name, handler, help_text, *positionals, params=("k",), options=()):
        options = ("--help", "--k", "--n", "--format", *options)
        table[name] = (handler, help_text, positionals, options, params)

    add("cmp", _cmd_cmp, "compare two forests: prints <  >  =  ||",
        "forest", "forest1", params=("k", "n", "oracle"), options=("--oracle",))
    add("min", _cmd_min, "minimize a forest to its canonical representative", "forest")
    add("decompose", _cmd_decompose,
        "canonical decomposition into incomparable minimal trees", "forest")
    add("encode", _cmd_encode, "canonical term of a forest at shift n", "forest",
        params=("k", "n"))
    add("eval", _cmd_eval, "evaluate a term to a forest", "term")
    add("g2s", _cmd_g2s, "translate a G-signature term to graded products", "term", params=())
    add("s2g", _cmd_s2g, "expand graded products into the G combinator", "term", params=())
    add("jump-height", _cmd_jump_height, "jumps above bottom a term denotes", "term", params=())
    add("normalize", _cmd_normalize,
        "restrict grades below n, or into the window [n, n+m) with --m", "term",
        params=("n", "m"), options=("--m",))
    add("level-subset", _cmd_level_subset, "inclusion verdict between two levels",
        "forest", "forest1")
    add("witness", _cmd_witness, "complete partition of a level, symbolically",
        "forest", params=("k", "n"))
    add("build-T", _cmd_build_t, "level index for an ordinal and color",
        "ordinal", "color", params=("k", "n"))
    for name, what in ("enumerate", "in the cache format"), ("diagram", "as a DOT Hasse diagram"):
        add(name, _cmd_segment, f"quotient segment {what}", params=("k", "nodes", "level"),
            options=("--nodes", "--level"))
    return table


def _option(arg: str, options) -> tuple[str | None, str | None]:
    """``arg``'s option of ``options``, named in full or by a unique prefix
    (``-h`` is ``--help``), and its "=" value; else ("", None) for a value
    (``-``, a negative number, a text with a space), or (None, None)."""
    flag, eq, value = arg.partition("=")
    flag = "--help" if flag == "-h" else flag
    hits = [o for o in options if o.startswith(flag)] if flag[:2] == "--" else []
    if flag in options or len(hits) == 1:
        return flag if flag in options else hits[0], value if eq else None
    number = re.fullmatch(r"-\d+|-\d*\.\d+", arg)
    return "" if arg[:1] != "-" or arg == "-" or " " in arg or number else None, None


def _help(table: dict, command: str | None) -> None:
    """Print the usage of ``fhc``, or of its ``command``, and exit 0."""
    if command is None:
        usage, about = f"fhc [-h] {{{','.join(table)}}} ...", __doc__
        rows = [(name, row[1]) for name, row in table.items()]
    else:
        _, about, positionals, options, _ = table[command]
        rows = [OPTIONS[o][2:] for o in options]
        words = [w if OPTIONS[o][1] is ... else f"[{w}]" for o, (w, _) in zip(options, rows)]
        usage = " ".join(["fhc", command, *words, *positionals])
    print(f"usage: {usage}", "", about.strip(), "", *(f"  {w:<26}{h}" for w, h in rows), sep="\n")
    raise SystemExit(0)


def _convert(name: str, kind, text: str):
    """``text`` as the value of argument ``name`` of type ``kind``."""
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind} value: {text!r}") from None
    if kind == "natural" and value < 0:
        raise UsageError(f"argument {name}: must be non-negative, got {text}")
    return value


def _read(argv: list[str]) -> SimpleNamespace:
    """Read argv left to right as the subcommand table declares it (see
    README); help, and a bad value, end the reading where they stand."""
    table, args, extra = build_parser(), {"command": None}, []
    todo, options, rest, dashed = ("command",), ("--help",), iter(argv), False
    for arg in rest:
        name, value = ("", None) if dashed else _option(arg, options)
        if name == "" or arg == "--" and args["command"] is None:  # a positional
            if not todo:
                extra.append(arg)
            elif todo[0] == "command":
                handler, _, todo, options, params = table[_convert(todo[0], tuple(table), arg)]
                args.update(command=arg, handler=handler, params=params)
                args.update((o[2:], OPTIONS[o][1]) for o in options[1:])
            else:
                name, todo = todo[0], todo[1:]
                args[name] = _convert(name, "int", arg) if name == "color" else arg
        elif arg == "--":  # what follows is positional
            dashed = True
        elif name is None:
            extra.append(arg)
        elif OPTIONS[name][0] is bool:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                _help(table, args["command"])
            args[name[2:]] = True
        else:
            if value is None:  # the next argument, which must be a value
                value = next(rest, "--")
                if _option(value, options)[0] != "":
                    raise UsageError(f"argument {name}: expected one argument")
            args[name[2:]] = _convert(name, OPTIONS[name][0], value)
    missing = [*todo, *(o for o in options if args.get(o[2:]) is ...)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**args)


def _alphabet(args) -> int | None:
    if args.k == 0:
        return None  # unbounded
    if args.k < 2:
        raise ValueError("alphabet size must be at least 2 (0 for unbounded)")
    return args.k


def _parse_sterm(text: str):
    # a parsed term uses G exactly when its text holds a "G", and a graded
    # product exactly when it holds a "."
    u = notation.parse_term(text)
    return terms.g_to_s(u) if "G" in text else u


def _check_term_colors(u, k: int | None) -> None:
    for x in terms.subterms(u):
        if k is not None and isinstance(x, terms.Const) and x.color >= k:
            raise ValueError(f"color {x.color} outside alphabet of size {k}")


def _cmd_cmp(args) -> tuple:
    k = _alphabet(args)
    a = notation.parse_forest(args.forest, k)
    b = notation.parse_forest(args.forest1, k)
    leq = iterated.colim_leq_oracle if args.oracle else iterated.colim_leq
    fwd, bwd = leq(a, b, args.n), leq(b, a, args.n)
    verdict = {(True, True): "=", (True, False): "<",
               (False, True): ">", (False, False): "||"}[(fwd, bwd)]
    return verdict, a, b


def _cmd_min(args) -> tuple:
    f = notation.parse_forest(args.forest, _alphabet(args))
    return notation.serialize_forest(iterated.representative(f)), f, None


def _cmd_decompose(args) -> tuple:
    f = notation.parse_forest(args.forest, _alphabet(args))
    return "\n".join(notation.serialize_tree(t) for t in iterated.iminimize(f).trees), f, None


def _cmd_encode(args) -> tuple:
    f = notation.parse_forest(args.forest, _alphabet(args))
    return notation.serialize_term(terms.encode(f, args.n)), f, None


def _cmd_eval(args) -> tuple:
    u = _parse_sterm(args.term)
    _check_term_colors(u, _alphabet(args))
    return notation.serialize_forest(terms.interpret(u)), u, None


def _cmd_g2s(args) -> tuple:
    u = notation.parse_term(args.term)
    if "." in args.term:
        raise ValueError("g2s expects a G-signature term")
    return notation.serialize_term(terms.g_to_s(u)), u, None


def _cmd_s2g(args) -> tuple:
    u = notation.parse_term(args.term)
    if "G" in args.term:
        raise ValueError("s2g expects a star-signature term")
    return notation.serialize_term(terms.s_to_g(u)), u, None


def _cmd_jump_height(args) -> tuple:
    u = notation.parse_term(args.term)
    if "." in args.term:
        u = terms.s_to_g(u)
    return str(terms.jump_height(u)), u, None


def _cmd_normalize(args) -> tuple:
    u = _parse_sterm(args.term)
    out = (terms.restrict_level(u, args.n) if args.m is None
           else terms.window_normalize(u, args.n, args.m))
    return notation.serialize_term(out), u, None


def _cmd_level_subset(args) -> tuple:
    k = _alphabet(args)
    t = hierarchy.LevelDescriptor(notation.parse_forest(args.forest, k))
    v = hierarchy.LevelDescriptor(notation.parse_forest(args.forest1, k))
    return hierarchy.level_relation(t, v), t.forest, v.forest


def _cmd_witness(args) -> tuple:
    t = hierarchy.LevelDescriptor(notation.parse_forest(args.forest, _alphabet(args)))
    return notation.serialize_term(hierarchy.complete_witness(t, args.n)), t.forest, None


def _cmd_build_t(args) -> tuple:
    alpha = ordinals.parse_ordinal(args.ordinal)
    f = ordinals.build_t(alpha, args.color, args.n, args.k)
    return notation.serialize_forest(f), ordinals.format_ordinal(alpha), str(args.color)


def _cmd_segment(args) -> tuple:
    seg = hierarchy.enumerate_segment(args.k, args.nodes, args.level)
    write = hierarchy.hasse_dot if args.command == "diagram" else hierarchy.write_segment
    return write(seg).rstrip("\n"), None, None


def _echo(operand):
    """An operand's JSON text: a forest or a term prints canonically."""
    if isinstance(operand, IForest):
        return notation.serialize_forest(operand)
    return operand if isinstance(operand, (str, type(None))) else notation.serialize_term(operand)


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
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
        print(_render(args.handler(args), args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):  # help and usage errors exit from inside main
            raise SystemExit(1) from None
        return 1
    except (RecursionError, BoundError) as exc:
        if isinstance(exc, RecursionError):
            exc = f"input nests too deeply (Python recursion limit {sys.getrecursionlimit()})"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
