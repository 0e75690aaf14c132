"""Command line front end: queries, enumeration, rewriting, verification.

``--json`` prints ``json.dumps(payload, indent=2)`` byte for byte.  ``_dumps``
writes the payload, but the entries of ``basis`` and ``degenerate`` are written
from per-pair runs, each token or row encoded once per pair."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from sympbranch import diagrams, exacteval, hibi, lattice, monomials, straighten
from sympbranch.diagrams import normalize, order_type_str

SCHEMA = "1"

# The most middle diagrams, or straightened terms, that a command lists.
LISTING_CAP = 100_000


def _parse_diagram(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text in ("-", "()"):
        return ()
    try:
        return normalize(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed diagram {text!r}: {exc}") from exc


def _fmt_diagram(d) -> str:
    return "[" + ",".join(str(p) for p in d) + "]"


class _Raw(str):
    """Text already encoded as ``_dumps`` would write it in place."""


# Exact types, so bool is not written as an int.
_LEAF = {int: int.__repr__, str: encode_basestring_ascii, _Raw: str.__str__}


def _block(items: list, indent: str, brackets: str = "[]") -> str:
    """Encoded items, one per line one level below indent."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _dumps(obj, indent: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for dicts with str keys."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        return _block([f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                       for k, v in obj.items()], indent, "{}")
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        return _block([*map(leaf or partial(_dumps, indent=inner), obj)], indent)
    return json.dumps(obj)


_KEY, _ITEM = "\n      ", "\n        "  # a listed entry's keys, their items


def _ints(values, indent: str = _KEY) -> str:
    """``_dumps`` of a flat list of ints, by default as an entry's value."""
    return _block([*map(str, values)], indent)


def _entries(keys, rows) -> list[_Raw]:
    """A listing's objects: these keys, and each row of values at ``_KEY``."""
    heads = [f"{_KEY}{encode_basestring_ascii(k)}: " for k in keys]
    return [_Raw("{" + ",".join(map(str.__add__, heads, values)) + "\n    }")
            for values in rows]


def _chains(d, f, n: int, as_json: bool):
    """e -> the chain of middle e as printed, [J1,J'0], or in JSON: each run
    of ``monomials.chain_factors`` is its column's text times its length."""
    sep, q, close = (_ITEM, '"', _KEY + "]") if as_json else ("", "", "]")
    frag = {c: f",{sep}{q}{c.token()}{q}" for c in lattice.elements(n)}  # no escapes
    runs = [(i, lo, hi, frag[j], frag[jp], "".join(map(frag.get, rest)))
            for i, lo, hi, j, jp, rest in monomials.chain_factors(d, f, n)]

    def write(e) -> str:
        e += (0,) * (n - len(e))
        text = "".join([j * (e[i] - lo) + jp * (hi - e[i]) + rest
                        for i, lo, hi, j, jp, rest in runs])
        return f"[{text[1:]}{close}" if text else "[]"
    return write


def _emit(payload: dict, text_lines: list[str], as_json: bool) -> None:
    print(_dumps(payload) if as_json else "\n".join(text_lines))


def _check_cap(d, f, n: int) -> None:
    """Refuse a pair of multiplicity past the cap before anything is built."""
    if (count := diagrams.multiplicity(d, f, n)) > LISTING_CAP:
        raise ValueError(f"multiplicity {count} is over the listing cap "
                         f"{LISTING_CAP}")


def _middles(d, f, n: int) -> list:
    _check_cap(d, f, n)
    return diagrams.enumerate_middle(d, f, n)


def _default_seed() -> int:
    return int(os.environ.get("SYMPBRANCH_SEED", "0"))


def _cmd_mult(args) -> int:
    d, f = _parse_diagram(args.D), _parse_diagram(args.F)
    count = diagrams.multiplicity(d, f, args.n)
    payload = {"schema": SCHEMA, "command": "mult", "n": args.n,
               "D": list(d), "F": list(f), "multiplicity": count}
    lines = [f"multiplicity(D={_fmt_diagram(d)}, F={_fmt_diagram(f)}, "
             f"n={args.n}) = {count}"]
    if args.list:
        middles = _middles(d, f, args.n)
        payload["middles"] = [list(e) for e in middles]
        lines += [f"  E = {_fmt_diagram(e)}" for e in middles]
    _emit(payload, lines, args.json)
    return 0


def _cmd_basis(args) -> int:
    d, f, n = _parse_diagram(args.D), _parse_diagram(args.F), args.n
    middles = _middles(d, f, n)
    word = order_type_str(diagrams.order_type_of(d, f, n))
    weights = diagrams.tl_weights(diagrams.middle_ranges(d, f, n), middles)
    tableaux = (monomials.tableau_of_triple(d, e, f, n) for e in middles)
    if args.json:
        chain, word = _chains(d, f, n, True), encode_basestring_ascii(word)
        row = cache(partial(_ints, indent=_ITEM))
        entries = _entries(
            ("monomial", "E", "order_type", "tl_weight", "tableau"),
            ((chain(e), _ints(e), word, _ints(w),
              _block([*map(row, tab)], _KEY))
             for e, w, tab in zip(middles, weights, tableaux)))
        print(_dumps({"schema": SCHEMA, "command": "basis", "n": n, "D": d,
                      "F": f, "count": len(middles), "monomials": entries}))
        return 0
    chain = _chains(d, f, n, False)
    lines = [f"basis(D={_fmt_diagram(d)}, F={_fmt_diagram(f)}, n={n}): "
             f"{len(middles)} standard monomials"]
    for k, (e, w, tab) in enumerate(zip(middles, weights, tableaux), start=1):
        lines.append(f"#{k} {chain(e)}  E={_fmt_diagram(e)}  type={word}  "
                     f"weight=({','.join(map(str, w))})")
        lines += ["    " + " ".join(map(str, row)) for row in tab]
    print("\n".join(lines))
    return 0


def _cmd_straighten(args) -> int:
    poly = straighten.parse_poly(args.expr, args.n)
    if not args.hibi and (count := straighten.expansion_size(poly)) > LISTING_CAP:
        raise ValueError(f"straightening makes {count} terms, over the listing "
                         f"cap {LISTING_CAP}")
    base = straighten.default_weight_base(args.n)
    result = (straighten.hibi_normal_form(poly) if args.hibi
              else straighten.straighten(poly))
    text, terms = straighten.format_poly(result), straighten.poly_to_json(result)
    payload = {"schema": SCHEMA, "command": "straighten", "n": args.n,
               "mode": "hibi" if args.hibi else "straighten",
               "input": straighten.format_poly(poly),
               "weight_base": base, "terms": terms, "result": text}
    lines = [text]
    lines += [f"  {str(coeff):>5}  [{','.join(term['monomial'])}]"
              f"  wt={term['weight']}"
              for term, coeff in zip(terms, result.terms.values())]
    lines.append(f"(weight base N = {base})")
    _emit(payload, lines, args.json)
    return 0


_SUITES = ("relations", "invariance", "torus", "independence", "all")


def _cmd_verify(args) -> int:
    if args.suite not in ("independence", "all") and (args.D, args.F) != (None, None):
        raise ValueError("--D and --F apply only to the independence suite")
    names = _SUITES[:-1] if args.suite == "all" else (args.suite,)
    d = _parse_diagram(args.D) if args.D is not None else None
    f = _parse_diagram(args.F) if args.F is not None else None
    if d is not None and f is not None:
        _check_cap(d, f, args.n)
    suites = {"relations": exacteval.relations_suite,
              "invariance": exacteval.invariance_suite,
              "torus": exacteval.torus_suite,
              "independence": partial(exacteval.independence_suite, d=d, f=f)}
    reports = [suites[name](args.n, args.seed, args.trials) for name in names]
    total = sum(len(r["failures"]) for r in reports)
    payload = {"schema": SCHEMA, "command": "verify", "suite": args.suite,
               "n": args.n, "seed": args.seed, "trials": args.trials,
               "reports": reports, "failures_total": total}
    lines = [f"suite {r['op']}: n={args.n} seed={args.seed} "
             f"trials={r['trials']} failures={len(r['failures'])}"
             for r in reports]
    lines.append("PASS" if total == 0 else "FAIL")
    _emit(payload, lines, args.json)
    return 0 if total == 0 else 1


def _cmd_degenerate(args) -> int:
    d, f, n = _parse_diagram(args.D), _parse_diagram(args.F), args.n
    middles = _middles(d, f, n)
    # top and bot are checked and padded once; each middle is only padded
    top, _, bot = hibi.pattern_rows(d, (), f, n)
    mids = [e + (0,) * (n - len(e)) for e in middles]
    if args.json:
        chain = _chains(d, f, n, True)
        top, bot = _ints(top), _ints(bot)
        entries = _entries(("monomial", "top", "mid", "bot"),
                           ((chain(e), top, _ints(mid), bot)
                            for e, mid in zip(middles, mids)))
        print(_dumps({"schema": SCHEMA, "command": "degenerate", "n": n,
                      "D": d, "F": f, "count": len(middles),
                      "margin_count": len(middles), "patterns": entries}))
        return 0
    chain = _chains(d, f, n, False)
    lines = [f"degenerate(D={_fmt_diagram(d)}, F={_fmt_diagram(f)}, n={n})"]
    for k, (e, mid) in enumerate(zip(middles, mids), start=1):
        lines.append(f"#{k} {chain(e)}")
        lines += ["    " + row for row in hibi.pretty((top, mid, bot)).splitlines()]
    lines.append(f"margin count = {len(middles)} (basis size {len(middles)})")
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # "-[I1,K0]" and "-2*[I1,K0]" are negative polynomials, not options
        if arg_string[:1] == "-" and arg_string[1:2] in "[0123456789":
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sympbranch",
        description="Exact queries on branching multiplicities, standard "
                    "monomials, straightening and toric degeneration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, diagrams_positional=True):
        if diagrams_positional:
            p.add_argument("D", help="comma-separated diagram, e.g. 4,3,1 "
                                     "(empty string for the empty diagram)")
            p.add_argument("F", help="comma-separated diagram")
        p.add_argument("--n", type=int, required=True, help="rank, at least 2")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("mult", help="branching multiplicity of a pair")
    common(p)
    p.add_argument("--list", action="store_true", help="list middle diagrams")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("basis", help="standard monomial basis of a pair")
    common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("straighten", help="rewrite a polynomial to standard form")
    p.add_argument("expr", help="polynomial, e.g. '[I1,K0]' or '2*[I1,K0] - [J0]'")
    common(p, diagrams_positional=False)
    p.add_argument("--hibi", action="store_true",
                   help="use the one-term associated graded rule")
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("verify", help="run a randomized exact verification suite")
    p.add_argument("suite", choices=_SUITES)
    common(p, diagrams_positional=False)
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed (default: SYMPBRANCH_SEED or 0)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--D", default=None, help="diagram for the independence suite")
    p.add_argument("--F", default=None, help="diagram for the independence suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("degenerate", help="patterns of the degenerated basis")
    common(p)
    p.set_defaults(func=_cmd_degenerate)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "verify":
        args.seed = _default_seed()
    if getattr(args, "trials", 1) < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    if args.n < 2:
        print("error: --n must be at least 2", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # in the try, so that a closed pipe is caught
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early, as `head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
