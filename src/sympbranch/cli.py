"""Command line front end: queries, enumeration, rewriting, verification.

``--json`` prints ``json.dumps(payload, indent=2)`` as written by ``_dumps``.
Before 3.13 the stdlib indents with its pure-Python encoder, a third of the
time of ``basis`` and ``degenerate``; delete ``_dumps`` once
``requires-python`` is at least 3.13, where that path is in C."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from sympbranch import diagrams, exacteval, hibi, monomials, straighten
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


# Exact types, so bool is not written as an int.
_LEAF = {int: int.__repr__, str: encode_basestring_ascii}


def _dumps(obj, indent: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for dicts with str keys."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                 for k, v in obj.items())
    elif isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, obj) if leaf else (_dumps(v, inner) for v in obj)
    else:
        return json.dumps(obj)
    open_, close = "{}" if isinstance(obj, dict) else "[]"
    return open_ + inner + ("," + inner).join(items) + indent + close


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
    chains = zip(monomials.build_chains(d, f, n, middles), middles,
                 diagrams.tl_weights(diagrams.middle_ranges(d, f, n), middles),
                 (monomials.tableau_of_triple(d, e, f, n) for e in middles))
    if args.json:
        entries = [{"monomial": m.tokens(), "E": e, "order_type": word,
                    "tl_weight": w, "tableau": tab.rows} for m, e, w, tab in chains]
        print(_dumps({"schema": SCHEMA, "command": "basis", "n": n, "D": d,
                      "F": f, "count": len(middles), "monomials": entries}))
        return 0
    lines = [f"basis(D={_fmt_diagram(d)}, F={_fmt_diagram(f)}, n={n}): "
             f"{len(middles)} standard monomials"]
    for k, (m, e, w, tab) in enumerate(chains, start=1):
        lines.append(f"#{k} {m}  E={_fmt_diagram(e)}  type={word}  "
                     f"weight=({','.join(map(str, w))})")
        lines += ["    " + row for row in str(tab).splitlines()]
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
    chains = zip(monomials.build_chains(d, f, n, middles),
                 (hibi.pattern_rows(d, e, f, n) for e in middles))
    if args.json:
        entries = [{"monomial": m.tokens(), "top": top, "mid": mid, "bot": bot}
                   for m, (top, mid, bot) in chains]
        print(_dumps({"schema": SCHEMA, "command": "degenerate", "n": n,
                      "D": d, "F": f, "count": len(middles),
                      "margin_count": len(middles), "patterns": entries}))
        return 0
    lines = [f"degenerate(D={_fmt_diagram(d)}, F={_fmt_diagram(f)}, n={n})"]
    for k, (m, p) in enumerate(chains, start=1):
        lines.append(f"#{k} {m}")
        lines += ["    " + row for row in hibi.pretty(p).splitlines()]
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
