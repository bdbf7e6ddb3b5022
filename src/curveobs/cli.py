"""Command-line front end.

Subcommands: analyze (verdict report, single pair or batch file), twist-check
(the degree-2 twist identity on one pair), eval (homology class and degree-2
invariant of one word), selftest (the ten acceptance criteria at a seed).

Exit codes: 0 success, 1 parse/input error (usage errors included), 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .ell import ell
from .homology import abelianize, basis_label
from .obstruction import TWIST_DEN, analyze, twist_consistency
from .words import MAX_GENUS, WordError, format_word, parse_word, read_int


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's 2, which this
    program keeps for internal invariant violations. Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field(name: str, lo: int, hi: int):
    """An argparse type that reads an int option by `words.read_int`: ASCII
    digits after an optional sign, where int() also reads '_' and the digits
    of other scripts; in lo..hi."""
    def parse(text: str) -> int:
        try:
            return read_int(text, name, lo, hi)
        except WordError as exc:  # argparse prints only 'invalid parse value'
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curveobs",
        description=(
            "Certify positive geometric intersection of two curves on a "
            "genus-g surface with one boundary, from free-group words over "
            "the symplectic generators x1 y1 ... xg yg."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"curveobs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    genus = _field("genus", 1, MAX_GENUS)

    p_an = sub.add_parser("analyze", help="full obstruction report for a pair")
    p_an.add_argument("--genus", type=genus, help="required without --pairs")
    p_an.add_argument("--a", dest="word_a", help="first word")
    p_an.add_argument("--b", dest="word_b", help="second word")
    p_an.add_argument("--pairs", help="batch file: one 'genus<TAB>a<TAB>b' per "
                      "line, one JSON report per line out; takes no other option")
    p_an.add_argument("--format", choices=["text", "json"],
                      help="report format without --pairs (default: text)")

    p_tw = sub.add_parser("twist-check",
                          help="degree-2 twist identity cross-check for a pair")
    p_tw.add_argument("--genus", type=genus, required=True)
    p_tw.add_argument("--a", dest="word_a", required=True)
    p_tw.add_argument("--b", dest="word_b", required=True)
    p_tw.add_argument("--format", choices=["text", "json"], default="text")

    p_ev = sub.add_parser("eval", help="homology class and invariant of a word")
    p_ev.add_argument("--genus", type=genus, required=True)
    p_ev.add_argument("word")
    p_ev.add_argument("--format", choices=["text", "json"], default="text")

    p_st = sub.add_parser("selftest",
                          help="run the ten acceptance criteria at a seed")
    p_st.add_argument("--seed", type=_field("seed", -10**18, 10**18),
                      default=0)
    p_st.add_argument("--iterations", type=_field("iterations", 1, 10**6),
                      default=1)
    return parser


def _cmd_analyze(args) -> int:
    if args.pairs is not None:
        for option, value in (("--genus", args.genus), ("--a", args.word_a),
                              ("--b", args.word_b), ("--format", args.format)):
            if value is not None:
                raise WordError(f"analyze --pairs takes no {option}")
        failed = False
        # streamed, one line held at a time; bytes that are not UTF-8 are
        # read as surrogates, so that only their own line fails, and a byte
        # order mark is dropped at the start of the file only
        with open(args.pairs, encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            lines = (line.rstrip("\n") for line in fh if line.strip())
            for n, line in enumerate(lines, 1):
                fields = line.split("\t")
                try:
                    # UnicodeDecodeError, a ValueError, at a byte not UTF-8
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                    if len(fields) != 3:
                        raise WordError(
                            f"bad batch line (need genus<TAB>a<TAB>b): {line!r}")
                    genus = read_int(fields[0], "genus", 1, MAX_GENUS)
                    rep = analyze(genus,
                                  parse_word(fields[1], genus),
                                  parse_word(fields[2], genus))
                except ValueError as exc:  # WordError included
                    failed = True
                    print(json.dumps({"line": n, "error": str(exc)}))
                    continue
                print(rep.to_json())
        return 1 if failed else 0
    if args.word_a is None or args.word_b is None:
        raise WordError("analyze needs --a and --b (or --pairs FILE)")
    if args.genus is None:
        raise WordError("analyze needs --genus")
    rep = analyze(args.genus,
                  parse_word(args.word_a, args.genus),
                  parse_word(args.word_b, args.genus))
    print(rep.to_json() if args.format == "json" else rep.to_text())
    return 0


def _cmd_twist_check(args) -> int:
    a = parse_word(args.word_a, args.genus)
    b = parse_word(args.word_b, args.genus)
    ok, lhs, rhs = twist_consistency(args.genus, a, b)
    lhs, rhs = ({s: Fraction(n, TWIST_DEN) for s, n in t.items()}
                for t in (lhs, rhs))
    if args.format == "json":
        def terms(t):
            return {" ".join(basis_label(i) for i in s) or "1": str(c)
                    for s, c in sorted(t.items())}

        payload = {
            "consistent": ok,
            "twisted_minus_original": terms(lhs),
            "closed_form": terms(rhs),
        }
        print(json.dumps(payload))
    else:
        print(f"twist identity holds: {ok}")
        if not ok:
            # each side as the degree-2 tensor it is, in its terms' order
            for name, t in (("derivation-exponential side: ", lhs),
                            ("closed-form side:            ", rhs)):
                print(f"{name}TruncTensor(genus={args.genus}, maxdeg=2, "
                      f"terms={t!r})")
    return 0 if ok else 2


def _cmd_eval(args) -> int:
    w = parse_word(args.word, args.genus)
    h = abelianize(w)
    e = ell(w)
    if args.format == "json":
        print(json.dumps({
            "word": format_word(w),
            "abs": h.to_json(),
            "ell": e.to_json(),
        }))
    else:
        print(f"word : {format_word(w)}")
        print(f"|w|  : {h}")
        print(f"ell  : {e}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # no other subcommand loads it
    results = run_selftest(args.seed, args.iterations)
    failures = 0
    for name, cases, error in results:
        if error is None:
            print(f"PASS {name} ({cases} cases)")
        else:
            failures += 1
            print(f"FAIL {name}: {error}")
    print(f"{len(results) - failures}/{len(results)} suites passed "
          f"(seed={args.seed}, iterations={args.iterations})")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "twist-check":
            return _cmd_twist_check(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_selftest(args)
    except (WordError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
