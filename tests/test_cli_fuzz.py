"""The command line never fails in a way its exit codes do not document.

`curveobs.cli.main` runs in process on grammar-shaped words, single-character
corruptions of them, arbitrary text and edge genera, through `analyze` (one pair and
`--pairs`), `eval` and `twist-check`. Whatever the input, the exit code is 0,
1 or 2, stderr holds no traceback, and exit 1 comes with an error message: on
stderr, or as a JSON `error` line in batch mode.

The test runs under the loaded Hypothesis profile (see `conftest.py`): the
small `cli-fuzz` one in Tier-1, the larger `ci` one with
`python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=ci`. Both are
derandomized, so a run is repeatable.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from curveobs.cli import main
from curveobs.words import MAX_GENUS

# genus fields, each with the genus its words are drawn at: small ones, the
# edge values, and text the genus rule rejects
SMALL_GENERA = {"1": 1, "2": 2, "3": 3, "4": 4}
EDGE_GENERA = {str(MAX_GENUS): MAX_GENUS, " 2": 2, "02": 2, "+3": 3, "0": 1,
               "-1": 1, str(MAX_GENUS + 1): 2, "": 2, "2.0": 2, "1e3": 2,
               "x": 2, "٢": 2, "9" * 30: 2}
# weights come from repeats: sampled_from draws each entry alike
GENERA = [*SMALL_GENERA] * 4 + [*EDGE_GENERA]
# a tab would split a batch line; corruptions put one in now and then
SEPARATORS = (" ", "  ", "*", " * ")
# exponents: small ones, and rarely 0 or one past the letter cap; a large one
# that the cap admits would only make the call slow
EXPONENTS = ("1", "2", "3", "-1", "-2", "-3", "002") * 4 + (
    "0", "-0", "1000001", "9" * 25)
# characters a corruption puts in: grammar tokens, near misses and noise
NOISE = tuple("xyz0123456789^-+()[],* \t\n\\'\"{}$#%!~") + (
    "٣", "é", "\x00", "\ufeff")


def words(genus):
    """Grammar-shaped text at a genus: generators, one index in 16 out of
    range, `1`, `zeta` unless the genus is large, and groups and commutators
    nested a few levels deep, with exponents now and then."""
    def atom(name, pad, k):
        if name in ("1", "zeta"):
            return name
        return f"{name}{pad}{genus + 1 if k == 15 else k % min(genus, 4) + 1}"

    names = ("x", "y") * 3 + ("1",) + (("zeta",) if genus <= 8 else ())
    atoms = st.builds(atom, st.sampled_from(names),
                      st.sampled_from(("", "", "0")), st.integers(0, 15))

    def joined(parts):
        return st.builds(lambda ps, seps: "".join(
            p + s for p, s in zip(ps, seps + [""])),
            st.lists(parts, min_size=1, max_size=4),
            st.lists(st.sampled_from(SEPARATORS), min_size=3, max_size=3))

    def nest(inner):
        body = joined(inner)
        return st.one_of(
            st.builds(lambda w: f"({w})", body),
            st.builds(lambda u, v: f"[{u},{v}]", body, body),
            st.builds(lambda a, e: f"{a}^{e}", inner,
                      st.sampled_from(EXPONENTS)))

    return joined(st.recursive(atoms, nest, max_leaves=6))


@st.composite
def mostly_intact(draw, text):
    """text; one time in five with one character deleted, inserted or
    replaced, and one time in fifteen arbitrary text in its place."""
    t = draw(text)
    i, op = draw(st.integers(0, len(t))), draw(st.integers(0, 14))
    c = draw(st.sampled_from(NOISE))
    if op == 11:
        return draw(st.text(max_size=20))
    if op == 12:
        return t[:i] + t[i + 1:]
    if op == 13:
        return t[:i] + c + t[i:]
    if op == 14:
        return t[:i] + c + t[i + 1:]
    return t


@st.composite
def calls(draw):
    """(argv, batch file text or None) for one CLI call."""
    genus = draw(st.sampled_from(GENERA))
    word = mostly_intact(words({**SMALL_GENERA, **EDGE_GENERA}[genus]))
    command = draw(st.sampled_from(("analyze", "analyze", "twist-check",
                                    "eval", "batch")))
    fmt = draw(st.sampled_from(([], ["--format", "json"], ["--format", "text"])))
    if command == "eval":
        return ["eval", "--genus", genus, draw(word), *fmt], None
    if command == "batch":
        lines = draw(st.lists(st.builds(
            lambda a, b: f"{genus}\t{a}\t{b}", word, word),
            min_size=1, max_size=3))
        return ["analyze", "--pairs"], "\n".join(lines) + "\n"
    a = draw(word)
    # half the time b = [u, v] a^2, so that i_A = 0 and twist-check runs
    b = draw(st.one_of(word, st.builds(lambda u, v: f"[{u},{v}] ({a})^2",
                                       word, word)))
    return [command, "--genus", genus, "--a", a, "--b", b, *fmt], None


def run(argv, batch):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if batch is not None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            path = os.path.join(tmp, "pairs.tsv")
            with open(path, "w", encoding="utf-8",
                      errors="surrogateescape") as fh:
                fh.write(batch)
            argv = [*argv, path]
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(calls())
def test_exit_codes_and_messages_are_documented(call):
    argv, batch = call
    code, out, err = run(argv, batch)
    assert code in (0, 1, 2), (argv, batch, code, err)
    assert "Traceback" not in err, (argv, batch, err)
    if code == 1:
        errors = [line for line in out.splitlines()
                  if "error" in json.loads(line)] if batch else []
        assert "error: " in err or errors, (argv, batch, out, err)
