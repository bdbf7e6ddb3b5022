"""Differential test of `parse_word` against a token-at-a-time parser.

`_TokenParser` below is the parser `words` had before generator atoms were
read in one regex match: every atom, generators included, is a peek/take of
one token followed by its exponent. It is kept here, unchanged apart from its
name, as the slow oracle. On seeded grammar-shaped inputs at genus 1-4, and
on single-character corruptions of them, `parse_word` must return the same
`Word` or raise a `WordError` with the same text.
"""

import random
import re

import pytest

from curveobs.words import (MAX_LETTERS, MAX_NESTING, Word, WordError,
                            _bounded_int, _check_length, _GENUS_DIGITS,
                            _shown, boundary_word, parse_word,
                            reduce_letters)


# --- the oracle ----------------------------------------------------------------

# Separators, then one token, or none at the end or before an unknown token.
_TOKEN_RE = re.compile(
    r"[\s*]*"                     # separators, skipped
    r"(?:(?P<gen>[xy][0-9]+)"
    r"|(?P<zeta>zeta)"
    r"|(?P<caret>\^)"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<open>[\[(])"
    r"|(?P<close>[\])])"
    r"|(?P<comma>,))?"
)


class _TokenParser:
    """Recursive descent reading one token at a time, so memory follows the
    letters built, which MAX_LETTERS bounds, not the length of the text."""

    def __init__(self, text: str, genus: int):
        self.text = text
        self.genus = genus
        self.pos = 0
        self.depth = 0
        self.ahead = None

    def peek(self):
        """The next (kind, text) token, (None, "") at the end; not taken."""
        if self.ahead is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            self.pos = pos = m.end()
            kind = m.lastgroup
            if kind is None and pos < len(self.text):
                raise WordError(f"unknown token at {self.text[pos:pos + 10]!r}")
            self.ahead = (kind, m[kind] if kind else "")
        return self.ahead

    def take(self):
        tok = self.peek()
        self.ahead = None
        return tok

    def parse_word(self) -> list[int]:
        letters: list[int] = []
        while True:
            kind, _ = self.peek()
            if kind in (None, "comma") or (kind == "close"):
                return letters
            letters.extend(self.parse_term())
            _check_length(len(letters))

    def parse_term(self) -> list[int]:
        kind, text = self.take()
        if kind == "gen":
            # the token regex leaves only ASCII digits after x or y; an index
            # with no significant digit, or more than MAX_GENUS has, is out
            # of range without reaching int()
            digits = text[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= _GENUS_DIGITS else 0
            if not 1 <= idx <= self.genus:
                raise WordError(
                    f"generator index out of range 1..{self.genus} in {_shown(text)}"
                )
            # the letter of x_idx or y_idx, as `generator` encodes it
            base = [2 * idx - (text[0] == "x")]
        elif kind == "zeta":
            base = list(boundary_word(self.genus).letters)
        elif kind == "int" and text == "1":
            base = []
        elif kind == "open":
            closing = "]" if text == "[" else ")"
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise WordError(f"brackets nested deeper than {MAX_NESTING}")
            inner = self.parse_word()
            if text == "[":
                ck, _ = self.take()
                if ck != "comma":
                    raise WordError("expected ',' inside commutator bracket")
                second = self.parse_word()
                u = reduce_letters(inner)
                v = reduce_letters(second)
                _check_length(2 * (len(u) + len(v)))
                ui = [-l for l in reversed(u)]
                vi = [-l for l in reversed(v)]
                base = list(u) + list(v) + ui + vi
            else:
                base = inner
            ck, ct = self.take()
            if ck != "close" or ct != closing:
                raise WordError(f"unbalanced bracket, expected {closing!r}")
            self.depth -= 1
        else:
            raise WordError(f"unexpected token {text!r}")
        return self.apply_exponent(base)

    def apply_exponent(self, base: list[int]) -> list[int]:
        kind, _ = self.peek()
        if kind != "caret":
            return base
        self.take()
        kind, text = self.take()
        if kind != "int":
            raise WordError(f"expected integer exponent, got {text!r}")
        n = _bounded_int(text, MAX_LETTERS)
        if n is None:
            # |n| > MAX_LETTERS: only the identity survives such a power
            if base:
                raise WordError(f"exponent {_shown(text)} expands the word "
                                f"to more than {MAX_LETTERS} letters")
            return base
        if n == 0:
            raise WordError("exponent 0 is not allowed")
        if n < 0:
            base = [-l for l in reversed(base)]
            n = -n
        _check_length(len(base) * n)
        return base * n


def token_parse_word(text: str, genus: int) -> Word:
    parser = _TokenParser(text, genus)
    if parser.peek()[0] is None:
        raise WordError("empty input (use '1' for the identity)")
    letters = parser.parse_word()
    if parser.peek()[0] is not None:
        raise WordError(f"unexpected token {parser.peek()[1]!r}")
    return Word.from_letters(genus, letters)


# --- seeded inputs -------------------------------------------------------------

# separators between atoms; none at all joins two tokens into one now and then
SEPARATORS = (" ",) * 6 + ("*", " * ", "**", "\t", "\n ", "")
AROUND_CARET = ("", "", " ", "*")
# characters a corruption inserts or substitutes
NOISE = "xy0123456789-+^*()[], \tz&e"
WORDS_PER_GENUS = 250
CORRUPTIONS = 3


def _exponent(rng: random.Random) -> str:
    """'^' and an exponent: signed, zero-padded now and then, and rarely 0,
    past the letter cap or too long to read."""
    r = rng.random()
    if r < 0.03:
        digits = rng.choice(("0", "000", "1000001", "10000000", "9" * 25))
    else:
        digits = "0" * rng.choice((0, 0, 0, 1, 4)) + str(rng.choice((1, 2, 3, 5)))
    sign = rng.choice(("", "-"))
    before, after = rng.choice(AROUND_CARET), rng.choice(AROUND_CARET)
    return f"{before}^{after}{sign}{digits}"


def _atom(genus: int, rng: random.Random, depth: int) -> str:
    r = rng.random()
    if r < 0.6 or depth >= 2:
        # indices in range, zero-padded now and then, and rarely out of it
        idx = rng.randint(1, genus) if rng.random() < 0.97 else genus + 1
        text = rng.choice("xy") + "0" * rng.choice((0, 0, 0, 2)) + str(idx)
    elif r < 0.7:
        text = "zeta"
    elif r < 0.75:
        text = "1"
    elif r < 0.88:
        text = f"({_word(genus, rng, depth + 1)})"
    else:
        text = (f"[{_word(genus, rng, depth + 1)}{rng.choice(('', ' '))},"
                f"{rng.choice(('', ' '))}{_word(genus, rng, depth + 1)}]")
    if rng.random() < 0.4:
        text += _exponent(rng)
    return text


def _word(genus: int, rng: random.Random, depth: int = 0) -> str:
    atoms = [_atom(genus, rng, depth) for _ in range(rng.randint(1, 5))]
    text = atoms[0]
    for atom in atoms[1:]:
        text += rng.choice(SEPARATORS) + atom
    return text


def _corrupt(text: str, rng: random.Random) -> str:
    """One character deleted, inserted or replaced."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(NOISE) + text[i:]
    return text[:i] + rng.choice(NOISE) + text[i + 1:]


def _inputs(genus: int) -> list[str]:
    rng = random.Random(7919 * genus)
    out = []
    for _ in range(WORDS_PER_GENUS):
        text = _word(genus, rng)
        out.append(text)
        out += [_corrupt(text, rng) for _ in range(CORRUPTIONS)]
    return out


def _outcome(parse, text: str, genus: int):
    try:
        return parse(text, genus)
    except WordError as e:
        return f"WordError: {e}"


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_same_word_or_same_error_as_the_token_parser(genus):
    inputs = _inputs(genus)
    outcomes = [_outcome(token_parse_word, text, genus) for text in inputs]
    # the inputs reach both outcomes, and each kind of atom fault
    errors = " ".join(o for o in outcomes if isinstance(o, str))
    assert sum(isinstance(o, Word) for o in outcomes) > len(inputs) // 4
    for fault in ("out of range", "exponent 0", "expands the word",
                  "expected integer exponent", "unknown token",
                  "unexpected token", "unbalanced bracket"):
        assert fault in errors
    for text, want in zip(inputs, outcomes):
        assert _outcome(parse_word, text, genus) == want, text
