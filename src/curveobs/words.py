"""Free-group words over the symplectic generators x1, y1, ..., xg, yg.

A letter is encoded as a nonzero signed int ±(k+1), where k in 0..2g-1 indexes
the generator (x_j -> 2(j-1), y_j -> 2j-1) and the sign is the exponent sign.
Words are always stored freely reduced.

`parse_word` reads the README's grammar, a generator atom per regex match.
"""

from __future__ import annotations

import re


# Inputs past these bounds are rejected with WordError instead of exhausting
# the interpreter stack or memory. Each bracket level costs the recursive
# parser two frames, so MAX_NESTING stays well below the recursion limit.
# Homology vectors carry 2g coordinates, and each letter of the ell fold
# re-sums the running value, which holds up to g(2g-1) terms, so the genus is
# capped as well.
MAX_NESTING = 200
MAX_LETTERS = 1_000_000
MAX_GENUS = 1000
_GENUS_DIGITS = len(str(MAX_GENUS))


class WordError(ValueError):
    """Invalid word input: bad token, bad index, genus mismatch."""


def check_genus(x, y, error=ValueError):
    """Raise `error` unless x and y live on surfaces of the same genus."""
    if x.genus != y.genus:
        raise error(f"genus mismatch: {x.genus} vs {y.genus}")


def reduce_letters(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


_set = object.__setattr__


class _Record:
    """Immutable value record: its fields are the `__slots__` it sees (a
    subclass adding none declares none), set once in `__init__` through
    `_set`; equal only within one class."""
    __slots__ = ()

    def __reduce__(self):
        """(class, field values): the record's value, also how it is pickled."""
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return (self.__reduce__() == other.__reduce__()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Word(_Record):
    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: tuple[int, ...]):
        if genus < 1:
            raise WordError(f"genus must be >= 1, got {genus}")
        n = 2 * genus
        for l in letters:
            if l == 0 or abs(l) > n:
                raise WordError(f"letter {l} out of range for genus {genus}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise WordError("word is not freely reduced")
        _set(self, "genus", genus)
        _set(self, "letters", letters)

    @classmethod
    def from_letters(cls, genus: int, letters) -> "Word":
        return cls(genus, reduce_letters(letters))

    @classmethod
    def identity(cls, genus: int) -> "Word":
        return cls(genus, ())

    def __mul__(self, other: "Word") -> "Word":
        check_genus(self, other, WordError)
        return Word.from_letters(self.genus, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.genus, tuple(-l for l in reversed(self.letters)))

    def conjugate(self, h: "Word") -> "Word":
        """g.conjugate(h) = g h g^-1."""
        return self * h * self.inverse()

    def __str__(self) -> str:
        return format_word(self)


def commutator(g: Word, h: Word) -> Word:
    """[g, h] = g h g^-1 h^-1."""
    return g * h * g.inverse() * h.inverse()


def generator(genus: int, kind: str, index: int, sign: int = 1) -> Word:
    if not 1 <= index <= genus:
        raise WordError(f"generator index {index} out of range for genus {genus}")
    k = 2 * (index - 1) + (0 if kind == "x" else 1)
    return Word(genus, (sign * (k + 1),))


def boundary_word(genus: int) -> Word:
    """The boundary class: the product of the commutators [x_j, y_j]."""
    return Word(genus, tuple(l for j in range(1, genus + 1)
                             for l in (2 * j - 1, 2 * j, 1 - 2 * j, -2 * j)))


# --- parsing -----------------------------------------------------------------

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

# An optional exponent: separators, '^', separators, then an integer or none.
_EXPONENT = r"(?:[\s*]*(?P<caret>\^)[\s*]*(?P<exp>-?[0-9]+)?)?"
_EXPONENT_RE = re.compile(_EXPONENT)
# A generator atom, such as `x3`, `y12^-2` or `x1 ^ 2`, in one match.
_ATOM_RE = re.compile(r"[\s*]*(?P<gen>[xy](?P<index>[0-9]+))" + _EXPONENT)


class _Parser:
    """Recursive descent reading a generator atom or one other token at a
    time, so memory follows the letters built (MAX_LETTERS), not the text."""

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
            m = _ATOM_RE.match(self.text, self.pos)
            if m:
                gen, index, caret, _ = m.groups()
                # int() gets no more significant digits than MAX_GENUS has
                digits = index.lstrip("0")
                idx = int(digits) if 0 < len(digits) <= _GENUS_DIGITS else 0
                if not 1 <= idx <= self.genus:
                    raise WordError(f"generator index out of range "
                                    f"1..{self.genus} in {_shown(gen)}")
                # the letter of x_idx or y_idx, as `generator` encodes it
                letter = 2 * idx - (gen[0] == "x")
                self.pos = m.end()
                letters.extend(self.power([letter], m) if caret else (letter,))
            elif self.peek()[0] in (None, "comma", "close"):
                return letters
            else:
                letters.extend(self.parse_term())
            _check_length(len(letters))

    def parse_term(self) -> list[int]:
        kind, text = self.take()
        if kind == "zeta":
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
        return self.power(base, _EXPONENT_RE.match(self.text, self.pos))

    def power(self, base: list[int], m) -> list[int]:
        """`base` to the exponent in match `m`, if any; reading goes on after."""
        self.pos = m.end()
        if m["caret"] is None:
            return base
        text = m["exp"]
        if text is None:  # name what follows the '^' as a token
            raise WordError(f"expected integer exponent, got {self.take()[1]!r}")
        # up to 7 characters, int() reads what _bounded_int would, faster
        n = int(text) if len(text) < 8 else _bounded_int(text, MAX_LETTERS)
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


def _bounded_int(text: str, limit: int) -> int | None:
    """The integer written as ASCII digits after an optional sign, or None if
    it has more significant digits than `limit`; ValueError for other text,
    such as the '_' and non-ASCII digits int() reads. Only the significant
    digits reach int(), which errs past 4300 digits without naming a token."""
    unsigned = text[1:] if text[:1] in "+-" else text
    if not (unsigned.isascii() and unsigned.isdigit()):
        raise ValueError(text)
    digits = unsigned.lstrip("0") or "0"
    if len(digits) > len(str(limit)):
        return None
    return int(text[:len(text) - len(unsigned)] + digits)


def _shown(token: str) -> str:
    """A token quoted for an error message, cut short past 20 characters."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:12]!r}... ({len(token)} characters)"


def parse_genus(text: str) -> int:
    """A genus field of input text; the range checks are parse_word's."""
    try:
        genus = _bounded_int(text.strip(), MAX_GENUS)
    except ValueError:
        raise WordError(f"genus {_shown(text)} is not an integer") from None
    if genus is None:
        raise WordError(f"genus {_shown(text)} out of range 1..{MAX_GENUS}")
    return genus


def _check_length(n: int):
    if n > MAX_LETTERS:
        raise WordError(f"word expands to {n} letters, more than {MAX_LETTERS}")


def parse_word(text: str, genus: int) -> Word:
    if genus < 1:
        raise WordError(f"genus must be >= 1, got {genus}")
    if genus > MAX_GENUS:
        raise WordError(f"genus must be <= {MAX_GENUS}, got {genus}")
    if re.fullmatch(r"[\s*]*", text):
        raise WordError("empty input (use '1' for the identity)")
    parser = _Parser(text, genus)
    letters = parser.parse_word()
    if parser.peek()[0] is not None:
        raise WordError(f"unexpected token {parser.peek()[1]!r}")
    return Word.from_letters(genus, letters)


def format_word(w: Word) -> str:
    """Canonical text: run-length-compressed letters, '1' for the identity."""
    if not w.letters:
        return "1"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        l = letters[i]
        k = abs(l) - 1
        name = ("x" if k % 2 == 0 else "y") + str(k // 2 + 1)
        exp = (j - i) * (1 if l > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


# --- random generation -------------------------------------------------------
# rng is a random.Random. The annotations leave it out: naming it would need
# `random` loaded with this module, and `analyze` draws nothing.

def random_letters(genus: int, length: int, rng) -> list[int]:
    """Uniform unreduced letter sequence; may reduce to something shorter."""
    n = 2 * genus
    return [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(length)]


def random_word_rng(genus: int, length: int, rng) -> Word:
    return Word.from_letters(genus, random_letters(genus, length, rng))


def random_commutator_element_rng(genus: int, count: int, rng) -> Word:
    """Product of `count` commutators of random words; abelianizes to zero."""
    out = Word.identity(genus)
    for _ in range(count):
        u = random_word_rng(genus, rng.randint(1, 5), rng)
        v = random_word_rng(genus, rng.randint(1, 5), rng)
        out = out * commutator(u, v)
    return out
