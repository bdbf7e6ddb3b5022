"""Seeded inputs for the three workloads, built from a hand-written catalogue.

Everything here is the benchmark's own arithmetic and never calls the program:
letters are encoded as nonzero ints +-(k+1) with k = 2(j-1) for x_j and
k = 2j-1 for y_j, homology vectors are lists of 2g ints or Fractions over the
basis X1, Y1, ..., Xg, Yg, and the program only ever sees the generated text.

Each catalogue pair has a hand-written verdict and, when i_A = 0, a
hand-computed obstruction vector v. Pairs are varied by conjugating each word
by its own random word u and optionally inverting it. With A, B the varied
classes and U_a, U_b the classes of the conjugators,
ell(u a u^-1) = ell(a) + U_a ^ A and ell(a^-1) = -ell(a), so for i_A = 0

    v' = e_a e_b v + (B.U_a) A + (A.U_b) B,

which stays in Z A + Z B exactly when v does: the verdict is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

VERDICT_HOMOLOGICAL = "certified_positive_homological"
VERDICT_THEOREM = "certified_positive_theorem"
VERDICT_INCONCLUSIVE = "inconclusive"


# --- letters, words and homology --------------------------------------------

def x(j: int) -> int:
    return 2 * (j - 1) + 1


def y(j: int) -> int:
    return 2 * j


def inverse(letters) -> list[int]:
    return [-l for l in reversed(letters)]


def reduce(letters) -> list[int]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def is_reduced(letters) -> bool:
    return all(a != -b for a, b in zip(letters, letters[1:]))


def letter_name(l: int) -> str:
    k = abs(l) - 1
    return ("x" if k % 2 == 0 else "y") + str(k // 2 + 1)


def basis_label(k: int) -> str:
    return ("X" if k % 2 == 0 else "Y") + str(k // 2 + 1)


def flat_text(letters) -> str:
    """One atom per letter, e.g. 'x1 y2^-1'; the identity is '1'."""
    if not letters:
        return "1"
    return " ".join(letter_name(l) + ("" if l > 0 else "^-1") for l in letters)


def canonical_text(letters) -> str:
    """Run-length text of the reduced word, e.g. 'x1^2 y2^-1'."""
    letters = reduce(letters)
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        exp = (j - i) * (1 if letters[i] > 0 else -1)
        name = letter_name(letters[i])
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def abelian(letters, genus: int) -> list[int]:
    out = [0] * (2 * genus)
    for l in letters:
        out[abs(l) - 1] += 1 if l > 0 else -1
    return out


def dot(u, v) -> int | Fraction:
    """Symplectic product: X_j . Y_j = 1 = -(Y_j . X_j), all others 0."""
    return sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, len(u), 2))


def combine(*terms) -> list:
    """Sum of c * vec over the (c, vec) pairs."""
    out = [0] * len(terms[0][1])
    for c, vec in terms:
        for k, a in enumerate(vec):
            out[k] += c * a
    return out


# --- the catalogue -------------------------------------------------------------

@dataclass(frozen=True)
class SeedPair:
    name: str
    a: tuple[int, ...]
    b: tuple[int, ...]
    verdict: str
    v: dict[int, int] | None  # v as {basis index: coeff}; None if i_A != 0


def catalogue(j: int, k: int) -> list[SeedPair]:
    """Hand-checked pairs on generator indices j != k (k unused at genus 1).

    v was worked out by hand from the generator values of ell and the cocycle
    rule: the README pair has ell(a) = 1/2 (X1^Y1 + X2^Y2 + X1^Y2),
    ell(b) = 1/2 (X1^Y2 - X1^Y1 - X2^Y2) and v = X1, which is not in
    Z(X1 + Y2) + Z(Y2 - X1); relabelling indices is a symplectic symmetry.
    """
    xj, yj, xk, yk = x(j), y(j), x(k), y(k)
    X = 2 * (j - 1)
    pairs = [
        SeedPair("parallel", (xj,), (-xj,), VERDICT_INCONCLUSIVE, {X: 1}),
        SeedPair("dual", (xj,), (yj,), VERDICT_HOMOLOGICAL, None),
        SeedPair("dual_reversed", (yj,), (xj,), VERDICT_HOMOLOGICAL, None),
    ]
    if j != k:
        pairs += [
            SeedPair("disjoint_xx", (xj,), (xk,), VERDICT_INCONCLUSIVE, {}),
            SeedPair("disjoint_xy", (xj,), (yk,), VERDICT_INCONCLUSIVE, {}),
            SeedPair("disjoint_y_xy", (yj,), (xk, yk), VERDICT_INCONCLUSIVE, {}),
            SeedPair("readme", (xj, xk, yk, -xk), (yk, -xj), VERDICT_THEOREM,
                     {X: 1}),
        ]
    return pairs


def seed_pair(name: str, genus: int, rng: random.Random) -> SeedPair:
    """The named catalogue pair on random distinct indices of the genus."""
    if genus == 1:
        j = k = 1
    else:
        j, k = rng.sample(range(1, genus + 1), 2)
    for p in catalogue(j, k):
        if p.name == name:
            return p
    raise ValueError(f"catalogue pair {name!r} needs genus >= 2")


# --- generated pairs and their known answers ----------------------------------

@dataclass(frozen=True)
class Pair:
    """One generated pair: the text the program sees and the known answer."""
    genus: int
    a_text: str
    b_text: str
    a: tuple[int, ...]   # letters of a as generated (before any reduction)
    b: tuple[int, ...]
    verdict: str | None  # None: twist-only pair, no catalogue verdict
    v: tuple | None      # expected obstruction vector when i_A = 0

    @property
    def abs_a(self) -> list[int]:
        return abelian(self.a, self.genus)

    @property
    def abs_b(self) -> list[int]:
        return abelian(self.b, self.genus)

    @property
    def i_A(self) -> int:
        return dot(self.abs_a, self.abs_b)


def random_reduced(genus: int, length: int, rng: random.Random,
                   avoid=()) -> list[int]:
    """Uniform reduced word of exactly `length` letters whose last letter is
    not in `avoid`."""
    n = 2 * genus
    while True:
        out: list[int] = []
        while len(out) < length:
            l = rng.choice((1, -1)) * rng.randrange(1, n + 1)
            if not (out and out[-1] == -l):
                out.append(l)
        if not out or out[-1] not in avoid:
            return out


def varied(seed: SeedPair, genus: int, rng: random.Random, pad: int = 0,
           conjugator=None) -> Pair:
    """Conjugate and optionally invert each word of a catalogue pair.

    `pad` is the conjugator length for flat words; conjugators are chosen so
    that nothing cancels and each word has exactly 2*pad + len(seed) letters.
    `conjugator(genus, rng)` instead returns (text, letters) in the full
    grammar, and the word is written as 'u (w)^e (u)^-1'.
    """
    words, texts, signs, classes = [], [], [], []
    for w in (seed.a, seed.b):
        sign = rng.choice((1, -1))
        w = list(w) if sign == 1 else inverse(w)
        if conjugator is None:
            u = random_reduced(genus, pad, rng, avoid=(-w[0], w[-1]))
            letters = u + w + inverse(u)
            texts.append(flat_text(letters))
        else:
            u_text, u = conjugator(genus, rng)
            letters = u + w + inverse(u)
            seed_text = flat_text(w if sign == 1 else inverse(w))
            texts.append(f"{u_text} ({seed_text})^{sign} ({u_text})^-1")
        words.append(tuple(letters))
        signs.append(sign)
        classes.append(abelian(u, genus))
    A, B = abelian(words[0], genus), abelian(words[1], genus)
    v = None
    if seed.v is not None:
        v0 = [0] * (2 * genus)
        for idx, c in seed.v.items():
            v0[idx] = c
        v = tuple(combine((signs[0] * signs[1], v0),
                          (dot(B, classes[0]), A),
                          (dot(A, classes[1]), B)))
    return Pair(genus, texts[0], texts[1], words[0], words[1], seed.verdict, v)


# --- the full word grammar ------------------------------------------------------

def grammar_word(genus: int, rng: random.Random) -> tuple[str, list[int]]:
    """A word in the full grammar with one atom of each kind (x^e, [u,v],
    (w)^k, zeta) in random order, together with the letters it expands to,
    worked out here and not by the parser."""
    texts, letters = [], []
    for kind in rng.sample(range(4), 4):
        if kind == 0:
            l = rng.randrange(1, 2 * genus + 1)
            e = rng.choice((-3, -2, 2, 3))
            texts.append(f"{letter_name(l)}^{e}")
            letters += [l] * e if e > 0 else [-l] * -e
        elif kind == 1:
            u = random_reduced(genus, 2, rng)
            v = random_reduced(genus, 2, rng)
            texts.append(f"[{flat_text(u)}, {flat_text(v)}]")
            letters += u + v + inverse(u) + inverse(v)
        elif kind == 2:
            w = random_reduced(genus, 2, rng)
            e = rng.choice((-2, 2))
            texts.append(f"({flat_text(w)})^{e}")
            letters += (w if e > 0 else inverse(w)) * 2
        else:
            e = rng.choice((1, -1))
            texts.append("zeta" if e == 1 else "zeta^-1")
            zeta = []
            for j in range(1, genus + 1):
                zeta += [x(j), y(j), -x(j), -y(j)]
            letters += zeta if e == 1 else inverse(zeta)
    return " * ".join(texts), letters


# --- the workloads --------------------------------------------------------------

# Verdict mix of analyze-long, repeated in this order: 6 of 8 pairs have
# i_A = 0, so the median op runs the full obstruction path.
ANALYZE_MIX = ("disjoint_xx", "disjoint_xy", "disjoint_y_xy", "parallel",
               "readme", "readme", "dual", "dual_reversed")
ANALYZE_GENERA = (2, 3)
ANALYZE_PAD = 74          # each word has 148 + (1..4) letters

TWIST_GENERA = (8, 9, 10, 11, 12)
TWIST_LENGTHS = ((10, 12), (12, 10), (11, 11), (10, 10), (12, 12))

# Each chunk has one line per genus and the same make-up, so that chunks cost
# about the same: genus 2 is homological, genus 3 and 4 have i_A = 0.
CLI_MIX = {1: ("parallel", "dual", "dual_reversed"),
           2: ("dual", "dual_reversed"),
           3: ("disjoint_xx", "readme", "disjoint_xy", "parallel",
               "disjoint_y_xy"),
           4: ("readme", "disjoint_xy", "parallel", "disjoint_y_xy",
               "disjoint_xx")}


def analyze_long(rng: random.Random, count: int) -> list[Pair]:
    """Long flat words at genus 2-3 with a fixed verdict mix."""
    out = []
    for i in range(count):
        genus = ANALYZE_GENERA[i % len(ANALYZE_GENERA)]
        name = ANALYZE_MIX[(i // len(ANALYZE_GENERA)) % len(ANALYZE_MIX)]
        out.append(varied(seed_pair(name, genus, rng), genus, rng, ANALYZE_PAD))
    return out


def twist_wide(rng: random.Random, count: int) -> list[Pair]:
    """Short random reduced words at genus 8-12 with i_A = 0 and nonzero
    classes, found by rejection."""
    out = []
    for i in range(count):
        genus = TWIST_GENERA[i % len(TWIST_GENERA)]
        la, lb = TWIST_LENGTHS[(i // len(TWIST_GENERA)) % len(TWIST_LENGTHS)]
        while True:
            a = random_reduced(genus, la, rng)
            b = random_reduced(genus, lb, rng)
            A, B = abelian(a, genus), abelian(b, genus)
            if any(A) and any(B) and dot(A, B) == 0:
                break
        out.append(Pair(genus, flat_text(a), flat_text(b), tuple(a), tuple(b),
                        None, None))
    return out


def cli_chunks(rng: random.Random, count: int) -> list[list[Pair]]:
    """Chunks of one pair per genus 1-4, written in the full grammar."""
    chunks = []
    for i in range(count):
        chunk = []
        for genus, mix in CLI_MIX.items():
            name = mix[i % len(mix)]
            chunk.append(varied(seed_pair(name, genus, rng), genus, rng,
                                conjugator=grammar_word))
        chunks.append(chunk)
    return chunks


def batch_line(p: Pair) -> str:
    return f"{p.genus}\t{p.a_text}\t{p.b_text}\n"
