"""Tests of `curveobs.ell`: golden values of `ell`, its half-integrality and
Fraction coefficients, the obstruction vector and the parity of 2v, and the
fold against three slower forms (`act2` on the fold's output, the dense
fold, and `reference.ell_by_theta0`). Acceptance criterion 4
(`test_acceptance.py`) checks the product, inverse, conjugation and
commutator identities, and invariance under inserted trivial pairs.
"""

import random
from fractions import Fraction

import pytest

from curveobs.ell import (_twice_ell_on, _twice_v, ell, ell_of_letters,
                         obstruction_vector)
from curveobs.homology import (HVec, Wedge2, abelianize, intersection,
                               is_integral)
from curveobs.reference import act2, ell_by_theta0, omega, wedge
from curveobs.words import (Word, boundary_word, generator, parse_word,
                            random_word_rng)

X1, Y1, X2, Y2 = 0, 1, 2, 3
HALF = Fraction(1, 2)


class TestGoldenValues:
    def test_paper_ell_a(self):
        got = ell(parse_word("x1 x2 y2 x2^-1", 2))
        assert got == Wedge2.make(2, [((X1, Y1), HALF), ((X2, Y2), HALF),
                                      ((X1, Y2), HALF)])

    def test_paper_ell_b(self):
        # 1/2(-X2^Y2 - X1^Y1 - Y2^X1); the last term normalizes to +1/2 X1^Y2
        got = ell(parse_word("y2 x1^-1", 2))
        assert got == Wedge2.make(2, [((X2, Y2), -HALF), ((X1, Y1), -HALF),
                                      ((X1, Y2), HALF)])

    def test_identity_maps_to_zero(self):
        assert ell(Word.identity(2)).is_zero()

    def test_generators(self):
        for g in range(1, 4):
            for j in range(1, g + 1):
                xy = (2 * (j - 1), 2 * (j - 1) + 1)
                assert ell(generator(g, "x", j)) == Wedge2.make(g, [(xy, HALF)])
                assert ell(generator(g, "y", j)) == Wedge2.make(g, [(xy, -HALF)])

    @pytest.mark.parametrize("g", range(1, 6))
    def test_boundary_maps_to_omega(self, g):
        assert ell(boundary_word(g)) == omega(g)


class TestIdentities:
    def test_half_integrality(self):
        rng = random.Random(2)
        for i in range(500):
            g = rng.randint(1, 3)
            w = random_word_rng(g, rng.randint(0, 20), random.Random(i))
            for c in ell(w).terms.values():
                assert (2 * c).denominator == 1

    def test_simple_curve_catalog_rational_multiple(self):
        # conjugated generators: ell(c)(|c|) must be a rational multiple of |c|
        rng = random.Random(3)
        for _ in range(200):
            g = rng.randint(1, 3)
            kind = rng.choice(["x", "y"])
            gen = generator(g, kind, rng.randint(1, g))
            if rng.random() < 0.5:
                gen = gen.inverse()
            c = random_word_rng(g, rng.randint(0, 6), rng).conjugate(gen)
            ac = abelianize(c)
            acted = act2(ell(c), ac)
            k = next(i for i, x in enumerate(ac.coords) if x != 0)
            ratio = acted.coords[k] / ac.coords[k]
            assert acted == ac.scale(ratio)


class TestCoefficientsAreFractions:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_reduced_and_unreduced_words(self, g):
        # the fold's ±1/2 terms are Fractions and its running sum is kept as
        # it is; nothing may leave an int among ell's coefficients
        rng = random.Random(700 + g)
        for _ in range(40):
            w = random_word_rng(g, rng.randint(0, 30), rng)
            seq = [rng.choice([1, -1]) * rng.randrange(1, 2 * g + 1)
                   for _ in range(rng.randint(0, 30))]
            # then undo a suffix, so the prefix class returns to earlier values
            k = rng.randint(0, len(seq))
            seq += [-l for l in reversed(seq[len(seq) - k:])]
            for x in (ell(w), ell_of_letters(g, seq)):
                assert all(type(c) is Fraction for c in x.terms.values()), x


class TestObstructionVector:
    def test_paper_example(self):
        a = parse_word("x1 x2 y2 x2^-1", 2)
        b = parse_word("y2 x1^-1", 2)
        assert obstruction_vector(a, b) == HVec.basis(2, X1)

    def test_remark_zero(self):
        a = parse_word("x1", 2)
        b = parse_word("x2^-1", 2)
        assert obstruction_vector(a, b).is_zero()

    def test_remark_minus_a(self):
        a = parse_word("x1", 2)
        b = parse_word("x2^-1 [y1,zeta] zeta", 2)
        assert obstruction_vector(a, b) == -HVec.basis(2, X1)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            obstruction_vector(parse_word("x1", 1), parse_word("x1", 2))


# --- v read off the letters against the act2 reference ----------------------

def unreduced_sequence(g, rng):
    """Plain letters, and runs x x^-1 that return the prefix class to a value
    it held before; empty about one time in nine."""
    seq = []
    for _ in range(rng.randint(0, 8)):
        s = rng.choice([1, -1]) * rng.randrange(1, 2 * g + 1)
        seq += rng.choice([[s], [s] * rng.randint(1, 3)
                           + [-s] * rng.randint(1, 3), [s, -s, s]])
    return seq


class TestTwiceEllOn:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_unreduced_sequences(self, g):
        rng = random.Random(340 + g)
        for _ in range(60):
            seq = unreduced_sequence(g, rng)
            z = [rng.randint(-9, 9) for _ in range(2 * g)]
            w_class = abelianize(Word.from_letters(g, seq)).coords
            got = _twice_ell_on(seq, w_class, z)
            want = act2(ell_of_letters(g, seq), HVec(g, z))
            assert got == [2 * c for c in want.coords], (seq, z)
            assert all(type(n) is int for n in got)
        assert _twice_ell_on([], HVec.zero(g).coords, z) == [0] * (2 * g)


class TestTwiceVParity:
    """2v = i_A (|a| + |b|) mod 2 in every coordinate, so v is integral
    exactly when i_A is even."""

    @pytest.mark.parametrize("g", range(1, 13))
    def test_random_pairs(self, g):
        rng = random.Random(360 + g)
        parities = set()
        for _ in range(100):
            a = random_word_rng(g, rng.randint(0, 12), rng)
            b = random_word_rng(g, rng.randint(0, 12), rng)
            abs_a, abs_b = abelianize(a), abelianize(b)
            i_a = intersection(abs_a, abs_b)
            twice_v = _twice_v(a, abs_a.coords, b, abs_b.coords)
            assert all((x - i_a * (p + q)) % 2 == 0 for x, p, q in zip(
                twice_v, abs_a.coords, abs_b.coords)), (a, b)
            assert is_integral(obstruction_vector(a, b)) == (i_a % 2 == 0)
            parities.add(i_a % 2)
        assert parities == {0, 1}


class TestObstructionVectorMatchesAct2:
    @pytest.mark.parametrize("g", range(1, 13))
    def test_random_words(self, g):
        rng = random.Random(320 + g)
        for _ in range(20):
            a = random_word_rng(g, rng.randint(0, 12), rng)
            b = random_word_rng(g, rng.randint(0, 12), rng)
            want = act2(ell(a), abelianize(b)) + act2(ell(b), abelianize(a))
            got = obstruction_vector(a, b)
            assert got == want, (a, b)
            assert all(type(c) is Fraction for c in got.coords)

    def test_every_genus_mismatch_is_rejected(self):
        one, two = parse_word("x1", 1), parse_word("x1", 2)
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ValueError) as exc:
                obstruction_vector(a, b)
            assert str(exc.value) == f"genus mismatch: {a.genus} vs {b.genus}"


# --- the sparse-prefix fold against the literal dense fold -------------------

def dense_ell_of_letters(genus, letters):
    """The cocycle fold as first written: a dense HVec prefix, and each
    letter's new terms as wedge(prefix, letter) scaled by 1/2."""
    def letter_ell(l):
        k = abs(l) - 1
        sign = HALF * (-1 if k % 2 else 1) * (1 if l > 0 else -1)
        return Wedge2.make(genus, [((k - k % 2, k - k % 2 + 1), sign)])
    acc = Wedge2.zero(genus)
    ab = HVec.zero(genus)
    for l in letters:
        lv = HVec.basis(genus, abs(l) - 1).scale(1 if l > 0 else -1)
        acc = acc + letter_ell(l) + wedge(ab, lv).scale(HALF)
        ab = ab + lv
    return acc


def sparse_sequence(g, rng):
    """Unreduced letters on handle g and two other handles, some runs x x^-1
    among them, with [x_h, y_h] spliced in for a fourth handle h, whose
    exponent sums end at 0 though its prefix terms do not vanish."""
    h1, h2, h = rng.sample(range(1, g), 3)
    gens = [l for j in (g, h1, h2) for l in (2 * j - 1, 2 * j)]
    seq = []
    for _ in range(rng.randint(4, 12)):
        s = rng.choice([1, -1]) * rng.choice(gens)
        seq += rng.choice([[s], [s, s], [s, -s], [s, -s, s]])
    i = rng.randint(0, len(seq))
    seq[i:i] = [2 * h - 1, 2 * h, 1 - 2 * h, -2 * h]
    return seq


class TestSparsePrefixMatchesDenseFold:
    @pytest.mark.parametrize("g", range(1, 13))
    def test_unreduced_sequences(self, g):
        rng = random.Random(500 + g)
        for _ in range(30):
            seq = unreduced_sequence(g, rng)
            assert ell_of_letters(g, seq) == dense_ell_of_letters(g, seq), seq
        assert ell_of_letters(g, []) == dense_ell_of_letters(g, []) == Wedge2.zero(g)

    @pytest.mark.parametrize("g", [50, 200, 1000])
    def test_sparse_sequences_at_large_genus(self, g):
        # the own terms are read over the handles the final class touches
        rng = random.Random(540 + g)
        for _ in range(10):
            seq = sparse_sequence(g, rng)
            assert ell_of_letters(g, seq) == dense_ell_of_letters(g, seq), seq

    @pytest.mark.parametrize("g", range(1, 13))
    def test_words_and_their_boundary(self, g):
        rng = random.Random(520 + g)
        for w in [boundary_word(g)] + [random_word_rng(g, rng.randint(0, 30), rng)
                                       for _ in range(10)]:
            assert ell(w) == dense_ell_of_letters(g, w.letters), w


# --- the fold against the expansion, which shares no code with it ------------

class TestFoldMatchesTheExpansion:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_unreduced_sequences(self, g):
        # `reference.ell_by_theta0` multiplies the letters' theta0 tensors
        # and reads ell off their antisymmetric degree-2 part, from generator
        # values of its own, so it calls nothing in `curveobs.ell`
        rng = random.Random(560 + g)
        seqs = [[]] + [unreduced_sequence(g, rng) for _ in range(50)]
        for seq in seqs:
            assert ell_of_letters(g, seq) == ell_by_theta0(g, seq), seq
