"""Tests of `curveobs.obstruction`: `analyze` and its verdicts, their
invariance under order and orientation, every pair of short words at genus
2 (`TestSmallBox`), independence of the expansion, dependent classes,
`twist_consistency`, and the `Report` record.
Acceptance criteria 1, 2, 5, 8 and 9 (`test_acceptance.py`) check the
golden pairs, the twist lemma, conjugation invariance and same-curve
inconclusiveness.
"""

import importlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from curveobs import cli
from curveobs.ell import ell
from curveobs.homology import HVec, Wedge2, abelianize, intersection
from curveobs.obstruction import (VERDICT_HOMOLOGICAL, VERDICT_INCONCLUSIVE,
                                  VERDICT_THEOREM, Report, analyze,
                                  twist_consistency)
from curveobs.reference import (L_theta, Wedge3, act2, act3, embed2,
                                johnson_twist, theta0, twist_tensors, wedge)
from curveobs.words import (Word, generator, parse_word, random_word_rng,
                            random_commutator_element_rng)

from test_words import COPIES, assert_copied, assert_frozen

X1 = 0
# what analyze and twist_consistency raise for a word of another genus
GENUS_MISMATCH = "word genus does not match the requested genus"


class TestAnalyze:
    def test_paper_pair(self):
        rep = analyze(2, parse_word("x1 x2 y2 x2^-1", 2), parse_word("y2 x1^-1", 2))
        assert rep.i_A == 0
        assert rep.v == HVec.basis(2, X1)
        assert not rep.lattice.member
        assert rep.verdict == VERDICT_THEOREM
        assert rep.expansion == "theta0"

    def test_remark_counterexample(self):
        rep = analyze(2, parse_word("x1", 2), parse_word("x2^-1 [y1,zeta] zeta", 2))
        assert rep.i_A == 0
        assert rep.v == -HVec.basis(2, X1)
        assert rep.lattice.member and (rep.lattice.m, rep.lattice.n) == (-1, 0)
        assert rep.verdict == VERDICT_INCONCLUSIVE

    def test_homological_branch(self):
        rep = analyze(1, parse_word("x1", 1), parse_word("y1", 1))
        assert rep.i_A == 1
        assert rep.v is None and rep.lattice is None
        assert rep.verdict == VERDICT_HOMOLOGICAL

    def test_separating_b_path(self):
        # |b| = 0: lattice degenerates to Z|a| + {0} without division by zero
        a = parse_word("x1", 2)
        b = parse_word("[x2,y2]", 2)
        rep = analyze(2, a, b)
        assert abelianize(b).is_zero()
        assert rep.i_A == 0
        assert rep.verdict in (VERDICT_THEOREM, VERDICT_INCONCLUSIVE)
        # and the vector reduces to ell(b) acting on |a|
        from curveobs.ell import ell
        from curveobs.reference import act2
        assert rep.v == act2(ell(b), abelianize(a))

    def test_both_separating(self):
        a = parse_word("[x1,y1]", 2)
        b = parse_word("[x2,y2]", 2)
        rep = analyze(2, a, b)
        assert rep.v == HVec.zero(2)
        assert rep.verdict == VERDICT_INCONCLUSIVE

    def test_genus_mismatch(self):
        # a, then b, of genus 1 where genus 2 is requested
        w1, w2 = parse_word("x1", 1), parse_word("x1", 2)
        for a, b in ((w1, w2), (w2, w1)):
            with pytest.raises(ValueError) as exc:
                analyze(2, a, b)
            assert str(exc.value) == GENUS_MISMATCH

    def test_json_schema(self):
        rep = analyze(2, parse_word("x1 x2 y2 x2^-1", 2), parse_word("y2 x1^-1", 2))
        data = json.loads(rep.to_json())
        assert set(data) == {"genus", "a", "b", "abs", "iA", "ell", "obstruction",
                             "lattice", "verdict", "expansion", "disclaimer"}
        assert data["abs"]["a"] == {"X1": "1", "Y2": "1"}
        assert data["obstruction"] == {"X1": "1"}
        assert data["lattice"] == {"member": False, "m": None, "n": None}
        assert {"basis": "X1^Y1", "coeff": "1/2"} in data["ell"]["a"]

    @pytest.mark.parametrize("a, b", [("x1 x2 y2 x2^-1", "y2 x1^-1"),
                                      ("x1", "y1")], ids=("i_A=0", "i_A=1"))
    def test_evaluates_ell_once_per_word(self, monkeypatch, a, b):
        # one fold per word on both branches; the report's ell is that fold
        ell_module = importlib.import_module("curveobs.ell")
        fold = ell_module.ell_of_letters
        calls = []

        def counted(genus, letters):
            calls.append(letters)
            return fold(genus, letters)

        monkeypatch.setattr(ell_module, "ell_of_letters", counted)
        a, b = parse_word(a, 2), parse_word(b, 2)
        rep = analyze(2, a, b)
        assert calls == [a.letters, b.letters]
        assert (rep.ell_a, rep.ell_b) == (fold(2, a.letters), fold(2, b.letters))

    def test_json_roundtrip_reanalyze(self):
        rng = random.Random(0)
        for _ in range(50):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 8), rng)
            b = random_word_rng(g, rng.randint(0, 8), rng)
            data = json.loads(analyze(g, a, b).to_json())
            again = analyze(data["genus"],
                            parse_word(data["a"], g), parse_word(data["b"], g))
            assert json.loads(again.to_json()) == data


class TestVerdictInvariance:
    def test_conjugation(self):
        rng = random.Random(1)
        for _ in range(300):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 8), rng)
            b = random_word_rng(g, rng.randint(1, 8), rng)
            c = random_word_rng(g, rng.randint(0, 6), rng)
            d = random_word_rng(g, rng.randint(0, 6), rng)
            assert analyze(g, c.conjugate(a), d.conjugate(b)).verdict == \
                analyze(g, a, b).verdict

    def test_order_and_orientation(self):
        # v = ell(a)(|b|) + ell(b)(|a|) is odd in each word and symmetric in
        # the pair, and Z|a| + Z|b| does not see either change, so reversing
        # a curve negates v, swapping the curves keeps it, and the verdict
        # stays in every case
        rng = random.Random(5)
        done = certified = 0
        while done < 300:
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 8), rng)
            b = random_word_rng(g, rng.randint(1, 8), rng)
            if intersection(abelianize(a), abelianize(b)) != 0:
                continue
            rep = analyze(g, a, b)
            variants = [analyze(g, a.inverse(), b), analyze(g, a, b.inverse()),
                        analyze(g, b, a)]
            assert [r.v for r in variants] == [-rep.v, -rep.v, rep.v], (a, b)
            assert all(r.verdict == rep.verdict for r in variants), (a, b)
            certified += rep.verdict == VERDICT_THEOREM
            done += 1
        assert certified > 0


# the letters of genus 2, x1, y1, x2, y2 and their inverses
BOX_LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)
# the 65 reduced words of length <= 2 over them
BOX_WORDS = [(), *((l,) for l in BOX_LETTERS),
             *((l, m) for l in BOX_LETTERS for m in BOX_LETTERS if m != -l)]


def small_box(genus):
    """`analyze` at `genus` on every ordered pair of `BOX_WORDS`, by pair of
    letter tuples."""
    return {(a, b): analyze(genus, Word(genus, a), Word(genus, b))
            for a in BOX_WORDS for b in BOX_WORDS}


def lattice_oracle(v, u1, u2):
    """(v in Z u1 + Z u2, the witness where it is unique), from Fractions and
    without `_ext_gcd`: Cramer's rule on the first nonzero 2x2 minor, or, for
    dependent u1 and u2, the multiples of the line's primitive vector."""
    for i, j in combinations(range(len(v)), 2):
        det = u1[i] * u2[j] - u1[j] * u2[i]
        if det:
            m = Fraction(v[i] * u2[j] - v[j] * u2[i], det)
            n = Fraction(u1[i] * v[j] - u1[j] * v[i], det)
            member = (m.denominator == n.denominator == 1 and all(
                m * x + n * y == z for x, y, z in zip(u1, u2, v)))
            return member, (m, n) if member else None
    u = u1 if any(u1) else u2
    if not any(u):
        return not any(v), None
    p = [x // gcd(*u) for x in u]
    r = next(i for i, x in enumerate(p) if x)
    lam = Fraction(v[r]) / p[r]
    step = gcd(u1[r] // p[r], u2[r] // p[r])
    member = all(lam * x == z for x, z in zip(p, v)) and lam % step == 0
    return member, None


class TestSmallBox:
    """Every ordered pair of the 65 reduced words of length <= 2 at genus 2,
    4225 pairs, 1665 of them with i_A = 0: the symmetries of v and the
    verdict, conjugation, genus stabilisation, the lattice decision against
    a Fraction oracle, and the twist identity. The boxes are built once for
    the class and freed after it."""

    @pytest.fixture(scope="class")
    def box(self):
        return small_box(2)

    @pytest.fixture(scope="class")
    def box3(self):
        return small_box(3)

    def test_box(self, box):
        reps = box.values()
        assert len(reps) == 65 * 65
        assert sum(r.i_A == 0 for r in reps) == 1665
        assert sum(r.verdict == VERDICT_THEOREM for r in reps) == 160

    def test_swapping_the_curves(self, box):
        for (a, b), rep in box.items():
            swapped = box[b, a]
            assert (swapped.i_A, swapped.v, swapped.verdict) == (
                -rep.i_A, rep.v, rep.verdict), (a, b)

    def test_inverting_a(self, box):
        for (a, b), rep in box.items():
            inverted = box[tuple(-l for l in reversed(a)), b]
            assert (inverted.i_A, inverted.v, inverted.verdict) == (
                -rep.i_A, rep.v and -rep.v, rep.verdict), (a, b)

    def test_conjugating_a_by_each_generator(self, box):
        # ell(g a g^-1) = ell(a) + |g| ^ |a|, so at i_A = 0 v moves by
        # -(|g| . |b|) |a|, a lattice vector
        gens = [Word(2, (k,)) for k in range(1, 5)]
        for (a, b), rep in box.items():
            if rep.i_A:
                continue
            for g in gens:
                got = analyze(2, g.conjugate(Word(2, a)), Word(2, b))
                shift = intersection(abelianize(g), rep.abs_b)
                assert got.v == rep.v - rep.abs_a.scale(shift), (g, a, b)
                assert got.verdict == rep.verdict, (g, a, b)

    def test_the_same_letters_at_genus_3(self, box, box3):
        for pair, rep in box.items():
            up = box3[pair]
            assert (up.i_A, up.verdict) == (rep.i_A, rep.verdict), pair
            assert (up.v and up.v.coords) == (rep.v and rep.v.coords + (0, 0))

    def test_lattice_decision_against_a_fraction_oracle(self, box):
        members = 0
        for pair, rep in box.items():
            if rep.v is None:
                continue
            abs_a, abs_b, lat = rep.abs_a, rep.abs_b, rep.lattice
            member, witness = lattice_oracle(rep.v.coords, abs_a.coords,
                                             abs_b.coords)
            assert lat.member == member, pair
            if member:
                assert abs_a.scale(lat.m) + abs_b.scale(lat.n) == rep.v, pair
                assert witness in (None, (lat.m, lat.n)), pair
            members += member
        assert members == 1665 - 160

    def test_twist_identity(self, box):
        for (a, b), rep in box.items():
            if rep.i_A == 0:
                assert twist_consistency(2, Word(2, a), Word(2, b))[0], (a, b)


def act2_v(abs_a, ell_a, abs_b, ell_b):
    """v in its defining form, from any classes and any ell values."""
    return act2(ell_a, abs_b) + act2(ell_b, abs_a)


def expansion_shift(t, z):
    """How ell(w) moves when the symplectic expansion changes by t in
    Lambda^3 H: by the contraction of t with z = |w|."""
    return act3(t, z)


class TestExpansionIndependence:
    """v does not depend on which symplectic expansion is used.

    Two symplectic expansions agree through degree 2 up to a degree-1
    symplectic derivation, and those are Lambda^3 H (Kawazumi-Kuno, "The
    logarithms of Dehn twists"; Massuyeau, "Infinitesimal Morita
    homomorphisms and the tree-level of the LMO invariant"). So a change of
    expansion by t moves ell(w) to ell(w) + i_{|w|} t, and v, which is linear
    in each ell, by i_{|b|} i_{|a|} t + i_{|a|} i_{|b|} t = 0.

    The basis check at genus 1-3 covers every genus. The change of v is
    linear in t and in each class, so it is a sum over basis triples
    (t, e_i, e_j). Contracting t with e_i is nonzero only when the mate of
    e_i is a factor of t, and likewise for e_j, so a triple whose change is
    nonzero lies in the at most three symplectic blocks that t touches.
    Renumbering blocks commutes with the contractions and carries such a
    triple to one at genus 3 or less."""

    def test_every_basis_triple_up_to_genus_3(self):
        checked = 0
        for g in (1, 2, 3):
            basis = [HVec.basis(g, k) for k in range(2 * g)]
            for t in combinations(range(2 * g), 3):
                t = Wedge3.make(g, [(t, 1)])
                for a in basis:
                    for b in basis:
                        moved = act2_v(a, expansion_shift(t, a),
                                       b, expansion_shift(t, b))
                        assert moved.is_zero(), (t, a, b)
                        checked += 1
        assert checked == 784  # 4 trivectors x 4 x 4 at genus 2, 20 x 6 x 6 at 3

    def test_random_pairs(self):
        rng = random.Random(11)
        done = moved = 0
        while done < 300:
            g = rng.randint(2, 4)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            b = random_word_rng(g, rng.randint(1, 10), rng)
            rep = analyze(g, a, b)
            if rep.i_A != 0:
                continue
            t = Wedge3.make(g, [(tuple(rng.randrange(2 * g) for _ in range(3)),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                                for _ in range(rng.randint(1, 4))])
            ell_a = rep.ell_a + expansion_shift(t, rep.abs_a)
            ell_b = rep.ell_b + expansion_shift(t, rep.abs_b)
            v = act2_v(rep.abs_a, ell_a, rep.abs_b, ell_b)
            assert v == rep.v, (a, b, t)
            moved += (ell_a, ell_b) != (rep.ell_a, rep.ell_b)
            done += 1
        assert moved > 200  # most shifts change ell


class TestDependentClasses:
    def test_conjugates_of_same_curve_stay_inconclusive(self):
        # b a conjugate of a^{+-1} represents the same simple closed curve,
        # possibly reversed: the obstruction can never fire
        rng = random.Random(2)
        for _ in range(200):
            g = rng.randint(1, 3)
            gen = generator(g, rng.choice(["x", "y"]), rng.randint(1, g))
            if rng.random() < 0.5:
                gen = gen.inverse()
            a = random_word_rng(g, rng.randint(0, 5), rng).conjugate(gen)
            b = random_word_rng(g, rng.randint(0, 5), rng).conjugate(
                a if rng.random() < 0.5 else a.inverse())
            rep = analyze(g, a, b)
            assert rep.i_A == 0
            assert rep.verdict == VERDICT_INCONCLUSIVE
            assert rep.lattice.member

    def test_commutator_padding_can_fire_the_obstruction(self):
        # a^{+-1} times an arbitrary commutator word need not represent a
        # simple closed curve, and then the lattice obstruction may fire:
        # algebraic regression pin for the documented counterexample
        a = parse_word("x1", 2)
        b = parse_word("x1 [y1,x2]", 2)
        rep = analyze(2, a, b)
        assert abelianize(b) == abelianize(a)
        assert rep.verdict == VERDICT_THEOREM


class TestTwistConsistency:
    def test_paper_pair_difference(self):
        a = parse_word("x1 x2 y2 x2^-1", 2)
        b = parse_word("y2 x1^-1", 2)
        ok, lhs, rhs = twist_tensors(2, a, b)
        assert ok
        # the difference equals the embedding of (X1+Y2)^X1
        want = embed2(wedge(abelianize(a), HVec.basis(2, X1)), 2)
        assert lhs == want and rhs == want

    def test_identity_second_word(self):
        a = parse_word("x1 y2", 2)
        ok, lhs, rhs = twist_tensors(2, a, Word.identity(2))
        assert ok and lhs.is_zero() and rhs.is_zero()

    def test_requires_zero_algebraic_intersection(self):
        with pytest.raises(ValueError):
            twist_consistency(1, parse_word("x1", 1), parse_word("y1", 1))

    def test_rejects_a_word_of_another_genus(self):
        # a, then b, of genus 1 where genus 2 is requested
        w1, w2 = parse_word("x1 y1", 1), parse_word("x1 x2", 2)
        for a, b in ((w1, w2), (w2, w1)):
            with pytest.raises(ValueError) as exc:
                twist_consistency(2, a, b)
            assert str(exc.value) == GENUS_MISMATCH

    @pytest.mark.parametrize("g", range(1, 13))
    def test_int_datum_matches_the_reference_twist(self, g):
        # the twisted side, built from letter counts and int ell numerators,
        # against the defining forms built from the Fraction classes
        rng = random.Random(900 + g)
        done = 0
        while done < 10:
            a = random_word_rng(g, rng.randint(1, 8), rng)
            b = random_word_rng(g, rng.randint(0, 8), rng)
            abs_a, abs_b = abelianize(a), abelianize(b)
            if intersection(abs_a, abs_b) != 0:
                continue
            u = theta0(abs_b, ell(b))
            want = (johnson_twist(L_theta(abs_a, ell(a)), u).degree_part(2)
                    - u.degree_part(2))
            assert twist_tensors(g, a, b)[1] == want, (a, b)
            done += 1

    def test_evaluates_ell_once_per_word(self, monkeypatch):
        # both sides are built from one ell call per word
        # (the package exports the function ell, which hides the module)
        ell_module = importlib.import_module("curveobs.ell")
        fold = ell_module.ell_of_letters
        calls = []

        def counted(genus, letters):
            calls.append(letters)
            return fold(genus, letters)

        monkeypatch.setattr(ell_module, "ell_of_letters", counted)
        a = parse_word("x1 x2 y2 x2^-1", 2)
        b = parse_word("y2 x1^-1", 2)
        assert twist_consistency(2, a, b)[0]
        assert calls == [a.letters, b.letters]

    def test_random_pairs(self):
        rng = random.Random(3)
        done = 0
        while done < 300:
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 7), rng)
            b = random_word_rng(g, rng.randint(0, 7), rng)
            if intersection(abelianize(a), abelianize(b)) != 0:
                continue
            ok, lhs, rhs = twist_tensors(g, a, b)
            assert ok, (a, b, lhs.terms, rhs.terms)
            done += 1

    def test_catches_an_ell_without_its_own_terms(self, monkeypatch, capsys):
        # the closed form reads v off the letters, not ell, so an ell that
        # drops the letters' own terms +-1/2 X_j^Y_j breaks the identity
        # wherever the error is not |a| ^ u for some u: on some seeded pairs,
        # and on a = x1 x2, b = x1, where the twisted side loses X1 X2 - X2 X1
        # (the package exports the function ell, which hides the module)
        ell_module = sys.modules["curveobs.ell"]
        fold = ell_module.ell_of_letters

        def without_own_terms(genus, letters):
            counts = [0] * (2 * genus)
            for l in letters:
                counts[abs(l) - 1] += 1 if l > 0 else -1
            own = Wedge2.make(genus, [
                ((j, j + 1), Fraction(counts[j] - counts[j + 1], 2))
                for j in range(0, 2 * genus, 2)])
            return fold(genus, letters) - own

        monkeypatch.setattr(ell_module, "ell_of_letters", without_own_terms)
        rng = random.Random(12)
        done = caught = 0
        while done < 100:
            g = rng.randint(2, 4)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            b = random_word_rng(g, rng.randint(1, 10), rng)
            if intersection(abelianize(a), abelianize(b)) != 0:
                continue
            caught += not twist_consistency(g, a, b)[0]
            done += 1
        assert caught > 20, caught
        assert cli.main(["twist-check", "--genus", "2",
                         "--a", "x1 x2", "--b", "x1"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "twist identity holds: False",
            "derivation-exponential side: TruncTensor(genus=2, maxdeg=2, "
            "terms={})",
            "closed-form side:            TruncTensor(genus=2, maxdeg=2, "
            "terms={(2, 0): Fraction(-1, 1), (0, 2): Fraction(1, 1)})",
        ]

    def test_holds_even_with_commutator_padding(self):
        # the lemma is a pure algebraic identity at truncation 2; it holds for
        # words that are not simple-curve classes
        rng = random.Random(4)
        for _ in range(50):
            g = rng.randint(1, 2)
            a = random_word_rng(g, rng.randint(1, 5), rng)
            b = (a * random_commutator_element_rng(g, rng.randint(0, 2), rng))
            ok, _, _ = twist_consistency(g, a, b)
            assert ok


REPORT_FIELDS = ("genus", "a", "b", "abs_a", "abs_b", "i_A", "ell_a", "ell_b",
                 "v", "lattice", "verdict")


class TestReportRecord:
    """Report is an immutable value, equal by value; the Wedge2 fields make
    it unhashable. One pair with i_A = 0 and one with i_A != 0."""

    PAIRS = {
        "x1 | x2^-1": (
            "Report(genus=2, a='x1', b='x2^-1', abs_a=HVec(genus=2, "
            "coords=(1, 0, 0, 0)), abs_b=HVec(genus=2, coords=(0, 0, -1, 0)), "
            "i_A=0, "
            "ell_a=Wedge2(genus=2, terms={(0, 1): Fraction(1, 2)}), "
            "ell_b=Wedge2(genus=2, terms={(2, 3): Fraction(-1, 2)}), "
            "v=HVec(genus=2, coords=(Fraction(0, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1))), lattice=LatticeWitness("
            "member=True, m=0, n=0), verdict='inconclusive')"),
        "x1 | y1": (
            "Report(genus=2, a='x1', b='y1', abs_a=HVec(genus=2, "
            "coords=(1, 0, 0, 0)), abs_b=HVec(genus=2, coords=(0, 1, 0, 0)), "
            "i_A=1, "
            "ell_a=Wedge2(genus=2, terms={(0, 1): Fraction(1, 2)}), "
            "ell_b=Wedge2(genus=2, terms={(0, 1): Fraction(-1, 2)}), "
            "v=None, lattice=None, verdict='certified_positive_homological')"),
    }

    @staticmethod
    def report(pair):
        a, b = pair.split(" | ")
        return analyze(2, parse_word(a, 2), parse_word(b, 2))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_repr(self, pair):
        assert repr(self.report(pair)) == self.PAIRS[pair]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_construction_and_equality(self, pair):
        rep = self.report(pair)
        values = [getattr(rep, f) for f in REPORT_FIELDS]
        assert Report(*values) == rep
        assert Report(**dict(zip(REPORT_FIELDS, values))) == rep
        assert rep == self.report(pair)
        assert rep != Report(*values[:-1], "other") and rep != tuple(values)
        assert rep.expansion == Report.expansion == "theta0"
        assert rep.disclaimer == Report.disclaimer
        with pytest.raises(TypeError):
            Report(*values[:-1])

    @pytest.mark.parametrize("pair", PAIRS)
    def test_unhashable_and_frozen(self, pair):
        rep = self.report(pair)
        with pytest.raises(TypeError):
            hash(rep)
        assert_frozen(rep, ("verdict", "v", "genus"))
        assert rep == self.report(pair)

    @pytest.mark.parametrize("copier", COPIES)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_copies(self, pair, copier):
        rep = self.report(pair)
        c = assert_copied(rep, copier)
        assert type(c) is Report
        assert c.to_json() == rep.to_json() and c.to_text() == rep.to_text()
