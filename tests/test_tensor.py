import random
from fractions import Fraction

import pytest

from curveobs.ell import ell
from curveobs.expansion import L_theta, johnson_twist, theta0
from curveobs.homology import HVec, abelianize, basis_pairing, intersection
from curveobs.tensor import TruncTensor, cyclic_N, derive
from curveobs.wedge import embed2, embed3, wedge, wedge3
from curveobs.words import Word, parse_word, random_word_rng

X1, Y1, X2, Y2 = 0, 1, 2, 3


def rand_tensor(genus, rng, maxdeg=3, min_deg=0, max_deg=None):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(min_deg, maxdeg if max_deg is None else max_deg)
        seq = tuple(rng.randrange(0, 2 * genus) for _ in range(d))
        terms[seq] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return TruncTensor(genus, maxdeg, terms)


def rand_hvec(genus, rng):
    return HVec.from_coords(
        genus,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * genus)])


class TestProduct:
    def test_small_product(self):
        u = TruncTensor(1, 3, {(): 1, (X1,): 1})
        v = TruncTensor(1, 3, {(): 1, (Y1,): 1})
        assert u * v == TruncTensor(1, 3, {(): 1, (X1,): 1, (Y1,): 1, (X1, Y1): 1})

    def test_unit_law(self):
        rng = random.Random(0)
        for _ in range(50):
            u = rand_tensor(2, rng)
            one = TruncTensor.one(2)
            assert u * one == u and one * u == u

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(200):
            g = rng.randint(1, 2)
            u, v, w = (rand_tensor(g, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_truncation(self):
        u = TruncTensor(1, 2, {(X1, Y1): 1})
        assert (u * u).is_zero()

    def test_mismatch(self):
        with pytest.raises(ValueError):
            TruncTensor.one(1) * TruncTensor.one(2)
        with pytest.raises(ValueError):
            TruncTensor.one(1, 2) * TruncTensor.one(1, 3)


class TestCyclic:
    def test_N_kills_constants(self):
        assert cyclic_N(TruncTensor(1, 3, {(): 5})).is_zero()

    def test_N_degree_two(self):
        u = TruncTensor(1, 3, {(X1, Y1): 1})
        assert cyclic_N(u) == TruncTensor(1, 3, {(X1, Y1): 1, (Y1, X1): 1})

    def test_nu_order_and_N_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            g = rng.randint(1, 2)
            u = rand_tensor(g, rng)
            for k in (1, 2, 3):
                part = u.degree_part(k)
                # move the first tensor factor to the end
                rotated = TruncTensor(g, 3, {s[1:] + s[:1]: c
                                             for s, c in part.terms.items()})
                assert cyclic_N(rotated - part).is_zero()


class TestDerive:
    def test_pairing_substitution(self):
        h = TruncTensor(1, 3, {(X1, X1): 1})
        y = TruncTensor.from_hvec(HVec.basis(1, Y1))
        # (Y1.X1) X1 = -X1
        assert derive(h, y) == TruncTensor(1, 3, {(X1,): -1})

    def test_derivation_of_constants(self):
        h = TruncTensor(1, 3, {(X1, X1): 1})
        assert derive(h, TruncTensor.one(1)).is_zero()

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            derive(TruncTensor.one(1), TruncTensor.one(1))

    def test_leibniz(self):
        rng = random.Random(4)
        for _ in range(500):
            g = rng.randint(1, 2)
            h = rand_tensor(g, rng, min_deg=1)
            # keep factor degrees from overflowing the bound, where the
            # untruncated Leibniz identity is visible
            u = rand_tensor(g, rng, max_deg=1)
            v = rand_tensor(g, rng, max_deg=2)
            assert derive(h, u * v) == derive(h, u) * v + u * derive(h, v)

    def test_linear(self):
        rng = random.Random(5)
        for _ in range(100):
            g = rng.randint(1, 2)
            h1 = rand_tensor(g, rng, min_deg=1)
            h2 = rand_tensor(g, rng, min_deg=1)
            u = rand_tensor(g, rng)
            assert derive(h1 + h2, u) == derive(h1, u) + derive(h2, u)


def derive_full_scan(h, u):
    """Reference derivation: every term of h against every factor of u."""
    out = {}
    for s, c in u.terms.items():
        for p, y in enumerate(s):
            for hs, hc in h.terms.items():
                pairing = basis_pairing(y, hs[0])
                if pairing == 0:
                    continue
                t = s[:p] + hs[1:] + s[p + 1:]
                if len(t) > u.maxdeg:
                    continue
                out[t] = out.get(t, 0) + c * hc * pairing
    return TruncTensor(u.genus, u.maxdeg, out)


class TestDeriveMatchesFullScan:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_random(self, g):
        rng = random.Random(100 + g)
        for _ in range(300):
            h = rand_tensor(g, rng, maxdeg=rng.choice([2, 3]), min_deg=1)
            u = rand_tensor(g, rng, maxdeg=rng.randint(1, 3))
            assert derive(h, u) == derive_full_scan(h, u), (h, u)


class TestTheta0:
    def test_generator_through_degree_two(self):
        t = theta0(parse_word("x1", 1))
        expect = TruncTensor(1, 2, {
            (): 1, (X1,): 1,
            (X1, Y1): Fraction(1, 2), (Y1, X1): Fraction(-1, 2),
            (X1, X1): Fraction(1, 2)})
        assert t == expect
        assert t.maxdeg == 2  # degree 3 is unknown, so it is not stored

    def test_identity(self):
        assert theta0(Word.identity(2)) == TruncTensor.one(2, 2)

    def test_multiplicative_mod_degree_three(self):
        rng = random.Random(6)
        for _ in range(500):
            g = rng.randint(1, 3)
            u = random_word_rng(g, rng.randint(0, 10), rng)
            v = random_word_rng(g, rng.randint(0, 10), rng)
            prod = theta0(u) * theta0(v)
            assert prod == theta0(u * v)


class TestLTheta:
    def test_degree_two_is_class_squared(self):
        rng = random.Random(7)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 10), rng)
            av = TruncTensor.from_hvec(abelianize(a))
            assert L_theta(a).degree_part(2) == av * av

    def test_degree_three_dual_path(self):
        rng = random.Random(8)
        for _ in range(500):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 10), rng)
            closed_form = embed3(wedge3(abelianize(a), ell(a)))
            assert L_theta(a).degree_part(3) == closed_form.degree_part(3)

    def test_invariance(self):
        rng = random.Random(9)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 8), rng)
            c = random_word_rng(g, rng.randint(0, 8), rng)
            assert L_theta(a.inverse()) == L_theta(a)
            assert L_theta(c.conjugate(a)) == L_theta(a)


class TestDerivationProps:
    def test_L2_action_closed_form(self):
        rng = random.Random(10)
        for _ in range(500):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            av = abelianize(a)
            L2 = TruncTensor.from_hvec(av) * TruncTensor.from_hvec(av)
            u = wedge(rand_hvec(g, rng), rand_hvec(g, rng))
            from curveobs.wedge import act2
            got = derive(L2, embed2(u)).degree_part(2)
            want = embed2(wedge(av, act2(u, av)).scale(-1)).degree_part(2)
            assert got == want

    def test_L2_squared_annihilates(self):
        rng = random.Random(11)
        for _ in range(500):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            av = abelianize(a)
            L2 = TruncTensor.from_hvec(av) * TruncTensor.from_hvec(av)
            u = embed2(wedge(rand_hvec(g, rng), rand_hvec(g, rng)))
            assert derive(L2, derive(L2, u)).degree_part(2).is_zero()


class TestJohnsonTwist:
    def test_fixes_unit(self):
        a = parse_word("x1 y1", 1)
        assert johnson_twist(a, TruncTensor.one(1)).degree_part(0) == \
            TruncTensor.one(1, 2).degree_part(0)

    def test_classical_degree_one_example(self):
        # twisting along x1 sends Y1 to Y1 + X1 in degree one
        a = parse_word("x1", 1)
        got = johnson_twist(a, theta0(parse_word("y1", 1))).degree_part(1)
        want = TruncTensor.from_hvec(HVec.basis(1, Y1) + HVec.basis(1, X1), 2)
        assert got == want.degree_part(1)

    def test_classical_formula_on_basis(self):
        rng = random.Random(12)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            av = abelianize(a)
            for k in range(2 * g):
                x = HVec.basis(g, k)
                got = johnson_twist(a, TruncTensor.from_hvec(x, 2)).degree_part(1)
                want = x + av.scale(intersection(av, x))
                assert got == TruncTensor.from_hvec(want, 2).degree_part(1)

    def test_output_degree_flag(self):
        a = parse_word("x1", 2)
        out = johnson_twist(a, theta0(parse_word("y1", 2)))
        assert out.maxdeg == 2
