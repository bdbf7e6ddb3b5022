import random
from fractions import Fraction
from math import gcd

import pytest

from curveobs.ell import ell
from curveobs.expansion import _minus_D, _theta0_nums
from curveobs.homology import (HVec, abelianize, basis_pairing, intersection,
                               mate)
from curveobs.obstruction import analyze
from curveobs.reference import (L_theta, TruncTensor, act2, cyclic_N, derive,
                                embed2, embed3, johnson_twist, omega, theta0,
                                twist_tensors, wedge, wedge3)
from curveobs.wedge import Wedge2
from curveobs.words import Word, boundary_word, parse_word, random_word_rng

X1, Y1, X2, Y2 = 0, 1, 2, 3


def rand_tensor(genus, rng, maxdeg=3, min_deg=0, max_deg=None):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(min_deg, maxdeg if max_deg is None else max_deg)
        seq = tuple(rng.randrange(0, 2 * genus) for _ in range(d))
        terms[seq] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return TruncTensor(genus, maxdeg, terms)


def theta0_of(w):
    return theta0(abelianize(w), ell(w))


def L_of(a):
    return L_theta(abelianize(a), ell(a))


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
        t = theta0_of(parse_word("x1", 1))
        expect = TruncTensor(1, 2, {
            (): 1, (X1,): 1,
            (X1, Y1): Fraction(1, 2), (Y1, X1): Fraction(-1, 2),
            (X1, X1): Fraction(1, 2)})
        assert t == expect
        assert t.maxdeg == 2  # degree 3 is unknown, so it is not stored

    def test_identity(self):
        assert theta0_of(Word.identity(2)) == TruncTensor.one(2, 2)

    def test_multiplicative_mod_degree_three(self):
        rng = random.Random(6)
        for _ in range(500):
            g = rng.randint(1, 3)
            u = random_word_rng(g, rng.randint(0, 10), rng)
            v = random_word_rng(g, rng.randint(0, 10), rng)
            prod = theta0_of(u) * theta0_of(v)
            assert prod == theta0_of(u * v)


def exp_truncated(u):
    """exp(u) = sum of u^k / k! for u with no constant term, cut at u.maxdeg."""
    out = term = TruncTensor.one(u.genus, u.maxdeg)
    for k in range(1, u.maxdeg + 1):
        term = (term * u).scale(Fraction(1, k))
        out = out + term
    return out


def expansion_of(w, logs):
    """theta(w) as the product of theta(letter) = exp(+-logs[generator])."""
    out = TruncTensor.one(w.genus, 3)
    for l in w.letters:
        out = out * exp_truncated(logs[abs(l) - 1].scale(1 if l > 0 else -1))
    return out


class TestSymplecticExpansion:
    """theta(x_j) = exp(X_j + 1/2[X_j,Y_j]), theta(y_j) = exp(Y_j - 1/2[X_j,Y_j])
    is symplectic through degree 3, theta(zeta) = exp(omega) = 1 + omega, as
    Kawazumi-Kuno ("The logarithms of Dehn twists") require of the expansion
    behind the twist formula, and agrees with theta0 through degree 2, so the
    expansion the report names is the degree-2 part of a symplectic one."""

    @staticmethod
    def logs(g, bracket=1):
        gens = [TruncTensor.from_hvec(HVec.basis(g, k), 3) for k in range(2 * g)]
        out = []
        for j in range(g):
            X, Y = gens[2 * j], gens[2 * j + 1]
            half = (X * Y - Y * X).scale(Fraction(bracket, 2))
            out += [X + half, Y - half]
        return out

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_boundary_maps_to_one_plus_omega(self, g):
        one_plus_omega = TruncTensor.one(g, 3) + embed2(omega(g), 3)
        assert expansion_of(boundary_word(g), self.logs(g)) == one_plus_omega

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_generators_agree_with_theta0_through_degree_two(self, g):
        logs = self.logs(g)
        for k in range(2 * g):
            w = Word(g, (k + 1,))
            cut = TruncTensor(g, 2, dict(expansion_of(w, logs).terms))
            assert cut == theta0_of(w), w

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_zero_degree_two_values_are_not_symplectic(self, g):
        # the check above can fail: exp(X_j), exp(Y_j) leave 6 degree-3
        # terms per handle in theta(zeta) - 1 - omega
        one_plus_omega = TruncTensor.one(g, 3) + embed2(omega(g), 3)
        rest = expansion_of(boundary_word(g), self.logs(g, 0)) - one_plus_omega
        assert rest == rest.degree_part(3) and len(rest.nums) == 6 * g


class TestLTheta:
    def test_degree_two_is_class_squared(self):
        rng = random.Random(7)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 10), rng)
            av = TruncTensor.from_hvec(abelianize(a))
            assert L_of(a).degree_part(2) == av * av

    def test_degree_three_dual_path(self):
        rng = random.Random(8)
        for _ in range(500):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 10), rng)
            closed_form = embed3(wedge3(abelianize(a), ell(a)))
            assert L_of(a).degree_part(3) == closed_form.degree_part(3)

    def test_invariance(self):
        rng = random.Random(9)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(0, 8), rng)
            c = random_word_rng(g, rng.randint(0, 8), rng)
            assert L_of(a.inverse()) == L_of(a)
            assert L_of(c.conjugate(a)) == L_of(a)


class TestDerivationProps:
    def test_L2_action_closed_form(self):
        rng = random.Random(10)
        for _ in range(500):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            av = abelianize(a)
            L2 = TruncTensor.from_hvec(av) * TruncTensor.from_hvec(av)
            u = wedge(rand_hvec(g, rng), rand_hvec(g, rng))
            from curveobs.reference import act2
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
        assert johnson_twist(L_of(a), TruncTensor.one(1)).degree_part(0) == \
            TruncTensor.one(1, 2).degree_part(0)

    def test_classical_degree_one_example(self):
        # twisting along x1 sends Y1 to Y1 + X1 in degree one
        a = parse_word("x1", 1)
        got = johnson_twist(L_of(a), theta0_of(parse_word("y1", 1))).degree_part(1)
        want = TruncTensor.from_hvec(HVec.basis(1, Y1) + HVec.basis(1, X1), 2)
        assert got == want.degree_part(1)

    def test_classical_formula_on_basis(self):
        rng = random.Random(12)
        for _ in range(200):
            g = rng.randint(1, 3)
            a = random_word_rng(g, rng.randint(1, 10), rng)
            av = abelianize(a)
            L = L_of(a)
            for k in range(2 * g):
                x = HVec.basis(g, k)
                got = johnson_twist(L, TruncTensor.from_hvec(x, 2)).degree_part(1)
                want = x + av.scale(intersection(av, x))
                assert got == TruncTensor.from_hvec(want, 2).degree_part(1)

    def test_output_degree_flag(self):
        a = parse_word("x1", 2)
        out = johnson_twist(L_of(a), theta0_of(parse_word("y1", 2)))
        assert out.maxdeg == 2


# --- the Fraction-dict arithmetic that int-numerator tensors replaced -------
# Each reference takes and returns {sequence: Fraction} dicts, and ref_clean
# does to every result what the Fraction-dict constructor did: drop zero
# coefficients and terms above the degree bound.

def ref_clean(terms, maxdeg):
    return {s: c for s, c in terms.items() if c != 0 and len(s) <= maxdeg}


def ref_add(t1, t2, maxdeg):
    out = dict(t1)
    for s, c in t2.items():
        out[s] = out.get(s, 0) + c
    return ref_clean(out, maxdeg)


def ref_scale(t, c, maxdeg):
    c = Fraction(c)
    return ref_clean({s: c * v for s, v in t.items()}, maxdeg)


def ref_mul(t1, t2, maxdeg):
    out = {}
    for s1, c1 in t1.items():
        room = maxdeg - len(s1)
        for s2, c2 in t2.items():
            if len(s2) > room:
                continue
            s = s1 + s2
            out[s] = out.get(s, 0) + c1 * c2
    return ref_clean(out, maxdeg)


def ref_cyclic_N(t, maxdeg):
    out = {}
    for s, c in t.items():
        for j in range(len(s)):
            r = s[j:] + s[:j]
            out[r] = out.get(r, Fraction(0)) + c
    return ref_clean(out, maxdeg)


def ref_derive(h, u, maxdeg):
    images = {}
    for hs, hc in h.items():
        y = mate(hs[0])
        images.setdefault(y, []).append((hs[1:], hc * basis_pairing(y, hs[0])))
    out = {}
    for s, c in u.items():
        for p, y in enumerate(s):
            for tail, hc in images.get(y, ()):
                t = s[:p] + tail + s[p + 1:]
                if len(t) > maxdeg:
                    continue
                out[t] = out.get(t, 0) + c * hc
    return ref_clean(out, maxdeg)


def ref_johnson_twist(L, u, maxdeg):
    D = min(2, maxdeg)
    out = term = ref_clean(u, D)
    for k in range(1, 65):
        term = ref_scale(ref_derive(L, term, D), Fraction(-1, k), D)
        if not term:
            return out
        out = ref_add(out, term, D)
    raise AssertionError("twist exponential failed to terminate")


DENOMINATORS = (1, 2, 3, 4, 6, 8)


def rational_tensor(genus, rng, maxdeg, min_deg=0):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        d = rng.randint(min_deg, maxdeg)
        seq = tuple(rng.randrange(2 * genus) for _ in range(d))
        terms[seq] = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    return TruncTensor(genus, maxdeg, terms)


def rational_coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                    rng.choice(DENOMINATORS))


def is_canonical(t):
    return (t.den > 0 and 0 not in t.nums.values()
            and gcd(t.den, *t.nums.values()) == 1)


def matches(got, ref_terms):
    """got holds exactly the reference coefficients, in canonical form."""
    return (is_canonical(got) and got.terms == ref_terms
            and got == TruncTensor(got.genus, got.maxdeg, ref_terms))


class TestIntNumeratorsMatchFractionReference:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_ring_operations(self, g):
        rng = random.Random(200 + g)
        for _ in range(300):
            D = rng.randint(1, 3)
            t1, t2 = rational_tensor(g, rng, D), rational_tensor(g, rng, D)
            a, b = t1.terms, t2.terms
            c = rational_coeff(rng)
            assert matches(t1 + t2, ref_add(a, b, D)), (t1, t2)
            assert matches(t1 - t2, ref_add(a, ref_scale(b, -1, D), D)), (t1, t2)
            assert matches(t1.scale(c), ref_scale(a, c, D)), (t1, c)
            assert matches(t1 * t2, ref_mul(a, b, D)), (t1, t2)
            assert matches(cyclic_N(t1), ref_cyclic_N(a, D)), t1

    @pytest.mark.parametrize("g", range(1, 5))
    def test_derive(self, g):
        rng = random.Random(210 + g)
        for _ in range(300):
            D = rng.randint(1, 3)
            h = rational_tensor(g, rng, rng.choice([2, 3]), min_deg=1)
            u = rational_tensor(g, rng, D)
            assert matches(derive(h, u), ref_derive(h.terms, u.terms, D)), (h, u)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_johnson_twist(self, g):
        rng = random.Random(220 + g)
        for _ in range(100):
            D = rng.randint(1, 3)
            abs_a = rand_hvec(g, rng)
            ell_a = (wedge(rand_hvec(g, rng), rand_hvec(g, rng))
                     + wedge(rand_hvec(g, rng), rand_hvec(g, rng)).scale(
                         rational_coeff(rng)))
            l = ref_add(TruncTensor.from_hvec(abs_a).terms, embed2(ell_a).terms, 3)
            L = L_theta(abs_a, ell_a)
            assert matches(L, ref_scale(ref_cyclic_N(ref_mul(l, l, 3), 3),
                                        Fraction(1, 2), 3)), (abs_a, ell_a)
            u = rational_tensor(g, rng, D)
            assert matches(johnson_twist(L, u),
                           ref_johnson_twist(L.terms, u.terms, D)), (L, u)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_terms_is_a_new_fraction_dict(self, g):
        rng = random.Random(240 + g)
        for _ in range(100):
            t = rational_tensor(g, rng, rng.randint(1, 3))
            terms = t.terms
            assert type(terms) is dict
            assert terms == {s: Fraction(n, t.den) for s, n in t.nums.items()}
            before = TruncTensor(g, t.maxdeg, terms)
            terms.clear()
            terms[(0,)] = Fraction(7, 5)
            assert t == before, t

    @pytest.mark.parametrize("g", range(1, 5))
    def test_canonical_form(self, g):
        rng = random.Random(230 + g)
        for _ in range(300):
            t = rational_tensor(g, rng, rng.randint(1, 3))
            assert is_canonical(t)
            assert t.scale(Fraction(1, 3)).scale(3) == t
            assert t + t - t == t
            zero = t - t
            assert zero.is_zero() and zero.den == 1
            assert zero == TruncTensor(g, t.maxdeg)


# --- the twist path's int fast paths against slower public references -------
# Coefficients have denominators 1, 2, 3, 4 and 6; every reference builds its
# tensors with the validating public constructor. The twist cores take |w| and
# ell(w) as ints over one d; `int_datum` draws those ints and builds the
# references' HVec and Wedge2 from the same ints.

def small_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))


def sparse_hvec(genus, rng):
    return HVec.from_coords(genus, [small_rational(rng) if rng.random() < 0.5
                                    else 0 for _ in range(2 * genus)])


def sparse_wedge2(genus, rng):
    n = 2 * genus
    return Wedge2.make(genus, [((rng.randrange(n), rng.randrange(n)),
                                small_rational(rng))
                               for _ in range(rng.randint(0, 2 * n))])


def int_datum(genus, rng):
    """((h, e, d), |w|, ell(w)): h as (index, numerator) pairs on distinct
    indices, e as raw (i, j, q) triples, unsorted, repeated or diagonal, both
    over one d in 1..6, and the same values as an HVec and a Wedge2."""
    n = 2 * genus
    d = rng.randint(1, 6)
    h = [(i, rng.randint(-9, 9)) for i in range(n) if rng.random() < 0.5]
    e = [(rng.randrange(n), rng.randrange(n), rng.randint(-9, 9))
         for _ in range(rng.randint(0, 2 * n))]
    coords = [0] * n
    for i, p in h:
        coords[i] = Fraction(p, d)
    return ((h, e, d), HVec.from_coords(genus, coords),
            Wedge2.make(genus, [((i, j), Fraction(q, d)) for i, j, q in e]))


def _theta0(genus, h, e, d):
    """`reference.theta0` of |w| and ell(w), given as `_theta0_nums` takes
    them."""
    return TruncTensor._make(genus, 2, _theta0_nums(h, e, d), 2 * d * d)


def _twist(h, e, d, u):
    """exp(-D)(u) - u = -D(u) for u at degree bound 2, such as the expansion
    `_theta0` builds, as `reference.johnson_twist(L, u) - u` computes it
    where `_minus_D`'s guard holds; h, e and d as `_minus_D` takes them."""
    return TruncTensor._make(u.genus, u.maxdeg, _minus_D(h, e, u.nums),
                             u.den * d * d)


def embed2_terms(w):
    terms = {}
    for (i, j), c in w.terms.items():
        terms[(i, j)], terms[(j, i)] = c, -c
    return terms


GENERA = range(1, 13)


class TestTwistFastPaths:
    @pytest.mark.parametrize("g", GENERA)
    def test_edges_match_the_constructor(self, g):
        rng = random.Random(400 + g)
        for _ in range(20):
            v, w = sparse_hvec(g, rng), sparse_wedge2(g, rng)
            for D in (1, 2, 3):
                # matches: the Fraction values themselves, canonical form, and
                # equality with the public constructor's tensor
                want = {(k,): c for k, c in enumerate(v.coords)}
                assert matches(TruncTensor.from_hvec(v, D), ref_clean(want, D)), (v, D)
                want = embed2_terms(w)
                assert matches(embed2(w, D), ref_clean(want, D)), (w, D)
            t = wedge3(v, w)
            want = {}
            for (i, j, k), c in t.terms.items():
                for s, sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                                ((i, k, j), -1), ((k, j, i), -1), ((j, i, k), -1)):
                    want[s] = want.get(s, 0) + sign * c
            assert matches(embed3(t), ref_clean(want, 3)), t
            assert matches(TruncTensor.one(g, 2), {(): 1})

    def test_edges_keep_the_constructor_checks(self):
        bad2 = Wedge2.make(1, [((0, 5), 1)])
        with pytest.raises(ValueError, match="out of range"):
            embed2(bad2)
        with pytest.raises(ValueError, match="out of range"):
            embed2(bad2, 2)
        with pytest.raises(ValueError, match="out of range"):
            TruncTensor(1, 3, embed2_terms(bad2))
        with pytest.raises(ValueError, match="out of range"):
            embed3(wedge3(HVec.basis(1, 1), bad2))
        # the degree cut comes first, as in the constructor
        assert embed2(bad2, 1).is_zero()
        assert TruncTensor(1, 1, embed2_terms(bad2)).is_zero()
        for make in (lambda: TruncTensor.one(1, 0),
                     lambda: TruncTensor.from_hvec(HVec.basis(1, 0), 0),
                     lambda: embed2(omega(1), 0)):
            with pytest.raises(ValueError, match="degree bound"):
                make()

    @pytest.mark.parametrize("g", (1, 2, 5))
    def test_first_index_past_each_end_is_named(self, g):
        # -1 and 2g, next to valid terms that reach 0 and 2g - 1; the message
        # names the bad sequence, the valid terms alone pass, and a bad term
        # cut by the degree bound is never checked
        n = 2 * g
        ok = {(0,): 1, (n - 1, 0): 2, (0, 1, n - 1): 3}
        assert TruncTensor(g, 3, ok).terms == ok
        for bad in ((-1,), (n,), (0, n), (n - 1, -1, 0)):
            with pytest.raises(ValueError) as exc:
                TruncTensor(g, 3, {(0,): 1, bad: 5, **ok})
            assert str(exc.value) == f"basis index out of range in {bad}"
            cut = {s: c for s, c in ok.items() if len(s) < len(bad)}
            if cut:
                assert TruncTensor(g, len(bad) - 1, {**cut, bad: 5}).terms == cut

    def test_builders_keep_the_constructor_checks(self):
        # theta0 and L_theta compose embed2 and the ring operations, and
        # raise where those raise
        bad = (Wedge2.make(1, [((0, 5), 1)]), Wedge2.make(1, [((-1, 0), 1)]))
        for build in (theta0, L_theta):
            for w in bad:
                for v in (HVec.basis(1, 0), HVec.zero(1)):
                    with pytest.raises(ValueError, match="out of range"):
                        build(v, w)
            for v, w in ((HVec.basis(1, 0), omega(2)),
                         (HVec.basis(2, 3), Wedge2.zero(1)),
                         (HVec.zero(2), Wedge2.zero(1))):
                with pytest.raises(ValueError, match="genus mismatch"):
                    build(v, w)

    @pytest.mark.parametrize("g", GENERA)
    def test_theta0_matches_its_composed_form(self, g):
        rng = random.Random(410 + g)
        for _ in range(10):
            datum, v, w = int_datum(g, rng)
            got = _theta0(g, *datum)
            assert is_canonical(got) and got == theta0(v, w), datum

    @pytest.mark.parametrize("g", GENERA)
    def test_commutator_is_embedded_wedge(self, g):
        rng = random.Random(460 + g)
        for _ in range(30):
            u, v = sparse_hvec(g, rng), sparse_hvec(g, rng)
            tu, tv = TruncTensor.from_hvec(u, 2), TruncTensor.from_hvec(v, 2)
            assert tu * tv - tv * tu == embed2(wedge(u, v), 2), (u, v)

    @pytest.mark.parametrize("g", GENERA)
    def test_twist_check_closed_form_is_embedded_wedge(self, g):
        rng = random.Random(480 + g)
        checked = 0
        while checked < 5:
            a = random_word_rng(g, rng.randint(1, 12), rng)
            b = random_word_rng(g, rng.randint(1, 12), rng)
            rep = analyze(g, a, b)
            if rep.i_A != 0:
                continue
            ok, lhs, rhs = twist_tensors(g, a, b)
            assert ok and rhs == embed2(wedge(rep.abs_a, rep.v), 2), (a, b)
            checked += 1


# --- the twist without L against the materialised L -------------------------
# `_twist` applies the derivation D of L once, which is the whole twist when
# sigma = c . z and c^T M c are 0, for z and M the degree-1 and degree-2 parts
# of u, and raises elsewhere. `twist_check` holds it to that contract on one
# draw, reading sigma and c^T M c off Fraction coefficients.

def rational_1_to_6(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def rank_one_coefficients(h):
    """c with c_y = (y.x) h_x for x the mate of y: the derivation of L(a)
    sends X_y to c_y h in degree 1."""
    return HVec(h.genus, tuple(basis_pairing(y, mate(y)) * h.coords[mate(y)]
                               for y in range(2 * h.genus)))


def guard_values(c, u):
    """(sigma, c^T M c) of u at degree bound 2, for c as a coordinate tuple."""
    sigma = cMc = Fraction(0)
    for s, x in u.terms.items():
        if len(s) == 1:
            sigma += c[s[0]] * x
        elif len(s) == 2:
            cMc += c[s[0]] * x * c[s[1]]
    return sigma, cMc


def meeting_the_guard(c, u):
    """u with its X_k and X_k X_k coefficients shifted, for the first k with
    c_k != 0, so that sigma = c^T M c = 0."""
    k = next((y for y, cy in enumerate(c) if cy), None)
    if k is None:
        return u
    sigma, cMc = guard_values(c, u)
    terms = u.terms
    terms[(k,)] = terms.get((k,), 0) - sigma / c[k]
    terms[(k, k)] = terms.get((k, k), 0) - cMc / (c[k] * c[k])
    return TruncTensor(u.genus, u.maxdeg, terms)


def orthogonal(c, v):
    """v with its k-th coordinate shifted, for the first k with c_k != 0, so
    that c . v = 0: theta0 of it meets the guard."""
    k = next((y for y, cy in enumerate(c) if cy), None)
    if k is None:
        return v
    coords = list(v.coords)
    coords[k] -= sum((cy * vy for cy, vy in zip(c, coords)), Fraction(0)) / c[k]
    return HVec(v.genus, tuple(coords))


def twist_check(datum, L, c, u, outcomes):
    """Where the guard holds, `_twist` gives johnson_twist(L, u) - u in
    canonical form, and D(D(u)) = 0; elsewhere it raises. outcomes counts
    each (guard holds) outcome."""
    held = guard_values(c, u) == (0, 0)
    if held:
        got = _twist(*datum, u)
        assert is_canonical(got) and got == johnson_twist(L, u) - u, (datum, u)
        assert derive(L, derive(L, u)).is_zero(), (datum, u)
    else:
        with pytest.raises(AssertionError, match="one-step twist"):
            _twist(*datum, u)
    outcomes[held] += 1


class TestTwistOnDemand:
    """`_twist` applies the derivation of L in contraction form, read off |a|
    and ell(a); `johnson_twist(L_theta(...), u)` builds all of L first."""

    @pytest.mark.parametrize("g", GENERA)
    def test_matches_the_materialised_twist(self, g):
        rng = random.Random(700 + g)
        n = 2 * g
        outcomes = [0, 0]
        for _ in range(12):
            datum, ha, ea = int_datum(g, rng)
            L, c = L_theta(ha, ea), rank_one_coefficients(ha).coords
            v = HVec.from_coords(g, [rational_1_to_6(rng) for _ in range(n)])
            w = Wedge2.make(g, [((rng.randrange(n), rng.randrange(n)),
                                 rational_1_to_6(rng))])
            u = rational_tensor(g, rng, 2)
            for t in (theta0(v, w), u, theta0(orthogonal(c, v), w),
                      meeting_the_guard(c, u)):
                twist_check(datum, L, c, t, outcomes)
        assert all(outcomes)

    @pytest.mark.parametrize("g", (1, 2, 5))
    def test_degree_bounds_1_and_3(self, g):
        # _twist takes theta0's bound 2; terms drawn at bounds 1 and 3 and
        # put at bound 2 keep the contract
        rng = random.Random(720 + g)
        outcomes = [0, 0]
        for _ in range(40):
            datum, ha, ea = int_datum(g, rng)
            L, c = L_theta(ha, ea), rank_one_coefficients(ha).coords
            for D in (1, 3):
                u = TruncTensor(g, 2, rational_tensor(g, rng, D).terms)
                for t in (u, meeting_the_guard(c, u)):
                    twist_check(datum, L, c, t, outcomes)
        assert all(outcomes)


# --- the rank-one degree-1 action that `_twist` applies ---------------------

class TestRankOneDegreeOneAction:
    """L's degree-2 part is h h, so the degree-1 part of its derivation is
    X_y -> c_y h, and on a degree-2 part M the derivation is
    h (c^T M) + (M c) h. Its degree-3 part N(h e) sends a degree-1 z to
    sigma e + w h - h w in degree 2, with sigma = c.z and w = e(z), the
    contraction of e by z. `_twist` applies it in those forms."""

    @pytest.mark.parametrize("g", GENERA)
    def test_degree_one_tails_are_multiples_of_h(self, g):
        rng = random.Random(740 + g)
        for _ in range(10):
            h, e = rand_hvec(g, rng), sparse_wedge2(g, rng)
            L = L_theta(h, e)
            c = rank_one_coefficients(h)
            for y in range(2 * g):
                # at degree bound 1 only the degree-1 tails of D(X_y) fit
                got = derive(L, TruncTensor.from_hvec(HVec.basis(g, y), 1))
                want = TruncTensor.from_hvec(h.scale(c.coords[y]), 1)
                assert got == want, (h, e, y)

    @pytest.mark.parametrize("g", GENERA)
    def test_degree_two_leibniz_action(self, g):
        rng = random.Random(760 + g)
        n = 2 * g
        for _ in range(10):
            h, e = rand_hvec(g, rng), sparse_wedge2(g, rng)
            M = rational_tensor(g, rng, 2, min_deg=2)
            c = rank_one_coefficients(h).coords
            cM = HVec(g, tuple(sum((c[i] * M.coeff((i, j)) for i in range(n)),
                                   Fraction(0)) for j in range(n)))
            Mc = HVec(g, tuple(sum((M.coeff((i, j)) * c[j] for j in range(n)),
                                   Fraction(0)) for i in range(n)))
            th, tcM, tMc = (TruncTensor.from_hvec(x, 2) for x in (h, cM, Mc))
            assert derive(L_theta(h, e), M) == th * tcM + tMc * th, (h, e, M)

    @pytest.mark.parametrize("g", GENERA)
    def test_degree_one_contraction_form(self, g):
        rng = random.Random(770 + g)
        fired = 0
        for _ in range(10):
            h, e, z = rand_hvec(g, rng), sparse_wedge2(g, rng), rand_hvec(g, rng)
            c = rank_one_coefficients(h).coords
            sigma = sum((cy * zy for cy, zy in zip(c, z.coords)), Fraction(0))
            th, tw = TruncTensor.from_hvec(h, 2), TruncTensor.from_hvec(act2(e, z), 2)
            got = derive(L_theta(h, e), TruncTensor.from_hvec(z, 2)).degree_part(2)
            want = embed2(e, 2).scale(sigma) + (tw * th - th * tw)
            assert got == want, (h, e, z)
            fired += sigma != 0
        assert fired  # the sigma e term is exercised

    @pytest.mark.parametrize("g", GENERA)
    def test_twist_keeps_its_contract_at_every_degree_bound(self, g):
        # the contract of TestTwistOnDemand on tensors drawn at bounds 1, 2
        # and 3 and put at _twist's bound 2, at every genus, each next to a
        # copy that meets the guard
        rng = random.Random(780 + g)
        outcomes = [0, 0]
        for _ in range(10):
            datum, ha, ea = int_datum(g, rng)
            L, c = L_theta(ha, ea), rank_one_coefficients(ha).coords
            for D in (1, 2, 3):
                for u in (TruncTensor(g, 2, rational_tensor(g, rng, D).terms),
                          theta0(rand_hvec(g, rng), sparse_wedge2(g, rng))):
                    for t in (u, meeting_the_guard(c, u)):
                        twist_check(datum, L, c, t, outcomes)
        assert all(outcomes)
