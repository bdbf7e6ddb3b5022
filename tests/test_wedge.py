import copy
import pickle
import random
from fractions import Fraction

import pytest

from curveobs.homology import HVec, intersection
from curveobs.reference import (L_theta, TruncTensor, Wedge3, act2, act3,
                                derive, embed2, embed3, omega, theta0, wedge,
                                wedge3)
from curveobs.wedge import Wedge2

X1, Y1, X2, Y2 = 0, 1, 2, 3


def rand_hvec(genus, rng):
    return HVec.from_coords(
        genus,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * genus)])


def basis(genus, k):
    return HVec.basis(genus, k)


class TestWedge:
    def test_basis_pair(self):
        w = wedge(basis(1, X1), basis(1, Y1))
        assert w.terms == {(X1, Y1): Fraction(1)}

    def test_self_wedge_vanishes(self):
        rng = random.Random(0)
        for _ in range(100):
            u = rand_hvec(2, rng)
            assert wedge(u, u).is_zero()

    def test_bilinear_expansion_oracle(self):
        # expand (X1+Y2)^(-X1+Y2) on the basis by hand
        u = basis(2, X1) + basis(2, Y2)
        v = -basis(2, X1) + basis(2, Y2)
        expected = Wedge2.zero(2)
        for (i, a) in ((X1, 1), (Y2, 1)):
            for (j, b) in ((X1, -1), (Y2, 1)):
                expected = expected + Wedge2.make(2, [((i, j), a * b)])
        got = wedge(u, v)
        assert got == expected
        assert got.terms == {(X1, Y2): Fraction(2)}

    def test_antisymmetry(self):
        rng = random.Random(1)
        for _ in range(100):
            u, v = rand_hvec(3, rng), rand_hvec(3, rng)
            assert wedge(u, v) == -wedge(v, u)


class TestAct2:
    def test_paper_value(self):
        w = Wedge2.make(2, [((X1, Y1), Fraction(1, 2)),
                            ((X2, Y2), Fraction(1, 2)),
                            ((X1, Y2), Fraction(1, 2))])
        z = -basis(2, X1) + basis(2, Y2)
        assert act2(w, z) == (basis(2, X1) - basis(2, Y2)).scale(Fraction(1, 2))

    def test_basis_substitution(self):
        assert act2(Wedge2.make(1, [((X1, Y1), 1)]), basis(1, X1)) == -basis(1, X1)

    def test_formula_on_random(self):
        rng = random.Random(2)
        for _ in range(500):
            g = rng.randint(1, 3)
            u, v, z = (rand_hvec(g, rng) for _ in range(3))
            got = act2(wedge(u, v), z)
            want = v.scale(intersection(z, u)) - u.scale(intersection(z, v))
            assert got == want

    def test_omega_acts_as_minus_identity(self):
        rng = random.Random(3)
        for g in range(1, 6):
            for _ in range(50):
                v = rand_hvec(g, rng)
                assert act2(omega(g), v) == -v

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            act2(omega(1), HVec.zero(2))


class TestWedge3:
    def test_repeated_factor_vanishes(self):
        assert wedge3(basis(1, X1), Wedge2.make(1, [((X1, Y1), 1)])).is_zero()

    def test_basis_triple(self):
        t = wedge3(basis(2, X1), Wedge2.make(2, [((X2, Y2), 1)]))
        assert t.terms == {(X1, X2, Y2): Fraction(1)}

    def test_alternating(self):
        rng = random.Random(4)
        for _ in range(200):
            g = rng.randint(2, 3)
            u, v, z = (rand_hvec(g, rng) for _ in range(3))
            t1 = wedge3(u, wedge(v, z))
            assert wedge3(v, wedge(u, z)) == t1.scale(-1)
            assert wedge3(u, wedge(z, v)) == t1.scale(-1)
            assert wedge3(u, wedge(v, v)).is_zero()


class TestAct3:
    def test_first_pairing_survives(self):
        # (Y1 . X1) = -1, and (X2^Y2)(Y1) = 0, so only the first term acts
        t = wedge3(basis(2, X1), Wedge2.make(2, [((X2, Y2), 1)]))
        assert act3(t, basis(2, Y1)) == Wedge2.make(2, [((X2, Y2), -1)])

    def test_all_pairings_vanish(self):
        t = wedge3(basis(2, X1), Wedge2.make(2, [((X2, Y2), 1)]))
        assert act3(t, basis(2, X1)).is_zero()

    def test_formula_on_random(self):
        rng = random.Random(5)
        for _ in range(200):
            g = rng.randint(1, 3)
            u = rand_hvec(g, rng)
            w = wedge(rand_hvec(g, rng), rand_hvec(g, rng))
            z = rand_hvec(g, rng)
            got = act3(wedge3(u, w), z)
            want = w.scale(intersection(z, u)) - wedge(u, act2(w, z))
            assert got == want


class TestOmega:
    def test_genus_one(self):
        assert omega(1).terms == {(X1, Y1): Fraction(1)}

    def test_genus_two(self):
        assert omega(2).terms == {(X1, Y1): Fraction(1), (X2, Y2): Fraction(1)}


class TestEmbed:
    def test_embed2_basis(self):
        t = embed2(Wedge2.make(1, [((X1, Y1), 1)]))
        assert t.terms == {(X1, Y1): Fraction(1), (Y1, X1): Fraction(-1)}

    def test_embed3_six_terms(self):
        t = embed3(Wedge3.make(2, [((X1, X2, Y2), 1)]))
        assert t.terms == {
            (X1, X2, Y2): Fraction(1), (X2, Y2, X1): Fraction(1),
            (Y2, X1, X2): Fraction(1), (X1, Y2, X2): Fraction(-1),
            (Y2, X2, X1): Fraction(-1), (X2, X1, Y2): Fraction(-1),
        }

    def test_embed2_injective_on_random(self):
        rng = random.Random(6)
        for _ in range(200):
            g = rng.randint(1, 3)
            w = wedge(rand_hvec(g, rng), rand_hvec(g, rng))
            if w.is_zero():
                continue
            assert not embed2(w).is_zero()
            # kernel check: recover every coefficient from the tensor
            t = embed2(w)
            for (i, j), c in w.terms.items():
                assert t.coeff((i, j)) == c and t.coeff((j, i)) == -c

    def test_act2_matches_tensor_derivation(self):
        rng = random.Random(7)
        for _ in range(500):
            g = rng.randint(1, 3)
            w = wedge(rand_hvec(g, rng), rand_hvec(g, rng))
            z = rand_hvec(g, rng)
            via_tensor = derive(embed2(w), TruncTensor.from_hvec(z)).degree_part(1)
            assert via_tensor == TruncTensor.from_hvec(act2(w, z)).degree_part(1)

    def test_act3_matches_tensor_derivation(self):
        rng = random.Random(8)
        for _ in range(500):
            g = rng.randint(1, 3)
            t = wedge3(rand_hvec(g, rng), wedge(rand_hvec(g, rng), rand_hvec(g, rng)))
            z = rand_hvec(g, rng)
            via_tensor = derive(embed3(t), TruncTensor.from_hvec(z)).degree_part(2)
            assert via_tensor == embed2(act3(t, z)).degree_part(2)


class TestMalformedWedge2:
    """`Wedge2.make` takes any index; every function that reads a Wedge2's
    indices as basis positions rejects one outside 0..2g-1, where an index
    past the end would raise IndexError and a negative one would wrap.
    `obstruction_vector` reads words, not a Wedge2."""

    BAD = (Wedge2.make(1, [((0, 5), 1)]), Wedge2.make(1, [((-1, 0), 1)]))

    @pytest.mark.parametrize("w", BAD, ids=("past_end", "negative"))
    def test_rejected_by_every_reader(self, w):
        x1 = basis(1, X1)
        for call in (lambda: act2(w, x1),
                     lambda: theta0(x1, w),
                     lambda: L_theta(x1, w)):
            with pytest.raises(ValueError, match="basis index out of range"):
                call()

    @pytest.mark.parametrize("g", (1, 2, 5))
    def test_first_index_past_each_end_is_named(self, g):
        # -1 and 2g, next to valid terms that reach 0 and 2g - 1; the message
        # names the bad key, and the valid terms alone pass
        n = 2 * g
        ok = [((0, 1), 1), ((n - 2, n - 1), 2)]
        x1 = basis(g, X1)
        act2(Wedge2.make(g, ok), x1)
        for bad in ((-1, 1), (0, n)):
            with pytest.raises(ValueError) as exc:
                act2(Wedge2.make(g, [*ok, (bad, 3)]), x1)
            assert str(exc.value) == f"basis index out of range in {bad}"


class TestMakeCoercion:
    """`make` stores every coefficient as a `Fraction`: it coerces an int or a
    bool and keeps a `Fraction` as it is. The report bytes cannot tell a
    leaked int, as str(1) == str(Fraction(1))."""

    def test_int_bool_and_fraction_are_stored_as_fractions(self):
        half = Fraction(1, 2)
        w = Wedge2.make(2, [((0, 1), 3), ((2, 3), True), ((0, 2), half),
                            ((1, 3), False), ((3, 1), 2), ((1, 2), -1),
                            ((2, 1), 1)])
        assert w.terms == {(0, 1): 3, (2, 3): 1, (0, 2): half, (1, 3): -2,
                           (1, 2): -2}
        assert all(type(c) is Fraction for c in w.terms.values())
        assert w.terms[(0, 2)] is half

    def test_arithmetic_keeps_fractions(self):
        w = Wedge2.make(2, [((0, 1), 1), ((2, 3), 2)])
        for x in (w + w, w - w.scale(2), -w, w.scale(3), w.scale(True),
                  Wedge3.make(2, [((2, 0, 1), 1), ((0, 1, 2), True)])):
            assert x.terms and all(type(c) is Fraction
                                   for c in x.terms.values()), x


# every way a record is copied: shallow, deep and each pickle protocol
COPIES = [copy.copy, copy.deepcopy] + [
    (lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)]


class TestRecords:
    """Wedge2, Wedge3 and TruncTensor are immutable values, equal by value
    within one class; their dicts of terms make them unhashable."""

    def test_equality(self):
        w = Wedge2(2, {(0, 1): Fraction(1, 2), (2, 3): Fraction(-1)})
        assert w == Wedge2(genus=2, terms={(2, 3): -1, (0, 1): Fraction(1, 2)})
        assert w == (omega(2).scale(Fraction(1, 2))
                     - Wedge2.make(2, [((2, 3), Fraction(3, 2))]))
        assert w != Wedge2(3, w.terms) and w != -w
        assert Wedge2.zero(2) != Wedge3.zero(2)
        assert Wedge3.zero(2) != Wedge2.zero(2)
        assert Wedge3(2, {(0, 1, 2): Fraction(1)}) == Wedge3(2, {(0, 1, 2): 1})
        assert w != (2, w.terms)

        t = TruncTensor(2, 2, {(0,): Fraction(1, 2), (1, 2): -1})
        assert t == TruncTensor(maxdeg=2, genus=2, terms={
            (1, 2): Fraction(-2, 2), (3,): 0, (0,): Fraction(1, 2)})
        assert t == (TruncTensor.from_hvec(HVec.basis(2, X1), 2).scale(
            Fraction(1, 2)) - TruncTensor(2, 2, {(1, 2): 1}))
        assert t != TruncTensor(2, 3, t.terms) and t != TruncTensor(3, 2, t.terms)
        assert t != -t and t != (2, 2, t.nums, t.den)
        assert TruncTensor(1, 2) != Wedge2.zero(1)
        assert Wedge2.zero(1) != TruncTensor(1, 2)

    def test_unhashable(self):
        for obj in (Wedge2.zero(1), omega(2), Wedge3.zero(2),
                    TruncTensor(1, 2), TruncTensor.one(2)):
            with pytest.raises(TypeError):
                hash(obj)

    def test_fields_cannot_be_set_or_deleted(self):
        for obj in (omega(2), Wedge3.zero(2), TruncTensor.one(2)):
            for field in obj.__slots__:
                with pytest.raises(AttributeError):
                    setattr(obj, field, {})
                with pytest.raises(AttributeError):
                    delattr(obj, field)
        assert omega(1) == Wedge2(1, {(0, 1): 1})
        assert TruncTensor.one(2) == TruncTensor(2, 3, {(): 1})

    def test_repr(self):
        assert repr(omega(2)) == (
            "Wedge2(genus=2, terms={(0, 1): Fraction(1, 1), "
            "(2, 3): Fraction(1, 1)})")
        assert repr(Wedge3.make(2, [((2, 0, 1), Fraction(-1, 2))])) == (
            "Wedge3(genus=2, terms={(0, 1, 2): Fraction(-1, 2)})")
        assert repr(Wedge2.zero(3)) == "Wedge2(genus=3, terms={})"
        assert repr(TruncTensor(2, 2, {(1, 0): Fraction(-1, 2), (): 1,
                                       (3, 2, 1): 5, (2,): 0})) == (
            "TruncTensor(genus=2, maxdeg=2, terms={(1, 0): Fraction(-1, 2), "
            "(): Fraction(1, 1)})")
        assert repr(TruncTensor(1, 1)) == (
            "TruncTensor(genus=1, maxdeg=1, terms={})")

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies(self, copier):
        for obj in (omega(2), Wedge2.zero(1),
                    Wedge3.make(2, [((0, 1, 2), Fraction(1, 3))]),
                    TruncTensor(2, 3, {(0, 3, 1): Fraction(-2, 3), (): 4}),
                    TruncTensor(1, 1)):
            c = copier(obj)
            assert type(c) is type(obj) and c == obj and repr(c) == repr(obj)
