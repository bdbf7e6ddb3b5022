"""Tests of `curveobs.homology`: `abelianize`, the intersection pairing,
integrality, `lattice_member` and its witnesses against a brute-force
oracle and under lattice shifts, its int results, and the `HVec` and
`LatticeWitness` records. `Wedge2`, which also lives in `homology`, is
tested in `test_wedge.py`. Acceptance criterion 10 (`test_acceptance.py`)
checks lattice membership against a scan.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from curveobs.homology import (HVec, LatticeWitness, _ext_gcd, abelianize,
                               basis_pairing, intersection, is_integral,
                               lattice_member)
from curveobs.words import Word, boundary_word, parse_word, random_word_rng

from test_words import COPIES, assert_copied, assert_frozen


def hv(genus, **coords):
    out = HVec.zero(genus)
    for name, c in coords.items():
        k = 2 * (int(name[1:]) - 1) + (0 if name[0] == "X" else 1)
        out = out + HVec.basis(genus, k).scale(c)
    return out


class TestAbelianize:
    def test_paper_a(self):
        assert abelianize(parse_word("x1 x2 y2 x2^-1", 2)) == hv(2, X1=1, Y2=1)

    def test_paper_b(self):
        assert abelianize(parse_word("y2 x1^-1", 2)) == hv(2, X1=-1, Y2=1)

    def test_boundary_is_zero(self):
        for g in range(1, 6):
            assert abelianize(boundary_word(g)).is_zero()

    def test_homomorphism(self):
        rng = random.Random(0)
        for i in range(200):
            g = rng.randint(1, 3)
            u = random_word_rng(g, rng.randint(0, 12), random.Random(2 * i))
            v = random_word_rng(g, rng.randint(0, 12), random.Random(2 * i + 1))
            assert abelianize(u * v) == abelianize(u) + abelianize(v)
            assert abelianize(u.inverse()) == -abelianize(u)


class TestIntersection:
    def test_basis_pairing(self):
        assert intersection(hv(1, X1=1), hv(1, Y1=1)) == 1

    def test_paper_pair_meets_zero(self):
        assert intersection(hv(2, X1=1, Y2=1), hv(2, X1=-1, Y2=1)) == 0

    def test_gram_matrix(self):
        g = 3
        for i in range(2 * g):
            for j in range(2 * g):
                val = intersection(HVec.basis(g, i), HVec.basis(g, j))
                assert val == basis_pairing(i, j)
                same_pair = i // 2 == j // 2
                if same_pair and i % 2 == 0 and j % 2 == 1:
                    assert val == 1
                elif same_pair and i % 2 == 1 and j % 2 == 0:
                    assert val == -1
                else:
                    assert val == 0

    def test_antisymmetry_on_random(self):
        rng = random.Random(1)
        for _ in range(200):
            g = rng.randint(1, 3)
            u = HVec(g, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(2 * g)])
            v = HVec(g, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(2 * g)])
            assert intersection(u, u) == 0
            assert intersection(u, v) == -intersection(v, u)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            intersection(HVec.zero(1), HVec.zero(2))


class TestIsIntegral:
    def test_examples(self):
        assert is_integral(hv(1, X1=1))
        assert not is_integral(hv(1, X1=Fraction(1, 2)))

    def test_abelianized_words(self):
        rng = random.Random(2)
        for i in range(500):
            g = rng.randint(1, 3)
            assert is_integral(abelianize(
                random_word_rng(g, rng.randint(0, 15), random.Random(i))))


class TestLatticeMember:
    def test_paper_nonmember(self):
        w = lattice_member(hv(2, X1=1), hv(2, X1=1, Y2=1), hv(2, X1=-1, Y2=1))
        assert w == LatticeWitness(False)

    def test_zero_vector(self):
        u1, u2 = hv(2, X1=1, Y2=1), hv(2, X1=-1, Y2=1)
        assert lattice_member(HVec.zero(2), u1, u2) == LatticeWitness(True, 0, 0)

    def test_constructed_combination(self):
        u1, u2 = hv(2, X1=1, Y2=1), hv(2, X1=-1, Y2=1)
        v = u1.scale(3) + u2.scale(-2)
        assert lattice_member(v, u1, u2) == LatticeWitness(True, 3, -2)

    def test_rank_one_gcd(self):
        u0 = hv(1, X1=1, Y1=2)
        # 4*u0 and 6*u0 generate (gcd 2)*u0
        assert lattice_member(u0.scale(2), u0.scale(4), u0.scale(6)).member
        assert not lattice_member(u0, u0.scale(4), u0.scale(6)).member
        assert not lattice_member(u0.scale(3), u0.scale(4), u0.scale(6)).member

    def test_rank_one_zero_generator(self):
        u0 = hv(1, X1=1)
        got = lattice_member(u0.scale(3), HVec.zero(1), u0.scale(3))
        assert got.member and got.m * 0 == 0 and got.n == 1

    def test_off_line_vector_in_rank_one(self):
        assert not lattice_member(hv(1, Y1=1), hv(1, X1=1), hv(1, X1=2)).member

    def test_non_integral_generators_rejected(self):
        with pytest.raises(ValueError):
            lattice_member(hv(1, X1=1), hv(1, X1=Fraction(1, 2)), hv(1, Y1=1))

    # (case, v, u1, u2, expected (member, m, n)); the witness is printed in
    # every report, so the expected values pin its choice, not only membership
    TABLE = [
        ("rank0_zero", (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (True, 0, 0)),
        ("rank0_nonzero", (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
         (False, None, None)),
        ("rank1_zero_u1", (0, 0, -6, 9), (0, 0, 0, 0), (0, 0, -2, 3),
         (True, 0, 3)),
        ("rank1_zero_u2", (-4, 2), (2, -1), (0, 0), (True, -2, 0)),
        ("rank1_negative_leading", (0, -2, 1, 0), (0, -4, 2, 0), (0, 6, -3, 0),
         (True, -1, -1)),
        ("rank1_negative_leading_flip", (0, 2, -1, 0), (0, -4, 2, 0),
         (0, 6, -3, 0), (True, 1, 1)),
        ("rank1_gcd_multiple", (-6, 3, 0, 9, 0, 0), (-4, 2, 0, 6, 0, 0),
         (10, -5, 0, -15, 0, 0), (True, -6, -3)),
        ("rank1_not_gcd_multiple", (1, 2), (4, 8), (6, 12), (False, None, None)),
        ("rank1_equal_generators", (-3, 0, 6, 0), (-1, 0, 2, 0), (-1, 0, 2, 0),
         (True, 0, 3)),
        ("rank1_opposite_generators", (5, -5, 0, 0, 0, 0, 5, 0),
         (-1, 1, 0, 0, 0, 0, -1, 0), (1, -1, 0, 0, 0, 0, 1, 0), (True, 0, 5)),
        ("rank1_off_line", (0, 1), (1, 0), (2, 0), (False, None, None)),
        ("rank2_paper_nonmember", (1, 0, 0, 0), (1, 0, 0, 1), (-1, 0, 0, 1),
         (False, None, None)),
        ("rank2_combination", (5, 0, 0, 1), (1, 0, 0, 1), (-1, 0, 0, 1),
         (True, 3, -2)),
        ("rank2_negative_leading", (0, -5, 4, 1), (0, -3, 2, 0), (0, 1, 0, 1),
         (True, 2, 1)),
        ("rank2_negative_leading_miss", (0, -7, 4, 1), (0, -3, 2, 0),
         (0, 1, 0, 1), (False, None, None)),
        # Euclid's gcd of -2 and -4 is -2: s, t and d flip sign together, so
        # the witness 3 u1 - 2 u2 = v comes out as with d = 2
        ("rank2_negative_gcd", (2, 3, 0, -2), (-2, 1, 0, 0), (-4, 0, 0, 1),
         (True, 3, -2)),
        ("rank2_negative_gcd_miss", (-2, 0, 0, 0), (-2, 1, 0, 0),
         (-4, 0, 0, 1), (False, None, None)),
        ("rank2_index_two", (2, 0), (1, 1), (1, -1), (True, 1, 1)),
        ("rank2_index_two_miss", (1, 0), (1, 1), (1, -1), (False, None, None)),
        ("fractional_rank2", (Fraction(1, 2), 0, 0, Fraction(1, 2)),
         (1, 0, 0, 1), (-1, 0, 0, 1), (False, None, None)),
        ("fractional_rank1", (Fraction(-3, 2), 3), (-1, 2), (2, -4),
         (False, None, None)),
        ("fractional_rank0", (0, Fraction(1, 3)), (0, 0), (0, 0),
         (False, None, None)),
        ("fractional_on_line_off_lattice", (Fraction(3, 2), 0, Fraction(-3, 2), 0),
         (2, 0, -2, 0), (0, 0, 0, 0), (False, None, None)),
    ]

    @pytest.mark.parametrize("case, v, u1, u2, want", TABLE,
                             ids=[row[0] for row in TABLE])
    def test_witness_table(self, case, v, u1, u2, want):
        g = len(v) // 2
        got = lattice_member(*(HVec(g, x) for x in (v, u1, u2)))
        assert (got.member, got.m, got.n) == want

    def _random_instances(self, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            g = rng.randint(1, 2)
            u1 = abelianize(random_word_rng(g, rng.randint(0, 6),
                                            random.Random(rng.randrange(10**6))))
            u2 = abelianize(random_word_rng(g, rng.randint(0, 6),
                                            random.Random(rng.randrange(10**6))))
            roll = rng.random()
            if roll < 0.15:
                u2 = u1.scale(rng.randint(-2, 2))  # force rank <= 1
            elif roll < 0.25:
                u1 = HVec.zero(g)
            if rng.random() < 0.4:
                v = u1.scale(rng.randint(-8, 8)) + u2.scale(rng.randint(-8, 8))
            else:
                v = HVec(g, [Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2]))
                             for _ in range(2 * g)])
            yield v, u1, u2

    def test_matches_bruteforce_oracle(self):
        bound = 20
        for v, u1, u2 in self._random_instances(300, 17):
            got = lattice_member(v, u1, u2)
            a = [int(c) for c in u1.coords]
            b = [int(c) for c in u2.coords]
            brute = any(
                all(m * a[i] + n * b[i] == v.coords[i] for i in range(len(a)))
                for m in range(-bound, bound + 1)
                for n in range(-bound, bound + 1)
            )
            assert got.member == brute, (v, u1, u2)
            if got.member:
                assert u1.scale(got.m) + u2.scale(got.n) == v

    def test_membership_symmetric_in_generators(self):
        for v, u1, u2 in self._random_instances(200, 23):
            assert lattice_member(v, u1, u2).member == lattice_member(v, u2, u1).member

    def test_adding_a_lattice_vector(self):
        # v + m'u1 + n'u2 is a member exactly when v is; for independent u1
        # and u2 the witness is unique, so it moves by (m', n')
        rng = random.Random(41)
        moved = 0
        for v, u1, u2 in self._random_instances(300, 41):
            m, n = rng.randint(-5, 5), rng.randint(-5, 5)
            w = v + u1.scale(m) + u2.scale(n)
            before, after = lattice_member(v, u1, u2), lattice_member(w, u1, u2)
            assert after.member == before.member, (v, u1, u2, m, n)
            if not before.member:
                continue
            assert u1.scale(after.m) + u2.scale(after.n) == w
            if any(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                   in combinations(zip(u1.coords, u2.coords), 2)):
                assert (after.m, after.n) == (before.m + m, before.n + n)
                moved += 1
        assert moved > 20

    def test_a_half_integral_coordinate_is_never_a_member(self):
        # the lattice lies in Z^2g, whatever v's other coordinates are
        rng = random.Random(43)
        for _, u1, u2 in self._random_instances(300, 43):
            g = u1.genus
            half = HVec.basis(g, rng.randrange(2 * g)).scale(
                Fraction(rng.choice((-3, -1, 1, 3)), 2))
            v = u1.scale(rng.randint(-8, 8)) + u2.scale(rng.randint(-8, 8))
            assert lattice_member(v + half, u1, u2) == LatticeWitness(False)
            assert lattice_member(half, u1, u2) == LatticeWitness(False)

    def test_zero_generators(self):
        for g in (1, 2, 3):
            zero = HVec.zero(g)
            assert lattice_member(zero, zero, zero) == LatticeWitness(True, 0, 0)
            for k in range(2 * g):
                for c in (1, -1, 2, Fraction(1, 2)):
                    v = HVec.basis(g, k).scale(c)
                    assert lattice_member(v, zero, zero) == LatticeWitness(False)

    @pytest.mark.parametrize("a0, b0", [(-4, -6), (-3, 0), (6, -4), (9, -6)])
    def test_negative_gcd_at_the_pivot(self, a0, b0):
        # Euclid's gcd of the pivot entries comes out negative here; the
        # witness of every m*u1 + n*u2 is still (m, n), and v off by 1 at
        # the pivot or at the next coordinate is not a member
        assert _ext_gcd(a0, b0)[0] < 0
        u1, u2 = hv(2, X1=a0, Y1=1, Y2=2), hv(2, X1=b0, X2=1, Y2=-1)
        for m in range(-3, 4):
            for n in range(-3, 4):
                v = u1.scale(m) + u2.scale(n)
                assert lattice_member(v, u1, u2) == LatticeWitness(True, m, n)
                for off in (hv(2, X1=1), hv(2, Y1=-1)):
                    assert not lattice_member(v + off, u1, u2).member

    def test_ints_in_and_out(self):
        rng = random.Random(47)
        for _ in range(100):
            g = rng.randint(1, 4)
            a, b = (abelianize(random_word_rng(g, rng.randint(0, 12), rng))
                    for _ in range(2))
            assert {type(c) for c in a.coords + b.coords} == {int}
            assert type(intersection(a, b)) is int
            m, n = rng.randint(-5, 5), rng.randint(-5, 5)
            v = HVec(g, tuple(m * x + n * y for x, y in zip(a.coords, b.coords)))
            w = lattice_member(v, a, b)
            assert w.member and type(w.m) is int and type(w.n) is int


class TestRecords:
    """HVec and LatticeWitness are immutable values: equal and hashed by
    value, copyable."""

    def test_hvec_equality_and_hash(self):
        v = HVec(2, [1, 0, Fraction(1, 2), -3])
        assert v == HVec(genus=2, coords=(1, 0, Fraction(1, 2), -3))
        assert hash(v) == hash(hv(2, X1=1, X2=Fraction(1, 2), Y2=-3))
        assert v != -v and v != HVec.zero(2)
        assert HVec.zero(1) != HVec.zero(2)
        assert v != (2, v.coords) and v != LatticeWitness(False)

    def test_witness_equality_and_hash(self):
        w = LatticeWitness(True, 1, 0)
        assert w == LatticeWitness(member=True, m=1, n=0)
        assert hash(w) == hash(LatticeWitness(True, m=1, n=0))
        assert LatticeWitness(False) == LatticeWitness(False, None, None)
        assert LatticeWitness(False) != LatticeWitness(True)
        assert w != LatticeWitness(True, 0, 1) and w != (True, 1, 0)

    def test_fields_cannot_be_set_or_deleted(self):
        v, w = HVec.zero(1), LatticeWitness(True, 1, 0)
        assert_frozen(v, ("genus", "coords"), 5)
        assert_frozen(w, ("member", "m"), 5)
        assert v == HVec.zero(1) and w == LatticeWitness(True, 1, 0)

    def test_built_vectors_hold_abelianize_ints(self):
        # one representation: the constructors and scale keep the int
        # coordinates abelianize builds, and HVec keeps what it gets as a tuple
        x1 = abelianize(parse_word("x1", 2))
        assert repr(HVec.zero(2)) == repr(abelianize(Word.identity(2)))
        assert repr(HVec.basis(2, 0)) == repr(x1)
        assert [type(c) for c in x1.scale(2).coords] == [int] * 4
        coords = (1, Fraction(1, 2))
        assert repr(HVec(1, list(coords))) == repr(HVec(1, coords))

    def test_repr(self):
        assert repr(hv(2, X1=1, Y2=Fraction(-1, 2))) == (
            "HVec(genus=2, coords=(Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(-1, 2)))")
        assert repr(LatticeWitness(True, 1, 0)) == (
            "LatticeWitness(member=True, m=1, n=0)")
        assert str(LatticeWitness(False)) == (
            "LatticeWitness(member=False, m=None, n=None)")

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies(self, copier):
        for obj in (hv(2, X1=1, Y2=Fraction(-1, 2)), LatticeWitness(False),
                    LatticeWitness(True, -2, 3)):
            assert_copied(obj, copier)

    @pytest.mark.parametrize("coords", [(), (1,), (1, 2, 3)])
    def test_hvec_coordinate_count(self, coords):
        with pytest.raises(ValueError) as exc:
            HVec(1, coords)
        assert str(exc.value) == "coordinate count must be 2*genus"

    def test_missing_field(self):
        with pytest.raises(TypeError):
            LatticeWitness()
        with pytest.raises(TypeError):
            HVec(1)
