"""Reference algebra: the slow, direct forms the tests and `selftest` hold
the production path against. No subcommand but `selftest` loads this module.

`TruncTensor` is the degree-truncated completed tensor algebra over the
homology basis: sparse maps from basis-index sequences (tuples over 0..2g-1)
to exact rationals, stored as int numerators over one shared positive
denominator in lowest terms, so every operation runs on ints; this module
alone reads that format. Fractions enter only through the validating
constructor, `TruncTensor(genus, maxdeg, {sequence: Fraction})`, and leave
only through `coeff` and `terms`. Every operation discards terms above the
degree bound; a tensor whose higher coefficients are not known is built at
a lower degree bound instead, so every stored coefficient is exact.

Each in its defining form: `wedge` and degree-3 exterior elements, their
actions on homology, the symplectic form, the embeddings of exterior
elements as tensors, the cyclic and derivation operators, the expansion
`theta0`, the twist derivation `L_theta` and the twist automorphism
`johnson_twist`, which sums the whole exponential series at any degree
bound. `ell_by_theta0` reads ell off a product of `theta0`s, the oracle the
`ell` fold is held against. `expansion` builds theta0 and the twist as int
numerators, the twist as one derivation step without building L, which
holds at i_A = 0 only;
`twist_tensors` puts the sides `twist_consistency` compares in tensor form.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .homology import HVec, Wedge2, _Alternating, basis_pairing, mate
from .obstruction import TWIST_DEN, twist_consistency
from .words import _Record, _set, check_genus

# exp(-L) on a degree <= 2 truncation: each derivation application either keeps
# or raises degree and is nilpotent degreewise, so this bound is generous.
_MAX_EXP_ITER = 64


def _degree(item) -> int:
    """Sort key of a (sequence, coefficient) item: its degree."""
    return len(item[0])


def check_indices(genus: int, keys):
    """Raise ValueError naming the first index tuple of keys with a basis
    index outside 0..2g-1; `act2` and the `TruncTensor` constructor run it,
    and `Wedge2.make` does not, as the `ell` fold builds only valid indices.
    One pass gathers the indices; the keys are scanned only to name a bad
    one."""
    n = 2 * genus
    used = set(chain.from_iterable(keys))
    if used and (min(used) < 0 or max(used) >= n):
        for key in keys:
            if not all(0 <= i < n for i in key):
                raise ValueError(f"basis index out of range in {key}")


class TruncTensor(_Record):
    __slots__ = ("genus", "maxdeg", "nums", "den")

    def __init__(self, genus: int, maxdeg: int = 3,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        """The tensor of {sequence: rational} terms: checks maxdeg >= 1, cuts
        longer terms, and rejects an index outside 0..2g-1."""
        if maxdeg < 1:
            raise ValueError("degree bound must be >= 1")
        kept = {tuple(s): Fraction(c) for s, c in (terms or {}).items()
                if len(s) <= maxdeg}
        check_indices(genus, kept)
        den = lcm(*(c.denominator for c in kept.values()))
        self._fill(genus, maxdeg, {s: c.numerator * (den // c.denominator)
                                   for s, c in kept.items()}, den)

    @classmethod
    def _make(cls, genus: int, maxdeg: int, nums: dict[tuple[int, ...], int],
              den: int) -> "TruncTensor":
        """The tensor of int numerators over den > 0, unchecked."""
        return object.__new__(cls)._fill(genus, maxdeg, nums, den)

    def _fill(self, genus, maxdeg, nums, den):
        """Set the fields to the canonical form of int numerators over den > 0,
        zeros dropped and the common factor divided out, and return self."""
        nums = {s: c for s, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {s: c // g for s, c in nums.items()}
            den //= g
        for field, value in zip(self.__slots__, (genus, maxdeg, nums, den)):
            _set(self, field, value)
        return self

    def __reduce__(self):
        """(`_make`, field values): copies rebuild from the int fields."""
        return TruncTensor._make, (self.genus, self.maxdeg, self.nums, self.den)

    @classmethod
    def one(cls, genus: int, maxdeg: int = 3) -> "TruncTensor":
        return cls(genus, maxdeg, {(): 1})

    @classmethod
    def from_hvec(cls, v: HVec, maxdeg: int = 3) -> "TruncTensor":
        return cls(v.genus, maxdeg, {(k,): c for k, c in enumerate(v.coords)})

    def _check(self, other: "TruncTensor"):
        check_genus(self.genus, other)
        if self.maxdeg != other.maxdeg:
            raise ValueError(f"degree-bound mismatch: {self.maxdeg} vs {other.maxdeg}")

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions, by sequence, in a new dict."""
        return {s: Fraction(c, self.den) for s, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, seq) -> Fraction:
        return Fraction(self.nums.get(tuple(seq), 0), self.den)

    def degree_part(self, k: int) -> "TruncTensor":
        return TruncTensor._make(
            self.genus, self.maxdeg,
            {s: c for s, c in self.nums.items() if len(s) == k}, self.den)

    def __add__(self, other: "TruncTensor") -> "TruncTensor":
        self._check(other)
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = {s: c * m1 for s, c in self.nums.items()}
        for s, c in other.nums.items():
            out[s] = out.get(s, 0) + c * m2
        return TruncTensor._make(self.genus, self.maxdeg, out, den)

    def __sub__(self, other: "TruncTensor") -> "TruncTensor":
        return self + (-other)

    def __neg__(self) -> "TruncTensor":
        return self.scale(-1)

    def scale(self, c) -> "TruncTensor":
        c = Fraction(c)
        p = c.numerator
        return TruncTensor._make(self.genus, self.maxdeg,
                                 {s: p * v for s, v in self.nums.items()},
                                 self.den * c.denominator)

    def __mul__(self, other: "TruncTensor") -> "TruncTensor":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        D = self.maxdeg
        right = sorted(other.nums.items(), key=_degree)
        for s1, c1 in self.nums.items():
            room = D - len(s1)
            for s2, c2 in right:
                if len(s2) > room:
                    break
                s = s1 + s2
                out[s] = out.get(s, 0) + c1 * c2
        return TruncTensor._make(self.genus, D, out, self.den * other.den)

    def __repr__(self):
        return (f"TruncTensor(genus={self.genus}, maxdeg={self.maxdeg}, "
                f"terms={self.terms!r})")


class Wedge3(_Alternating):
    """Degree-3 elements X^Y^Z, built by `wedge3`, acted on by `act3`."""


def wedge(u: HVec, v: HVec) -> Wedge2:
    check_genus(u.genus, v)
    items = []
    for i, a in enumerate(u.coords):
        if a == 0:
            continue
        for j, b in enumerate(v.coords):
            if b == 0:
                continue
            items.append(((i, j), a * b))
    return Wedge2.make(u.genus, items)


def act2(w: Wedge2, z: HVec) -> HVec:
    """(X^Y)(Z) = (Z.X)Y - (Z.Y)X, extended bilinearly."""
    check_genus(w.genus, z)
    check_indices(w.genus, w.terms)
    out = [Fraction(0)] * (2 * w.genus)
    for (i, j), c in w.terms.items():
        out[j] += c * _pair_with_basis(z, i)
        out[i] -= c * _pair_with_basis(z, j)
    return HVec(w.genus, tuple(out))


def wedge3(u: HVec, w: Wedge2) -> Wedge3:
    check_genus(u.genus, w)
    items = []
    for i, a in enumerate(u.coords):
        if a == 0:
            continue
        for (j, k), c in w.terms.items():
            items.append(((i, j, k), a * c))
    return Wedge3.make(u.genus, items)


def act3(t: Wedge3, z: HVec) -> Wedge2:
    """(X^u)(Z) = (Z.X)u - X^(u(Z)) for u in degree two, extended linearly."""
    check_genus(t.genus, z)
    out = Wedge2.zero(t.genus)
    for (i, j, k), c in t.terms.items():
        pair = Wedge2.make(t.genus, [((j, k), c)])
        out = out + pair.scale(_pair_with_basis(z, i))
        acted = act2(pair, z)
        out = out - wedge(HVec.basis(t.genus, i), acted)
    return out


def _pair_with_basis(z: HVec, i: int) -> Fraction:
    """z . e_i over the symplectic pairing."""
    m = mate(i)
    return z.coords[m] * basis_pairing(m, i)


def omega(genus: int) -> Wedge2:
    """Sum of X_j ^ Y_j; the image of the boundary class."""
    check_genus(genus)
    return Wedge2.make(genus, [((2 * j, 2 * j + 1), 1) for j in range(genus)])


def embed2(w: Wedge2, maxdeg: int = 3) -> TruncTensor:
    """X^Y -> XY - YX."""
    return TruncTensor(w.genus, maxdeg, {
        **w.terms, **{(j, i): -c for (i, j), c in w.terms.items()}})


def embed3(t: Wedge3) -> TruncTensor:
    """X^Y^Z -> XYZ + YZX + ZXY - XZY - ZYX - YXZ."""
    return TruncTensor(t.genus, 3, {
        seq: sign * c for (i, j, k), c in t.terms.items()
        for seq, sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                          ((i, k, j), -1), ((k, j, i), -1), ((j, i, k), -1))})


def cyclic_N(u: TruncTensor) -> TruncTensor:
    """Sum of all cyclic rotations degreewise; kills constants."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in u.nums.items():
        for j in range(len(s)):
            t = s[j:] + s[:j]
            out[t] = out.get(t, 0) + c
    return TruncTensor._make(u.genus, u.maxdeg, out, u.den)


def _derivation(h: TruncTensor):
    """The derivation attached to h (degree >= 1 terms only), as a function
    of the tensor u it applies to.

    h acts on a single homology factor Y by contracting the first factor:
    (X1...Xk)(Y) = (Y.X1) X2...Xk, and extends to u by the Leibniz rule.
    Truncation follows u; h may carry a higher degree bound.

    Only the terms of h whose first factor X is Y's symplectic mate pair
    nonzero, with (Y.X) = +-1, so h is grouped by that mate once, here;
    each group is sorted shortest tail first, and a scan stops at the first
    tail that does not fit.
    """
    if () in h.nums:
        raise ValueError("derivation datum must have zero constant term")
    images: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for s, c in h.nums.items():
        y = mate(s[0])
        images.setdefault(y, []).append((s[1:], basis_pairing(y, s[0]) * c))
    for tails in images.values():
        tails.sort(key=_degree)

    def apply(u: TruncTensor) -> TruncTensor:
        check_genus(h.genus, u)
        D = u.maxdeg
        out: dict[tuple[int, ...], int] = {}
        for s, c in u.nums.items():
            room = D - len(s) + 1
            for p, y in enumerate(s):
                for tail, hc in images.get(y, ()):
                    if len(tail) > room:
                        break
                    t = s[:p] + tail + s[p + 1:]
                    out[t] = out.get(t, 0) + c * hc
        return TruncTensor._make(u.genus, D, out, h.den * u.den)
    return apply


def derive(h: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the derivation attached to h to u (see `_derivation`)."""
    return _derivation(h)(u)


def theta0(abs_w: HVec, ell_w: Wedge2) -> TruncTensor:
    """Expansion of a word w through degree 2, where it is exact, from its
    class h = |w| and ell(w): 1 + h + embedded ell(w) + (1/2) h h."""
    h = TruncTensor.from_hvec(abs_w, 2)
    return (TruncTensor.one(abs_w.genus, 2) + h + embed2(ell_w, 2)
            + (h * h).scale(Fraction(1, 2)))


def ell_by_theta0(genus: int, letters) -> Wedge2:
    """ell of a letter sequence, reduced or not, by another road than the
    `ell` fold: the product of the letters' `theta0` tensors, whose degree-2
    part is embedded ell plus 1/2 h h, for h the class of the sequence. The
    generator values are x_j -> 1/2 X_j^Y_j and y_j -> -1/2 X_j^Y_j, and an
    inverse flips the sign. As `embed2` sends X^Y to XY - YX and h h is
    symmetric, the coefficient of X_i^X_j is half the difference of the
    coefficients of X_i X_j and X_j X_i."""
    out = TruncTensor.one(genus, 2)
    for l in letters:
        k, s = abs(l) - 1, 1 if l > 0 else -1
        own = Wedge2(genus, {(k & ~1, k | 1): Fraction(-s if k & 1 else s, 2)})
        out = out * theta0(HVec.basis(genus, k).scale(s), own)
    n = 2 * genus
    return Wedge2(genus, {(i, j): c for i in range(n) for j in range(i + 1, n)
                          if (c := (out.coeff((i, j)) - out.coeff((j, i))) / 2)})


def L_theta(abs_a: HVec, ell_a: Wedge2) -> TruncTensor:
    """Derivation datum of the twist along a word a, through degree 3, from
    its class |a| and ell(a): (1/2) N(l l) for l = |a| + embedded ell(a).
    Degree 4 would need unknown data."""
    l = TruncTensor.from_hvec(abs_a, 3) + embed2(ell_a, 3)
    return cyclic_N(l * l).scale(Fraction(1, 2))


def johnson_twist(L: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the truncated twist automorphism exp(-D), the sum over k >= 0 of
    (-D)^k(u) / k!, for the derivation D attached to L = L_theta(|a|, ell(a)),
    with u cut to degree <= 2 first: the output is exact only that far, and
    D never lowers degree, so higher terms of u cannot reach it."""
    D = _derivation(L)
    out = term = TruncTensor(u.genus, min(2, u.maxdeg), u.terms)
    for k in range(1, _MAX_EXP_ITER + 1):
        term = D(term).scale(Fraction(-1, k))
        if term.is_zero():
            return out
        out = out + term
    raise AssertionError("twist exponential failed to terminate")


def twist_tensors(genus, a, b):
    """`twist_consistency(genus, a, b)` with each side as the degree-2
    `TruncTensor` its numerators over `TWIST_DEN` make."""
    ok, *sides = twist_consistency(genus, a, b)
    return (ok, *(TruncTensor._make(genus, 2, t, TWIST_DEN) for t in sides))
