"""Degree-truncated completed tensor algebra over the homology basis.

Elements are sparse maps from basis-index sequences (tuples over 0..2g-1) to
exact rational coefficients, stored as int numerators over one shared positive
denominator in lowest terms (gcd of the denominator and every numerator is 1),
so every operation runs on ints. Fractions appear only where coefficients
enter or leave: the constructor, `coeff`, `constant` and the `terms` view.
Every operation discards terms above the degree bound. Every stored
coefficient is exact: a tensor whose higher coefficients are not known is built
at a lower degree bound instead.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .homology import HVec, basis_pairing, mate
from .words import check_genus


def _degree(item) -> int:
    """Sort key of a (sequence, coefficient) item: its degree."""
    return len(item[0])


class TruncTensor:
    __slots__ = ("genus", "maxdeg", "nums", "den")

    def __init__(self, genus: int, maxdeg: int = 3,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if maxdeg < 1:
            raise ValueError("degree bound must be >= 1")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = 2 * genus
            for seq, c in terms.items():
                if len(seq) > maxdeg:
                    continue
                if any(not 0 <= i < n for i in seq):
                    raise ValueError(f"basis index out of range in {seq}")
                c = Fraction(c)
                if c != 0:
                    clean[tuple(seq)] = c
        # already in lowest terms: every c is, and den is the lcm of their
        # denominators, so no prime divides den and every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        self.genus = genus
        self.maxdeg = maxdeg
        self.nums = {s: c.numerator * (den // c.denominator)
                     for s, c in clean.items()}
        self.den = den

    @classmethod
    def _make(cls, genus: int, maxdeg: int, nums: dict[tuple[int, ...], int],
              den: int) -> "TruncTensor":
        """Canonical form of int numerators over den > 0: zeros dropped and
        the common factor of den and the numerators divided out."""
        nums = {s: c for s, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {s: c // g for s, c in nums.items()}
            den //= g
        t = object.__new__(cls)
        t.genus, t.maxdeg, t.nums, t.den = genus, maxdeg, nums, den
        return t

    # --- constructors --------------------------------------------------------

    @classmethod
    def one(cls, genus: int, maxdeg: int = 3) -> "TruncTensor":
        return cls(genus, maxdeg, {(): Fraction(1)})

    @classmethod
    def from_hvec(cls, v: HVec, maxdeg: int = 3) -> "TruncTensor":
        return cls(v.genus, maxdeg,
                   {(k,): c for k, c in enumerate(v.coords) if c != 0})

    # --- basics --------------------------------------------------------------

    def _check(self, other: "TruncTensor"):
        check_genus(self, other)
        if self.maxdeg != other.maxdeg:
            raise ValueError(f"degree-bound mismatch: {self.maxdeg} vs {other.maxdeg}")

    @property
    def terms(self) -> "RationalTerms":
        """The coefficients as Fractions, a read-only view."""
        return RationalTerms(self)

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, seq) -> Fraction:
        return Fraction(self.nums.get(tuple(seq), 0), self.den)

    def constant(self) -> Fraction:
        return self.coeff(())

    def degree_part(self, k: int) -> "TruncTensor":
        return TruncTensor._make(
            self.genus, self.maxdeg,
            {s: c for s, c in self.nums.items() if len(s) == k}, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncTensor):
            return NotImplemented
        return (self.genus == other.genus and self.maxdeg == other.maxdeg
                and self.den == other.den and self.nums == other.nums)

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
                f"terms={dict(self.terms)!r})")


class RationalTerms(Mapping):
    """Read-only view of a tensor's coefficients as Fractions, by sequence;
    each coefficient is converted when it is read."""
    __slots__ = ("_t",)

    def __init__(self, t: TruncTensor):
        self._t = t

    def __getitem__(self, seq) -> Fraction:
        return Fraction(self._t.nums[seq], self._t.den)

    def __iter__(self):
        return iter(self._t.nums)

    def __len__(self) -> int:
        return len(self._t.nums)


def cyclic_N(u: TruncTensor) -> TruncTensor:
    """Sum of all cyclic rotations degreewise; kills constants."""
    out: dict[tuple[int, ...], int] = {}
    for s, c in u.nums.items():
        for j in range(len(s)):
            t = s[j:] + s[:j]
            out[t] = out.get(t, 0) + c
    return TruncTensor._make(u.genus, u.maxdeg, out, u.den)


def derive(h: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the derivation attached to h (degree >= 1 terms only) to u.

    h acts on a single homology factor Y by contracting the first factor:
    (X1...Xk)(Y) = (Y.X1) X2...Xk, and extends to u by the Leibniz rule.
    Truncation follows u; h may carry a higher degree bound.
    """
    check_genus(h, u)
    if () in h.nums:
        raise ValueError("derivation datum must have zero constant term")
    # images[y]: the derivation's value on the factor y, as (tail, numerator)
    # pairs, shortest tail first; only terms whose first factor is y's
    # symplectic mate pair nonzero
    images: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for hs, hc in sorted(h.nums.items(), key=_degree):
        y = mate(hs[0])
        images.setdefault(y, []).append((hs[1:], hc * basis_pairing(y, hs[0])))
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
