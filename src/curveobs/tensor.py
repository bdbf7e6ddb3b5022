"""Degree-truncated completed tensor algebra over the homology basis.

Elements are sparse maps from basis-index sequences (tuples over 0..2g-1) to
exact rational coefficients, stored as int numerators over one shared positive
denominator in lowest terms (gcd of the denominator and every numerator is 1),
so every operation runs on ints. Fractions appear only where coefficients
enter or leave: the one validating constructor, `TruncTensor(genus, maxdeg,
{sequence: Fraction})`, reads their numerators and denominators, and `coeff`
and `terms` (a new {sequence: Fraction} dict) build them.
Every operation discards terms above the degree bound. Every stored
coefficient is exact: a tensor whose higher coefficients are not known is built
at a lower degree bound instead.

This module holds the ring operations. The cyclic and derivation operators
are in `reference`, in their defining forms; `expansion` builds what the
twist cross-check needs as plain int numerator dicts, without this module.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .homology import HVec
from .words import check_genus


def _degree(item) -> int:
    """Sort key of a (sequence, coefficient) item: its degree."""
    return len(item[0])


class TruncTensor:
    __slots__ = ("genus", "maxdeg", "nums", "den")

    def __init__(self, genus: int, maxdeg: int = 3,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        """The tensor of {sequence: rational} terms: checks maxdeg >= 1, cuts
        longer terms, and rejects an index outside 0..2g-1."""
        if maxdeg < 1:
            raise ValueError("degree bound must be >= 1")
        kept = {tuple(s): Fraction(c) for s, c in (terms or {}).items()
                if len(s) <= maxdeg}
        for s in kept:
            if not all(0 <= i < 2 * genus for i in s):
                raise ValueError(f"basis index out of range in {s}")
        # den is an lcm of reduced denominators, so each prime of den leaves
        # some term's numerator over den undivided: the form is canonical
        den = lcm(*(c.denominator for c in kept.values()))
        self.genus, self.maxdeg, self.den = genus, maxdeg, den
        self.nums = {s: c.numerator * (den // c.denominator)
                     for s, c in kept.items() if c}

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
        return cls(genus, maxdeg, {(): 1})

    @classmethod
    def from_hvec(cls, v: HVec, maxdeg: int = 3) -> "TruncTensor":
        return cls(v.genus, maxdeg, {(k,): c for k, c in enumerate(v.coords)})

    # --- basics --------------------------------------------------------------

    def _check(self, other: "TruncTensor"):
        check_genus(self, other)
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
                f"terms={self.terms!r})")
