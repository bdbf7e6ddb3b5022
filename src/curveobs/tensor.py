"""Degree-truncated completed tensor algebra over the homology basis.

Elements are sparse maps from basis-index sequences (tuples over 0..2g-1) to
exact rationals; every operation discards terms above the degree bound. Every
stored coefficient is exact: a tensor whose higher coefficients are not known
is built at a lower degree bound instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .homology import HVec, basis_pairing, mate
from .words import check_genus


class TruncTensor:
    __slots__ = ("genus", "maxdeg", "terms")

    def __init__(self, genus: int, maxdeg: int = 3,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if maxdeg < 1:
            raise ValueError("degree bound must be >= 1")
        self.genus = genus
        self.maxdeg = maxdeg
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
        self.terms = clean

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

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, seq) -> Fraction:
        return self.terms.get(tuple(seq), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def degree_part(self, k: int) -> "TruncTensor":
        return TruncTensor(self.genus, self.maxdeg,
                           {s: c for s, c in self.terms.items() if len(s) == k})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncTensor):
            return NotImplemented
        return (self.genus == other.genus and self.maxdeg == other.maxdeg
                and self.terms == other.terms)

    def __add__(self, other: "TruncTensor") -> "TruncTensor":
        self._check(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return TruncTensor(self.genus, self.maxdeg, out)

    def __sub__(self, other: "TruncTensor") -> "TruncTensor":
        return self + (-other)

    def __neg__(self) -> "TruncTensor":
        return self.scale(-1)

    def scale(self, c) -> "TruncTensor":
        c = Fraction(c)
        return TruncTensor(self.genus, self.maxdeg,
                           {s: c * v for s, v in self.terms.items()})

    def __mul__(self, other: "TruncTensor") -> "TruncTensor":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        D = self.maxdeg
        for s1, c1 in self.terms.items():
            room = D - len(s1)
            for s2, c2 in other.terms.items():
                if len(s2) > room:
                    continue
                s = s1 + s2
                out[s] = out.get(s, 0) + c1 * c2
        return TruncTensor(self.genus, D, out)

    def __repr__(self):
        return f"TruncTensor(genus={self.genus}, maxdeg={self.maxdeg}, terms={self.terms!r})"


def cyclic_N(u: TruncTensor) -> TruncTensor:
    """Sum of all cyclic rotations degreewise; kills constants."""
    out: dict[tuple[int, ...], Fraction] = {}
    for s, c in u.terms.items():
        for j in range(len(s)):
            t = s[j:] + s[:j]
            out[t] = out.get(t, Fraction(0)) + c
    return TruncTensor(u.genus, u.maxdeg, out)


def derive(h: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the derivation attached to h (degree >= 1 terms only) to u.

    h acts on a single homology factor Y by contracting the first factor:
    (X1...Xk)(Y) = (Y.X1) X2...Xk, and extends to u by the Leibniz rule.
    Truncation follows u; h may carry a higher degree bound.
    """
    check_genus(h, u)
    if h.constant() != 0:
        raise ValueError("derivation datum must have zero constant term")
    # images[y]: the derivation's value on the factor y, as (tail, coeff)
    # pairs; only terms whose first factor is y's symplectic mate pair nonzero
    images: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for hs, hc in h.terms.items():
        y = mate(hs[0])
        images.setdefault(y, []).append((hs[1:], hc * basis_pairing(y, hs[0])))
    D = u.maxdeg
    out: dict[tuple[int, ...], Fraction] = {}
    for s, c in u.terms.items():
        for p, y in enumerate(s):
            for tail, hc in images.get(y, ()):
                t = s[:p] + tail + s[p + 1:]
                if len(t) > D:
                    continue
                out[t] = out.get(t, 0) + c * hc
    return TruncTensor(u.genus, D, out)
