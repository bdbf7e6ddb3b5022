"""Degree-truncated completed tensor algebra over the homology basis.

Elements are sparse maps from basis-index sequences (tuples over 0..2g-1) to
exact rationals; every operation discards terms above the degree bound. The
`known_degree` attribute records up to which degree the coefficients are
trusted: building blocks whose higher coefficients are simply not available
(the degree-3 part of the built-in expansion) lower it below the bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .homology import HVec, basis_pairing
from .words import check_genus


class TruncTensor:
    __slots__ = ("genus", "maxdeg", "terms", "known_degree")

    def __init__(self, genus: int, maxdeg: int = 3,
                 terms: Mapping[tuple[int, ...], Fraction] | None = None,
                 known_degree: int | None = None):
        if maxdeg < 1:
            raise ValueError("degree bound must be >= 1")
        self.genus = genus
        self.maxdeg = maxdeg
        self.known_degree = maxdeg if known_degree is None else min(known_degree, maxdeg)
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
    def zero(cls, genus: int, maxdeg: int = 3) -> "TruncTensor":
        return cls(genus, maxdeg)

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
                           {s: c for s, c in self.terms.items() if len(s) == k},
                           known_degree=self.known_degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncTensor):
            return NotImplemented
        return (self.genus == other.genus and self.maxdeg == other.maxdeg
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TruncTensor is not hashable")

    def __add__(self, other: "TruncTensor") -> "TruncTensor":
        self._check(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return TruncTensor(self.genus, self.maxdeg, out,
                           known_degree=min(self.known_degree, other.known_degree))

    def __sub__(self, other: "TruncTensor") -> "TruncTensor":
        return self + (-other)

    def __neg__(self) -> "TruncTensor":
        return self.scale(-1)

    def scale(self, c) -> "TruncTensor":
        c = Fraction(c)
        return TruncTensor(self.genus, self.maxdeg,
                           {s: c * v for s, v in self.terms.items()},
                           known_degree=self.known_degree)

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
        return TruncTensor(self.genus, D, out,
                           known_degree=min(self.known_degree, other.known_degree))

    def __repr__(self):
        return f"TruncTensor(genus={self.genus}, maxdeg={self.maxdeg}, terms={self.terms!r})"


def trunc_log(u: TruncTensor) -> TruncTensor:
    """log(1 + h) as the alternating power series, truncated."""
    if u.constant() != 1:
        raise ValueError("log requires constant term 1")
    h = u - TruncTensor.one(u.genus, u.maxdeg)
    out = TruncTensor.zero(u.genus, u.maxdeg)
    power = TruncTensor.one(u.genus, u.maxdeg)
    for k in range(1, u.maxdeg + 1):
        power = power * h
        out = out + power.scale(Fraction((-1) ** (k - 1), k))
    return out


def trunc_exp(u: TruncTensor) -> TruncTensor:
    """exp(h) for h with zero constant term, truncated."""
    if u.constant() != 0:
        raise ValueError("exp requires constant term 0")
    out = TruncTensor.one(u.genus, u.maxdeg)
    power = TruncTensor.one(u.genus, u.maxdeg)
    fact = 1
    for k in range(1, u.maxdeg + 1):
        power = power * u
        fact *= k
        out = out + power.scale(Fraction(1, fact))
    return out


def cyclic_nu(u: TruncTensor) -> TruncTensor:
    """Cyclic permutation: move the first tensor factor to the end."""
    out: dict[tuple[int, ...], Fraction] = {}
    for s, c in u.terms.items():
        t = s[1:] + s[:1]
        out[t] = out.get(t, Fraction(0)) + c
    return TruncTensor(u.genus, u.maxdeg, out, known_degree=u.known_degree)


def cyclic_N(u: TruncTensor) -> TruncTensor:
    """Sum of all cyclic rotations degreewise; kills constants."""
    out: dict[tuple[int, ...], Fraction] = {}
    for s, c in u.terms.items():
        if len(s) == 0:
            continue
        for j in range(len(s)):
            t = s[j:] + s[:j]
            out[t] = out.get(t, Fraction(0)) + c
    return TruncTensor(u.genus, u.maxdeg, out, known_degree=u.known_degree)


def derive(h: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the derivation attached to h (degree >= 1 terms only) to u.

    h acts on a single homology factor Y by contracting the first factor:
    (X1...Xk)(Y) = (Y.X1) X2...Xk, and extends to u by the Leibniz rule.
    Truncation follows u; h may carry a higher degree bound.
    """
    check_genus(h, u)
    if h.constant() != 0:
        raise ValueError("derivation datum must have zero constant term")
    D = u.maxdeg
    out: dict[tuple[int, ...], Fraction] = {}
    for s, c in u.terms.items():
        for p, y in enumerate(s):
            for hs, hc in h.terms.items():
                pairing = basis_pairing(y, hs[0])
                if pairing == 0:
                    continue
                t = s[:p] + hs[1:] + s[p + 1:]
                if len(t) > D:
                    continue
                out[t] = out.get(t, 0) + c * hc * pairing
    return TruncTensor(u.genus, D, out,
                       known_degree=min(h.known_degree, u.known_degree))
