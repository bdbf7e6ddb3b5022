"""Exterior powers of the homology: degree 2 and 3, their tensor embeddings,
and their actions on homology vectors."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .homology import HVec, basis_label, basis_pairing, format_terms, mate
from .tensor import TruncTensor
from .words import _Record, _set, check_genus


def _normalize(items) -> dict[tuple[int, ...], Fraction]:
    """Sum (index tuple, coeff) items over sorted index tuples, each term
    signed by its sorting permutation; tuples with a repeated index vanish."""
    out: dict[tuple[int, ...], Fraction] = {}
    for key, c in items:
        ordered = tuple(sorted(key))
        if len(set(ordered)) < len(ordered):
            continue
        if sum(p > q for p, q in combinations(key, 2)) % 2:
            c = -c
        # not out.get(ordered, 0) + c: int + Fraction takes a slow path
        out[ordered] = out[ordered] + c if ordered in out else c
    return {k: c for k, c in out.items() if c}


class _Alternating(_Record):
    """An element of an exterior power of homology: sorted index tuples
    (strictly increasing basis indices) mapped to nonzero rationals."""
    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms: dict[tuple[int, ...], Fraction]):
        _set(self, "genus", genus)
        _set(self, "terms", terms)

    @classmethod
    def make(cls, genus: int, items):
        return cls(genus, _normalize((k, Fraction(c)) for k, c in items))

    @classmethod
    def zero(cls, genus: int):
        return cls(genus, {})

    def __add__(self, other):
        check_genus(self, other)
        return self.make(self.genus, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return self.make(self.genus, [(k, c * v) for k, v in self.terms.items()])

    def is_zero(self) -> bool:
        return not self.terms


class Wedge2(_Alternating):
    def to_json(self) -> list[dict[str, str]]:
        items = [
            {"basis": f"{basis_label(i)}^{basis_label(j)}", "coeff": str(c)}
            for (i, j), c in self.terms.items()
        ]
        return sorted(items, key=lambda t: t["basis"])

    def __str__(self) -> str:
        return format_terms((f"{basis_label(i)}^{basis_label(j)}", c)
                            for (i, j), c in sorted(self.terms.items()))


class Wedge3(_Alternating):
    """Degree-3 elements X^Y^Z, built by `wedge3`, acted on by `act3`."""


def wedge(u: HVec, v: HVec) -> Wedge2:
    check_genus(u, v)
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
    check_genus(w, z)
    out = [Fraction(0)] * (2 * w.genus)
    for (i, j), c in w.terms.items():
        out[j] += c * _pair_with_basis(z, i)
        out[i] -= c * _pair_with_basis(z, j)
    return HVec(w.genus, tuple(out))


def wedge3(u: HVec, w: Wedge2) -> Wedge3:
    check_genus(u, w)
    items = []
    for i, a in enumerate(u.coords):
        if a == 0:
            continue
        for (j, k), c in w.terms.items():
            items.append(((i, j, k), a * c))
    return Wedge3.make(u.genus, items)


def act3(t: Wedge3, z: HVec) -> Wedge2:
    """(X^u)(Z) = (Z.X)u - X^(u(Z)) for u in degree two, extended linearly."""
    check_genus(t, z)
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
    if genus < 1:
        raise ValueError("genus must be >= 1")
    return Wedge2.make(genus, [((2 * j, 2 * j + 1), 1) for j in range(genus)])


def embed2(w: Wedge2, maxdeg: int = 3) -> TruncTensor:
    """X^Y -> XY - YX."""
    return TruncTensor._from_rationals(w.genus, maxdeg, [
        t for (i, j), c in w.terms.items() for t in (((i, j), c), ((j, i), -c))])


def embed3(t: Wedge3) -> TruncTensor:
    """X^Y^Z -> XYZ + YZX + ZXY - XZY - ZYX - YXZ."""
    return TruncTensor._from_rationals(t.genus, 3, [
        (seq, sign * c) for (i, j, k), c in t.terms.items()
        for seq, sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                          ((i, k, j), -1), ((k, j, i), -1), ((j, i, k), -1))])
