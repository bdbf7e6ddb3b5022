"""Reference algebra: the slow, direct forms the tests and `selftest` hold
the production path against. No subcommand but `selftest` loads this module.

Degree-3 exterior elements and the actions of degree 2 and 3 on homology,
the symplectic form, the embeddings of exterior elements as tensors, and the
cyclic and derivation operators on tensors that `expansion` builds in one
pass.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import HVec, basis_pairing, mate
from .tensor import TruncTensor, _images, _leibniz
from .wedge import Wedge2, _Alternating, wedge
from .words import check_genus


class Wedge3(_Alternating):
    """Degree-3 elements X^Y^Z, built by `wedge3`, acted on by `act3`."""


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
    Truncation follows u; h may carry a higher degree bound. `_images(h)`
    builds h's index of images; `_leibniz` applies them.
    """
    images = _images(h)
    check_genus(h, u)
    return TruncTensor._make(u.genus, u.maxdeg,
                             _leibniz(u.nums, u.maxdeg, images), h.den * u.den)
