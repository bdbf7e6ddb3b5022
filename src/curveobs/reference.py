"""Reference algebra: the slow, direct forms the tests and `selftest` hold
the production path against. No subcommand but `selftest` loads this module.

`wedge` and degree-3 exterior elements, the actions of degree 2 and 3 on
homology, the symplectic form, the embeddings of exterior elements as
tensors, the cyclic and derivation operators on tensors, the expansion
`theta0`, and the twist derivation `L_theta` with the twist automorphism
`johnson_twist`, each in its defining form. `expansion` builds theta0 and
the twist as int numerators, the twist without building L.
"""

from __future__ import annotations

from fractions import Fraction

from .expansion import _MAX_EXP_ITER
from .homology import HVec, basis_pairing, mate
from .tensor import TruncTensor, _degree
from .wedge import Wedge2, _Alternating, check_indices
from .words import check_genus


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
    check_indices(w)
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


def derive(h: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the derivation attached to h (degree >= 1 terms only) to u.

    h acts on a single homology factor Y by contracting the first factor:
    (X1...Xk)(Y) = (Y.X1) X2...Xk, and extends to u by the Leibniz rule.
    Truncation follows u; h may carry a higher degree bound.

    Only the terms of h whose first factor X is Y's symplectic mate pair
    nonzero, with (Y.X) = +-1, so h is grouped by that mate in one pass;
    each group is sorted shortest tail first, and a scan stops at the first
    tail that does not fit.
    """
    if () in h.nums:
        raise ValueError("derivation datum must have zero constant term")
    check_genus(h, u)
    images: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for s, c in h.nums.items():
        y = mate(s[0])
        images.setdefault(y, []).append((s[1:], basis_pairing(y, s[0]) * c))
    for tails in images.values():
        tails.sort(key=_degree)
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


def theta0(abs_w: HVec, ell_w: Wedge2) -> TruncTensor:
    """Expansion of a word w through degree 2, where it is exact, from its
    class h = |w| and ell(w): 1 + h + embedded ell(w) + (1/2) h h."""
    h = TruncTensor.from_hvec(abs_w, 2)
    return (TruncTensor.one(abs_w.genus, 2) + h + embed2(ell_w, 2)
            + (h * h).scale(Fraction(1, 2)))


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
    out = term = TruncTensor(u.genus, min(2, u.maxdeg), u.terms)
    for k in range(1, _MAX_EXP_ITER + 1):
        term = derive(L, term).scale(Fraction(-1, k))
        if term.is_zero():
            return out
        out = out + term
    raise AssertionError("twist exponential failed to terminate")
