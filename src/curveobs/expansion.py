"""Degree-2 data of the built-in expansion, the derivation attached to a word,
and the truncated twist automorphism.

Only the degree <= 2 coefficients of the expansion are pinned down by the
generator values of ell, so theta0 is built at degree bound 2. The derivation
datum L(a) is exact through degree 3, which is all the twist formula needs for
exact degree <= 2 output.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import HVec
from .tensor import TruncTensor, _derivation, cyclic_N
from .wedge import Wedge2, embed2

EXPANSION_NAME = "theta0"

# exp(-L) on a degree <= 2 truncation: each derivation application either keeps
# or raises degree and is nilpotent degreewise, so this bound is generous.
_MAX_EXP_ITER = 64


def theta0(abs_w: HVec, ell_w: Wedge2) -> TruncTensor:
    """Expansion of a word w through degree 2, where it is exact, from its
    class |w| and ell(w): 1 + |w| + (embedded ell(w) + 1/2 |w||w|)."""
    h = TruncTensor.from_hvec(abs_w, 2)
    return (TruncTensor.one(abs_w.genus, 2)
            + h
            + embed2(ell_w, 2)
            + (h * h).scale(Fraction(1, 2)))


def L_theta(abs_a: HVec, ell_a: Wedge2) -> TruncTensor:
    """Derivation datum of the twist along a word a, through degree 3, from
    its class h = |a| and e = embedded ell(a): (1/2) N(l l) for l = h + e,
    which is h h + N(h e) through degree 3, as l l = h h + h e + e h + (degree
    4), (1/2) N(h h) = h h, and N(e h) = N(h e): both sum the same three
    rotations of each term. Degree 4 would need unknown data."""
    h = TruncTensor.from_hvec(abs_a, 3)
    return h * h + cyclic_N(h * embed2(ell_a, 3))


def johnson_twist(L: TruncTensor, u: TruncTensor) -> TruncTensor:
    """Apply the truncated twist automorphism exp(-L) to u, for the
    derivation datum L = L_theta(|a|, ell(a)) of the twist along a.

    u is cut to degree <= 2 first: the output is exact only that far, and
    derivation by L never lowers degree, so higher terms of u cannot reach it.
    """
    D = min(2, u.maxdeg)
    apply_L = _derivation(L)
    out = term = TruncTensor._make(
        u.genus, D, {s: c for s, c in u.nums.items() if len(s) <= D}, u.den)
    # term_k = (-L)^k(u) / k!, with L's derivation index built once
    for k in range(1, _MAX_EXP_ITER + 1):
        term = apply_L(term).scale(Fraction(-1, k))
        if term.is_zero():
            break
        out = out + term
    else:
        raise AssertionError("twist exponential failed to terminate")
    return out
