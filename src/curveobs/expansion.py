"""Degree-2 data of the built-in expansion, the derivation attached to a word,
and the truncated twist automorphism.

Only the degree <= 2 coefficients of the expansion are pinned down by the
generator values of ell; degree-3 coefficients are unknown and tensors built
from them carry known_degree = 2. The derivation datum L(a) is exact through
degree 3, which is all the twist formula needs for exact degree <= 2 output.
"""

from __future__ import annotations

from fractions import Fraction

from .ell import ell
from .homology import abelianize
from .tensor import TruncTensor, cyclic_N, derive
from .wedge import embed2
from .words import Word

EXPANSION_NAME = "theta0"

# exp(-L) on a degree <= 3 truncation: each derivation application either keeps
# or raises degree and is nilpotent degreewise, so this bound is generous.
_MAX_EXP_ITER = 64


def theta0(w: Word, maxdeg: int = 3) -> TruncTensor:
    """Expansion of a word: 1 + |w| + (embedded ell(w) + 1/2 |w||w|), exact
    through degree 2; any degree-3 slot is marked unknown, never silently 0."""
    if maxdeg < 2:
        raise ValueError("expansion needs degree bound >= 2")
    h = TruncTensor.from_hvec(abelianize(w), maxdeg)
    out = (TruncTensor.one(w.genus, maxdeg)
           + h
           + embed2(ell(w), maxdeg)
           + (h * h).scale(Fraction(1, 2)))
    return TruncTensor(w.genus, maxdeg, out.terms,
                       known_degree=min(2, maxdeg))


def L_theta(a: Word, maxdeg: int = 3) -> TruncTensor:
    """Derivation datum of the twist along a: (1/2) N(l l) for l = |a| +
    embedded ell(a). Exact at degrees 2 and 3; degree 4 needs unknown data."""
    if maxdeg > 3:
        raise ValueError("degrees above 3 need unknown expansion data")
    if maxdeg < 2:
        raise ValueError("degree bound must be >= 2")
    l = TruncTensor.from_hvec(abelianize(a), maxdeg) + embed2(ell(a), maxdeg)
    return cyclic_N(l * l).scale(Fraction(1, 2))


def johnson_twist(a: Word, u: TruncTensor) -> TruncTensor:
    """Apply the truncated twist automorphism exp(-L(a)) to u.

    Output coefficients are exact through degree min(2, u.known_degree);
    higher degrees would need unknown expansion data and are flagged.
    """
    L = L_theta(a, 3)
    out = u
    term = u
    sign = 1
    fact = 1
    for k in range(1, _MAX_EXP_ITER + 1):
        term = derive(L, term)
        if term.is_zero():
            break
        sign = -sign
        fact *= k
        out = out + term.scale(Fraction(sign, fact))
    else:
        raise AssertionError("twist exponential failed to terminate")
    return TruncTensor(u.genus, u.maxdeg, out.terms,
                       known_degree=min(2, u.known_degree))
