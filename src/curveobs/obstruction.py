"""Verdict engine: assemble homology classes, the degree-2 invariant, the
obstruction vector and the lattice decision into an auditable report, plus the
twist cross-check that validates the machinery on concrete inputs.

The verdict is one-sided: a fired obstruction certifies positive geometric
intersection, but membership never certifies zero intersection.
"""

from __future__ import annotations

import json

from .ell import _twice_v, ell, obstruction_vector
from .homology import (HVec, LatticeWitness, Wedge2, _pairing, abelianize,
                       intersection, lattice_member)
from .words import Word, _Record, _set, check_genus, format_word

VERDICT_HOMOLOGICAL = "certified_positive_homological"
VERDICT_THEOREM = "certified_positive_theorem"
VERDICT_INCONCLUSIVE = "inconclusive"

# the one denominator of both sides `twist_consistency` returns
TWIST_DEN = 32


class Report(_Record):
    __slots__ = ("genus", "a", "b", "abs_a", "abs_b", "i_A", "ell_a", "ell_b",
                 "v", "lattice", "verdict")
    # the expansion the twist cross-check builds (`reference.theta0`), named
    # in every report
    expansion = "theta0"
    disclaimer = (
        "inputs are trusted to represent simple closed curves; for other "
        "words the algebra still runs but the verdict has no geometric "
        "meaning"
    )

    def __init__(self, genus: int, a: str, b: str, abs_a: HVec, abs_b: HVec,
                 i_A: int, ell_a: Wedge2, ell_b: Wedge2, v: HVec | None,
                 lattice: LatticeWitness | None, verdict: str):
        for name, value in zip(self.__slots__, (genus, a, b, abs_a, abs_b, i_A,
                                                ell_a, ell_b, v, lattice, verdict)):
            _set(self, name, value)

    def to_json(self) -> str:
        return json.dumps({
            "genus": self.genus,
            "a": self.a,
            "b": self.b,
            "abs": {"a": self.abs_a.to_json(), "b": self.abs_b.to_json()},
            "iA": self.i_A,
            "ell": {"a": self.ell_a.to_json(), "b": self.ell_b.to_json()},
            "obstruction": self.v.to_json() if self.v is not None else None,
            "lattice": self.lattice.to_json() if self.lattice is not None else None,
            "verdict": self.verdict,
            "expansion": self.expansion,
            "disclaimer": self.disclaimer,
        })

    def to_text(self) -> str:
        lines = [
            f"genus      : {self.genus}",
            f"a          : {self.a}",
            f"b          : {self.b}",
            f"|a|        : {self.abs_a}",
            f"|b|        : {self.abs_b}",
            f"i_A        : {self.i_A}",
            f"ell(a)     : {self.ell_a}",
            f"ell(b)     : {self.ell_b}",
        ]
        if self.v is not None:
            lines.append(f"v = ell(a)|b| + ell(b)|a| : {self.v}")
            if self.lattice is None:
                raise AssertionError("obstruction vector without a lattice decision")
            if self.lattice.member:
                lines.append(
                    f"lattice    : v = {self.lattice.m}*|a| + {self.lattice.n}*|b|"
                    " (member of Z|a| + Z|b|)"
                )
            else:
                lines.append("lattice    : v is NOT in Z|a| + Z|b|")
        lines.append(f"verdict    : {self.verdict}")
        lines.append(f"expansion  : {self.expansion}")
        lines.append(f"note       : {self.disclaimer}")
        return "\n".join(lines)


def analyze(genus: int, a: Word, b: Word) -> Report:
    check_genus(genus, a, b)
    abs_a = abelianize(a)
    abs_b = abelianize(b)
    i_a = intersection(abs_a, abs_b)
    ell_a = ell(a)
    ell_b = ell(b)
    if i_a != 0:
        v = None
        witness = None
        verdict = VERDICT_HOMOLOGICAL
    else:
        v = obstruction_vector(a, b)
        witness = lattice_member(v, abs_a, abs_b)
        verdict = VERDICT_INCONCLUSIVE if witness.member else VERDICT_THEOREM
    return Report(
        genus=genus,
        a=format_word(a),
        b=format_word(b),
        abs_a=abs_a,
        abs_b=abs_b,
        i_A=i_a,
        ell_a=ell_a,
        ell_b=ell_b,
        v=v,
        lattice=witness,
        verdict=verdict,
    )


def twist_consistency(genus: int, a: Word, b: Word) -> tuple:
    """Compare the degree-2 change of b's expansion under the twist along a
    (derivation-exponential path) against the closed form |a| ^ v, as the
    commutator |a| v - v |a|, from letter counts and without a report. The
    twisted side reads ell(a) and ell(b) as int numerators over 2; the closed
    form reads 2v off the letters (`ell._twice_v`) and not ell, so the sides
    agree only if ell gives v up to a multiple of |a|.
    At i_A = 0 the twist is one application of the derivation of L(a), in
    contraction form (see `expansion`).

    Returns (equal, twisted side, closed-form side), each side a
    {sequence: int} dict of the numerators over `TWIST_DEN` = 32 of its
    nonzero degree-2 coefficients, sequence a pair of basis indices; expected
    always equal.
    """
    check_genus(genus, a, b)
    # the twist path loads on demand: analyze does not need it
    from .expansion import _minus_D, _theta0_nums, bracket
    za, zb = abelianize(a).coords, abelianize(b).coords
    if _pairing(za, zb):
        raise ValueError("twist cross-check requires algebraic intersection 0")
    # ell takes values in 1/2 Z, so its numerators over 2 are ints, and the
    # cores take |a| and |b| over 2 too
    ea, eb = ([(i, j, c.numerator * (2 // c.denominator))
               for (i, j), c in ell(w).terms.items()] for w in (a, b))
    ha, hb = ([(i, 2 * p) for i, p in enumerate(z) if p] for z in (za, zb))
    # theta0(b) is over 2 2 2 and -D adds 2 2: the twisted side is over 32;
    # v is over 2, so |a| over 1 times 16 v puts the closed form over 32
    lhs = _minus_D(ha, ea, _theta0_nums(hb, eb, 2))
    rhs = bracket(za, [16 * x for x in _twice_v(a, za, b, zb)])
    return lhs == rhs, lhs, rhs
