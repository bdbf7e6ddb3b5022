"""Verdict engine: assemble homology classes, the degree-2 invariant, the
obstruction vector and the lattice decision into an auditable report, plus the
twist cross-check that validates the machinery on concrete inputs.

The verdict is one-sided: a fired obstruction certifies positive geometric
intersection, but membership never certifies zero intersection.
"""

from __future__ import annotations

import json
from math import lcm

from .ell import _obstruction_numerators, ell, obstruction_vector
from .homology import (HVec, LatticeWitness, _letter_counts, _pairing,
                       abelianize, intersection, lattice_member)
from .wedge import Wedge2, _int_terms
from .words import Word, _Record, _set, format_word

VERDICT_HOMOLOGICAL = "certified_positive_homological"
VERDICT_THEOREM = "certified_positive_theorem"
VERDICT_INCONCLUSIVE = "inconclusive"

# the expansion `_theta0` builds (`reference.theta0`), named in every report
EXPANSION_NAME = "theta0"

DISCLAIMER = (
    "inputs are trusted to represent simple closed curves; for other words "
    "the algebra still runs but the verdict has no geometric meaning"
)


class Report(_Record):
    __slots__ = ("genus", "a", "b", "abs_a", "abs_b", "i_A", "ell_a", "ell_b",
                 "v", "lattice", "verdict")
    expansion = EXPANSION_NAME
    disclaimer = DISCLAIMER

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
    if a.genus != genus or b.genus != genus:
        raise ValueError("word genus does not match the requested genus")
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
        v = obstruction_vector(abs_a, ell_a, abs_b, ell_b)
        witness = lattice_member(v, abs_a, abs_b)
        verdict = VERDICT_INCONCLUSIVE if witness.member else VERDICT_THEOREM
    return Report(
        genus=genus,
        a=format_word(a),
        b=format_word(b),
        abs_a=abs_a,
        abs_b=abs_b,
        i_A=int(i_a),
        ell_a=ell_a,
        ell_b=ell_b,
        v=v,
        lattice=witness,
        verdict=verdict,
    )


def twist_consistency(genus: int, a: Word, b: Word) -> tuple:
    """Compare the degree-2 change of b's expansion under the twist along a
    (derivation-exponential path) against the closed form |a| ^ v, as the
    commutator |a| v - v |a|. Both sides come from one int datum, built
    without a report: |a| and |b| from letter counts, ell(a) and ell(b) from
    one `ell` call each, read as int numerators over one denominator, and v
    from the int core of `obstruction_vector`. The twist applies the
    derivation of L(a) in contraction form (see `expansion._twist`).

    Returns (equal, twisted side, closed-form side), the sides as degree-2
    `TruncTensor`s (the annotation leaves them out, as `analyze` loads no
    tensor code); expected always equal.
    """
    # the twist path loads on demand: analyze needs neither module
    from .expansion import _theta0, _twist, bracket
    if a.genus != genus or b.genus != genus:
        raise ValueError("word genus does not match the requested genus")
    za, zb = _letter_counts(a), _letter_counts(b)
    if _pairing(za, zb):
        raise ValueError("twist cross-check requires algebraic intersection 0")
    ell_a, ell_b = ell(a), ell(b)
    d = lcm(*(c.denominator for w in (ell_a, ell_b) for c in w.terms.values()))
    ea, eb = _int_terms(ell_a, d), _int_terms(ell_b, d)
    # the cores take |a| and |b| over ell's denominator d too
    ha = [(i, p * d) for i, p in enumerate(za) if p]
    hb = [(i, p * d) for i, p in enumerate(zb) if p]
    lhs = _twist(ha, ea, d, _theta0(genus, hb, eb, d)).degree_part(2)
    # |a|, |b| over 1 and ell over d: v over d
    rhs = bracket(za, _obstruction_numerators(za, ea, zb, eb), d)
    return lhs == rhs, lhs, rhs
