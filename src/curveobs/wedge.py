"""Exterior powers of the homology as the production path uses them: the
alternating arithmetic and degree 2, `Wedge2`. The wedge of two homology
vectors, degree 3, the tensor embeddings and the actions on homology vectors
are in `reference`."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .homology import basis_label, format_terms
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


def check_indices(w: _Alternating):
    """Raise ValueError if a term of w has a basis index outside 0..2g-1.
    The functions that take a `Wedge2` as input run it; `make` does not, as
    the `ell` fold builds only valid indices."""
    n = 2 * w.genus
    for key in w.terms:
        if not all(0 <= i < n for i in key):
            raise ValueError(f"basis index out of range in {key}")
