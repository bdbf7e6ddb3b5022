"""The degree-2 invariant of words and the obstruction vector.

ell sends a word to an element of the second exterior power of homology. It is
fixed on generators (ell(x_j) = 1/2 X_j^Y_j, ell(y_j) = -1/2 X_j^Y_j) and
extended by the cocycle rule ell(uv) = ell(u) + ell(v) + 1/2 |u|^|v|. The fold
is evaluated on raw letter sequences and is invariant under free reduction.
It keeps the class of the prefix as a sparse int dict, so a letter's new terms
cost one per generator the prefix touches; the running sum is a Wedge2, put in
canonical form once per letter.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .homology import HVec, basis_pairing, mate
from .wedge import Wedge2, check_indices
from .words import Word, check_genus


def ell_of_letters(genus: int, letters) -> Wedge2:
    """Left-to-right cocycle fold over a (possibly unreduced) letter sequence.

    The prefix class ab is a sparse int dict {index: count}, so the letter
    +-e_k adds ell(letter) + 1/2 ab ^ (+-e_k): one term per index in the
    prefix's support, with the 1/2 folded in. x_j carries +1/2 X_j^Y_j, y_j
    carries -1/2, and inversion flips the sign. The running sum, the
    letter's own term and its prefix terms go through one `Wedge2.make`."""
    acc = Wedge2.zero(genus)
    ab: dict[int, int] = {}
    for l in letters:
        k = abs(l) - 1
        s = 1 if l > 0 else -1
        acc = Wedge2.make(genus, [
            *acc.terms.items(),
            ((k & ~1, k | 1), Fraction(-s if k & 1 else s, 2)),
            *(((i, k), Fraction(s * c, 2)) for i, c in ab.items())])
        c = ab.get(k, 0) + s
        if c:
            ab[k] = c
        else:
            del ab[k]
    return acc


def ell(w: Word) -> Wedge2:
    return ell_of_letters(w.genus, w.letters)


def obstruction_vector(abs_a: HVec, ell_a: Wedge2,
                       abs_b: HVec, ell_b: Wedge2) -> HVec:
    """v = ell(a) acting on |b| plus ell(b) acting on |a|: the sum of
    `reference.act2`, taken on int numerators over the common denominator d
    of the inputs."""
    for x in (abs_b, ell_a, ell_b):
        check_genus(abs_a, x)
    check_indices(ell_a)
    check_indices(ell_b)
    d = lcm(*(c.denominator for x in (abs_a, abs_b) for c in x.coords),
            *(c.denominator for w in (ell_a, ell_b) for c in w.terms.values()))
    out = [0] * (2 * abs_a.genus)
    for w, z in ((ell_a, abs_b), (ell_b, abs_a)):
        # dz[i] = d (z . e_i); act2: (X_i^X_j)(z) = (z . e_i) X_j - (z . e_j) X_i
        zn = [c.numerator * (d // c.denominator) for c in z.coords]
        dz = [basis_pairing(mate(i), i) * zn[mate(i)] for i in range(len(out))]
        for (i, j), c in w.terms.items():
            n = c.numerator * (d // c.denominator)
            out[j] += n * dz[i]
            out[i] -= n * dz[j]
    return HVec(abs_a.genus, tuple(Fraction(x, d * d) for x in out))
