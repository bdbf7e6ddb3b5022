"""The degree-2 invariant of words and the obstruction vector.

ell sends a word to an element of the second exterior power of homology. It is
fixed on generators (ell(x_j) = 1/2 X_j^Y_j, ell(y_j) = -1/2 X_j^Y_j) and
extended by the cocycle rule ell(uv) = ell(u) + ell(v) + 1/2 |u|^|v|. The fold
is evaluated on raw letter sequences and is invariant under free reduction.
It keeps the class of the prefix as a sparse int dict, so a letter's new terms
cost one per generator the prefix touches; the running sum is a Wedge2, put in
canonical form once per letter. The obstruction vector does not read ell: it
is read off the letters in one int pass per word.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import HVec, Wedge2, abelianize
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


def _twice_ell_on(letters, z) -> list[int]:
    """2 ell(w)(z) as ints, for w a letter sequence, reduced or not, and z an
    int coordinate list, without building ell(w). With e_k the k-th letter's
    signed basis vector, P_k = e_1 + ... + e_k and q_k = z . P_k, the prefix
    terms sum_k P_(k-1) ^ e_k of 2 ell(w) send z to
    sum_k (q_(k-1) + q_k) e_k - q_n |w|; its own terms (c_x - c_y) X_j^Y_j,
    for c the exponent sums, send z to -(c_x - c_y)(z_x X_j + z_y Y_j)."""
    out, counts = [0] * len(z), [0] * len(z)
    q = 0
    for l in letters:
        k = abs(l) - 1
        s = 1 if l > 0 else -1
        # z . e_k: z_x for k the index of y, -z_y for k the index of x
        dq = s * z[k - 1] if k & 1 else -s * z[k + 1]
        out[k] += s * (2 * q + dq)
        q += dq
        counts[k] += s
    return [n - q * c - (counts[i & ~1] - counts[i | 1]) * zi
            for i, (n, c, zi) in enumerate(zip(out, counts, z))]


def _twice_v(a: Word, za, b: Word, zb) -> list[int]:
    """2v as ints, for words a and b with letter counts za = |a|, zb = |b|."""
    return [x + y for x, y in zip(_twice_ell_on(a.letters, zb),
                                  _twice_ell_on(b.letters, za))]


def obstruction_vector(a: Word, b: Word) -> HVec:
    """v = ell(a) acting on |b| plus ell(b) acting on |a|, the sum of
    `reference.act2`: 2v from the letters, over 2."""
    check_genus(a, b)
    return HVec(a.genus, tuple(Fraction(x, 2) for x in _twice_v(
        a, abelianize(a).coords, b, abelianize(b).coords)))
