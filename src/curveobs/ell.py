"""The degree-2 invariant of words and the obstruction vector.

ell sends a word to an element of the second exterior power of homology. It is
fixed on generators (ell(x_j) = 1/2 X_j^Y_j, ell(y_j) = -1/2 X_j^Y_j) and
extended by the cocycle rule ell(uv) = ell(u) + ell(v) + 1/2 |u|^|v|. The fold
is evaluated on raw letter sequences and is invariant under free reduction.
It keeps the prefix class as a sparse int dict, so a letter's prefix terms
cost one per generator the prefix touches, put in canonical form once per
letter; the letters' own terms are read off the final class. The obstruction
vector does not read ell: it is read off the letters in one int pass per word.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import HVec, Wedge2, _normalize, abelianize
from .words import Word, check_genus


def ell_of_letters(genus: int, letters) -> Wedge2:
    """Left-to-right cocycle fold over a (possibly unreduced) letter sequence.

    The prefix class ab is a sparse int dict {index: count}, so the letter
    +-e_k adds 1/2 ab ^ (+-e_k): one term per index in ab, none while ab = 0.
    The letters' own terms sum to (c_x - c_y)/2 X_j^Y_j for c the exponent
    sums, the final ab; they join once, over the handles ab touches."""
    acc: dict[tuple[int, int], Fraction] = {}
    ab: dict[int, int] = {}
    for l in letters:
        k = abs(l) - 1
        s = 1 if l > 0 else -1
        if ab:
            acc = _normalize([*acc.items(), *(((i, k), Fraction(s * c, 2))
                                              for i, c in ab.items())])
        c = ab.get(k, 0) + s
        if c:
            ab[k] = c
        else:
            del ab[k]
    return Wedge2.make(genus, [*acc.items(), *(
        ((j, j + 1), Fraction(ab.get(j, 0) - ab.get(j + 1, 0), 2))
        for j in {i & ~1 for i in ab})])


def ell(w: Word) -> Wedge2:
    return ell_of_letters(w.genus, w.letters)


def _twice_ell_on(letters, c, z) -> list[int]:
    """2 ell(w)(z) as ints, for w a letter sequence, reduced or not, with
    class c = |w| from `abelianize` and z an int coordinate list, without
    building ell(w). With e_k the k-th letter's signed basis vector,
    P_k = e_1 + ... + e_k and q_k = z . P_k, the prefix terms
    sum_k P_(k-1) ^ e_k of 2 ell(w) send z to
    sum_k (q_(k-1) + q_k) e_k - q_n c; its own terms (c_x - c_y) X_j^Y_j
    send z to -(c_x - c_y)(z_x X_j + z_y Y_j)."""
    out = [0] * len(z)
    q = 0
    for l in letters:
        k = abs(l) - 1
        s = 1 if l > 0 else -1
        # z . e_k: z_x for k the index of y, -z_y for k the index of x
        dq = s * z[k - 1] if k & 1 else -s * z[k + 1]
        out[k] += s * (2 * q + dq)
        q += dq
    return [n - q * ci - (c[i & ~1] - c[i | 1]) * zi
            for i, (n, ci, zi) in enumerate(zip(out, c, z))]


def _twice_v(a: Word, za, b: Word, zb) -> list[int]:
    """2v as ints, for words a and b with classes za = |a|, zb = |b|."""
    return [x + y for x, y in zip(_twice_ell_on(a.letters, za, zb),
                                  _twice_ell_on(b.letters, zb, za))]


def obstruction_vector(a: Word, b: Word) -> HVec:
    """v = ell(a) acting on |b| plus ell(b) acting on |a|, the sum of
    `reference.act2`: 2v from the letters, over 2. In every coordinate
    2v = i_A (|a| + |b|) mod 2, for i_A = |a| . |b|, so v is integral exactly
    when i_A is even, as it is wherever `analyze` builds v (i_A = 0)."""
    check_genus(a.genus, b)
    return HVec(a.genus, (Fraction(x, 2) for x in _twice_v(
        a, abelianize(a).coords, b, abelianize(b).coords)))
