"""What the twist cross-check runs: the degree-2 expansion of a word, the
twist along a word applied to it, and the closed form it is compared with.

Only the degree <= 2 coefficients of the expansion are pinned down by the
generator values of ell, so theta0 is built at degree bound 2. The twist
exp(-L(a)) needs L(a) through degree 3 for exact degree <= 2 output; `_twist`
applies the derivation of L(a) in contraction form, read off |a| and ell(a)
without building L(a), to a tensor at theta0's bound 2. `reference.theta0`,
`reference.L_theta` and `reference.johnson_twist` are their defining forms
on Fractions, and `johnson_twist` takes any degree bound.

`twist_consistency` calls `_theta0` and `_twist` with the int datum it
builds from the words, and `bracket` with v's numerators.
"""

from __future__ import annotations

from math import factorial

from .homology import basis_pairing, mate
from .tensor import TruncTensor

# exp(-L) on a degree <= 2 truncation: each derivation application either keeps
# or raises degree and is nilpotent degreewise, so this bound is generous.
_MAX_EXP_ITER = 64


def _theta0(genus: int, h, e, d: int) -> TruncTensor:
    """1 + h + (embedded ell(w) + 1/2 h h), as `reference.theta0`, on ints
    over one d > 0: h = |w| as (index, numerator) pairs on distinct indices,
    e = ell(w) as (i, j, numerator) terms of X_i^X_j, in any order, summed
    where repeated. Built in one pass as int numerators over 2 d d."""
    d2 = 2 * d
    nums = {(): d2 * d}
    for i, p in h:
        nums[(i,)] = p * d2
        for j, q in h:
            nums[(i, j)] = p * q
    get = nums.get
    for i, j, q in e:
        q *= d2
        nums[(i, j)] = get((i, j), 0) + q
        nums[(j, i)] = get((j, i), 0) - q
    return TruncTensor._make(genus, 2, nums, d2 * d)


def _exp_change(u: TruncTensor, den: int, apply) -> TruncTensor:
    """exp(-D)(u) - u, the sum over k >= 1 of (-D)^k(u) / k!, for a
    derivation D that `apply` takes from the int numerators of a tensor to
    those of its image over den times its denominator, zeros dropped.

    D^k(u) is kept over u.den den^k, and the sum over k = 1..K is put over
    u.den den^K K! once, with weights (-1)^k K!/k! den^(K-k)."""
    powers = []
    term = u.nums
    while term := apply(term):
        powers.append(term)
        if len(powers) == _MAX_EXP_ITER:
            raise AssertionError("twist exponential failed to terminate")
    K = len(powers)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    w = (-1) ** K
    for k in range(K, 0, -1):
        for s, n in powers[k - 1].items():
            out[s] = get(s, 0) + w * n
        w *= -k * den
    return TruncTensor._make(u.genus, u.maxdeg, out,
                             u.den * den ** K * factorial(K))


def _twist(h, e, d: int, u: TruncTensor) -> TruncTensor:
    """exp(-L)(u) - u for L = L_theta(|a|, ell(a)), as
    `reference.johnson_twist` computes it, without building L. h and e are
    |a| and ell(a) over d, in the form `_theta0` takes; u is a tensor at
    degree bound 2, such as the expansion `_theta0` builds.

    The derivation D of L sends a factor y, with x its mate and (y.x) = +-1,
    to (y.x) times the terms of L that start with x, first factor dropped.
    L is h h + N(h e) through degree 3, for e the embedded ell(a), and D is
    applied in contraction form. On a degree-1 part z, with
    sigma = z . h = sum_y z_y (y.x) h_x and w = ell(a)(z), the contraction
    of ell(a) by z (as `reference.act2`), D(z) = sigma h + sigma e + w h - h w:
    the rotation of h e with the factor of h first gives sigma e, and the two
    with a factor of e first give w h - h w. On a degree-2 part M, only h h
    fits: with c_y = (y.x) h_x, D(M) = h (c^T M) + (M c) h. On the degree-1
    part, each application costs O(|ell(a)| + |w| |h|). Each term of D(t)
    is a numerator of t times two of h and e, so one application puts t's
    numerators over d d more."""
    # c[y] = (y.x) h_x, so sigma = sum_y c[y] z_y
    c = {mate(i): basis_pairing(mate(i), i) * p for i, p in h}
    # ends[x]: (k, q) for each term q X_x^X_k of e, X_j^X_x read as -X_x^X_j
    ends: dict[int, list[tuple[int, int]]] = {}
    for j, k, q in e:
        ends.setdefault(j, []).append((k, q))
        ends.setdefault(k, []).append((j, -q))

    def apply(t):
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        sigma = 0
        w: dict[int, int] = {}
        cM: dict[int, int] = {}
        Mc: dict[int, int] = {}
        for s, n in t.items():
            if len(s) == 1:
                y = s[0]
                if y in c:
                    sigma += c[y] * n
                x = mate(y)
                zx = basis_pairing(y, x) * n
                for k, q in ends.get(x, ()):
                    w[k] = w.get(k, 0) + zx * q
            elif len(s) == 2:
                i, j = s
                if i in c:
                    cM[j] = cM.get(j, 0) + c[i] * n
                if j in c:
                    Mc[i] = Mc.get(i, 0) + n * c[j]
        if sigma:
            for j, p in h:
                out[(j,)] = get((j,), 0) + sigma * p
            for j, k, q in e:
                r = sigma * q
                out[(j, k)] = get((j, k), 0) + r
                out[(k, j)] = get((k, j), 0) - r
        for k, q in w.items():
            if q:
                for j, p in h:
                    r = q * p
                    out[(k, j)] = get((k, j), 0) + r
                    out[(j, k)] = get((j, k), 0) - r
        for j, q in cM.items():
            for i, p in h:
                out[(i, j)] = get((i, j), 0) + p * q
        for i, q in Mc.items():
            for j, p in h:
                out[(i, j)] = get((i, j), 0) + q * p
        return {s: n for s, n in out.items() if n}

    return _exp_change(u, d * d, apply)


def bracket(u: list[int], v: list[int], den: int) -> TruncTensor:
    """u v - v u at degree bound 2, for int coordinate lists u and v over den
    (genus len(u) / 2), in one int pass; the twist cross-check's closed
    form."""
    nums: dict[tuple[int, ...], int] = {}
    get = nums.get
    vn = [(j, q) for j, q in enumerate(v) if q]
    for i, p in enumerate(u):
        if p:
            for j, q in vn:
                r = p * q
                nums[(i, j)] = get((i, j), 0) + r
                nums[(j, i)] = get((j, i), 0) - r
    return TruncTensor._make(len(u) // 2, 2, nums, den)
