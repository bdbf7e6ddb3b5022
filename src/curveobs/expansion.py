"""What the twist cross-check runs: the degree-2 expansion of a word, the
twist along a word applied to it, and the closed form it is compared with.

Only the degree <= 2 coefficients of the expansion are pinned down by the
generator values of ell, so theta0 is built at degree bound 2. The twist
exp(-L(a)) needs L(a) through degree 3 for exact degree <= 2 output; `twist`
reads the derivation of L(a) off |a| and ell(a), on ints, without building
L(a). `reference.L_theta` and `reference.johnson_twist` are its defining
forms.
"""

from __future__ import annotations

from math import factorial, lcm

from .homology import HVec, basis_pairing, mate
from .tensor import TruncTensor
from .wedge import Wedge2
from .words import check_genus

# exp(-L) on a degree <= 2 truncation: each derivation application either keeps
# or raises degree and is nilpotent degreewise, so this bound is generous.
_MAX_EXP_ITER = 64


def _hvec_numerators(v: HVec):
    """The nonzero (index, numerator) pairs of v over their least common
    denominator, and that denominator."""
    d = lcm(*(c.denominator for c in v.coords))
    return [(i, c.numerator * (d // c.denominator))
            for i, c in enumerate(v.coords) if c], d


def _numerators(abs_w: HVec, ell_w: Wedge2):
    """|w| and ell(w) as ints: the nonzero (index, numerator) pairs of |w|
    over their least common denominator dh, and the (i, j, numerator) terms
    of ell(w) over theirs, de. Raises ValueError on a genus mismatch or an
    ell index outside 0..2g-1, as the tensor constructors do."""
    check_genus(abs_w, ell_w)
    n = 2 * abs_w.genus
    h, dh = _hvec_numerators(abs_w)
    de = lcm(*(c.denominator for c in ell_w.terms.values()))
    e = []
    for (i, j), c in ell_w.terms.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"basis index out of range in {(i, j)}")
        e.append((i, j, c.numerator * (de // c.denominator)))
    return h, dh, e, de


def theta0(abs_w: HVec, ell_w: Wedge2) -> TruncTensor:
    """Expansion of a word w through degree 2, where it is exact, from its
    class h = |w| and ell(w): 1 + h + (embedded ell(w) + 1/2 h h), built in
    one pass as int numerators over one denominator."""
    h, dh, e, de = _numerators(abs_w, ell_w)
    den = lcm(2 * dh * dh, de)
    mh, mhh, me = den // dh, den // (2 * dh * dh), den // de
    nums = {(): den}
    for i, p in h:
        nums[(i,)] = p * mh
        for j, q in h:
            nums[(i, j)] = p * q * mhh
    get = nums.get
    for i, j, q in e:
        q *= me
        nums[(i, j)] = get((i, j), 0) + q
        nums[(j, i)] = get((j, i), 0) - q
    return TruncTensor._make(abs_w.genus, 2, nums, den)


def _cut(u: TruncTensor) -> TruncTensor:
    """u cut to degree <= min(2, u.maxdeg), where the twist is exact:
    derivation by L never lowers degree, so higher terms of u cannot reach
    it."""
    D = min(2, u.maxdeg)
    return TruncTensor._make(
        u.genus, D, {s: c for s, c in u.nums.items() if len(s) <= D}, u.den)


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


def twist(abs_a: HVec, ell_a: Wedge2, u: TruncTensor) -> TruncTensor:
    """exp(-L)(u) - u for L = L_theta(|a|, ell(a)) and u cut to degree <= 2,
    as `reference.johnson_twist` computes it, without building L.

    The derivation D of L sends a factor y, with x its mate and (y.x) = +-1,
    to (y.x) times the terms of L that start with x, first factor dropped.
    From h h, its degree-1 part is rank one: X_y -> c_y h with c_y = (y.x) h_x,
    so it sends a degree-1 part z to (c.z) h and a degree-2 part M to
    h (c^T M) + (M c) h. From the six rotations of N(h e), its degree-2 part
    fits only on degree-1 terms, and is built for the factors found there."""
    h, dh, e, de = _numerators(abs_a, ell_a)
    check_genus(abs_a, u)
    u = _cut(u)
    m = lcm(dh, de)
    mhh, mhe = m // dh, m // de
    den = dh * m
    hd = dict(h)
    # c[y] h_j is the numerator of D(X_y) at X_j over den
    c = {mate(i): basis_pairing(mate(i), i) * p * mhh for i, p in h}
    # ends[x]: (k, q) for each term q X_x^X_k of e, X_j^X_x read as -X_x^X_j
    ends: dict[int, list[tuple[int, int]]] = {}
    for j, k, q in e:
        ends.setdefault(j, []).append((k, q))
        ends.setdefault(k, []).append((j, -q))

    def degree2(y):
        x = mate(y)
        tails: dict[tuple[int, int], int] = {}
        get = tails.get
        # +-h_x q at (j, k), (k, j): the rotations that start with i = x
        p = hd.get(x)
        if p is not None:
            for j, k, q in e:
                r = p * q
                tails[(j, k)] = get((j, k), 0) + r
                tails[(k, j)] = get((k, j), 0) - r
        # +-h_i q at (k, i), (i, k): those that start with j or k = x
        for k, q in ends.get(x, ()):
            for i, p in h:
                r = p * q
                tails[(k, i)] = get((k, i), 0) + r
                tails[(i, k)] = get((i, k), 0) - r
        sign = basis_pairing(y, x) * mhe
        return [(t, sign * r) for t, r in tails.items() if r]

    # degree2(y) for each factor y met so far
    images2: dict[int, list[tuple[tuple[int, int], int]]] = {}

    def apply(t):
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        cz = 0
        cM: dict[int, int] = {}
        Mc: dict[int, int] = {}
        for s, n in t.items():
            if len(s) == 1:
                y = s[0]
                if y in c:
                    cz += c[y] * n
                if u.maxdeg == 2:
                    if y not in images2:
                        images2[y] = degree2(y)
                    for tail, q in images2[y]:
                        out[tail] = get(tail, 0) + n * q
            elif len(s) == 2:
                i, j = s
                if i in c:
                    cM[j] = cM.get(j, 0) + c[i] * n
                if j in c:
                    Mc[i] = Mc.get(i, 0) + n * c[j]
        if cz:
            for j, p in h:
                out[(j,)] = get((j,), 0) + cz * p
        for j, q in cM.items():
            for i, p in h:
                out[(i, j)] = get((i, j), 0) + p * q
        for i, q in Mc.items():
            for j, p in h:
                out[(i, j)] = get((i, j), 0) + q * p
        return {s: n for s, n in out.items() if n}

    return _exp_change(u, den, apply)


def bracket(u: HVec, v: HVec) -> TruncTensor:
    """u v - v u at degree bound 2, in one int pass; the twist cross-check's
    closed form."""
    check_genus(u, v)
    un, du = _hvec_numerators(u)
    vn, dv = _hvec_numerators(v)
    nums: dict[tuple[int, ...], int] = {}
    get = nums.get
    for i, p in un:
        for j, q in vn:
            r = p * q
            nums[(i, j)] = get((i, j), 0) + r
            nums[(j, i)] = get((j, i), 0) - r
    return TruncTensor._make(u.genus, 2, nums, du * dv)
