"""What the twist cross-check runs, on int numerators: the degree-2
expansion of a word, the twist along a word applied to it, and the closed
form it is compared with, whose v is read off the letters and not from ell.
Each function returns a plain {sequence: numerator} dict, and this module
loads no reference code.

Only the degree <= 2 coefficients of the expansion are pinned down by the
generator values of ell, so theta0 is built at degree bound 2. The twist is
exp(-D) for the derivation D of L(a); `twist_consistency` applies it only at
i_A = 0, and there it is one step, exp(-D)(u) - u = -D(u) through degree 2.
Let h = |a| and c its mate vector, c_y = (y.x) h_x for x the mate of y, so
that c . z is the pairing of z with h. For u = theta0(b):
- sigma = c . |b| = +-i_A = 0 removes the terms of D(|b|) that carry sigma,
  so D sends the degree-1 part to w h - h w, for w = ell(a)(|b|), and
  D(w h - h w) = 0, as c . h = 0;
- on the degree-2 part M = ell(b) + 1/2 |b| |b|, D(D(M)) = 2 (c^T M c) h h,
  where c^T ell(b) c = 0 by antisymmetry and c^T |b| |b| c = i_A i_A = 0.
`_minus_D` applies D once, in contraction form, read off |a| and ell(a)
without building L(a), and raises `AssertionError` unless sigma and c^T M c
are both 0. `reference.theta0`, `reference.L_theta` and
`reference.johnson_twist` are their defining forms on `TruncTensor`s;
`johnson_twist` sums the whole series at any degree bound.
"""

from __future__ import annotations

from .homology import basis_pairing, mate


def _theta0_nums(h, e, d: int) -> dict[tuple[int, ...], int]:
    """The int numerators of 1 + h + (embedded ell(w) + 1/2 h h), over 2 d d,
    for h = |w| as (index, numerator) pairs on distinct indices and
    e = ell(w) as (i, j, numerator) terms of X_i^X_j, in any order, summed
    where repeated, both over one d > 0."""
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
    return nums


def _minus_D(h, e, nums) -> dict[tuple[int, ...], int]:
    """-D(u), zeros dropped, for the derivation D of L = L_theta(|a|, ell(a))
    and u of degree <= 2 given by its int numerators: over d d times u's
    denominator, when h and e are |a| and ell(a) over d, in the form
    `_theta0_nums` takes. Raises `AssertionError` unless sigma = 0 and
    c^T M c = 0 (below), which make D(D(u)) = 0 through degree 2.

    D sends a factor y, with x its mate and (y.x) = +-1, to (y.x) times the
    terms of L that start with x, first factor dropped. L is h h + N(h e)
    through degree 3, for e the embedded ell(a), and D is applied in
    contraction form. On a degree-1 part z, with
    sigma = z . h = sum_y c_y z_y for c_y = (y.x) h_x, and w = ell(a)(z),
    the contraction of ell(a) by z (as `reference.act2`),
    D(z) = sigma h + sigma e + w h - h w; with sigma = 0 that is w h - h w.
    On a degree-2 part M, only h h fits: D(M) = h (c^T M) + (M c) h. So
    -D(u) = h (w - c^T M) - (w + M c) h, two outer products with h; each
    term is a numerator of u times two of h and e."""
    c = {mate(i): basis_pairing(mate(i), i) * p for i, p in h}
    # ends[x]: (k, q) for each term q X_x^X_k of e, X_j^X_x read as -X_x^X_j
    ends: dict[int, list[tuple[int, int]]] = {}
    for j, k, q in e:
        ends.setdefault(j, []).append((k, q))
        ends.setdefault(k, []).append((j, -q))
    sigma = cMc = 0
    right: dict[int, int] = {}  # w - c^T M
    left: dict[int, int] = {}  # w + M c
    for s, n in nums.items():
        if len(s) == 1:
            y = s[0]
            if y in c:
                sigma += c[y] * n
            x = mate(y)
            zx = basis_pairing(y, x) * n
            for k, q in ends.get(x, ()):
                r = zx * q
                right[k] = right.get(k, 0) + r
                left[k] = left.get(k, 0) + r
        elif len(s) == 2:
            i, j = s
            ci, cj = c.get(i), c.get(j)
            if ci:
                right[j] = right.get(j, 0) - ci * n
            if cj:
                left[i] = left.get(i, 0) + n * cj
                if ci:
                    cMc += ci * n * cj
    if sigma or cMc:
        raise AssertionError(f"the one-step twist needs sigma = 0 and "
                             f"c^T M c = 0, got {sigma} and {cMc}")
    out = {(i, k): p * q for k, q in right.items() for i, p in h}
    get = out.get
    for k, q in left.items():
        for j, p in h:
            out[(k, j)] = get((k, j), 0) - q * p
    return {s: n for s, n in out.items() if n}


def bracket(u: list[int], v: list[int]) -> dict[tuple[int, ...], int]:
    """The int numerators of u v - v u, zeros dropped, for int coordinate
    lists u and v; the twist cross-check's closed form."""
    vn = [(j, q) for j, q in enumerate(v) if q]
    uv = {(i, j): p * q for i, p in enumerate(u) if p for j, q in vn}
    nums = dict(uv)
    get = nums.get
    for (i, j), r in uv.items():
        nums[(j, i)] = get((j, i), 0) - r
    return {s: n for s, n in nums.items() if n}
