"""The twist cores' identity, proved on free symbols at genus 1-4.

`_theta0_nums`, `_minus_D` and `bracket` use only `+`, `-`, `*`, truth
tests and dict keys, so they run unchanged on polynomials. With |a|, |b|,
ell(a) and ell(b) free symbols, the twisted side -D(theta0(b)) is compared
with the closed form |a| v - v |a|, where v is built by its defining form
`act2(ell(a), |b|) + act2(ell(b), |a|)` (production reads 2v off the
letters instead, so it cannot run on symbols). The identity holds at
i_A = 0 only, so a polynomial's truth value here is "nonzero modulo the
ideal (i_A)": `_minus_D`'s guard then passes exactly when sigma and c^T M c
lie in (i_A), and the sides agree exactly when every coefficient of
lhs - rhs does. This is checked at genus 1-4 only; no argument that a
bounded genus suffices is made here.
"""

import pytest

from curveobs.expansion import _minus_D, _theta0_nums, bracket
from curveobs.homology import HVec, Wedge2, _pairing
from curveobs.reference import act2


class Poly:
    """A polynomial with int coefficients over named variables, as
    {monomial: coefficient}, a monomial being the sorted tuple of its
    variables with repetition. Its truth value is taken modulo i_A at its
    genus (see `remainder`)."""

    def __init__(self, genus, terms):
        self.genus = genus
        self.terms = {m: c for m, c in terms.items() if c}

    def _coerce(self, other):
        return other if isinstance(other, Poly) else Poly(self.genus, {(): other})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.genus, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.genus, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out, right = {}, self._coerce(other).terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.genus, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(remainder(self).terms)


def symbols(genus, name):
    """The 2g coordinates of a free homology class, as polynomials."""
    return [Poly(genus, {(f"{name}{k}",): 1}) for k in range(2 * genus)]


def wedge_symbols(genus, name):
    """A free element of the exterior square: (i, j, symbol) for i < j."""
    n = 2 * genus
    return [(i, j, Poly(genus, {(f"{name}{i}_{j}",): 1}))
            for i in range(n) for j in range(i + 1, n)]


def remainder(p):
    """p modulo i_A = sum_j a_Xj b_Yj - a_Yj b_Xj: each monomial holding
    a_X1 b_Y1 is rewritten by a_X1 b_Y1 = a_X1 b_Y1 - i_A until none does.
    Under lex order with a_X1 first, a_X1 b_Y1 is i_A's leading monomial, so
    {i_A} is a Groebner basis of (i_A) and the remainder is 0 exactly when p
    lies in (i_A)."""
    a, b = symbols(p.genus, "a"), symbols(p.genus, "b")
    rest = (a[0] * b[1] - _pairing(a, b)).terms
    out, todo = {}, dict(p.terms)
    while todo:
        m, c = todo.popitem()
        if "a0" in m and "b1" in m:
            m = list(m)
            m.remove("a0")
            m.remove("b1")
            for r, d in rest.items():
                k = tuple(sorted(m + list(r)))
                todo[k] = todo.get(k, 0) + c * d
        else:
            out[m] = out.get(m, 0) + c
    return Poly(p.genus, out)


def sides(genus, with_ell_b=True):
    """(-D(theta0(b)), |a| v - v |a|), each as {sequence: Poly} numerators
    over 2, for free |a|, |b|, ell(a), ell(b); without ell(b), v drops
    act2(ell(b), |a|)."""
    a, b = symbols(genus, "a"), symbols(genus, "b")
    ea, eb = wedge_symbols(genus, "ea"), wedge_symbols(genus, "eb")
    lhs = _minus_D(list(enumerate(a)), ea,
                   _theta0_nums(list(enumerate(b)), eb, 1))
    v = act2(Wedge2(genus, {(i, j): q for i, j, q in ea}), HVec(genus, tuple(b)))
    if with_ell_b:
        v += act2(Wedge2(genus, {(i, j): q for i, j, q in eb}),
                  HVec(genus, tuple(a)))
    return lhs, bracket(a, [2 * x for x in v.coords])


def differences(lhs, rhs):
    return [lhs.get(s, 0) - rhs.get(s, 0) for s in lhs.keys() | rhs.keys()]


@pytest.mark.parametrize("g", range(1, 5))
def test_twist_identity_holds_modulo_i_A(g):
    # _minus_D raises unless sigma and c^T M c are 0 as truth values, here
    # modulo (i_A): returning at all proves both lie in (i_A)
    lhs, rhs = sides(g)
    assert not any(differences(lhs, rhs))


# At genus 1, i_A = 0 makes |a| and |b| proportional, and both sides vanish
# modulo (i_A): the cores drop every coefficient, so the checks below that
# need a coefficient to survive start at genus 2.

@pytest.mark.parametrize("g", range(2, 5))
def test_identity_needs_i_A_to_vanish(g):
    # every off-diagonal coefficient survives on both sides, and lhs - rhs
    # there is a nonzero free polynomial
    diffs = differences(*sides(g))
    assert len(diffs) == 2 * g * (2 * g - 1)
    assert all(d.terms for d in diffs)


@pytest.mark.parametrize("g", range(1, 5))
def test_guard_quantities_are_not_zero_as_free_polynomials(g, monkeypatch):
    # with the plain truth value the guard fires: sigma or c^T M c is a
    # nonzero multiple of i_A, so the ideal above is what lets it pass
    monkeypatch.setattr(Poly, "__bool__", lambda p: bool(p.terms))
    with pytest.raises(AssertionError, match="one-step twist"):
        sides(g)


@pytest.mark.parametrize("g", range(2, 5))
def test_closed_form_without_ell_b_fails(g):
    # every off-diagonal coefficient of lhs - rhs falls outside (i_A): 12 of
    # the 16 degree-2 coefficients at genus 2
    diffs = differences(*sides(g, with_ell_b=False))
    assert sum(map(bool, diffs)) == 2 * g * (2 * g - 1)
