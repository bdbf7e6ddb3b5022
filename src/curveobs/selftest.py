"""The ten acceptance criteria of the method, each a seeded property check.

Each criterion(rng, n) draws its n cases from rng and returns the number of
cases it checked; a failure raises SelfTestFailure naming the offending
instance. `curveobs selftest` runs all ten at small counts; the test suite
(tests/test_acceptance.py) runs the same functions at full seeds and counts.
Criteria 1 and 2 are fixed known answers and draw nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ell import ell, ell_of_letters
from .homology import HVec, abelianize, intersection, lattice_member
from .obstruction import VERDICT_INCONCLUSIVE, analyze, twist_consistency
from .reference import (L_theta, TruncTensor, act2, embed3, johnson_twist,
                        omega, wedge, wedge3)
from .words import (boundary_word, commutator, format_word, generator,
                    parse_word, random_word_rng)

X1, Y1, X2, Y2 = 0, 1, 2, 3


class SelfTestFailure(AssertionError):
    pass


def _half(g, *pairs):
    w = None
    for i, j in pairs:
        term = wedge(HVec.basis(g, i), HVec.basis(g, j)).scale(Fraction(1, 2))
        w = term if w is None else w + term
    return w


def _rand_hvec(genus, rng):
    return HVec(genus, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(2 * genus)])


def _rand_small(g, rng):
    return HVec(g, [rng.randint(-3, 3) for _ in range(2 * g)])


def _describe(rep):
    return (f"genus {rep.genus}, a = {rep.a}, b = {rep.b}: v = {rep.v}, "
            f"{rep.lattice}, verdict {rep.verdict}")


def _L_of(w):
    """The twist derivation datum of a word."""
    return L_theta(abelianize(w), ell(w))


def criterion_01_golden_example(rng, n):
    a = parse_word("x1 x2 y2 x2^-1", 2)
    b = parse_word("y2 x1^-1", 2)
    rep = analyze(2, a, b)
    ok = (
        rep.abs_a == HVec.basis(2, X1) + HVec.basis(2, Y2)
        and rep.abs_b == -HVec.basis(2, X1) + HVec.basis(2, Y2)
        and rep.i_A == 0
        and rep.ell_a == _half(2, (X1, Y1), (X2, Y2), (X1, Y2))
        and act2(rep.ell_a, rep.abs_b)
            == (HVec.basis(2, X1) - HVec.basis(2, Y2)).scale(Fraction(1, 2))
        and act2(rep.ell_b, rep.abs_a)
            == (HVec.basis(2, X1) + HVec.basis(2, Y2)).scale(Fraction(1, 2))
        and rep.v == HVec.basis(2, X1)
        and rep.lattice.member is False
        and rep.verdict == "certified_positive_theorem"
    )
    if not ok:
        raise SelfTestFailure(_describe(rep))
    return 1


def criterion_02_golden_counterexamples(rng, n):
    rep1 = analyze(2, parse_word("x1", 2), parse_word("x2^-1", 2))
    rep2 = analyze(2, parse_word("x1", 2),
                   parse_word("x2^-1 [y1,zeta] zeta", 2))
    ok = (
        rep1.v == HVec.zero(2)
        and rep1.verdict == VERDICT_INCONCLUSIVE
        and rep2.v == -HVec.basis(2, X1)
        and (rep2.lattice.m, rep2.lattice.n) == (-1, 0)
        and rep2.verdict == VERDICT_INCONCLUSIVE
    )
    if not ok:
        raise SelfTestFailure(f"{_describe(rep1)}; {_describe(rep2)}")
    return 1


def criterion_03_symplectic_condition(rng, n):
    for g in range(1, 6):
        if ell(boundary_word(g)) != omega(g):
            raise SelfTestFailure(f"ell of the boundary word at genus {g}")
        for _ in range(n):
            v = _rand_hvec(g, rng)
            if act2(omega(g), v) != -v:
                raise SelfTestFailure(f"omega action on {v}")
    return 5 * n


def criterion_04_ell_identities(rng, n):
    for _ in range(n):
        genus = rng.randint(1, 3)
        g = random_word_rng(genus, rng.randint(0, 20), rng)
        h = random_word_rng(genus, rng.randint(0, 20), rng)
        gh_cross = wedge(abelianize(g), abelianize(h))
        if not (ell(g.inverse()) == -ell(g)
                and ell(g * h) == ell(g) + ell(h) + gh_cross.scale(Fraction(1, 2))
                and ell(g.conjugate(h)) == ell(h) + gh_cross
                and ell(g * h * g.inverse() * h.inverse()) == gh_cross):
            raise SelfTestFailure(f"genus {genus}, g = {g}, h = {h}")

        # invariance under trivial-pair insertions, checked on the raw
        # (unreduced) letter sequence
        letters = list(g.letters)
        for _ in range(100):
            pos = rng.randint(0, len(letters))
            l = rng.choice(range(1, 2 * genus + 1)) * rng.choice((1, -1))
            letters[pos:pos] = [l, -l]
        if ell_of_letters(genus, letters) != ell(g):
            raise SelfTestFailure(f"genus {genus}, letters {letters}")
    return n


def criterion_05_twist_lemma(rng, n):
    done = 0
    while done < n:
        g = rng.randint(1, 3)
        a = random_word_rng(g, rng.randint(1, 8), rng)
        b = random_word_rng(g, rng.randint(0, 8), rng)
        if intersection(abelianize(a), abelianize(b)) != 0:
            continue
        if not twist_consistency(g, a, b)[0]:
            raise SelfTestFailure(f"genus {g}, a = {a}, b = {b}")
        done += 1
    return n


def criterion_06_degree_three_dual_path(rng, n):
    for _ in range(n):
        g = rng.randint(1, 3)
        a = random_word_rng(g, rng.randint(0, 10), rng)
        closed_form = embed3(wedge3(abelianize(a), ell(a)))
        L = _L_of(a)
        ok = L.degree_part(3) == closed_form.degree_part(3)
        c = random_word_rng(g, rng.randint(0, 6), rng)
        if not (ok and _L_of(a.inverse()) == L and _L_of(c.conjugate(a)) == L):
            raise SelfTestFailure(f"genus {g}, a = {a}, c = {c}")
    return n


def criterion_07_classical_twist_formula(rng, n):
    for _ in range(n):
        g = rng.randint(1, 3)
        a = random_word_rng(g, rng.randint(1, 10), rng)
        av = abelianize(a)
        L = L_theta(av, ell(a))
        for k in range(2 * g):
            x = HVec.basis(g, k)
            got = johnson_twist(L, TruncTensor.from_hvec(x, 2)).degree_part(1)
            want = x + av.scale(intersection(av, x))
            if got != TruncTensor.from_hvec(want, 2).degree_part(1):
                raise SelfTestFailure(f"genus {g}, a = {a}, basis vector {k}")
    return n


def criterion_08_verdict_conjugation_invariance(rng, n):
    for _ in range(n):
        g = rng.randint(1, 3)
        a = random_word_rng(g, rng.randint(1, 8), rng)
        b = random_word_rng(g, rng.randint(1, 8), rng)
        c = random_word_rng(g, rng.randint(0, 6), rng)
        d = random_word_rng(g, rng.randint(0, 6), rng)
        if analyze(g, c.conjugate(a), d.conjugate(b)).verdict \
                != analyze(g, a, b).verdict:
            raise SelfTestFailure(f"genus {g}, a = {a}, b = {b}, c = {c}, d = {d}")
    return n


def criterion_09_dependent_classes(rng, n):
    # The same-curve statement: if b is freely homotopic to a^{+-1}, the
    # verdict is inconclusive with an integral witness.  b is a^{+-1} times
    # up to 3 commutators c_k = [b_{k-1}^-1, h_k], so
    # b_k = b_{k-1} c_k = h_k b_{k-1} h_k^-1 stays freely homotopic to
    # a^{+-1}: the same curve, perhaps reversed.  Conjugation changes ell
    # by |h| ^ |b|, and (|h| ^ |a|)(+-|a|) = +-omega(|h|,|a|) |a| lies in
    # Z|a|, so v stays in the lattice and the verdict is inconclusive.
    # Arbitrary commutator padding promises no such thing: it shifts v by
    # an integral class that need not lie in the lattice, and the
    # obstruction may then legitimately fire (pinned in
    # tests/test_obstruction.py::TestDependentClasses).
    failures = []
    for case in range(n):
        g = rng.randint(1, 3)
        gen = generator(g, rng.choice(["x", "y"]), rng.randint(1, g))
        if rng.random() < 0.5:
            gen = gen.inverse()
        a = random_word_rng(g, rng.randint(0, 5), rng).conjugate(gen)
        b = a if rng.random() < 0.5 else a.inverse()
        padding_abelian = True
        for _ in range(rng.randint(0, 3)):
            h = random_word_rng(g, rng.randint(1, 5), rng)
            pad = commutator(b.inverse(), h)
            padding_abelian = padding_abelian and abelianize(pad) == HVec.zero(g)
            b = b * pad
        rep = analyze(g, a, b)
        # a lattice member lies in Z|a| + Z|b|, so v needs no integrality check
        if not (padding_abelian
                and rep.i_A == 0
                and rep.verdict == VERDICT_INCONCLUSIVE
                and rep.lattice.member):
            failures.append(
                f"case {case}: genus {g}, a = {format_word(a)}, "
                f"b = {format_word(b)}, verdict {rep.verdict}")
    if failures:
        raise SelfTestFailure(
            f"{len(failures)}/{n} pairs of the same curve were not "
            f"inconclusive with an integral witness, e.g. {failures[0]}")
    return n


def criterion_10_lattice_oracle(rng, n):
    def ints(x):
        if any(c.denominator != 1 for c in x.coords):
            raise SelfTestFailure(f"the oracle scans integral vectors only: {x}")
        return [int(c) for c in x.coords]

    def brute(v, u1, u2):
        rows = list(zip(ints(v), ints(u1), ints(u2)))
        for m in range(-20, 21):
            for n in range(-20, 21):
                if all(m * a + n * b == c for c, a, b in rows):
                    return True
        return False

    for case in range(n):
        g = rng.randint(1, 2)
        kind = case % 5
        if kind == 0:          # rank 0
            u1, u2 = HVec.zero(g), HVec.zero(g)
        elif kind == 1:        # rank 1: zero plus nonzero
            u1, u2 = HVec.zero(g), _rand_small(g, rng)
        elif kind == 2:        # rank 1: parallel generators
            u1 = _rand_small(g, rng)
            u2 = u1.scale(rng.randint(-3, 3))
        else:
            u1, u2 = _rand_small(g, rng), _rand_small(g, rng)
        if rng.random() < 0.5:
            v = u1.scale(rng.randint(-10, 10)) + u2.scale(rng.randint(-10, 10))
        else:
            v = _rand_small(g, rng)
        wit = lattice_member(v, u1, u2)
        if not (wit.member == brute(v, u1, u2)
                and (not wit.member or u1.scale(wit.m) + u2.scale(wit.n) == v)):
            raise SelfTestFailure(f"v = {v}, u1 = {u1}, u2 = {u2}, {wit}")
    return n


# (name, criterion, cases at iterations=1); the counts keep
# `curveobs selftest` to about a second
CRITERIA = [
    ("golden_example", criterion_01_golden_example, 1),
    ("golden_counterexamples", criterion_02_golden_counterexamples, 1),
    ("symplectic_condition", criterion_03_symplectic_condition, 10),
    ("ell_identities", criterion_04_ell_identities, 10),
    ("twist_lemma", criterion_05_twist_lemma, 20),
    ("degree_three_dual_path", criterion_06_degree_three_dual_path, 20),
    ("classical_twist_formula", criterion_07_classical_twist_formula, 10),
    ("verdict_conjugation_invariance",
     criterion_08_verdict_conjugation_invariance, 25),
    ("dependent_classes", criterion_09_dependent_classes, 25),
    ("lattice_oracle", criterion_10_lattice_oracle, 10),
]


def run_selftest(seed: int, iterations: int = 1):
    """Run every criterion; returns a list of (name, cases, error_or_None)."""
    results = []
    for name, criterion, count in CRITERIA:
        rng = random.Random(f"{seed}:{name}")
        try:
            results.append((name, criterion(rng, count * iterations), None))
        except SelfTestFailure as exc:
            results.append((name, count * iterations, str(exc)))
    return results
