"""Acceptance suite, the tests of `curveobs.selftest`: the ten criteria at
their full seeds and counts, printing one PASS/FAIL line per criterion
(visible under ``pytest -s`` or in the captured-output section of a failure).

The criteria are the one home of the properties they check: `ell` of the
boundary word and the omega action (3), the `ell` identities (4), the twist
lemma (5), the degree-3 dual path (6), the classical twist formula (7),
verdict conjugation invariance (8), same-curve inconclusiveness (9) and
lattice membership against a scan (10). A module's own test file checks
only what the criteria do not: other ranges, other inputs, or a slower
independent form of the same value. Each criterion is also shown to fail,
naming the instance, when one fault is planted in a function it calls.
"""

import random

import pytest

from curveobs import selftest
from curveobs.homology import LatticeWitness
from curveobs.obstruction import VERDICT_INCONCLUSIVE, VERDICT_THEOREM
from curveobs.selftest import CRITERIA, SelfTestFailure
from curveobs.words import Word


def _accept(number, label, seed, n):
    _, criterion, _ = CRITERIA[number - 1]
    try:
        criterion(random.Random(seed), n)
    except AssertionError:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_01_golden_example():
    _accept(1, "golden example", None, 1)  # criteria 1-2 draw nothing


def test_criterion_02_golden_counterexamples():
    _accept(2, "golden counterexamples", None, 1)


def test_criterion_03_symplectic_condition():
    _accept(3, "boundary word and omega action", 1003, 100)


def test_criterion_04_ell_identities():
    _accept(4, "degree-2 invariant identities", 1004, 1000)


def test_criterion_05_twist_lemma():
    _accept(5, "twist lemma, two computation paths", 1005, 500)


def test_criterion_06_degree_three_dual_path():
    _accept(6, "degree-3 dual path and invariance", 1006, 500)


def test_criterion_07_classical_twist_formula():
    _accept(7, "classical twist formula on homology", 1007, 200)


def test_criterion_08_verdict_conjugation_invariance():
    _accept(8, "verdict conjugation invariance", 1008, 500)


def test_criterion_09_dependent_classes():
    _accept(9, "same-curve inconclusiveness", 1009, 200)


def test_criterion_10_lattice_oracle():
    _accept(10, "lattice membership vs exhaustive scan", 1010, 500)


# --- every criterion can fail ------------------------------------------------

def _flip_verdict(analyze):
    """analyze with inconclusive and theorem swapped in every report."""
    def flipped(genus, a, b):
        cls, fields = analyze(genus, a, b).__reduce__()
        verdict = (VERDICT_THEOREM if fields[-1] == VERDICT_INCONCLUSIVE
                   else VERDICT_INCONCLUSIVE)
        return cls(*fields[:-1], verdict)
    return flipped


def _flip_member(lattice_member):
    def flipped(v, u1, u2):
        w = lattice_member(v, u1, u2)
        return LatticeWitness(not w.member, w.m, w.n)
    return flipped


# (id, criterion number, the name patched in curveobs.selftest, the fault as
# a function of the original, a pattern matching the start of the failure
# message, which names the instance)
FAULTS = [
    ("01-flipped-verdict", 1, "analyze", _flip_verdict,
     r"^genus 2, a = x1 x2 y2 x2\^-1, b = y2 x1\^-1: v = X1, "),
    ("02-swapped-words", 2, "analyze",
     lambda f: lambda g, a, b: f(g, b, a), r"^genus 2, a = x2\^-1, b = x1: "),
    ("03-negated-ell", 3, "ell", lambda f: lambda w: -f(w),
     r"^ell of the boundary word at genus 1$"),
    ("04-ell-right-to-left", 4, "ell",
     lambda f: lambda w: f(Word(w.genus, w.letters[::-1])),
     r"^genus \d, g = .*, h = "),
    ("05-twist-check-false", 5, "twist_consistency",
     lambda f: lambda g, a, b: (False, {}, {}), r"^genus \d, a = .*, b = "),
    ("06-negated-class", 6, "L_theta", lambda f: lambda h, e: f(-h, e),
     r"^genus \d, a = .*, c = "),
    ("07-identity-twist", 7, "johnson_twist", lambda f: lambda L, u: u,
     r"^genus \d, a = .*, basis vector \d$"),
    ("08-first-letter-dropped", 8, "analyze",
     lambda f: lambda g, a, b: f(g, Word(g, a.letters[1:]), b),
     r"^genus \d, a = .*, b = .*, c = .*, d = "),
    ("09-flipped-verdict", 9, "analyze", _flip_verdict,
     r"^\d+/25 pairs of the same curve .*, e\.g\. case \d+: genus \d, a = "),
    ("10-flipped-witness", 10, "lattice_member", _flip_member,
     r"^v = .*, u1 = .*, u2 = .*, LatticeWitness\(member="),
]


@pytest.mark.parametrize("number, name, fault, message",
                         [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_a_planted_fault_fails_its_criterion(monkeypatch, number, name,
                                             fault, message):
    _, criterion, count = CRITERIA[number - 1]
    monkeypatch.setattr(selftest, name, fault(getattr(selftest, name)))
    with pytest.raises(SelfTestFailure, match=message):
        criterion(random.Random(0), count)
