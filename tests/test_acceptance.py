"""Acceptance suite: the ten criteria of curveobs.selftest at their full seeds
and counts, printing one PASS/FAIL line per criterion (visible under
``pytest -s`` or in the captured-output section of a failure).
"""

import random

from curveobs.selftest import CRITERIA


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
