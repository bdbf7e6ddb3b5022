"""Mapping-class moves, and the verdict's equivariance under them.

A move is an automorphism phi of the free group F_2g on x_1, y_1, ...,
x_g, y_g that fixes the boundary word zeta = prod [x_j, y_j]; such an
automorphism is a mapping class of the genus-g surface with one boundary
component (Dehn-Nielsen-Baer, in Zieschang's form for surfaces with
boundary). The moves here are the local twists y_j -> y_j x_j^+-1 and
x_j -> x_j y_j^+-1, and the connecting twist along c = y_j^-1 x_{j+1}:
x_j -> x_j c, y_j -> c^-1 y_j c, x_{j+1} -> c^-1 x_{j+1} c,
y_{j+1} -> y_{j+1} c, whose inverse swaps c and c^-1 in every image.

Why v moves by sigma, phi's action on homology. For the symplectic
expansion theta, theta(phi w) = T(phi)(theta(w)) for an automorphism T(phi)
of the completed tensor algebra whose degree-1 part is sigma and whose next
part, as phi fixes zeta, is a trivector t in Lambda^3 H acting by
contraction: the first Johnson homomorphism, extended to the whole mapping
class group (Johnson, "An abelian quotient of the mapping class group";
Massuyeau, "Infinitesimal Morita homomorphisms and the tree-level of the LMO
invariant"; Kawazumi-Kuno, "The logarithms of Dehn twists"). Read in
degree 2, ell(phi w) = Lambda^2 sigma (ell(w)) + i_{sigma |w|} t. So

    v(phi a, phi b) = (Lambda^2 sigma ell(a))(sigma |b|)
                      + (Lambda^2 sigma ell(b))(sigma |a|)
                      + i_{sigma |b|} i_{sigma |a|} t + i_{sigma |a|} i_{sigma |b|} t.

sigma preserves the intersection pairing, so the first two terms are
sigma(v(a, b)); t is alternating, so the last two cancel, as in
`TestExpansionIndependence`. sigma is in Sp(2g, Z), so it keeps i_A and maps
Z|a| + Z|b| onto Z sigma|a| + Z sigma|b|: the verdict is unchanged. Nothing
here asks a or b to be simple, so the tests draw arbitrary words. For an
automorphism that does not fix zeta neither step holds: the control
x_1 -> x_1 x_2, whose sigma is not symplectic, moves v.
"""

import random

import pytest

from curveobs.homology import HVec, abelianize, intersection
from curveobs.obstruction import VERDICT_INCONCLUSIVE, VERDICT_THEOREM, analyze
from curveobs.words import (Word, boundary_word, random_word_rng,
                            reduce_letters)

# --- automorphisms as the images of x_1, y_1, ..., x_g, y_g ------------------


def identity(g):
    return tuple((k,) for k in range(1, 2 * g + 1))


def inverse_letters(letters):
    return tuple(-l for l in reversed(letters))


def apply(phi, letters):
    """phi of a letter sequence, freely reduced."""
    out = []
    for l in letters:
        out += phi[l - 1] if l > 0 else inverse_letters(phi[-l - 1])
    return reduce_letters(out)


def substitution(g, images):
    """The automorphism that sends each generator letter in `images` to its
    image there and fixes the others."""
    return tuple(reduce_letters(images.get(k, (k,))) for k in range(1, 2 * g + 1))


def move_pairs(g):
    """Each move with its inverse, at genus g."""
    pairs = []
    for j in range(1, g + 1):
        x, y = 2 * j - 1, 2 * j
        pairs.append((substitution(g, {y: (y, x)}), substitution(g, {y: (y, -x)})))
        pairs.append((substitution(g, {x: (x, y)}), substitution(g, {x: (x, -y)})))
    for j in range(1, g):
        x, y, x2, y2 = 2 * j - 1, 2 * j, 2 * j + 1, 2 * j + 2
        pair = []
        for c in ((-y, x2), (-x2, y)):  # c, then c^-1
            ci = inverse_letters(c)
            pair.append(substitution(g, {x: (x, *c), y: (*ci, y, *c),
                                         x2: (*ci, x2, *c), y2: (y2, *c)}))
        pairs.append(tuple(pair))
    return pairs


def random_mapping_class(g, rng):
    """A product of 1-6 moves drawn uniformly, inverses included."""
    moves = [m for pair in move_pairs(g) for m in pair]
    phi = identity(g)
    for _ in range(rng.randint(1, 6)):
        m = rng.choice(moves)
        phi = tuple(apply(m, image) for image in phi)
    return phi


def image(phi, w):
    return Word(w.genus, apply(phi, w.letters))


def sigma(phi, v):
    """phi's action on homology: sum of v_k |phi(generator k)|."""
    out = HVec.zero(v.genus)
    for c, img in zip(v.coords, phi):
        out = out + abelianize(Word(v.genus, img)).scale(c)
    return out


# x_1 -> x_1 x_2: an automorphism of F_2g that does not fix zeta
def control(g):
    return substitution(g, {1: (1, 3)})


def crossing_free_pair(g, rng):
    """Random words of 1-8 letters with i_A = 0."""
    while True:
        a = random_word_rng(g, rng.randint(1, 8), rng)
        b = random_word_rng(g, rng.randint(1, 8), rng)
        if intersection(abelianize(a), abelianize(b)) == 0:
            return a, b


def equivariant(phi, a, b):
    """v(phi a, phi b) = sigma(v(a, b)), and the verdict is unchanged."""
    rep = analyze(a.genus, a, b)
    moved = analyze(a.genus, image(phi, a), image(phi, b))
    return (moved.v is not None and moved.v == sigma(phi, rep.v)
            and moved.verdict == rep.verdict), rep.verdict


GENERA = range(1, 5)


class TestMoves:
    @pytest.mark.parametrize("g", GENERA)
    def test_each_move_fixes_zeta(self, g):
        zeta = boundary_word(g)
        pairs = move_pairs(g)
        assert len(pairs) == 2 * g + (g - 1)
        for pair in pairs:
            for m in pair:
                assert image(m, zeta) == zeta, m

    @pytest.mark.parametrize("g", GENERA)
    def test_each_move_is_undone_by_its_inverse(self, g):
        for m, inv in move_pairs(g):
            assert tuple(apply(inv, img) for img in m) == identity(g), m
            assert tuple(apply(m, img) for img in inv) == identity(g), m

    @pytest.mark.parametrize("g", GENERA)
    def test_each_move_is_symplectic_on_homology(self, g):
        basis = [HVec.basis(g, k) for k in range(2 * g)]
        for pair in move_pairs(g):
            for m in pair:
                images = [sigma(m, u) for u in basis]
                for u, su in zip(basis, images):
                    for w, sw in zip(basis, images):
                        assert intersection(su, sw) == intersection(u, w), m


class TestEquivariance:
    def test_random_pairs(self):
        rng = random.Random(5)
        verdicts = {VERDICT_THEOREM: 0, VERDICT_INCONCLUSIVE: 0}
        for _ in range(300):
            g = rng.randint(1, 4)
            a, b = crossing_free_pair(g, rng)
            phi = random_mapping_class(g, rng)
            ok, verdict = equivariant(phi, a, b)
            assert ok, (phi, a, b)
            verdicts[verdict] += 1
        # both verdicts are exercised
        assert min(verdicts.values()) > 0, verdicts

    def test_images_of_disjoint_standard_curves_are_never_certified(self):
        # (x1, x2), (x1, y2) and (x1, x1), as letters
        rng = random.Random(6)
        for _ in range(300):
            a, b = rng.choice(((1, 3), (1, 4), (1, 1)))
            g = rng.randint(1 if b == 1 else 2, 4)
            phi = random_mapping_class(g, rng)
            rep = analyze(g, Word(g, apply(phi, (a,))), Word(g, apply(phi, (b,))))
            assert rep.verdict == VERDICT_INCONCLUSIVE, (phi, a, b)

    def test_control_that_moves_zeta_breaks_equivariance(self):
        rng = random.Random(5)
        broken = 0
        for _ in range(300):
            g = rng.randint(2, 4)
            phi = control(g)
            assert image(phi, boundary_word(g)) != boundary_word(g)
            broken += not equivariant(phi, *crossing_free_pair(g, rng))[0]
        assert broken > 0
