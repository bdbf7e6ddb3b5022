"""Exact calculator for the degree-2 intersection obstruction of curves on a
genus-g surface with one boundary component."""

__version__ = "0.1.0"  # the one home of the version; pyproject.toml reads it

from .ell import ell, ell_of_letters, obstruction_vector
from .homology import (HVec, LatticeWitness, abelianize, intersection,
                       is_integral, lattice_member)
from .obstruction import Report, analyze, twist_consistency
from .wedge import Wedge2
from .words import (Word, WordError, boundary_word, commutator, format_word,
                    parse_word, random_commutator_element_rng,
                    random_word_rng)

__all__ = [
    "Word", "WordError", "parse_word", "format_word", "commutator",
    "boundary_word", "random_word_rng", "random_commutator_element_rng",
    "HVec", "LatticeWitness", "abelianize", "intersection", "lattice_member",
    "is_integral",
    "Wedge2",
    "ell", "ell_of_letters", "obstruction_vector",
    "Report", "analyze", "twist_consistency",
]
