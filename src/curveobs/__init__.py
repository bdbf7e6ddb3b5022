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

# The twist path and the reference algebra load when one of their names is
# first looked up (PEP 562), so `analyze` never imports them. Each lookup
# reads the defining module's attribute afresh: nothing is cached here.
_LAZY = {
    "TruncTensor": "tensor",
    "theta0": "expansion",
    **dict.fromkeys(("wedge", "Wedge3", "act2", "wedge3", "act3", "omega",
                     "embed2", "embed3", "cyclic_N", "derive", "L_theta",
                     "johnson_twist"), "reference"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Word", "WordError", "parse_word", "format_word", "commutator",
    "boundary_word", "random_word_rng", "random_commutator_element_rng",
    "HVec", "LatticeWitness", "abelianize", "intersection", "lattice_member",
    "is_integral",
    "Wedge2", "Wedge3", "wedge", "act2", "wedge3", "act3", "omega", "embed2",
    "embed3",
    "ell", "ell_of_letters", "obstruction_vector",
    "TruncTensor", "cyclic_N", "derive", "theta0", "L_theta", "johnson_twist",
    "Report", "analyze", "twist_consistency",
]
