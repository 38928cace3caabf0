"""Semantics, translations and finite model theory of lattice logics
over two-sorted polarity frames."""

from .errors import (
    CapExceeded, NormalityError, ParseError, PolarModalError,
    PreconditionError, SortError,
)
from .frames import (
    Concept, FiniteLattice, FiniteLatticeExpansion, Sort, SortedFrame,
    SortedRelation, SortingType, canonical_frame, random_frame,
)
from .syntax import (
    EMPTY_SIGNATURE, FolFormula, LatticeFormula, ModalFormula, Signature,
    parse_fol, parse_lattice, parse_modal, print_fol, print_lattice,
    print_modal,
)
from .semantics import (
    LatticeModel, ModalModel, eval_fol, frame_valid_modal, lattice_consequence,
    lattice_extent, sat_lattice, sat_modal, sort_reduce,
    sorting_constraint_sentences, truth_set,
)
from .transform import (
    induced_model, is_stable_fol, is_stable_modal, stability_transform,
    std_translate, translate, verify_translation_theorem,
)
from .bisim import (
    SortedPairRelation, is_bisimulation, is_model_bisimulation, is_simulation,
    largest_bisimulation, modal_equiv,
)

__version__ = "0.1.0"
