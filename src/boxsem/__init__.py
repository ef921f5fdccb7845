"""Finite presheaf semantics for a necessity modality.

The package builds everything from explicit tables: finite categories,
presheaves with numbered fibers, comonads induced by restriction and
right Kan extension along a functor, their coalgebras, and the
dependent-type structure those coalgebras carry.  On top sits a small
two-zone modal kernel with a checker, a definitional equality
decision, and an interpretation that lands every judgment in a chosen
comonad model and tests the expected equations as data.
"""

from .fincat import FinCat, FinCatError, Functor, Site
from .presheaf import (
    KanAdjunction,
    Omega,
    Presheaf,
    PresheafError,
    PresheafMap,
    sheaf_check,
    subobject_classifier,
)
from .natmodel import (
    BoundExceeded,
    ModelError,
    NaturalModel,
    TermOverContext,
    TypeOverContext,
    Universe,
    hs_universe,
)
from .coalg import (
    Coalgebra,
    CoalgebraType,
    ComonadError,
    EnumerationCeiling,
    coalgebra_category,
    coalgebra_classifier,
    comonad_from_adjunction,
    identity_comonad,
    kock_wraith_classifier,
    validate_comonad,
)
from .s4dtt import (
    CheckError,
    Module,
    ParseError,
    Signature,
    Telescope,
    check_module,
    defeq,
    parse,
    recheck,
    substitute,
)
from .interp import PartialResult, SemanticTarget, interpret, soundness_harness

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CheckError",
    "Coalgebra",
    "CoalgebraType",
    "ComonadError",
    "EnumerationCeiling",
    "FinCat",
    "FinCatError",
    "Functor",
    "KanAdjunction",
    "ModelError",
    "Module",
    "NaturalModel",
    "Omega",
    "ParseError",
    "PartialResult",
    "Presheaf",
    "PresheafError",
    "PresheafMap",
    "SemanticTarget",
    "Signature",
    "Site",
    "Telescope",
    "TermOverContext",
    "TypeOverContext",
    "Universe",
    "check_module",
    "coalgebra_category",
    "coalgebra_classifier",
    "comonad_from_adjunction",
    "defeq",
    "hs_universe",
    "identity_comonad",
    "interpret",
    "kock_wraith_classifier",
    "parse",
    "recheck",
    "sheaf_check",
    "subobject_classifier",
    "substitute",
    "soundness_harness",
    "validate_comonad",
    "__version__",
]
