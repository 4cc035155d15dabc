"""Exact symbolic computation for the subalgebras A_h of the Weyl algebra.

For a nonzero polynomial h over Q or GF(p), A_h is the algebra generated by
x and yhat with yhat x - x yhat = h, realized inside the Weyl algebra A_1
via yhat = y h. The package computes the structural invariants of A_h
(pi_h, varrho_h, the center and its coordinates, the normalizer), its
derivations (construction, validation, application, extension to A_1, the
direct decompositions in both characteristics), and the Lie structure of
HH^1(A_h) = Der/Inder (canonical classes, closed-form brackets and the
structure report, with the nilpotency index of the maximal nilpotent ideal,
in characteristic 0; the module structure over the center and the freeness
criterion in characteristic p).

All arithmetic is exact; no floating point anywhere.
"""

from .centerpoly import CenterPoly
from .context import (
    AhContext,
    FactorListError,
    MembershipError,
    NormalizerResult,
    NotCentralizing,
    weyl_context,
)
from .derivations import (
    AhAlgebraMap,
    CenterDerivation,
    D_g,
    DecompCharP,
    DecompCharZero,
    Derivation,
    InnerWitness,
    InvalidDerivation,
    InvalidDerivationError,
    NotExtendable,
    NotInner,
    ad,
    ad_ra_n,
    bhat_f,
    bhat_x,
    decompose_Ah_char0,
    decompose_Ah_charp,
    ex_apply,
    extend_to_A1,
    ey_apply,
    is_inner,
    make_derivation,
    restrict_to_center,
)
from .fields import ExactDivisionError, FieldMismatchError, FieldSpec, QQ
from .hochschild import (
    HH1CharPReport,
    HH1ClassChar0,
    HH1ReportChar0,
    bracket_char0,
    bracket_charp,
    canonical_class_char0,
    center_HH1_char0,
    freeness_and_module_report_charp,
    structure_report_char0,
)
from .parse import ParseError, parse_factors, parse_poly, parse_weyl
from .poly import NEG_INF, NotIntegrable, Poly
from .verify import run_verify
from .weyl import WeylElement, commutator, varpi

__version__ = "0.1.0"

__all__ = [
    "AhAlgebraMap",
    "AhContext",
    "CenterDerivation",
    "CenterPoly",
    "D_g",
    "DecompCharP",
    "DecompCharZero",
    "Derivation",
    "ExactDivisionError",
    "FactorListError",
    "FieldMismatchError",
    "FieldSpec",
    "HH1CharPReport",
    "HH1ClassChar0",
    "HH1ReportChar0",
    "InnerWitness",
    "InvalidDerivation",
    "InvalidDerivationError",
    "MembershipError",
    "NEG_INF",
    "NormalizerResult",
    "NotCentralizing",
    "NotExtendable",
    "NotInner",
    "NotIntegrable",
    "ParseError",
    "Poly",
    "QQ",
    "WeylElement",
    "ad",
    "ad_ra_n",
    "bhat_f",
    "bhat_x",
    "bracket_char0",
    "bracket_charp",
    "canonical_class_char0",
    "center_HH1_char0",
    "commutator",
    "decompose_Ah_char0",
    "decompose_Ah_charp",
    "ex_apply",
    "extend_to_A1",
    "ey_apply",
    "freeness_and_module_report_charp",
    "is_inner",
    "make_derivation",
    "parse_factors",
    "parse_poly",
    "parse_weyl",
    "restrict_to_center",
    "run_verify",
    "structure_report_char0",
    "varpi",
    "weyl_context",
]
