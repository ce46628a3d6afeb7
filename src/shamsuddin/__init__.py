"""Exact symbolic toolkit for Shamsuddin derivations of Q[x, y1..yn].

Decides simplicity, describes and samples the commuting automorphism group
with verified witnesses, tests local finiteness, classifies the image as a
Mathieu-Zhao subspace, and solves bounded preimage problems — all in exact
rational arithmetic.
"""

from .analysis import (
    IsotropyCase,
    IsotropyDescription,
    MzTag,
    MzVerdict,
    SimplicityVerdict,
    is_locally_finite,
    is_simple,
    is_simple_block,
    isotropy_describe_block,
    isotropy_is_trivial,
    isotropy_witness,
    mz_classify,
    nat_dependence_witness,
    preimage_bounded,
    sample_isotropy_element,
)
from .derivations import (
    Block,
    Derivation,
    TriangularDerivation,
    apply_derivation,
    normalize,
    span_dim,
)
from .endos import (
    AffineEndo,
    PolyEndo,
    affine_commutes,
    affine_is_automorphism,
    affine_to_endo,
    commutes,
    endo_apply,
    endo_to_affine,
)
from .linalg import (
    AffineSpace,
    QMatrix,
    VerificationError,
    nonneg_kernel_witness,
    rref_rows,
)
from .ode import (
    degree_bound,
    has_nonzero_k_solution,
    reduce_linear_ode,
)
from .polynomials import NEG_INF, MultiPoly, Rational, UniPoly
from .textio import (
    ParseError,
    SemanticError,
    format_derivation,
    format_endo,
    format_poly,
    parse_derivation,
    parse_endo,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "AffineEndo",
    "AffineSpace",
    "Block",
    "Derivation",
    "IsotropyCase",
    "IsotropyDescription",
    "MultiPoly",
    "MzTag",
    "MzVerdict",
    "NEG_INF",
    "ParseError",
    "PolyEndo",
    "QMatrix",
    "Rational",
    "SemanticError",
    "SimplicityVerdict",
    "TriangularDerivation",
    "UniPoly",
    "VerificationError",
    "affine_commutes",
    "affine_is_automorphism",
    "affine_to_endo",
    "apply_derivation",
    "commutes",
    "degree_bound",
    "endo_apply",
    "endo_to_affine",
    "format_derivation",
    "format_endo",
    "format_poly",
    "has_nonzero_k_solution",
    "is_locally_finite",
    "is_simple",
    "is_simple_block",
    "isotropy_describe_block",
    "isotropy_is_trivial",
    "isotropy_witness",
    "mz_classify",
    "nat_dependence_witness",
    "nonneg_kernel_witness",
    "normalize",
    "parse_derivation",
    "parse_endo",
    "parse_poly",
    "preimage_bounded",
    "reduce_linear_ode",
    "rref_rows",
    "sample_isotropy_element",
    "span_dim",
]
