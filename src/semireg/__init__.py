"""Degree of regularity of overdetermined quadratic semi-regular systems.

Exact computation from the truncated Hilbert series, certified
cross-validation through smallest orthogonal-polynomial roots and
Golub-Kahan eigenvalues, and four closed-form bounds with certified
integer or interval arithmetic.
"""

from .exact import (
    SystemShape,
    binomial,
    coefficient,
    hilbert_truncation,
    degree_of_regularity_exact,
    f5_cost_log2,
)
from .krawtchouk import (
    KrawtchoukParams,
    eval_exact,
    eval_integer,
    gf_identity_check,
)
from .roots import (
    smallest_root,
    smallest_root_chain,
    dreg_via_roots,
    largest_eigenvalue,
    dreg_via_eigenvalues,
)
from .bounds import (
    AiryConstant,
    BoundKind,
    BoundOutcome,
    NotApplicableReason,
    QuarticClosedForm,
    SexticForm,
    kz_lower,
    kz_predicate_full,
    ls_lower,
    ls_lower_asymptotic,
    ls_lower_asymptotic_case,
    ls_upper,
    l_upper,
)
from .intervals import Enclosure

__version__ = "0.1.0"

__all__ = [
    "SystemShape",
    "binomial",
    "coefficient",
    "hilbert_truncation",
    "degree_of_regularity_exact",
    "f5_cost_log2",
    "KrawtchoukParams",
    "eval_exact",
    "eval_integer",
    "gf_identity_check",
    "smallest_root",
    "smallest_root_chain",
    "dreg_via_roots",
    "largest_eigenvalue",
    "dreg_via_eigenvalues",
    "AiryConstant",
    "BoundKind",
    "BoundOutcome",
    "NotApplicableReason",
    "QuarticClosedForm",
    "SexticForm",
    "kz_lower",
    "kz_predicate_full",
    "ls_lower",
    "ls_lower_asymptotic",
    "ls_lower_asymptotic_case",
    "ls_upper",
    "l_upper",
    "Enclosure",
    "__version__",
]
