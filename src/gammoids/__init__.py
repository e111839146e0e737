"""Digraph representations of gammoids.

Core objects: :class:`Digraph`, :class:`Routing`, :class:`Matroid` and
:class:`Representation`; on top of them the representation surgery
(standardization, duality, ground restriction and contraction), the
exhaustive arc-complexity search, and super-additive width measures.
"""

from .digraph import Digraph, opposite, remove_loops, swap
from .routing import Routing, is_independent, max_routing, routable
from .matroid import (
    EnumerationLimitError,
    Matroid,
    contract_to,
    direct_sum,
    dual,
    gamma,
    relabel,
    restrict,
    uniform,
    validate_matroid,
)
from .representation import (
    NotABaseError,
    NotStandardError,
    Representation,
    contract_representation,
    dual_representation,
    is_duality_respecting,
    is_standard,
    rebase,
    restrict_representation,
    standardize,
    swap_sequence,
)
from .complexity import (
    BudgetExhaustedError,
    ComplexityCertificate,
    SearchLimits,
    SuperAdditiveFn,
    WidthReport,
    arc_complexity,
    f_width,
    in_class,
    is_superadditive,
    kw_upper_bound,
    lower_bound,
    search_form,
    uniform_rep,
    verify_uniform_conjecture,
)

__all__ = [
    "Digraph",
    "opposite",
    "remove_loops",
    "swap",
    "Routing",
    "max_routing",
    "routable",
    "is_independent",
    "Matroid",
    "EnumerationLimitError",
    "gamma",
    "dual",
    "restrict",
    "contract_to",
    "direct_sum",
    "uniform",
    "relabel",
    "validate_matroid",
    "Representation",
    "NotStandardError",
    "NotABaseError",
    "is_standard",
    "is_duality_respecting",
    "dual_representation",
    "swap_sequence",
    "rebase",
    "standardize",
    "restrict_representation",
    "contract_representation",
    "SearchLimits",
    "ComplexityCertificate",
    "WidthReport",
    "SuperAdditiveFn",
    "BudgetExhaustedError",
    "arc_complexity",
    "lower_bound",
    "kw_upper_bound",
    "uniform_rep",
    "verify_uniform_conjecture",
    "search_form",
    "f_width",
    "in_class",
    "is_superadditive",
]
