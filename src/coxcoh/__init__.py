"""Exact cohomology of twisting sheaves on complete simplicial toric varieties.

The pipeline: parse a complete simplicial fan, build the graded coordinate
ring and the irrelevant ideal, evaluate the limit Koszul/Cech cohomology
degreewise by sign pattern, and push forward to per-degree dimensions of
the twisting sheaves.  A Groebner-based Ext computation provides an
independent finite-stage oracle for the same numbers.
"""

from .fan import (
    Fan,
    FanError,
    FanReport,
    SquarefreeMonomial,
    emit_fan,
    irrelevant_generators,
    parse_fan,
    validate_fan,
)
from .grading import (
    GradingClass,
    GradingGroup,
    UnboundedRegionError,
    grading_group,
    match_degree_basis,
)
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    divide,
    kernel_of_quotient_map,
    syzygy,
)
from .homalg import (
    FreeResolution,
    HomStrands,
    PresentedModule,
    box_around,
    ext_presentation,
    free_resolution,
    hilbert_function_box,
    minimal_generators,
    presented_is_zero,
)
from .koszul import KoszulComplex, is_regular_sequence, self_duality_check
from .localcoh import bracket_power_module, ext_limit_oracle, pattern_cohomology, pattern_table
from .ring import FreeModuleElement, Poly, component_dimension, format_poly, parse_poly
from .sheaf import (
    CohomologyReport,
    cohomology_of_U,
    cohomology_table,
    fan_grading,
    report_to_json,
    sheaf_cohomology_dim,
)

__version__ = "0.1.0"
