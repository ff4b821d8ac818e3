"""Exact branching laws for discrete series restrictions: closed forms,
distributional oracles, and admissibility tests, all in integer/rational
arithmetic."""

from .errors import (
    BranchkitError,
    ConfigurationError,
    DimensionError,
    DomainError,
    InternalError,
    ResourceError,
)
from .formal import (
    DeltaSeries,
    ProductSum,
    ValidityRegion,
    convolve,
    convolve_multiset,
    dirac,
    heaviside,
    heaviside_power,
)
from .lattice import (
    InnerProductForm,
    Weight,
    coroot_pairing,
    format_weight,
    identity_form,
    inner,
    parse_weight,
    reflect,
    weight,
)
from .oracle import (
    OracleConfig,
    compare,
    extract_multiplicities,
    restriction_series,
    torus_restriction_sides,
    verify_closed_form,
)
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    SubgroupContext,
    admissible_system,
    branching_table,
    check_table_dominance,
    decompose_parameter,
    quaternionic_context,
)
from .repweights import (
    CompactFactor,
    WeightMultTable,
    freudenthal,
    hc_to_highest_weight,
    restrict_weights,
    su2_string_decompose,
    validate_hc_parameter,
    weyl_dimension,
)
from .rootsystems import (
    PositiveSystem,
    RootDatum,
    WeylElement,
    chambers,
    coset_reps,
    positive_system,
    quaternionic_root_datum,
    small_system,
    weyl_generate,
)
from .specialcases import (
    HermitianData,
    Sp1qContext,
    hermitian_data,
    kss_admissible,
    kss_admissible_report,
    so3_admissible,
    sp1q_branching_table,
    sp1q_context,
    sp1q_restriction_series,
    sp1q_verify,
)

__version__ = "0.1.0"
