"""Exact lattice computations for moduli of sheaves on K3 surfaces and
their Hilbert schemes: Fujiki products, Mukai vectors, wall classes,
slope reduction and admissible-parameter searches. All arithmetic is
integer or Fraction based; nothing here touches floats."""

from .errors import (
    InputError,
    MathCheckError,
    NoAdmissibleParameter,
    SearchCapExceeded,
)
from .fujiki import (
    FUJIKI_CONSTANTS,
    FujikiSetup,
    discriminant_sum_identity,
    double_factorial,
    fiber_restriction_integral,
    fujiki_constant,
    matchings_sum,
    modular_delta_integral,
    parse_kind,
    perfect_matchings,
    propsemi_bound_check,
    top_intersection,
)
from .hilb2 import (
    F2Invariants,
    McKaySquare,
    ambient_divisibility,
    divisibility_type,
    econ_check,
    f2_invariants,
    governing_divisibility,
    h_polarization,
    hilb2_ns,
    m0_s0,
    mckay_ext_dims,
    potenza_solve,
    resemibis_ranks,
    restrango_check,
    rosetta_check,
    unicita_report,
)
from .jsonio import canonical_json, load_json_file, to_rational
from .lattice import (
    IntLattice,
    LatVec,
    content,
    lattice,
    lattice_from_json,
    latvec_from_json,
    norm,
    pair,
    primitive_part,
    saturation_check,
    vec,
)
from .mukai import (
    MukaiNumerics,
    MukaiVector,
    from_chern,
    mukai_from_json,
    mukai_pairing,
    mukai_square,
    normalize_twist,
    numerics,
    twist_by_mf,
)
from .nl import (
    DEFAULT_SEARCH_CAP,
    Admissibility,
    NefIsotropicClasses,
    buonacompt_bound,
    buonacompt_min_d,
    nef_isotropic_classes,
    nl_hk_admissible,
    nl_k3_admissible,
    propriostab_admissible,
    rigsuk_bound,
    rigsuk_min_d0,
)
from .pipelines import (
    Scenario,
    TwistResult,
    casoprim_pipeline,
    load_scenario,
    multacca_normalize,
    run_scenario,
    scenario_from_json,
    vbk3ell_pipeline,
)
from .reduction import (
    AtiyahResult,
    HomCountResult,
    ModificationStep,
    ReductionTrace,
    atiyah_exists,
    bezout_r0_d0,
    elementary_modification,
    hom_count_check,
    nonlocally_free_dim_identity,
    reduction_trace,
    rigid_vector,
)
from .report import Check, TheoremReport
from .verify import VerifySummary, verify_all
from .walls import (
    EllipticNS,
    SuitabilityReport,
    WallClass,
    as_elliptic,
    enumerate_wall_classes,
    is_suitable,
    min_negative_norm,
    no_wall_threshold,
    suitability_for,
    wall_ray,
)

__version__ = "0.1.0"
