"""Computational engine for finite group formation theory.

Computes the pi-F-hypercentre, the intersection of all F-maximal
subgroups, and K-F-subnormality for a menu of saturated formations, and
verifies their equality theorems over a catalog of small finite groups.
"""

from .catalog import (
    CatalogEntry,
    build_group,
    catalog,
    catalog_group,
    catalog_groups,
    catalog_names,
    cycle_string,
    designated_module,
    load_group_file,
    parse_cycles,
)
from .chiefs import (
    ChiefFactor,
    ChiefSeries,
    chief_series,
    chief_series_through,
    is_f_central,
    is_f_central_satellite,
    is_f_central_semidirect,
    section_extension,
    z_f,
    z_pi_f,
    z_pi_f_oracle,
)
from .criticality import CriticalWitness, boundary_scan, is_class_critical
from .errors import (
    ClosureCapExceeded,
    ConstructionFailed,
    FormalabError,
    InvalidPermutation,
    IsoCapExceeded,
    NoSatellite,
    NotAutomorphism,
    NotNormal,
    NotSoluble,
    PreconditionViolated,
    RelationMismatch,
    SubgroupCountCapExceeded,
)
from .formations import (
    ALL,
    NA,
    NIL,
    SOL,
    SUP,
    SYLTOWER,
    TRIV,
    FormationSpec,
    a_exp,
    g_pi,
    is_member,
    nil_pow,
    p_dec,
    p_nilp,
    p_sup,
    parse_formation,
    pi_closed,
    residual,
    s_pi,
    satellite_member,
)
from .groups import (
    Group,
    QuotientMap,
    SubgroupSet,
    are_isomorphic,
    direct_product,
    elementary_abelian_vector_group,
    generated_subgroup,
    group_from_permutations,
    matrix_module_semidirect,
    quotient_group,
    semidirect_product,
    trivial_action,
)
from .intersections import (
    FMaxReport,
    f_max_report,
    f_maximal_subgroups,
    int_f,
    int_star_f,
    is_k_f_subnormal,
)
from .lattice import (
    all_subgroups,
    centre,
    core,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    frattini_subgroup,
    hall,
    hypercentre,
    is_nilpotent,
    is_soluble,
    maximal_subgroups,
    minimal_normal_subgroups,
    named_subgroup,
    nilpotent_length,
    normal_subgroups,
    section_centralizer,
    socle,
    sylow,
    upper_central_series,
)
from .suites import (
    STATEMENTS,
    Statement,
    SuiteReport,
    analyze_report,
    run,
)

__version__ = "1.0.0"
