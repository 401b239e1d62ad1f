"""invgen: exact and Monte Carlo invariable-generation statistics for
small finite groups, with module/cohomology tooling for split extensions.

The package is organised bottom-up:

- ``perm``/``group``: permutations, multiplication tables, conjugacy classes
- ``subgroups``: lattices, maximal/normal subgroups, Frattini, quotients
- ``coverage``: class coverage tables and invariable-generation tests
- ``cheb``: exact and Monte Carlo Chebotarev invariants C(G), P_I(G, k)
- ``modlin``: F_p[H]-modules, derivations, first cohomology dimensions
- ``genlift``: linear criteria for generating V^u semidirect H by lifts
- ``crowns``: chief series, abelian/nonabelian crowns, crown-based powers
- ``harness``: survey corpus runner and trend/tail utilities
- ``properties``: randomized invariant battery behind ``invgen verify``
"""

from .cheb import (
    ExactChebotarev,
    MonteCarloReport,
    ProbabilityReport,
    chebotarev_exact,
    chebotarev_montecarlo,
    inclusion_exclusion_profile,
    min_k_for_probability,
    p_invariable_exact,
    p_invariable_montecarlo,
    truncated_expectation,
)
from .coverage import (
    ClassCoverageTable,
    coverage_table,
    coverage_to_csv,
    fpf_proportion,
    invariably_generates,
)
from .crowns import (
    ChiefFactor,
    CrownData,
    abelian_crown_power_with_embedding,
    build_crown_power_general,
    chief_series,
    corona_decomposition,
    crown_of_factor,
    factors_equivalent,
    modules_isomorphic,
    verify_sotto,
)
from .errors import CapExceeded, InputError, InvgenError, PreconditionError
from .genlift import (
    MODE_GENERATE,
    MODE_INVARIABLE,
    DWSpaces,
    LiftProblem,
    MaxLiftRank,
    build_dw,
    dimen_bound_check,
    gen_criterion,
    invgen_criterion,
    lift_problem_from_descriptor,
    max_lift_rank,
    resolve_word,
)
from .group import ConjClass, Group, load_group
from .harness import (
    BinomialCheckRow,
    SurveyRow,
    agl_trend,
    binomial_check,
    binomial_tail,
    read_corpus,
    realize_descriptor,
    run_survey,
    shipped_corpus_path,
)
from .modlin import DerivationSpace, EndField, ModuleAction, module_from_descriptor
from .perm import Perm
from .properties import (
    DEFAULT_SEED,
    PROPERTY_CHECKS,
    CheckOutcome,
    PropertyReport,
    verify_props,
)
from .subgroups import (
    SubgroupRecord,
    closure_indices,
    frattini,
    generated_subgroup,
    maximal_subgroups_up_to_conjugacy,
    minimal_normal_subgroups,
    subgroup_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialCheckRow",
    "CapExceeded",
    "CheckOutcome",
    "ChiefFactor",
    "ClassCoverageTable",
    "ConjClass",
    "CrownData",
    "DEFAULT_SEED",
    "DWSpaces",
    "DerivationSpace",
    "EndField",
    "ExactChebotarev",
    "Group",
    "InputError",
    "InvgenError",
    "LiftProblem",
    "MODE_GENERATE",
    "MODE_INVARIABLE",
    "MaxLiftRank",
    "ModuleAction",
    "MonteCarloReport",
    "PROPERTY_CHECKS",
    "Perm",
    "PreconditionError",
    "ProbabilityReport",
    "PropertyReport",
    "SubgroupRecord",
    "SurveyRow",
    "abelian_crown_power_with_embedding",
    "agl_trend",
    "binomial_check",
    "binomial_tail",
    "build_crown_power_general",
    "build_dw",
    "chebotarev_exact",
    "chebotarev_montecarlo",
    "chief_series",
    "closure_indices",
    "corona_decomposition",
    "coverage_table",
    "coverage_to_csv",
    "crown_of_factor",
    "dimen_bound_check",
    "factors_equivalent",
    "fpf_proportion",
    "frattini",
    "gen_criterion",
    "generated_subgroup",
    "inclusion_exclusion_profile",
    "invariably_generates",
    "invgen_criterion",
    "lift_problem_from_descriptor",
    "load_group",
    "max_lift_rank",
    "maximal_subgroups_up_to_conjugacy",
    "min_k_for_probability",
    "minimal_normal_subgroups",
    "module_from_descriptor",
    "modules_isomorphic",
    "p_invariable_exact",
    "p_invariable_montecarlo",
    "read_corpus",
    "realize_descriptor",
    "resolve_word",
    "run_survey",
    "shipped_corpus_path",
    "subgroup_lattice",
    "truncated_expectation",
    "verify_props",
    "verify_sotto",
    "__version__",
]
