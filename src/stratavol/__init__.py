"""Exact volumes of strata of holomorphic differentials.

The library counts branched coverings of the torus with exact rational
arithmetic, extracts the leading large-degree constants through cumulant
asymptotics, and turns them into stratum volumes as exact rationals times
powers of pi.  Every stage ships with an independent desk-scale oracle.
"""

from .coverings import (
    CoverCountRecord,
    CoverProfile,
    asymptotic_ratio,
    brute_force_hom_count,
    cov_connected_series,
    cov_d,
    cov_prime_series,
)
from .characters import (
    CharTableCache,
    central_char_f,
    character,
    character_cache,
    dimension,
    m_cycle_class_size,
)
from .cumulants import (
    StratumSpec,
    VolumeResult,
    WickGroups,
    WickLeading,
    c_const,
    c_simple,
    elementary_cumulant,
    elementary_cumulant_series_oracle,
    f_cumulant_leading,
    t_poly_forest_oracle,
    volume,
    wick_leading,
)
from .errors import DomainError, ResourceCapError
from .exact_arith import (
    PiScalar,
    bernoulli,
    frak_z,
    frak_z_over_pi,
    pi_approx,
    zeta_even_over_pi,
    zeta_neg,
)
from .npoint import (
    EvaluatedPoint,
    direct_one_point,
    theta_prime_zero,
    theta_series,
    verify_theorem1_n1,
)
from .partitions import (
    IntPartition,
    SetPartition,
    enum_complementary,
    enum_int_partitions,
    enum_partitions_of_weight,
    enum_set_partitions,
    is_complementary,
    is_transversal,
    meet,
    mobius_coeff,
)
from .qseries import QSeries, euler_series
from .shifted_symmetric import PExpansion, f_top_expansion, p_eval, q_average, weight

__version__ = "0.1.0"

__all__ = [
    "CharTableCache",
    "CoverCountRecord",
    "CoverProfile",
    "DomainError",
    "EvaluatedPoint",
    "IntPartition",
    "PExpansion",
    "PiScalar",
    "QSeries",
    "ResourceCapError",
    "SetPartition",
    "StratumSpec",
    "VolumeResult",
    "WickGroups",
    "WickLeading",
    "asymptotic_ratio",
    "bernoulli",
    "brute_force_hom_count",
    "c_const",
    "c_simple",
    "central_char_f",
    "character",
    "character_cache",
    "cov_connected_series",
    "cov_d",
    "cov_prime_series",
    "dimension",
    "direct_one_point",
    "elementary_cumulant",
    "elementary_cumulant_series_oracle",
    "enum_complementary",
    "enum_int_partitions",
    "enum_partitions_of_weight",
    "enum_set_partitions",
    "euler_series",
    "f_cumulant_leading",
    "f_top_expansion",
    "frak_z",
    "frak_z_over_pi",
    "is_complementary",
    "is_transversal",
    "m_cycle_class_size",
    "meet",
    "mobius_coeff",
    "p_eval",
    "pi_approx",
    "q_average",
    "t_poly_forest_oracle",
    "theta_prime_zero",
    "theta_series",
    "verify_theorem1_n1",
    "volume",
    "weight",
    "wick_leading",
    "zeta_even_over_pi",
    "zeta_neg",
]
