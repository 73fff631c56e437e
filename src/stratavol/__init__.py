"""Exact volumes of strata of holomorphic differentials.

The library counts branched coverings of the torus with exact rational
arithmetic, extracts the leading large-degree constants through cumulant
asymptotics, and turns them into stratum volumes as exact rationals times
powers of pi.  Every stage ships with an independent desk-scale oracle.

The package re-exports the main entry points, the exact value types and
the two error types; everything else is imported from its module.
"""

from .characters import character, character_cache
from .coverings import asymptotic_ratio, brute_force_hom_count, cov_connected_series, cov_d
from .cumulants import c_const, c_simple, elementary_cumulant, volume, wick_leading
from .errors import DomainError, ResourceCapError
from .exact_arith import PiScalar
from .npoint import verify_theorem1_n1
from .qseries import QSeries
from .shifted_symmetric import f_top_expansion

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PiScalar",
    "QSeries",
    "ResourceCapError",
    "asymptotic_ratio",
    "brute_force_hom_count",
    "c_const",
    "c_simple",
    "character",
    "character_cache",
    "cov_connected_series",
    "cov_d",
    "elementary_cumulant",
    "f_top_expansion",
    "verify_theorem1_n1",
    "volume",
    "wick_leading",
]
