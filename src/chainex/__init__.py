"""Exact combinatorics of chain excludants: partition statistics,
weight-preserving bijections, truncated q-series, and an identity
verification harness."""

from .partition import (
    EMPTY,
    Partition,
    PartitionError,
    chain_maex,
    chain_mex,
    count_multiples,
    in_gap_class,
    is_regular,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    parts_above_maex,
    parts_above_mex,
    partitions,
    smallest_repeating,
    top_multiple_multiplicity,
)
from .bijections import (
    ColoredEmpty,
    DomainError,
    IndexedPartition,
    PartitionPair,
    glaisher_merge,
    glaisher_split,
    in_colored_codomain,
    in_maex_codomain,
    in_mex_codomain,
    maex_pairing,
    maex_pairing_inv,
    mex_pairing,
    mex_pairing_colored,
    mex_pairing_colored_inv,
    mex_pairing_inv,
    multiples_to_repeats,
    repeats_to_multiples,
    repeats_to_top_multiple,
    top_multiple_to_repeats,
)
from .qseries import PowerSeries, SeriesError
from .verify import VerificationReport, certify_bijection, check_theorem, count_family, sigma_stat

__version__ = "0.1.0"
