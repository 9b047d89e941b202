"""Census of commensurability classes of arithmetic hyperbolic surfaces.

Exact arithmetic over Q: quaternion algebras as ramification sets, geodesic
classes as integer traces, and counts of the commensurability classes whose
maximal-order length spectra contain every prescribed geodesic.
"""

from .arith import (
    PellSolution,
    PrimeFactorization,
    factorize,
    is_prime,
    kronecker,
    pell_fundamental,
    squarefree_part,
)
from .census import (
    CensusReport,
    ChebotarevReport,
    FamilyResult,
    FinitenessVerdict,
    InfiniteCensusError,
    IntervalReport,
    SelectivityVerdict,
    construct_family,
    count_algebras,
    nonsplit_is_finite,
    nonsplit_primes,
    pi_of_V,
    selectivity_check,
    short_interval_delta,
    verify_chebotarev_interval,
)
from .errors import DomainError, NotRealizableError, SearchExhaustedError
from .quadratic import (
    QuadField,
    QuadOrder,
    SplitType,
    field_from_d,
    norm_one_unit,
    order_from_disc,
    prime_disc_vector,
    splitting,
)
from .quaternion import (
    INFINITE_PLACE,
    AlgebraClass,
    PiMultiple,
    RamSet,
    admits_embedding,
    coarea_general,
    coarea_rational,
    from_hilbert,
    hilbert_local,
)
from .spectra import (
    GeodesicClass,
    SpectrumSpec,
    length_to_trace,
    spectrum_from_inputs,
    trace_to_length,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraClass",
    "CensusReport",
    "ChebotarevReport",
    "DomainError",
    "FamilyResult",
    "FinitenessVerdict",
    "GeodesicClass",
    "INFINITE_PLACE",
    "InfiniteCensusError",
    "IntervalReport",
    "NotRealizableError",
    "PellSolution",
    "PiMultiple",
    "PrimeFactorization",
    "QuadField",
    "QuadOrder",
    "RamSet",
    "SearchExhaustedError",
    "SelectivityVerdict",
    "SpectrumSpec",
    "SplitType",
    "admits_embedding",
    "coarea_general",
    "coarea_rational",
    "construct_family",
    "count_algebras",
    "factorize",
    "field_from_d",
    "from_hilbert",
    "hilbert_local",
    "is_prime",
    "kronecker",
    "length_to_trace",
    "nonsplit_is_finite",
    "nonsplit_primes",
    "norm_one_unit",
    "order_from_disc",
    "pell_fundamental",
    "pi_of_V",
    "prime_disc_vector",
    "selectivity_check",
    "short_interval_delta",
    "spectrum_from_inputs",
    "splitting",
    "squarefree_part",
    "trace_to_length",
    "verify_chebotarev_interval",
]
