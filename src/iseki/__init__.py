"""Finite commutative semirings and the coarse lower topology on their
ideal spectra (Iseki spaces), with exhaustive small-model verification."""

from .errors import (
    AxiomViolation,
    ContractionFails,
    EmptyFamily,
    HypothesisUnmet,
    ImproperIdeal,
    InvalidHomomorphism,
    IsekiError,
    NoUnitDecomposition,
    ParseError,
    RangeError,
    SizeLimitExceeded,
)
from .semiring import (
    FiniteSemiring,
    bourne_quotient,
    direct_product,
    validate_homomorphism,
    validate_semiring,
)
from .enumeration import enumerate_semirings
from .ideals import (
    IdealClassification,
    classify,
    generated_ideal,
    ideal_from_members,
    jacobson_radical,
    min_generators,
    radical_via_primes,
)
from .topology import (
    Spectrum,
    SpectrumClass,
    check_connected,
    check_disconnection,
    check_irreducible_upsets,
    check_quasi_compact,
    check_sober,
    check_t0,
    check_t1,
    idempotent_from_disconnection,
    parse_class,
    spectrum,
    strong_disconnection_witness,
    up_set,
    verify_upset_laws,
)

__version__ = "0.1.0"
