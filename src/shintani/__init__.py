"""Multidimensional Shintani zeta functions, polynomial Euler products, and
the induced zeta probability distributions, with certified truncation error
throughout."""

from .arithmetic import AlphaRule, PrimeTable, prime_exponent, sieve_primes
from .coefficients import CoefficientSpec
from .distributions import (
    SampleBatch,
    ZetaDistribution,
    atom_cf,
    build_distribution,
    char_fn,
    empirical_cf,
    make_special_distribution,
    moment,
    sample,
)
from .errors import (
    CertificationError,
    ConfigError,
    NumericError,
    RegionError,
    ShintaniError,
)
from .euler import (
    DiscreteMeasure,
    EulerConfig,
    dedekind_coefficient,
    dirichlet_coefficient,
    evaluate_euler,
    hurwitz_half_levy_logcf,
    levy_measure,
    riemann_levy_logcf,
    shintani_from_euler,
)
from .series import (
    ComplexPoint,
    EvalResult,
    ShintaniConfig,
    differentiate,
    evaluate,
    evaluate_many,
    evaluate_partial,
    in_convergence_region,
    make_special,
    tail_bound,
    validate_config,
)
from .zeros import (
    SliceSpec,
    ZeroReport,
    count_zeros_rectangle,
    non_id_certificate,
    scan_cf_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRule",
    "PrimeTable",
    "prime_exponent",
    "sieve_primes",
    "CoefficientSpec",
    "SampleBatch",
    "ZetaDistribution",
    "atom_cf",
    "build_distribution",
    "char_fn",
    "empirical_cf",
    "make_special_distribution",
    "moment",
    "sample",
    "CertificationError",
    "ConfigError",
    "NumericError",
    "RegionError",
    "ShintaniError",
    "DiscreteMeasure",
    "EulerConfig",
    "dedekind_coefficient",
    "dirichlet_coefficient",
    "evaluate_euler",
    "hurwitz_half_levy_logcf",
    "levy_measure",
    "riemann_levy_logcf",
    "shintani_from_euler",
    "ComplexPoint",
    "EvalResult",
    "ShintaniConfig",
    "differentiate",
    "evaluate",
    "evaluate_many",
    "evaluate_partial",
    "in_convergence_region",
    "make_special",
    "tail_bound",
    "validate_config",
    "SliceSpec",
    "ZeroReport",
    "count_zeros_rectangle",
    "non_id_certificate",
    "scan_cf_zeros",
    "__version__",
]
