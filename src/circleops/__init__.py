"""Numerical certificates for circle-averaging operators on the sphere,
Schatten and mixed-norm bounds, and the 3x3 special-linear geometry that
turns them into matrix-coefficient decay estimates."""

from .errors import NumericalDegeneracyError
from .legendre import (
    HOLDER_CONSTANT,
    bernstein_envelope,
    legendre_at_zero,
    legendre_table,
)
from .schatten import (
    MixedNormSpace,
    SingularProfile,
    dyadic_decompose,
    interpolation_bound,
    mixed_norm_lower_bound,
)
from .spectral import (
    DecayFit,
    completed_power_sums,
    divergence_probe_p4,
    fit_decay,
    op_norm_diff_certificates,
    schatten_tail_estimate,
)
from .sl3 import (
    Embedding2Certificate,
    KAKDecomposition,
    LambdaPoint,
    embedding2_solve,
    j_alpha,
    kak,
    length,
    solve_delta_for_top,
)
from .sphere import (
    SphereGrid,
    circle_average,
    circle_average_operator,
    markov_trace,
    mixing_profile,
)
from .zigzag import (
    CostLedger,
    ExponentProfile,
    annulus_diameter_bound,
    cauchy_tail_constant,
    diameter_decay_profile,
    jump_cost,
)
from .repsim import (
    coefficient_decay,
    invariant_gap,
    matrix_coefficient,
)

__version__ = "0.1.0"
