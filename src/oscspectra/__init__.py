"""Two eigenbasis realizations of the harmonic oscillator -Lap + |x|^2 on
L2(R^n) -- tensor Hermite functions and polar Laguerre x spherical-harmonic
functions -- with numerical certification of the identities relating them:
kernel equality of the spectral projections, Hecke-Bochner, rotation
commutation, Parseval, coefficient decay, and the polynomial-space
coincidence behind it all."""

__version__ = "0.1.0"

from .errors import (
    ContractViolationError,
    DegenerateDegreeError,
    DimensionMismatchError,
    IntegrabilityError,
    OscSpectraError,
    ResourceLimitError,
)
from .fields import (
    ScalarField,
    bump_field,
    gaussian_field,
    hermite_eigenfield,
    polar_eigenfield,
    polar_eigenvalue,
    radial_harmonic_field,
    random_band_limited,
    random_solid_harmonic,
    truncated_gaussian_field,
)
from .harmonics import (
    HarmonicBasis,
    SolidHarmonic,
    dim_harmonic,
    solid_harmonic,
    sph_basis,
    sph_table,
    surface_measure,
    zonal,
    zonal_table,
)
from .kernels import (
    BenchRecord,
    KernelResult,
    kernel_bench,
    multi_index_count,
    multi_indices,
    phi_direct,
    phi_direct_values,
    phi_polar,
    phi_polar_values,
    polar_term_count,
)
from .polyspaces import (
    PolySpan,
    SpanComparison,
    dimension_identity,
    hermite_span,
    laguerre_harmonic_span,
    monomials,
    spans_equal,
)
from .projections import (
    DecayProbe,
    PolarIndex,
    SpectralCoefficients,
    coefficient_decay_probe,
    eigen_order_study,
    fd_oscillator_apply,
    field_norm_sq,
    hecke_bochner,
    hermite_coeffs,
    parseval_check,
    polar_coeffs,
    project,
    rotation_commutes,
)
from .quadrature import (
    QuadratureRule,
    gauss_hermite,
    gauss_legendre,
    gauss_radial,
    radial_rule_compact,
    sphere_rule,
    tensor_rule,
)
from .special_functions import (
    gegenbauer,
    gegenbauer_table,
    hermite_fn,
    hermite_fn_multi,
    hermite_table,
    laguerre_antidiagonal_table,
    laguerre_fn,
    laguerre_fn_table,
    laguerre_poly,
)
from .verify import CheckRow, DEFAULT_TOLERANCES, run_suite
