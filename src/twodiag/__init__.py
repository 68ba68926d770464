"""Two-diagonal eigenvalue test matrices and their Hahn-family polynomial
pairs: exact evaluation, exact identity verification, closed-form spectra,
and a floating-point eigensolver benchmarked against them."""

from .doubles import (
    CoefficientSextet,
    DoubleCase,
    FamilyMismatch,
    christoffel_nu,
    coefficients,
    verify_pair,
    verify_requirements,
)
from .eigsolve import BenchReport, FloatTridiag, NoConvergence, benchmark, sym_tridiag_eigen
from .exact import (
    DenominatorPole,
    NonTerminatingSeries,
    ScaledRoot,
    hyper_terminating,
    pochhammer,
    rbinom,
)
from .families import (
    DualHahnParams,
    HahnParams,
    KrawtchoukParams,
    RacahParams,
    RecurrenceData,
    dual_hahn_eval,
    dual_hahn_norm,
    dual_hahn_weight,
    hahn_eval,
    hahn_norm,
    hahn_weight,
    krawtchouk_eval,
    racah_eval,
    racah_norm,
    racah_weight,
    recurrence_data,
)
from .matrices import (
    EigvecMatrix,
    InadmissibleParams,
    MatrixWithSpectrum,
    NegativeProduct,
    Spectrum,
    SymTridiag,
    TwoDiagonal,
    UnsupportedCase,
    charpoly,
    double_matrix,
    eigvec_matrix,
    extended_kac_even,
    extended_kac_odd,
    nonsymmetric_form,
    sylvester_kac,
    symmetrize,
    verify_spectrum_exact,
)
from .orthosystems import DoubledSystem, doubled_eval, doubled_system, verify_discrete_orthogonality
from .oscillator import (
    AlgebraRealization,
    StructureConstants,
    build_generators,
    structure_constants,
    verify_algebra,
)
from .transforms import (
    ChristoffelData,
    SupportCollision,
    ZeroAtNu,
    christoffel_data,
    christoffel_kernel,
    geronimus_reconstruct,
    verify_same_family,
)

__version__ = "0.1.0"
