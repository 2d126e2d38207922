"""Exact-arithmetic tools for the (M,K)-reduced non-autonomous discrete
periodic KP lattice: evolution, monodromy matrices, spectral curves, the
band/companion dual form, the local structure of the curve (exact leading
forms at infinity and at the coincident point, exact ranks at the finite
special points) and the large-parameter degeneration harness."""

from .bipoly import BiPoly
from .degeneration import (
    ConvergenceTable,
    DegenerationPlan,
    hidden_invariant_check,
    lambda_set,
    limit_compare,
    seed_large_zeta,
    xi_set,
)
from .errors import (
    DegenerateEvolution,
    EmptyIndexSet,
    ExactDivisionError,
    GcdViolation,
    HeightBudgetExceeded,
    IllConditioned,
    InsufficientHistory,
    MultipleEigenvalue,
    NonPolynomialResult,
    NotCaseB,
    OffCurve,
    RedkpError,
    SingularStep,
    SizeMismatch,
    WordGuard,
    WrongParams,
    ZeroValue,
)
from .lattice import (
    LatticeParams,
    LatticeState,
    monodromy_closure,
    new_state,
    uniform_state,
)
from .lax import (
    SpecialPoints,
    SpectralCurve,
    apply_shift,
    build_factor,
    build_monodromy,
    shift_matrix,
    special_points,
    spectral_curve,
    verify_compatibility,
)
from .numeric import (
    ComplexPoint,
    NumericDiag,
    case_b_structure,
    eigenvector_at,
    fiber_x,
    infinity_asymptotics,
    psi_phi_ratios,
    special_point_kernels,
)
from .polymatrix import PolyMatrix, matdet
from .rational import Rational, format_rational, parse_rational, rat
from .yform import (
    band_coefficients,
    companion_product,
    shift_stars,
    spectral_duality,
    verify_word_append_rule,
)

__version__ = "0.1.0"
