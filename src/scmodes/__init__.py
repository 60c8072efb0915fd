"""Superconducting-circuit mode tools.

Ingests quadratic-plus-cosine circuit Hamiltonians, removes free modes
exactly, reduces inter-mode couplings by linear canonical
transformations, and computes low-energy spectra in adaptively truncated
tensor-product bases.
"""

from .canonical import (
    CanonicalTransform,
    SingularTransformError,
    apply,
    offdiag_norm,
)
from .decouple import (
    DecoupleMethod,
    DecoupleResult,
    apply_method,
    full_symplectic,
    inductor_symplectic,
    simultaneous_approx_diag,
)
from .freemode import (
    FreeModeReport,
    PivotError,
    ThresholdAmbiguityError,
    count_free_modes,
    elimination_factors,
    expose_free_modes,
    gaussian_elim_transform,
    remove_free_modes,
)
from .model import (
    CircuitHamiltonian,
    InvalidHamiltonianError,
    ModeKind,
    require_valid,
    validate,
)
from .spectrum import (
    BasisMismatchError,
    CosineCoupling,
    CouplingSet,
    CutoffLimitError,
    EigensolverConvergenceError,
    LocalMode,
    ProductOperator,
    SpectrumResult,
    adaptive_cutoffs,
    assemble_hamiltonian,
    build_local_mode,
    eigensolve,
    embed,
    make_locals_builder,
    reduced_density_matrix,
    solve,
    spectrum_vs_cutoff,
)
from .symplectic import (
    EigenvaluePairingError,
    NotPositiveDefiniteError,
    SymplecticFactorization,
    block_williamson,
    symplectic_form,
    symplectic_residual,
    williamson,
)

__version__ = "0.1.0"
