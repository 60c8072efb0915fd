"""Linear canonical transformations of circuit Hamiltonians.

A transformation is specified by an invertible real matrix W acting on
the flux operators, phi -> W phi; the charges transform contragrediently,
n -> (W^T)^-1 n, which preserves the canonical commutation relations.
Hamiltonians related by such a transformation are unitarily equivalent
and therefore share their spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CircuitHamiltonian, _real_numbers

INVERSE_RTOL = 1e-10


class SingularTransformError(ValueError):
    """Raised when a transformation matrix is not a finite real square matrix,
    or is singular to working precision."""


def _inverse_residual(W: np.ndarray, W_inv: np.ndarray) -> float:
    n = W.shape[0]
    return float(np.abs(W @ W_inv - np.eye(n)).max())


@dataclass(frozen=True)
class CanonicalTransform:
    """An invertible flux-space matrix with its cached inverse.

    Both must be square, of equal shape, with finite real-number entries
    (strings, booleans and None are rejected, not converted), and
    W W_inv must equal the identity to INVERSE_RTOL * n.
    """

    W: np.ndarray
    W_inv: np.ndarray

    def __post_init__(self):
        for name in ("W", "W_inv"):
            if not _real_numbers(getattr(self, name)):
                raise SingularTransformError(f"{name} has non-numeric entries")
        W = np.asarray(self.W, dtype=float)
        W_inv = np.asarray(self.W_inv, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape != W_inv.shape:
            raise SingularTransformError("W and W_inv must be square matrices of equal shape")
        for name, a in (("W", W), ("W_inv", W_inv)):
            if not np.isfinite(a).all():
                raise SingularTransformError(f"{name} has non-finite entries")
        residual = _inverse_residual(W, W_inv)
        if residual > INVERSE_RTOL * W.shape[0]:
            raise SingularTransformError(
                f"inversion residual {residual:.3e} exceeds tolerance "
                f"{INVERSE_RTOL * W.shape[0]:.3e}; W is singular or W_inv is wrong"
            )
        for a in (W, W_inv):
            a.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "W_inv", W_inv)

    @classmethod
    def from_matrix(cls, W) -> "CanonicalTransform":
        """Invert W once (LAPACK partial-pivot LU) and cache the result."""
        W = np.asarray(W, dtype=float)
        try:
            W_inv = np.linalg.inv(W)
        except np.linalg.LinAlgError as exc:
            raise SingularTransformError(f"W is singular: {exc}") from exc
        return cls(W, W_inv)

    @classmethod
    def from_orthogonal(cls, Q) -> "CanonicalTransform":
        Q = np.asarray(Q, dtype=float)
        return cls(Q, Q.T.copy())

    @classmethod
    def identity(cls, n: int) -> "CanonicalTransform":
        return cls(np.eye(n), np.eye(n))

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def residual(self) -> float:
        return _inverse_residual(self.W, self.W_inv)

    def compose(self, first: "CanonicalTransform") -> "CanonicalTransform":
        """Transform equivalent to applying ``first`` and then ``self``."""
        return CanonicalTransform(self.W @ first.W, first.W_inv @ self.W_inv)


def apply(H: CircuitHamiltonian, T: CanonicalTransform) -> CircuitHamiltonian:
    """Return the Hamiltonian expressed in the transformed operators.

    C_inv -> W C_inv W^T, M0 -> (W^T)^-1 M0 W^-1, N and C_V pick up
    (W^T)^-1, and the junction arguments pick up W^-1 on the right.
    Junction energies, external fluxes, voltages, and mode kinds are
    carried over positionally.  Building the result checks that C_inv and
    M0 stayed symmetric and averages the rounding asymmetry away.
    """
    if T.n != H.n:
        raise SingularTransformError(f"transform is {T.n}x{T.n}, Hamiltonian has n={H.n}")
    W, W_inv = T.W, T.W_inv
    Wmt = W_inv.T  # (W^T)^-1
    return H.replace(
        C_inv=W @ H.C_inv @ W.T,
        M0=Wmt @ H.M0 @ W_inv,
        N=Wmt @ H.N,
        C_V=Wmt @ H.C_V,
        J_args=H.J_args @ W_inv,
    )


def offdiag_sq(mats) -> float:
    """Sum of squared off-diagonal entries of the given matrices."""
    return sum(float((m**2).sum() - (np.diag(m) ** 2).sum()) for m in mats)


def offdiag_norm(H: CircuitHamiltonian) -> float:
    """Sum of squared off-diagonal entries of C_inv and M0.

    This is the figure of merit that the decoupling techniques reduce.
    """
    return offdiag_sq((H.C_inv, H.M0))

