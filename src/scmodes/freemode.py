"""Detection and exact removal of free circuit modes.

A free mode is an inductor-flux direction that appears in neither the
flux couplings nor the external-flux couplings: only its charge enters
the Hamiltonian.  Such directions span
ker(M0) ∩ ker(N^T) ∩ span(inductor axes), found by one SVD of the
constraints restricted to ker(M0).  They can be charge coupled to
the rest of the circuit, so they cannot simply be deleted; instead a
linear canonical transformation performs Gaussian elimination on the
capacitance matrix C = C_inv^-1, which decouples the free modes while
leaving M0, N, the non-free charge couplings, and the non-free fluxes
untouched.  Only the voltage coupling matrix C_V changes relative to
naive term deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import canonical
from .model import CircuitHamiltonian, InvalidHamiltonianError, require_valid
from .symplectic import _signed_columns

DEFAULT_THRESHOLD = 1e-8


class ThresholdAmbiguityError(ValueError):
    """A singular value sits too close to the rank threshold to classify."""


class PivotError(ValueError):
    """A Gaussian-elimination pivot is not safely positive."""


@dataclass(frozen=True)
class FreeModeReport:
    """Orthonormal flux-space basis of the free subspace, and its size F."""

    basis: np.ndarray  # (n, F), orthonormal columns

    @property
    def F(self) -> int:
        return self.basis.shape[1]


def _null_mask(rel: np.ndarray, threshold: float, name: str) -> np.ndarray:
    """Which relative singular values count as zero: those at or below ``threshold``.

    A singular value within a factor of 10 of the cut is refused as
    ambiguous.
    """
    ambiguous = rel[(rel > threshold / 10.0) & (rel < threshold * 10.0)]
    if ambiguous.size:
        raise ThresholdAmbiguityError(
            f"singular value of {name} at relative magnitude {ambiguous[0]:.3e} lies "
            f"within a factor of 10 of the threshold {threshold:.0e}; cannot classify rank"
        )
    return rel <= threshold


def _kernel_basis(mat: np.ndarray, threshold: float, name: str) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of ``mat`` (k x n) in R^n.

    Singular values are taken relative to the largest one.  A wide ``mat``
    has fewer than n singular values; the missing ones are zero.
    """
    n = mat.shape[1]
    if mat.size == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(mat)
    if s[0] == 0.0:
        return np.eye(n)
    rel = np.zeros(n)
    rel[: s.size] = s / s[0]
    return Vt[_null_mask(rel, threshold, name)].T


def count_free_modes(
    H: CircuitHamiltonian, threshold: float = DEFAULT_THRESHOLD
) -> FreeModeReport:
    """Count free modes and return an orthonormal basis of their flux directions.

    With Z and Z_N orthonormal kernel bases of M0 and N^T, a direction Zc
    is free when it lies in ker(N^T) and off the junction axes, i.e. when
    [(I - Z_N Z_N^T) Z; Z[junction rows]] c = 0.  One SVD of that stacked
    matrix gives the free directions as the right singular vectors whose
    singular value is below ``threshold``.  These singular values are the
    sines of the angles by which the directions miss ker(N^T) and the
    inductor span, so they are already on a unit scale, and ``threshold``
    must lie in [0, 1).
    """
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold = {threshold} must lie in [0, 1)")
    require_valid(H)
    Z = _kernel_basis(H.M0, threshold, "M0")
    Z_N = _kernel_basis(H.N.T, threshold, "N^T")
    J = list(H.junction_indices)
    _, s, Vt = np.linalg.svd(np.vstack([Z - Z_N @ (Z_N.T @ Z), Z[J]]))
    basis = Z @ Vt[_null_mask(s, threshold, "the free-subspace constraints")].T
    basis[J] = 0.0
    return FreeModeReport(basis=_signed_columns(basis))


def expose_free_modes(
    H: CircuitHamiltonian, report: FreeModeReport
) -> tuple[CircuitHamiltonian, canonical.CanonicalTransform]:
    """Rotate inductor fluxes so the free directions become the first F coordinates.

    The transform is orthogonal and acts only on inductor modes: a complete
    QR of the free directions' inductor block completes them to an
    orthonormal basis, and the rows of W are that basis with the free
    directions moved to the front.  Afterwards the first F rows of N and
    the first F rows and columns of M0 vanish.
    """
    n = H.n
    F = report.F
    if F == 0:
        return H, canonical.CanonicalTransform.identity(n)

    L = list(H.inductor_indices)
    B_L = report.basis[L, :]  # free directions live in the inductor subspace
    Q, R = np.linalg.qr(B_L, mode="complete")
    # B_L has orthonormal columns, so R is diagonal with entries +-1.
    Q[:, :F] *= np.sign(np.diag(R))

    rot = np.eye(n)
    rot[np.ix_(L, L)] = Q.T  # rows of W are the target flux directions
    # The free coordinates sit at the first F inductor positions; move them
    # to the front.
    perm = L[:F] + [i for i in range(n) if i not in L[:F]]
    T = canonical.CanonicalTransform.from_orthogonal(rot[perm])
    H_exposed = canonical.apply(H, T)
    # apply() carries kinds positionally; the permutation reorders them.
    kinds = tuple(H.kinds[old] for old in perm)
    return H_exposed.replace(kinds=kinds), T


def elimination_factors(H_exposed: CircuitHamiltonian, F: int) -> list[np.ndarray]:
    """The per-mode elimination matrices W_1, ..., W_F.

    W_f is the identity except for column f, whose entries are
    -(C_{f-1})_{if} / (C_{f-1})_{ff} with C_0 = C_inv^-1 and
    C_f = W_f C_{f-1} W_f^T.  Each W_f is an involution.
    """
    n = H_exposed.n
    C = np.linalg.inv(H_exposed.C_inv)
    pivot_floor = 1e-12 * np.linalg.norm(C, 2)
    factors = []
    for f in range(F):
        pivot = C[f, f]
        if pivot <= pivot_floor:
            raise PivotError(
                f"elimination pivot C[{f},{f}] = {pivot:.3e} is not safely positive; "
                "the capacitance matrix has lost definiteness"
            )
        W_f = np.eye(n)
        W_f[:, f] = -C[:, f] / pivot
        C = W_f @ C @ W_f.T
        factors.append(W_f)
    return factors


def gaussian_elim_transform(
    H_exposed: CircuitHamiltonian, F: int
) -> canonical.CanonicalTransform:
    """Iterative Gaussian elimination of the first F (free) modes.

    The returned transform is W = [(W_F ... W_1)^T]^-1 built from
    :func:`elimination_factors`; the transformed C_inv is block diagonal
    with F leading 1x1 blocks while M0, N, the non-free C_inv submatrix,
    and the non-free fluxes are all preserved.
    """
    n = H_exposed.n
    if F == 0:
        return canonical.CanonicalTransform.identity(n)
    require_valid(H_exposed)
    G = np.eye(n)
    for W_f in elimination_factors(H_exposed, F):
        G = W_f @ G
    # G = W_F ... W_1 = (W^T)^-1, so W^-1 = G^T exactly; invert
    # only once for W itself.
    return canonical.CanonicalTransform(np.linalg.inv(G.T), G.T)


def remove_free_modes(
    H: CircuitHamiltonian, threshold: float = DEFAULT_THRESHOLD
) -> tuple[CircuitHamiltonian, canonical.CanonicalTransform, FreeModeReport]:
    """Full pipeline: count, expose, eliminate, and drop the free modes.

    Returns the reduced Hamiltonian on the non-free modes, the composed
    n-mode transform, and the free-mode report.  The reduced pieces equal
    naive deletion of the free rows/columns except for C_V, which picks up
    the elimination transform.  The identity shift from the V-quadratic
    term is dropped.
    """
    report = count_free_modes(H, threshold)
    if report.F == 0:
        return H, canonical.CanonicalTransform.identity(H.n), report
    if report.F == H.n:
        raise InvalidHamiltonianError(
            f"every mode is free (F = n = {H.n}): the Hamiltonian has no potential "
            "and no discrete spectrum, so nothing remains after removal"
        )

    H_exposed, T_expose = expose_free_modes(H, report)
    T_elim = gaussian_elim_transform(H_exposed, report.F)
    H_elim = canonical.apply(H_exposed, T_elim)
    T_total = T_elim.compose(T_expose)

    F = report.F
    leak = np.abs(H_elim.J_args[:, :F]).max() if H.n_J else 0.0
    if leak > 1e-9:
        raise PivotError(
            f"junction arguments leak onto free modes (max |coeff| = {leak:.3e}); "
            "free-mode detection and elimination are inconsistent"
        )
    reduced = CircuitHamiltonian(
        kinds=H_elim.kinds[F:],
        C_inv=H_elim.C_inv[F:, F:],
        M0=H_elim.M0[F:, F:],
        N=H_elim.N[F:, :],
        C_V=H_elim.C_V[F:, :],
        E_J=H_elim.E_J,
        E_sign=H_elim.E_sign,
        J_args=H_elim.J_args[:, F:],
        Phi_x=H_elim.Phi_x,
        V=H_elim.V,
    )
    return reduced, T_total, report
