"""Detection and exact removal of free circuit modes.

A free mode is an inductor-flux direction that appears in neither the
flux couplings nor the external-flux couplings: only its charge enters
the Hamiltonian.  Such directions span
ker(M0) ∩ ker(N^T) ∩ span(inductor axes).  They can be charge coupled to
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
from .model import CircuitHamiltonian, require_valid

DEFAULT_THRESHOLD = 1e-8

# Projector-product eigenvalues are clustered at 0 and 1 for cleanly
# intersecting subspaces; anything above this counts as "in the intersection".
_CLUSTER_CUT = 0.5

# Alternating-projection polish rounds for the free-subspace basis.
_POLISH_ROUNDS = 50


class ThresholdAmbiguityError(ValueError):
    """A singular value sits too close to the rank threshold to classify."""


class PivotError(ValueError):
    """A Gaussian-elimination pivot is not safely positive."""


@dataclass(frozen=True)
class FreeModeReport:
    """Count and orthonormal flux-space basis of the free subspace."""

    F: int
    basis: np.ndarray  # (n, F), orthonormal columns


def _kernel_projector(mat: np.ndarray, threshold: float, name: str) -> np.ndarray:
    """Orthogonal projector onto the numerical kernel of ``mat`` (row space in R^n).

    Kernel membership is decided by singular-value thresholding at
    ``threshold`` relative to the largest singular value; a singular value
    within a factor of 10 of the cut is refused as ambiguous.
    """
    n = mat.shape[1] if mat.ndim == 2 else mat.shape[0]
    if mat.size == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(mat)
    if s[0] == 0.0:
        return np.eye(n)
    rel = s / s[0]
    cut = threshold
    ambiguous = rel[(rel > cut / 10.0) & (rel < cut * 10.0)]
    if ambiguous.size:
        raise ThresholdAmbiguityError(
            f"singular value of {name} at relative magnitude {ambiguous[0]:.3e} lies "
            f"within a factor of 10 of the threshold {cut:.0e}; cannot classify rank"
        )
    null_rows = Vt[rel <= cut]
    if null_rows.size == 0:
        return np.zeros((n, n))
    return null_rows.T @ null_rows


def count_free_modes(
    H: CircuitHamiltonian, threshold: float = DEFAULT_THRESHOLD
) -> FreeModeReport:
    """Count free modes and return an orthonormal basis of their flux directions.

    The intersection of the three subspaces is computed from the symmetric
    projector product P_L P_M P_N P_M P_L, whose eigenvalues cluster at 1
    exactly on the intersection; the basis is then polished by alternating
    projections so that each column satisfies all three membership
    constraints to well below ``threshold``.
    """
    require_valid(H)
    n = H.n
    P_M = _kernel_projector(H.M0, threshold, "M0")
    P_N = _kernel_projector(H.N.T, threshold, "N^T")
    P_L = np.zeros((n, n))
    for i in H.inductor_indices:
        P_L[i, i] = 1.0

    G = P_L @ P_M @ P_N @ P_M @ P_L
    evals, evecs = np.linalg.eigh((G + G.T) / 2.0)
    members = evals > _CLUSTER_CUT
    F = int(members.sum())
    if F == 0:
        return FreeModeReport(F=0, basis=np.zeros((n, 0)))

    basis = evecs[:, members]
    for _ in range(_POLISH_ROUNDS):
        basis = P_L @ (P_M @ (P_N @ basis))
    basis, _ = np.linalg.qr(basis)
    # Deterministic column signs.
    picks = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[picks, np.arange(F)])
    signs[signs == 0] = 1.0
    basis = basis * signs
    return FreeModeReport(F=F, basis=basis)


def expose_free_modes(
    H: CircuitHamiltonian, report: FreeModeReport
) -> tuple[CircuitHamiltonian, canonical.CanonicalTransform]:
    """Rotate inductor fluxes so the free directions become the first F coordinates.

    The transform is orthogonal, acts only on inductor modes, and is
    composed with a permutation placing the free modes first.  Afterwards
    the first F rows of N and the first F rows and columns of M0 vanish.
    """
    n = H.n
    if report.F == 0:
        return H, canonical.CanonicalTransform.identity(n)

    L = list(H.inductor_indices)
    B_L = report.basis[L, :]  # free directions live in the inductor subspace
    # Orthonormal completion of the free directions inside the inductor block.
    Q, _ = np.linalg.qr(
        np.hstack([B_L, np.eye(len(L))])
    )
    Q[:, : report.F] = B_L  # keep the exact free directions as leading columns
    Q, _ = np.linalg.qr(Q)
    # qr may flip signs of the leading columns; realign them with B_L.
    for j in range(report.F):
        if Q[:, j] @ B_L[:, j] < 0:
            Q[:, j] = -Q[:, j]

    rot = np.eye(n)
    rot[np.ix_(L, L)] = Q.T  # rows of W are the target flux directions

    # The rotated free coordinates sit at the first F inductor positions;
    # permute them to the front.
    free_positions = L[: report.F]
    others = [i for i in range(n) if i not in free_positions]
    perm = free_positions + others
    P = np.zeros((n, n))
    for new, old in enumerate(perm):
        P[new, old] = 1.0

    W = P @ rot
    T = canonical.CanonicalTransform(W, rot.T @ P.T)
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
