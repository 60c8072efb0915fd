"""Constructive Williamson diagonalization.

Any symmetric positive definite M in R^{2n x 2n} factors as
S^T M S = diag(Lambda, Lambda) with S symplectic and Lambda positive.
``williamson`` builds S for general M; ``block_williamson`` handles
M = diag(A, B) and produces a block-diagonal S = diag(S_n, (S_n^T)^-1),
the form needed for transformations that do not mix fluxes and charges.

Both routines return Lambda in ascending order with the columns of S
permuted to match.  S is not unique: under degeneracy any orthonormal
basis of the degenerate eigenspace is acceptable, so callers should
assert invariants rather than individual entries of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAIRING_TOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix required to be positive definite is not."""


class EigenvaluePairingError(RuntimeError):
    """Raised when the Hermitian spectrum fails to split into +/- pairs."""


def symplectic_form(n: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]] on n position/momentum pairs."""
    O = np.zeros((2 * n, 2 * n))
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


def symplectic_residual(S: np.ndarray) -> float:
    """Max-norm of S^T Omega S - Omega."""
    S = np.asarray(S, dtype=float)
    n2 = S.shape[0]
    if n2 % 2:
        raise ValueError("symplectic matrices have even dimension")
    O = symplectic_form(n2 // 2)
    return float(np.abs(S.T @ O @ S - O).max())


def _eigh_power(M: np.ndarray, power: float, name: str) -> np.ndarray:
    """M^power via symmetric eigendecomposition; requires M positive definite."""
    w, V = np.linalg.eigh(M)
    if w[0] <= 0 or w[0] <= 1e-14 * w[-1]:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    return (V * w**power) @ V.T


@dataclass(frozen=True)
class SymplecticFactorization:
    """S and Lambda with S^T M S = diag(Lambda, Lambda).

    From :func:`block_williamson`, S = diag(S_n, (S_n^T)^-1), and S_n is
    ``S[:n, :n]``.
    """

    S: np.ndarray
    Lambda: np.ndarray

    @property
    def n(self) -> int:
        return self.Lambda.shape[0]


def williamson(M: np.ndarray) -> SymplecticFactorization:
    """Factor a symmetric positive definite 2n x 2n matrix.

    Follows the constructive proof: form M^{-1/2}; the Hermitian matrix
    K = i M^{-1/2} Omega M^{-1/2} has spectrum {+/- lambda_j} with
    conjugate eigenvector pairs (v, v*); the real orthogonal matrix O
    built from x_j = (v_j + v_j*)/sqrt(2), y_j = i (v_j - v_j*)/sqrt(2)
    yields S = M^{-1/2} O D^{-1/2} and Lambda = 1/lambda in ascending
    order.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise ValueError("M must be a square matrix of even dimension")
    n = M.shape[0] // 2
    Mm12 = _eigh_power(M, -0.5, "M")
    K = 1j * (Mm12 @ symplectic_form(n) @ Mm12)
    evals, evecs = np.linalg.eigh(K)

    # eigh sorts ascending: the first n are the -lambda branch.  Verify the
    # spectrum really pairs as +/- lambda; a failure signals a broken solve.
    neg, pos = evals[:n], evals[n:]
    mismatch = np.abs(np.sort(pos) - np.sort(-neg)).max()
    if pos[0] <= 0 or mismatch > PAIRING_TOL * max(1.0, pos[-1]):
        raise EigenvaluePairingError(
            f"eigenvalues of i M^-1/2 Omega M^-1/2 do not pair into +/- lambda "
            f"(mismatch {mismatch:.3e})"
        )

    # Conjugate partners are taken as v* directly (K v* = -lambda v*), which
    # sidesteps the arbitrary phases a Hermitian solver attaches to the
    # negative branch.
    order = np.argsort(pos)[::-1]  # descending lambda = ascending Lambda
    lam = pos[order]
    v = evecs[:, n:][:, order]
    x = np.sqrt(2.0) * v.real
    y = -np.sqrt(2.0) * v.imag
    O = np.hstack([x, y])
    D_half = np.concatenate([lam, lam]) ** -0.5
    S = Mm12 @ O * D_half
    return SymplecticFactorization(S=S, Lambda=1.0 / lam)


def block_williamson(A: np.ndarray, B: np.ndarray) -> SymplecticFactorization:
    """Factor M = diag(A, B) with a block-diagonal symplectic matrix.

    Eigendecomposing the positive definite B^{-1/2} A^{-1} B^{-1/2}
    = sum_k lambda_k w_k w_k^T gives eigenvectors
    (w'_k; w_k), w'_k = (i/sqrt(lambda_k)) A^{-1/2} B^{-1/2} w_k, of
    i M^{-1/2} Omega M^{-1/2} with eigenvalue sqrt(lambda_k).  Rotating
    the resulting anti-diagonal S by Omega yields
    S' = diag(S_n, (S_n^T)^-1) with S_n = -A^{-1/2} O_1 D^{-1/2},
    O_1 = [i w'_1, ..., i w'_n], D = diag(sqrt(lambda_k)), and
    Lambda = D^-1 ascending.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A and B must be square matrices of the same size")
    Am12 = _eigh_power(A, -0.5, "A")
    Bm12 = _eigh_power(B, -0.5, "B")
    core = Bm12 @ (Am12 @ Am12) @ Bm12  # B^-1/2 A^-1 B^-1/2
    lam, w = np.linalg.eigh((core + core.T) / 2.0)
    if lam[0] <= 0:
        raise NotPositiveDefiniteError(
            f"B^-1/2 A^-1 B^-1/2 must be positive definite (got eigenvalue {lam[0]:.3e})"
        )
    # ascending Lambda = 1/sqrt(lam) means descending lam
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    w = w[:, order]
    # Deterministic column signs: largest-magnitude entry of each w_k positive.
    picks = np.argmax(np.abs(w), axis=0)
    signs = np.sign(w[picks, np.arange(w.shape[1])])
    signs[signs == 0] = 1.0
    w = w * signs

    D = np.sqrt(lam)  # positive eigenvalues of i M^-1/2 Omega M^-1/2
    O1 = -(Am12 @ Bm12 @ w) / np.sqrt(lam)  # columns i*w'_k (real)
    Sn = -(Am12 @ O1) / np.sqrt(D)
    lower = (Bm12 @ w) / np.sqrt(D)  # equals (S_n^T)^-1
    n = A.shape[0]
    S = np.zeros((2 * n, 2 * n))
    S[:n, :n] = Sn
    S[n:, n:] = lower
    return SymplecticFactorization(S=S, Lambda=1.0 / D)
