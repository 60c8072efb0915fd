"""Mode-decoupling transformations.

Three techniques, all linear canonical transformations and therefore
spectrum preserving:

* simultaneous approximate diagonalization (SAD): Jacobi sweeps of Givens
  rotations over inductor-axis pairs, jointly reducing the off-diagonal
  entries of M0 and C_inv;
* inductor-only symplectic diagonalization (IOS): block Williamson on the
  inductor submatrices, which makes the inductor blocks of both coupling
  matrices the same diagonal matrix while leaving junction modes alone;
* full symplectic diagonalization (FS): block Williamson on
  (M0, C_inv), which removes every quadratic coupling at the price of
  spreading the junction cosines over all modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import canonical, symplectic
from .model import CircuitHamiltonian, require_valid

SAD_MAX_SWEEPS = 100
SAD_ANGLE_TOL = 1e-12


class DecoupleMethod(Enum):
    SAD = "sad"
    INDUCTOR_SYMPLECTIC = "ios"
    FULL_SYMPLECTIC = "fs"


@dataclass(frozen=True)
class DecoupleResult:
    H_out: CircuitHamiltonian
    T: canonical.CanonicalTransform
    method: DecoupleMethod
    offdiag_before: float
    offdiag_after: float
    iterations: int = 0  # SAD sweeps that applied at least one rotation


def _result(H, T, method, sweeps=0) -> DecoupleResult:
    H_out = canonical.apply(H, T)
    return DecoupleResult(
        H_out=H_out,
        T=T,
        method=method,
        offdiag_before=canonical.offdiag_norm(H),
        offdiag_after=canonical.offdiag_norm(H_out),
        iterations=sweeps,
    )


def jacobi_pair_angle(mats, p: int, q: int) -> float:
    """Closed-form optimal Givens angle for jointly diagonalizing a matrix set.

    Minimizes the sum over the set of squared (p, q) off-diagonal entries
    after the rotation.  Because a Givens rotation preserves
    a_pk^2 + a_qk^2 for every k outside the pair, this also minimizes the
    full off-diagonal objective restricted to rotations in this plane.
    """
    diff = np.array([m[p, p] - m[q, q] for m in mats])
    off = np.array([m[p, q] + m[q, p] for m in mats])
    ton = diff @ diff - off @ off
    toff = 2.0 * (diff @ off)
    return 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))


def simultaneous_approx_diag(
    H: CircuitHamiltonian,
    max_sweeps: int = SAD_MAX_SWEEPS,
    on_rotation=None,
) -> DecoupleResult:
    """Jointly diagonalize M0 and C_inv by orthogonal Jacobi sweeps.

    Rotation axes are restricted to inductor-mode pairs (lexicographic
    sweep order) so that junction fluxes are never mixed and the cosine
    terms stay local.  Sweeps stop once every rotation angle in a sweep
    falls below ``SAD_ANGLE_TOL``; hitting ``max_sweeps`` is reported through
    ``iterations``, not an error.  ``on_rotation``, if given, is called
    with the off-diagonal objective after every applied rotation.
    """
    require_valid(H)
    n = H.n
    pairs = [
        (p, q)
        for i, p in enumerate(H.inductor_indices)
        for q in H.inductor_indices[i + 1 :]
    ]
    mats = [H.M0.copy(), H.C_inv.copy()]
    W = np.eye(n)
    sweeps_used = 0
    for _ in range(max_sweeps):
        rotated = False
        for p, q in pairs:
            theta = jacobi_pair_angle(mats, p, q)
            if abs(theta) < SAD_ANGLE_TOL:
                continue
            rotated = True
            c, s = np.cos(theta), np.sin(theta)
            for m in mats:
                rows_p = c * m[p, :] + s * m[q, :]
                rows_q = -s * m[p, :] + c * m[q, :]
                m[p, :], m[q, :] = rows_p, rows_q
                cols_p = c * m[:, p] + s * m[:, q]
                cols_q = -s * m[:, p] + c * m[:, q]
                m[:, p], m[:, q] = cols_p, cols_q
            rows_p = c * W[p, :] + s * W[q, :]
            rows_q = -s * W[p, :] + c * W[q, :]
            W[p, :], W[q, :] = rows_p, rows_q
            if on_rotation is not None:
                on_rotation(canonical.offdiag_sq(mats))
        if not rotated:
            break
        sweeps_used += 1
    T = canonical.CanonicalTransform.from_orthogonal(W)
    return _result(H, T, DecoupleMethod.SAD, sweeps=sweeps_used)


def inductor_symplectic(H: CircuitHamiltonian) -> DecoupleResult:
    """Symplectically diagonalize the inductor submatrices of M0 and C_inv.

    After the transform both inductor blocks equal the same diagonal
    matrix of symplectic eigenvalues; junction blocks and junction
    arguments are untouched.  Requires the inductor block of M0 to be
    positive definite.
    """
    require_valid(H)
    n = H.n
    L = list(H.inductor_indices)
    if not L:
        return _result(H, canonical.CanonicalTransform.identity(n), DecoupleMethod.INDUCTOR_SYMPLECTIC)
    ix = np.ix_(L, L)
    fact = symplectic.block_williamson(H.M0[ix], H.C_inv[ix])
    S_L = fact.block_form
    W = np.eye(n)
    W_inv = np.eye(n)
    W[ix] = np.linalg.inv(S_L)
    W_inv[ix] = S_L
    T = canonical.CanonicalTransform(W, W_inv)
    return _result(H, T, DecoupleMethod.INDUCTOR_SYMPLECTIC)


def full_symplectic(H: CircuitHamiltonian) -> DecoupleResult:
    """Diagonalize the full quadratic part via block Williamson on (M0, C_inv).

    The transform is W = S_n^-1, after which C_inv and M0 are the same
    diagonal matrix of symplectic eigenvalues and every junction argument
    row becomes the corresponding row of S_n.
    """
    require_valid(H)
    try:
        fact = symplectic.block_williamson(H.M0, H.C_inv)
    except symplectic.NotPositiveDefiniteError as exc:
        raise symplectic.NotPositiveDefiniteError(
            "full symplectic diagonalization needs a positive definite M0; "
            "every junction must be shunted by an inductor (possibly a large "
            f"fictitious one): {exc}"
        ) from exc
    S_n = fact.block_form
    T = canonical.CanonicalTransform(np.linalg.inv(S_n), S_n)
    return _result(H, T, DecoupleMethod.FULL_SYMPLECTIC)


def apply_method(H: CircuitHamiltonian, method: DecoupleMethod | str, **kwargs) -> DecoupleResult:
    method = DecoupleMethod(method)
    if method is DecoupleMethod.SAD:
        return simultaneous_approx_diag(H, **kwargs)
    if method is DecoupleMethod.INDUCTOR_SYMPLECTIC:
        return inductor_symplectic(H)
    return full_symplectic(H)

