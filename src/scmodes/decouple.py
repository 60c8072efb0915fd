"""Mode-decoupling transformations.

Three techniques, all linear canonical transformations and therefore
spectrum preserving:

* simultaneous approximate diagonalization (SAD): Jacobi sweeps of Givens
  rotations over inductor-axis pairs in round-robin order, each step
  rotating disjoint pairs at once, jointly reducing the off-diagonal
  entries of M0 and C_inv until a sweep stops lowering them;
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
# A sweep that gains at most this fraction of the objective ends SAD.  Gains shrink
# geometrically, so 60-mode circuits stop within 1e-8 relative of the 100-sweep objective.
SAD_STALL_RTOL = 1e-9


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
    iterations: int = 0  # SAD sweeps run; below max_sweeps, the stall rule stopped it


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


def jacobi_pair_angle(mats, p: int | np.ndarray, q: int | np.ndarray) -> float | np.ndarray:
    """Closed-form optimal Givens angle for jointly diagonalizing a matrix set.

    Minimizes the sum over the set of squared (p, q) off-diagonal entries
    after the rotation.  Because a Givens rotation preserves
    a_pk^2 + a_qk^2 for every k outside the pair, this also minimizes the
    full off-diagonal objective restricted to rotations in this plane.
    ``p`` and ``q`` are ints or equal-length integer arrays; arrays give one
    angle per pair.
    """
    mats = np.asarray(mats)
    diff = mats[:, p, p] - mats[:, q, q]
    off = mats[:, p, q] + mats[:, q, p]
    ton = (diff * diff).sum(axis=0) - (off * off).sum(axis=0)
    toff = 2.0 * (diff * off).sum(axis=0)
    return 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))


def _round_robin(indices) -> list[tuple[np.ndarray, np.ndarray]]:
    """Steps of disjoint pairs in which every pair of ``indices`` meets once.

    The circle method of a round-robin tournament: the first player keeps
    its seat while the others move one seat per step, and an odd count gets
    a dummy player whose partner sits the step out.  Each step is a pair
    of index arrays (p, q) with p < q elementwise.
    """
    players = list(indices)
    if len(players) % 2:
        players.append(None)
    m = len(players)
    steps = []
    for _ in range(m - 1):
        pairs = [
            sorted((players[i], players[m - 1 - i]))
            for i in range(m // 2)
            if players[i] is not None and players[m - 1 - i] is not None
        ]
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            steps.append((p, q))
        players = [players[0], players[-1], *players[1:-1]]
    return steps


def _rotate_rows(A, p, q, c, s):
    """Rotate rows p[i], q[i] of A (second-to-last axis) by angle i, in place."""
    A_p, A_q = A[..., p, :], A[..., q, :]
    A[..., p, :] = c * A_p + s * A_q
    A[..., q, :] = c * A_q - s * A_p


def simultaneous_approx_diag(
    H: CircuitHamiltonian,
    max_sweeps: int = SAD_MAX_SWEEPS,
    on_rotation=None,
) -> DecoupleResult:
    """Jointly diagonalize M0 and C_inv by orthogonal Jacobi sweeps.

    Rotation axes are restricted to inductor-mode pairs so that junction
    fluxes are never mixed and the cosine terms stay local.  A sweep visits
    every pair once in round-robin order (Brent & Luk 1985): each step
    rotates disjoint pairs, whose angles do not depend on one another, so
    the whole step is one vectorized update equal to applying its rotations
    one after another.  A sweep that lowers the objective ``offdiag_sq`` by
    at most ``SAD_STALL_RTOL`` of it ends the loop, so ``iterations``, the
    sweeps run (none without two inductors and a coupling), is below
    ``max_sweeps`` when that rule fired.  ``on_rotation``, if given, is
    called with the objective after every step.
    """
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps = {max_sweeps} must be >= 0")
    require_valid(H)
    steps = _round_robin(H.inductor_indices)
    mats = np.stack([H.M0, H.C_inv])
    W = np.eye(H.n)
    objective = canonical.offdiag_sq(mats) if steps else 0.0
    sweeps = 0
    while objective > 0.0 and sweeps < max_sweeps:
        for p, q in steps:
            theta = jacobi_pair_angle(mats, p, q)[:, None]
            c, s = np.cos(theta), np.sin(theta)
            _rotate_rows(mats, p, q, c, s)
            _rotate_rows(mats.swapaxes(1, 2), p, q, c, s)  # the columns
            _rotate_rows(W, p, q, c, s)
            if on_rotation is not None:
                on_rotation(canonical.offdiag_sq(mats))
        sweeps += 1
        previous, objective = objective, canonical.offdiag_sq(mats)
        if previous - objective <= SAD_STALL_RTOL * previous:
            break
    T = canonical.CanonicalTransform.from_orthogonal(W)
    return _result(H, T, DecoupleMethod.SAD, sweeps=sweeps)


def _block_symplectic(H: CircuitHamiltonian, modes, method: DecoupleMethod) -> DecoupleResult:
    """W = S^-1 on ``modes`` and the identity elsewhere, with S the block form
    of the Williamson factorization of the ``modes`` blocks of (M0, C_inv)."""
    require_valid(H)
    W, W_inv = np.eye(H.n), np.eye(H.n)
    if modes:
        ix = np.ix_(modes, modes)
        m = len(modes)
        S = symplectic.block_williamson(H.M0[ix], H.C_inv[ix]).S[:m, :m]
        W[ix], W_inv[ix] = np.linalg.inv(S), S
    return _result(H, canonical.CanonicalTransform(W, W_inv), method)


def inductor_symplectic(H: CircuitHamiltonian) -> DecoupleResult:
    """Symplectically diagonalize the inductor submatrices of M0 and C_inv.

    After the transform both inductor blocks equal the same diagonal
    matrix of symplectic eigenvalues; junction blocks and junction
    arguments are untouched.  Requires the inductor block of M0 to be
    positive definite.
    """
    return _block_symplectic(H, list(H.inductor_indices), DecoupleMethod.INDUCTOR_SYMPLECTIC)


def full_symplectic(H: CircuitHamiltonian) -> DecoupleResult:
    """Diagonalize the full quadratic part via block Williamson on (M0, C_inv).

    The transform is W = S_n^-1, after which C_inv and M0 are the same
    diagonal matrix of symplectic eigenvalues and every junction argument
    row becomes the corresponding row of S_n.
    """
    try:
        return _block_symplectic(H, list(range(H.n)), DecoupleMethod.FULL_SYMPLECTIC)
    except symplectic.NotPositiveDefiniteError as exc:
        raise symplectic.NotPositiveDefiniteError(
            "full symplectic diagonalization needs a positive definite M0; "
            "every junction must be shunted by an inductor (possibly a large "
            f"fictitious one): {exc}"
        ) from exc


def apply_method(
    H: CircuitHamiltonian, method: DecoupleMethod | str, max_sweeps: int = SAD_MAX_SWEEPS
) -> DecoupleResult:
    """The decoupling ``method`` applied to H; ``max_sweeps`` bounds SAD alone."""
    method = DecoupleMethod(method)
    if method is DecoupleMethod.SAD:
        return simultaneous_approx_diag(H, max_sweeps=max_sweeps)
    if method is DecoupleMethod.INDUCTOR_SYMPLECTIC:
        return inductor_symplectic(H)
    return full_symplectic(H)

