"""Williamson and block-Williamson factorization checks.

The independent oracle used throughout: the symplectic eigenvalues of M
are the absolute values of the (purely imaginary) eigenvalues of
Omega @ M, computed by a general eigensolver with no symplectic
machinery involved.
"""

import numpy as np
import pytest

from scmodes.symplectic import (
    NotPositiveDefiniteError,
    block_williamson,
    symplectic_form,
    symplectic_residual,
    williamson,
)

from conftest import (
    FLUXONIUM_PATH,
    printed_half_units,
    random_spd,
    symplectic_rounding_bound,
)


def symplectic_eigenvalues_oracle(M):
    """|eig(Omega M)|, deduplicated into n values, ascending."""
    n = M.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ M)
    return np.sort(np.abs(ev))[::2][::-1][::-1]  # pairs +/- i*lambda


def assert_factorization(M, fact, rtol=1e-8):
    n = fact.n
    assert symplectic_residual(fact.S) < 1e-8
    target = np.diag(np.concatenate([fact.Lambda, fact.Lambda]))
    scale = np.abs(M).max()
    np.testing.assert_allclose(fact.S.T @ M @ fact.S, target, atol=rtol * scale)
    assert np.all(fact.Lambda > 0)
    assert np.all(np.diff(fact.Lambda) >= -1e-12)
    if fact.block_form is not None:
        Sn = fact.block_form
        np.testing.assert_allclose(fact.S[:n, :n], Sn, atol=1e-8)
        np.testing.assert_allclose(
            fact.S[n:, n:], np.linalg.inv(Sn.T), atol=1e-8 * max(1, np.abs(Sn).max())
        )


# ---------------------------------------------------------------------------
# williamson
# ---------------------------------------------------------------------------


def test_identity_input():
    fact = williamson(np.eye(6))
    np.testing.assert_allclose(fact.Lambda, np.ones(3), atol=1e-12)
    assert_factorization(np.eye(6), fact)


def test_2x2_closed_form():
    # For n = 1, Lambda_1^2 = det(M); M = diag(w, 1/w) has det 1.
    w = 4.0
    M = np.diag([w, 1.0 / w])
    fact = williamson(M)
    np.testing.assert_allclose(fact.Lambda, [1.0], atol=1e-12)
    assert_factorization(M, fact)


def test_n1_lambda_is_sqrt_det():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = random_spd(rng, 2)
        fact = williamson(M)
        np.testing.assert_allclose(
            fact.Lambda[0], np.sqrt(np.linalg.det(M)), rtol=1e-10
        )


def test_random_6x6_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = random_spd(rng, 6, cond=50.0)
        fact = williamson(M)
        assert_factorization(M, fact)
        np.testing.assert_allclose(
            fact.Lambda, symplectic_eigenvalues_oracle(M), rtol=1e-8
        )


def test_reconstruction():
    rng = np.random.default_rng(9)
    M = random_spd(rng, 8, cond=30.0)
    fact = williamson(M)
    S_inv = np.linalg.inv(fact.S)
    D = np.diag(np.concatenate([fact.Lambda, fact.Lambda]))
    np.testing.assert_allclose(
        S_inv.T @ D @ S_inv, M, atol=1e-8 * np.abs(M).max()
    )


def test_lambda_invariant_under_symplectic_conjugation():
    rng = np.random.default_rng(13)
    M = random_spd(rng, 6, cond=20.0)
    base = np.sort(williamson(M).Lambda)
    for _ in range(5):
        # Block-diagonal symplectic diag(R, R^-T) from a random invertible R.
        R = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        T = np.block(
            [[R, np.zeros((3, 3))], [np.zeros((3, 3)), np.linalg.inv(R).T]]
        )
        assert symplectic_residual(T) < 1e-10
        conj = np.sort(williamson(T.T @ M @ T).Lambda)
        np.testing.assert_allclose(conj, base, rtol=1e-6)


def test_rejects_non_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        williamson(np.diag([1.0, -1.0]))


def test_rejects_odd_dimension():
    with pytest.raises(ValueError):
        williamson(np.eye(3))


# ---------------------------------------------------------------------------
# block_williamson
# ---------------------------------------------------------------------------


def test_block_identity():
    fact = block_williamson(np.eye(4), np.eye(4))
    np.testing.assert_allclose(fact.Lambda, np.ones(4), atol=1e-12)
    Sn = fact.block_form
    np.testing.assert_allclose(Sn @ Sn.T, np.eye(4), atol=1e-10)


def test_block_fluxonium_eigenvalues(fluxonium, fluxonium_lambda_reference):
    M = np.block(
        [
            [fluxonium.M0, np.zeros((5, 5))],
            [np.zeros((5, 5)), fluxonium.C_inv],
        ]
    )
    fact = block_williamson(fluxonium.M0, fluxonium.C_inv)
    assert_factorization(M, fact)
    np.testing.assert_allclose(
        fact.Lambda, symplectic_eigenvalues_oracle(M), rtol=1e-8
    )
    # Values computed from the bundled (3-significant-figure) matrices; the
    # paper's values are then checked at the acceptance suite's tolerance,
    # which widens only the entries the input rounding cannot determine to 1%.
    np.testing.assert_allclose(
        fact.Lambda, [2.4551, 2.5814, 3.6251, 25.3398, 39.3656], rtol=1e-4
    )
    reference, tolerance, _ = fluxonium_lambda_reference
    assert np.all(np.abs(fact.Lambda - reference) <= tolerance)


def test_rounding_bound_matches_oracle_finite_differences(fluxonium):
    """The closed-form bound equals sum |dLambda/dx| h(x) from the oracle.

    Each independent entry x of M0 and C_inv (a symmetric pair off the
    diagonal) is moved by +/- a small step and the oracle's symplectic
    eigenvalues are differenced centrally.
    """
    n = fluxonium.n
    h_M0 = printed_half_units(FLUXONIUM_PATH, "M0")
    h_C = printed_half_units(FLUXONIUM_PATH, "C_inv")
    assert h_C[2, 3] == 0.5  # 378.0 at three significant figures
    assert h_C[1, 3] == 5e-4  # 6.027 at its four printed figures
    assert h_M0[0, 1] == 0.0  # zeros are exact

    def oracle(A, B):
        Z = np.zeros((n, n))
        return symplectic_eigenvalues_oracle(np.block([[A, Z], [Z, B]]))

    fd_bound = np.zeros(n)
    for block, h in ((0, h_M0), (1, h_C)):
        for i, j in zip(*np.triu_indices(n)):
            if h[i, j] == 0:
                continue
            step = 1e-3 * h[i, j]
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = step
            plus = [fluxonium.M0, fluxonium.C_inv]
            minus = list(plus)
            plus[block] = plus[block] + E
            minus[block] = minus[block] - E
            grad = (oracle(*plus) - oracle(*minus)) / (2 * step)
            fd_bound += np.abs(grad) * h[i, j]
    bound = symplectic_rounding_bound(fluxonium.M0, fluxonium.C_inv, h_M0, h_C)
    np.testing.assert_allclose(bound, fd_bound, rtol=1e-6)


def test_block_matches_full_williamson():
    rng = np.random.default_rng(21)
    for _ in range(10):
        A = random_spd(rng, 4, cond=40.0)
        B = random_spd(rng, 4, cond=40.0)
        M = np.block([[A, np.zeros((4, 4))], [np.zeros((4, 4)), B]])
        lam_block = np.sort(block_williamson(A, B).Lambda)
        lam_full = np.sort(williamson(M).Lambda)
        np.testing.assert_allclose(lam_block, lam_full, rtol=1e-8)
        assert_factorization(M, block_williamson(A, B))


def test_block_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError):
        block_williamson(np.diag([1.0, 0.0]), np.eye(2))


# ---------------------------------------------------------------------------
# symplectic residual predicate
# ---------------------------------------------------------------------------


def test_omega_is_symplectic():
    assert symplectic_residual(symplectic_form(3)) == 0.0


def test_williamson_output_is_symplectic():
    rng = np.random.default_rng(31)
    M = random_spd(rng, 6)
    assert symplectic_residual(williamson(M).S) < 1e-8


def test_scaled_identity_residual():
    # (2I)^T Omega (2I) = 4 Omega, so the residual is |4 - 1| = 3.
    S = 2.0 * np.eye(4)
    np.testing.assert_allclose(symplectic_residual(S), 3.0, atol=1e-14)
