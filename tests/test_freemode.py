"""Free-mode detection, exposure, and elimination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scmodes
from scmodes import canonical, freemode
from scmodes.freemode import (
    ThresholdAmbiguityError,
    count_free_modes,
    elimination_factors,
    expose_free_modes,
    gaussian_elim_transform,
    remove_free_modes,
)
from scmodes.model import CircuitHamiltonian, InvalidHamiltonianError, ModeKind

from conftest import (
    block_elim_transform,
    random_free_mode_instance,
    random_orthogonal,
    random_spd,
)

CPB_WT_INV = np.array(
    [
        [-1.0, 0.0, 0.0],
        [-0.571, 1.0, 0.0],
        [0.785, 0.0, 1.0],
    ]
)


def stacked_kernel_rank_oracle(H, threshold=1e-8):
    """Free-mode count via the rank of the stacked constraint matrix.

    A direction is free iff it is annihilated by M0, by N^T, and by the
    projector onto junction axes; F = dim null([M0; N^T; P_J]).
    """
    n = H.n
    P_J = np.zeros((n, n))
    for i in H.junction_indices:
        P_J[i, i] = 1.0
    K = np.vstack([H.M0, H.N.T.reshape(-1, n), P_J])
    s = np.linalg.svd(K, compute_uv=False)
    return int(np.sum(s <= threshold * max(s.max(), 1e-300)))


# ---------------------------------------------------------------------------
# count_free_modes
# ---------------------------------------------------------------------------


def test_cpb_has_one_free_mode(cpb):
    report = count_free_modes(cpb)
    assert report.F == 1
    # the free direction is the first (1g) mode axis
    np.testing.assert_allclose(np.abs(report.basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_positive_definite_m0_has_no_free_modes(fluxonium):
    assert count_free_modes(fluxonium).F == 0


def test_two_exact_zero_rows():
    rng = np.random.default_rng(2)
    M0 = np.zeros((4, 4))
    M0[2:, 2:] = random_spd(rng, 2)
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 4, C_inv=random_spd(rng, 4), M0=M0
    )
    report = count_free_modes(H)
    assert report.F == 2
    assert report.F == stacked_kernel_rank_oracle(H)


def test_count_matches_rank_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(20):
        F = int(rng.integers(1, 3))
        H = random_free_mode_instance(rng, n_kept=3, F=F)
        report = count_free_modes(H)
        assert report.F == F == stacked_kernel_rank_oracle(H)
        # basis columns satisfy all three membership constraints
        np.testing.assert_allclose(
            report.basis.T @ report.basis, np.eye(F), atol=1e-10
        )
        assert np.abs(H.M0 @ report.basis).max() < 1e-8 * np.abs(H.M0).max()


def test_ambiguous_singular_value_raises():
    # a singular value right at the threshold cannot be classified
    M0 = np.diag([1.0, 3e-8, 0.0])
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=np.eye(3), M0=M0
    )
    with pytest.raises(ThresholdAmbiguityError):
        count_free_modes(H, threshold=1e-8)


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, 1.0, float("inf")])
def test_threshold_outside_unit_interval_rejected(threshold):
    # a NaN or negative threshold would classify nothing as free
    H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.eye(2), M0=np.diag([1.0, 0.0]))
    assert count_free_modes(H, threshold=0.0).F == 1
    with pytest.raises(ValueError, match=r"^threshold = .* must lie in \[0, 1\)$"):
        count_free_modes(H, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        remove_free_modes(H, threshold=threshold)


def test_external_flux_with_fewer_columns_than_modes():
    # one external-flux column for two modes (1 = m_x < n)
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
        C_inv=[[2.0, 0.3], [0.3, 1.5]],
        M0=[[0.4, 0.1], [0.1, 0.8]],
        N=[[0.0], [0.5]],
        Phi_x=[0.25],
        E_J=[3.0],
    )
    assert count_free_modes(H).F == 0
    H_red, _, report = remove_free_modes(H)
    assert H_red is H and report.F == 0


def test_every_mode_free_raises():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=[[2.0, 0.3], [0.3, 1.5]], M0=np.zeros((2, 2))
    )
    assert count_free_modes(H).F == 2
    with pytest.raises(InvalidHamiltonianError, match=r"F = n = 2"):
        remove_free_modes(H)


@st.composite
def hidden_free_mode_circuits(draw):
    """(H, F): F free inductor directions hidden by a rotation of the inductor fluxes.

    Built exposed, then rotated: the F free inductor modes and ``charged``
    inductor modes have no M0 rows, the charged ones couple to the external
    fluxes (so they are not free), and unshunted junctions have no M0 rows
    either (so ker M0 also holds junction axes).
    """
    n = draw(st.integers(1, 6))
    n_J = draw(st.integers(0, min(2, n - 1)))
    m_x = draw(st.integers(0, 2))
    n_L = n - n_J
    F = draw(st.integers(0, n_L - (n_J == 0)))
    charged = draw(st.integers(0, min(m_x, n_L - F)))
    unshunted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    J = sorted(rng.choice(n, n_J, replace=False).tolist())
    L = [i for i in range(n) if i not in J]
    no_potential = L[: F + charged] + (J if unshunted else [])
    kept = [i for i in range(n) if i not in no_potential]
    M0 = np.zeros((n, n))
    M0[np.ix_(kept, kept)] = random_spd(rng, len(kept))
    N = rng.standard_normal((n, m_x))
    N[L[:F]] = 0.0
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION if i in J else ModeKind.INDUCTOR for i in range(n)],
        C_inv=random_spd(rng, n),
        M0=M0,
        N=N,
        Phi_x=rng.uniform(-1.0, 1.0, m_x),
        E_J=rng.uniform(1.0, 5.0, n_J),
    )
    W = np.eye(n)
    W[np.ix_(L, L)] = random_orthogonal(rng, n_L)
    return canonical.apply(H, canonical.CanonicalTransform.from_orthogonal(W)), F


def squared_frequencies(H):
    """Normal-mode frequencies squared: the eigenvalues of C_inv M0, ascending."""
    chol = np.linalg.cholesky(H.C_inv)
    return np.linalg.eigvalsh(chol.T @ H.M0 @ chol)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(hidden_free_mode_circuits())
def test_free_mode_removal_properties(circuit):
    H, F = circuit
    report = count_free_modes(H)
    assert report.F == F == stacked_kernel_rank_oracle(H)
    B = report.basis
    np.testing.assert_allclose(B.T @ B, np.eye(F), rtol=0, atol=1e-12)
    assert np.abs(H.M0 @ B).max(initial=0) <= 1e-12 * np.abs(H.M0).max(initial=0)
    assert np.abs(H.N.T @ B).max(initial=0) <= 1e-12 * np.abs(H.N).max(initial=0)
    assert not B[list(H.junction_indices)].any()

    H_red, _, _ = remove_free_modes(H)
    assert H_red.n == H.n - F
    assert count_free_modes(H_red).F == 0
    # the free modes carry zero frequency; every other frequency survives
    full, red = squared_frequencies(H), squared_frequencies(H_red)
    nonzero = full > 1e-9 * full.max(initial=0)
    assert np.count_nonzero(red > 1e-9 * full.max(initial=0)) == np.count_nonzero(nonzero)
    np.testing.assert_allclose(
        np.sqrt(red[red.size - nonzero.sum():]), np.sqrt(full[nonzero]), rtol=1e-10
    )


# ---------------------------------------------------------------------------
# expose_free_modes
# ---------------------------------------------------------------------------


def test_cpb_already_exposed(cpb):
    report = count_free_modes(cpb)
    H_exp, T = expose_free_modes(cpb, report)
    np.testing.assert_allclose(T.W, np.eye(3), atol=1e-12)


def test_no_free_modes_identity(fluxonium):
    report = count_free_modes(fluxonium)
    H_exp, T = expose_free_modes(fluxonium, report)
    np.testing.assert_array_equal(T.W, np.eye(5))
    np.testing.assert_array_equal(H_exp.C_inv, fluxonium.C_inv)


def test_rotated_free_direction_exposed():
    # free direction (phi_1 + phi_2)/sqrt(2) across two inductors
    rng = np.random.default_rng(6)
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    P = np.eye(3) - np.outer(u, u)
    M0 = P @ np.diag([1.0, 2.0, 3.0]) @ P  # kernel exactly along u
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=random_spd(rng, 3), M0=M0
    )
    report = count_free_modes(H)
    assert report.F == 1
    # projector oracle: the detected direction spans ker(M0) restricted to
    # the inductor axes
    np.testing.assert_allclose(np.abs(report.basis[:, 0]), np.abs(u), atol=1e-9)
    H_exp, T = expose_free_modes(H, report)
    scale = np.abs(H_exp.M0).max()
    assert np.abs(H_exp.M0[0, :]).max() < 1e-9 * scale
    assert np.abs(H_exp.M0[:, 0]).max() < 1e-9 * scale
    assert np.abs(T.W @ T.W.T - np.eye(3)).max() < 1e-10


def test_exposed_kinds_follow_permutation():
    # junction first, free inductor direction hiding in modes 1 and 2
    rng = np.random.default_rng(8)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    P = np.eye(2) - np.outer(u, u)
    M0 = np.zeros((3, 3))
    M0[1:, 1:] = P @ np.diag([2.0, 3.0]) @ P
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR, ModeKind.INDUCTOR],
        C_inv=random_spd(rng, 3),
        M0=M0,
        E_J=[2.0],
    )
    report = count_free_modes(H)
    assert report.F == 1
    H_exp, T = expose_free_modes(H, report)
    assert H_exp.kinds[0] is ModeKind.INDUCTOR
    assert H_exp.kinds[1] is ModeKind.JUNCTION
    # the junction selector row must follow its mode to position 1
    np.testing.assert_allclose(H_exp.J_args, [[0.0, 1.0, 0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# elimination transforms
# ---------------------------------------------------------------------------


def test_cpb_gaussian_elimination_matrix(cpb):
    report = count_free_modes(cpb)
    H_exp, _ = expose_free_modes(cpb, report)
    T = gaussian_elim_transform(H_exp, report.F)
    np.testing.assert_allclose(T.W_inv.T, CPB_WT_INV, atol=1e-3)


def test_zero_free_modes_gives_identity(cpb):
    T = gaussian_elim_transform(cpb, 0)
    np.testing.assert_array_equal(T.W, np.eye(3))


def assert_elimination_postconditions(H_exp, F, T, full_diag=True):
    H2 = canonical.apply(H_exp, T)
    n = H_exp.n
    # (i) free modes decoupled from kept modes; the iterative construction
    # additionally splits the free block into 1x1 blocks
    scale = np.abs(H2.C_inv).max()
    assert np.abs(H2.C_inv[F:, :F]).max() < 1e-9 * scale
    if full_diag:
        for f in range(F):
            off = np.abs(np.delete(H2.C_inv[f, :], f)).max()
            assert off < 1e-9 * scale
    # (ii, iii) M0 and N unchanged
    np.testing.assert_allclose(H2.M0, H_exp.M0, atol=1e-9 * max(1, np.abs(H_exp.M0).max()))
    if H_exp.N.size:
        np.testing.assert_allclose(H2.N, H_exp.N, atol=1e-9 * max(1, np.abs(H_exp.N).max()))
    # (iv) non-free block of C_inv preserved
    np.testing.assert_allclose(
        H2.C_inv[F:, F:], H_exp.C_inv[F:, F:], rtol=1e-9, atol=1e-12 * scale
    )
    # (v) non-free fluxes untouched: selector rows of W^-1
    np.testing.assert_allclose(T.W_inv[F:, :], np.eye(n)[F:, :], atol=1e-10)


def assert_transforms_equivalent(T_iter, T_block, F, atol=1e-8):
    """Iterative and block eliminations agree outside the free-free corner.

    The off-block row of (W^T)^-1 is uniquely -X^T A^-1 for any valid
    elimination, and the kept fluxes are untouched; only the internal
    remixing of the discarded free coordinates is convention-dependent.
    """
    n = T_iter.n
    scale = max(np.abs(T_iter.W_inv).max(), 1.0)
    np.testing.assert_allclose(
        T_iter.W_inv[F:, :], T_block.W_inv[F:, :], atol=atol * scale
    )
    np.testing.assert_allclose(
        T_iter.W_inv[:F, F:], T_block.W_inv[:F, F:], atol=atol * scale
    )
    np.testing.assert_allclose(
        T_iter.W[F:, :], T_block.W[F:, :], atol=atol * scale
    )


def test_random_elimination_postconditions_and_cross_check():
    rng = np.random.default_rng(10)
    for _ in range(10):
        H = random_free_mode_instance(rng, n_kept=3, F=2, rotate=False)
        T_iter = gaussian_elim_transform(H, 2)
        T_block = block_elim_transform(H, 2)
        assert_elimination_postconditions(H, 2, T_iter)
        assert_elimination_postconditions(H, 2, T_block, full_diag=False)
        assert_transforms_equivalent(T_iter, T_block, 2)
        # the reduced Hamiltonians coincide entirely
        H_i = canonical.apply(H, T_iter)
        H_b = canonical.apply(H, T_block)
        np.testing.assert_allclose(
            H_i.C_inv[2:, 2:], H_b.C_inv[2:, 2:], atol=1e-10 * np.abs(H_i.C_inv).max()
        )


def test_cpb_block_matches_gaussian(cpb):
    report = count_free_modes(cpb)
    H_exp, _ = expose_free_modes(cpb, report)
    T1 = gaussian_elim_transform(H_exp, 1)
    T2 = block_elim_transform(H_exp, 1)
    # identical up to the sign convention of the (discarded) free coordinate
    assert_transforms_equivalent(T1, T2, 1)
    assert abs(abs(T1.W[0, 0]) - abs(T2.W[0, 0])) < 1e-12
    # both produce the same reduced voltage couplings
    cv1 = (T1.W_inv.T @ H_exp.C_V)[1:]
    cv2 = (T2.W_inv.T @ H_exp.C_V)[1:]
    np.testing.assert_allclose(cv1, cv2, atol=1e-10)


def test_block_elimination_with_decoupled_capacitance():
    # X = 0: the free block is already decoupled, so W = I.
    C = np.diag([4.0, 2.0, 3.0])
    M0 = np.zeros((3, 3))
    M0[1:, 1:] = np.diag([1.0, 2.0])
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=np.linalg.inv(C), M0=M0
    )
    T = block_elim_transform(H, 1)
    np.testing.assert_allclose(T.W, np.eye(3), atol=1e-12)


def test_factors_are_involutions():
    rng = np.random.default_rng(12)
    H = random_free_mode_instance(rng, n_kept=3, F=3, rotate=False)
    for W_f in elimination_factors(H, 3):
        np.testing.assert_allclose(W_f @ W_f, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# remove_free_modes
# ---------------------------------------------------------------------------


def test_cpb_removal_goldens(cpb):
    H_red, T, report = remove_free_modes(cpb)
    assert report.F == 1
    np.testing.assert_allclose(H_red.C_V[:, 0], [12.5, -17.2], atol=0.1)
    np.testing.assert_allclose(
        H_red.C_inv, [[3.57, -0.0312], [-0.0312, 4.79]], atol=0.01
    )
    assert H_red.kinds == (ModeKind.JUNCTION, ModeKind.INDUCTOR)


def test_no_free_modes_returns_input(fluxonium):
    H_red, T, report = remove_free_modes(fluxonium)
    assert report.F == 0
    np.testing.assert_array_equal(H_red.C_inv, fluxonium.C_inv)
    np.testing.assert_array_equal(T.W, np.eye(5))


def test_reduction_differs_from_naive_deletion_only_in_cv(cpb):
    report = count_free_modes(cpb)
    H_exp, T_exp = expose_free_modes(cpb, report)
    H_red, _, _ = remove_free_modes(cpb)
    F = report.F
    np.testing.assert_allclose(H_red.C_inv, H_exp.C_inv[F:, F:], atol=1e-12)
    np.testing.assert_allclose(H_red.M0, H_exp.M0[F:, F:], atol=1e-12)
    np.testing.assert_array_equal(H_red.E_J, H_exp.E_J)
    # C_V is the one piece where naive deletion would be wrong
    naive = H_exp.C_V[F:, :]
    assert np.abs(H_red.C_V - naive).max() > 1.0


def test_reduced_spectrum_matches_regularized_full_system():
    """Dense oracle: give the free mode a tiny flux term and diagonalize.

    With M0_free = delta, the full system's low spectrum is the reduced
    spectrum plus a slow harmonic ladder of spacing sqrt(C'_ff * delta):
    E_full ~ E_red(j) + (k + 1/2) * w_f + O(delta-ish corrections).
    """
    delta = 1e-5
    C_inv = np.array(
        [
            [8.0, 1.2, -0.9],
            [1.2, 3.0, 0.4],
            [-0.9, 0.4, 4.0],
        ]
    )
    M0 = np.zeros((3, 3))
    M0[1:, 1:] = np.array([[2.0, 0.3], [0.3, 1.5]])
    H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 3, C_inv=C_inv, M0=M0)

    H_red, T, report = remove_free_modes(H)
    assert report.F == 1
    red = scmodes.solve(H_red, [16, 16], k=3).eigenvalues

    # free-mode ladder frequency from the decoupled free charge coupling
    H_elim = canonical.apply(H, T)
    w_f = np.sqrt(H_elim.C_inv[0, 0] * delta)

    M0_reg = M0.copy()
    M0_reg[0, 0] = delta
    H_reg = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=C_inv, M0=M0_reg
    )
    # 14 ladder states retained on the regularized free mode; the top
    # rungs of a truncated oscillator are distorted, so compare the
    # lowest 8 full eigenvalues only.
    full = scmodes.solve(H_reg, [14, 16, 16], k=8).eigenvalues
    predicted = np.sort(
        [e + (k + 0.5) * w_f for e in red for k in range(14)]
    )[:8]
    np.testing.assert_allclose(full, predicted, atol=5e-3)


def test_symplectic_eigenvalue_oracle_for_removal():
    # Quadratic instance: the reduced Hamiltonian's symplectic eigenvalues
    # must be the nonvanishing limit of the full instance's as the
    # regularizer goes to zero.
    rng = np.random.default_rng(14)
    H = random_free_mode_instance(rng, n_kept=3, F=1, rotate=True)
    H_red, _, _ = remove_free_modes(H)
    lam_red = scmodes.block_williamson(H_red.M0, H_red.C_inv).Lambda

    delta = 1e-10
    M0_reg = H.M0 + delta * np.eye(4)
    lam_full = scmodes.block_williamson(M0_reg, H.C_inv).Lambda
    # one eigenvalue collapses with the regularizer; the rest match
    np.testing.assert_allclose(np.sort(lam_full)[1:], np.sort(lam_red), rtol=1e-4)


# ---------------------------------------------------------------------------
# invariance properties (exact-zero instances)
# ---------------------------------------------------------------------------


def test_m0_and_n_bitwise_unchanged_on_exact_instances():
    rng = np.random.default_rng(16)
    for _ in range(5):
        H = random_free_mode_instance(rng, n_kept=2, F=2, rotate=False)
        N = np.zeros((4, 2))
        N[2:, :] = rng.standard_normal((2, 2))
        H = H.replace(N=N, Phi_x=np.zeros(2))
        T = gaussian_elim_transform(H, 2)
        H2 = canonical.apply(H, T)
        np.testing.assert_array_equal(H2.M0, H.M0)
        np.testing.assert_array_equal(H2.N, H.N)
