"""Canonical-transformation mechanics and spectral-equivalence diagnostics."""

import numpy as np
import pytest

import scmodes
from scmodes.canonical import CanonicalTransform, SingularTransformError, apply, offdiag_norm
from scmodes.model import CircuitHamiltonian, ModeKind

from conftest import (
    random_orthogonal,
    random_quadratic_hamiltonian,
    random_spd,
    spectral_equivalence_check,
)


def dense_two_mode_spectrum(H, k, prim=50):
    """Dense oracle: 2-mode quadratic Hamiltonian in raw HO product bases.

    Built directly from ladder operators and Kronecker products, with no
    use of the spectrum module.
    """
    ops = []
    for i in range(2):
        c, m = H.C_inv[i, i], H.M0[i, i]
        z = np.sqrt(c / m)
        b = np.diag(np.sqrt(np.arange(1, prim)), 1)
        phi = np.sqrt(z / 2.0) * (b + b.T)
        n = 1j * np.sqrt(1.0 / (2 * z)) * (b.T - b)
        h = 0.5 * c * (n @ n) + 0.5 * m * (phi @ phi)
        ops.append((h.real, phi, n))
    eye = np.eye(prim)
    total = np.kron(ops[0][0], eye) + np.kron(eye, ops[1][0])
    total = total.astype(complex)
    total += H.C_inv[0, 1] * np.kron(ops[0][2], ops[1][2])
    total += H.M0[0, 1] * np.kron(ops[0][1], ops[1][1])
    return np.linalg.eigvalsh((total + total.conj().T) / 2)[:k]


# ---------------------------------------------------------------------------
# CanonicalTransform
# ---------------------------------------------------------------------------


def test_singular_matrix_rejected():
    with pytest.raises(SingularTransformError):
        CanonicalTransform.from_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_wrong_inverse_rejected():
    with pytest.raises(SingularTransformError, match="residual"):
        CanonicalTransform(np.eye(2), 2 * np.eye(2))


@pytest.mark.parametrize(
    "entry,inverse,message",
    [
        ("0.5", 2.0, "non-numeric"),
        (True, 1.0, "non-numeric"),
        (None, 1.0, "non-numeric"),
        (float("nan"), 1.0, "non-finite"),
        (float("inf"), 0.0, "non-finite"),
    ],
    ids=["string", "boolean", "null", "nan", "infinity"],
)
def test_transform_entries_must_be_finite_numbers(entry, inverse, message):
    # NaN > tol is False, so a NaN residual would pass the inverse check
    for W, W_inv, name in (([[entry]], [[inverse]], "W"), ([[inverse]], [[entry]], "W_inv")):
        with pytest.raises(SingularTransformError, match=f"^{name} has {message} entries$"):
            CanonicalTransform(W, W_inv)
    with pytest.raises(SingularTransformError, match="W has"):
        CanonicalTransform(np.array([[entry]], dtype=object), np.array([[inverse]]))


@pytest.mark.parametrize(
    "make,entry",
    [
        (CanonicalTransform.from_matrix, "2"),
        (CanonicalTransform.from_matrix, True),
        (CanonicalTransform.from_orthogonal, True),
        (CanonicalTransform.from_orthogonal, "1"),
    ],
    ids=["matrix-string", "matrix-boolean", "orthogonal-boolean", "orthogonal-string"],
)
def test_transform_constructors_pass_the_entry_gate(make, entry):
    # each converts to a float matrix if it skips the gate
    with pytest.raises(SingularTransformError, match="^W has non-numeric entries$"):
        make([[entry]])


def test_transform_shapes_use_the_array_gate():
    wrong_inverse = r"^W_inv has shape \(3, 3\), expected \(2, 2\)$"
    with pytest.raises(SingularTransformError, match=wrong_inverse):
        CanonicalTransform(np.eye(2), np.eye(3))
    vector = r"^W has shape \(2,\), expected \(any, any\)$"
    with pytest.raises(SingularTransformError, match=vector):
        CanonicalTransform(np.ones(2), np.ones(2))
    with pytest.raises(SingularTransformError, match="square"):
        CanonicalTransform(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize(
    "make",
    [
        lambda W, W_inv: CanonicalTransform(W, W_inv),
        lambda W, W_inv: CanonicalTransform.from_matrix(W),
        lambda W, W_inv: CanonicalTransform.from_orthogonal(W),
    ],
    ids=["constructor", "from_matrix", "from_orthogonal"],
)
def test_transform_copies_the_callers_arrays(make):
    W = random_orthogonal(np.random.default_rng(3), 3)
    W_inv = W.T.copy()
    T = make(W, W_inv)
    for a in (W, W_inv):
        assert a.flags.writeable
        assert a is not T.W and a is not T.W_inv
        assert not np.shares_memory(a, T.W) and not np.shares_memory(a, T.W_inv)
    assert not T.W.flags.writeable and not T.W_inv.flags.writeable


def test_identity_apply_is_exact(fluxonium):
    H2 = apply(fluxonium, CanonicalTransform.identity(5))
    np.testing.assert_array_equal(H2.C_inv, fluxonium.C_inv)
    np.testing.assert_array_equal(H2.M0, fluxonium.M0)
    np.testing.assert_array_equal(H2.J_args, fluxonium.J_args)
    with pytest.raises(SingularTransformError, match=r"^transform is 4x4, Hamiltonian has n=5$"):
        apply(fluxonium, CanonicalTransform.identity(4))


def test_inductor_symplectic_w_gives_diagonal_block(fluxonium):
    # The inductor-only transform must turn the C_inv inductor block into
    # the diagonal of inductor symplectic eigenvalues.
    result = scmodes.inductor_symplectic(fluxonium)
    block = result.H_out.C_inv[2:, 2:]
    lam = scmodes.block_williamson(fluxonium.M0[2:, 2:], fluxonium.C_inv[2:, 2:]).Lambda
    np.testing.assert_allclose(block, np.diag(lam), atol=1e-8 * lam.max())
    np.testing.assert_allclose(np.diag(block), [4.40, 25.4, 39.4], rtol=0.02)


def test_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        H = random_quadratic_hamiltonian(rng, 4)
        W = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        T = CanonicalTransform.from_matrix(W)
        T_inv = CanonicalTransform(T.W_inv, T.W)
        H2 = apply(apply(H, T), T_inv)
        scale = np.abs(H.C_inv).max()
        np.testing.assert_allclose(H2.C_inv, H.C_inv, atol=1e-8 * scale)
        np.testing.assert_allclose(H2.M0, H.M0, atol=1e-8 * np.abs(H.M0).max())


def test_apply_composes_as_matrix_product():
    rng = np.random.default_rng(17)
    H = random_quadratic_hamiltonian(rng, 4)
    W1 = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    W2 = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    twice = apply(apply(H, CanonicalTransform.from_matrix(W1)), CanonicalTransform.from_matrix(W2))
    once = apply(H, CanonicalTransform.from_matrix(W2 @ W1))
    for a, b in ((twice.C_inv, once.C_inv), (twice.M0, once.M0)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(b).max())


# ---------------------------------------------------------------------------
# offdiag_norm
# ---------------------------------------------------------------------------


def test_offdiag_norm_fluxonium(fluxonium):
    assert abs(offdiag_norm(fluxonium) - 2.87e5) <= 0.01 * 2.87e5


def test_offdiag_norm_diagonal_is_zero():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=np.diag([1.0, 2.0, 3.0]), M0=np.eye(3)
    )
    assert offdiag_norm(H) == 0.0


def test_offdiag_norm_after_sad(fluxonium):
    result = scmodes.simultaneous_approx_diag(fluxonium)
    assert abs(result.offdiag_after - 494.0) <= 0.01 * 494.0


def test_givens_cross_block_sum_invariance():
    # A rotation in the (p, q) plane preserves a_pk^2 + a_qk^2 for k outside
    # the pair; this justifies the pairwise closed-form Jacobi angle.
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = random_spd(rng, 5)
        p, q = 1, 3
        theta = rng.uniform(-np.pi, np.pi)
        G = np.eye(5)
        G[p, p] = G[q, q] = np.cos(theta)
        G[p, q] = np.sin(theta)
        G[q, p] = -np.sin(theta)
        A2 = G @ A @ G.T
        for k in range(5):
            if k in (p, q):
                continue
            np.testing.assert_allclose(
                A2[p, k] ** 2 + A2[q, k] ** 2,
                A[p, k] ** 2 + A[q, k] ** 2,
                rtol=1e-10,
            )


# ---------------------------------------------------------------------------
# spectral equivalence (Lemma-1 diagnostics)
# ---------------------------------------------------------------------------


def two_mode_instance():
    return CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2,
        C_inv=np.array([[2.0, 0.4], [0.4, 3.0]]),
        M0=np.array([[1.5, 0.3], [0.3, 2.5]]),
    )


def test_identity_equivalence_is_exact():
    H = two_mode_instance()
    H2 = apply(H, CanonicalTransform.identity(2))
    assert spectral_equivalence_check(H, H2, k=4, cutoff=20) == 0.0


def test_random_transform_equivalence():
    H = two_mode_instance()
    rng = np.random.default_rng(29)
    W = random_orthogonal(rng, 2) @ np.diag([1.3, 0.8])
    H2 = apply(H, CanonicalTransform.from_matrix(W))
    diff = spectral_equivalence_check(H, H2, k=4, cutoff=40)
    assert diff < 1e-6
    # both sides agree with the independent dense oracle
    oracle = dense_two_mode_spectrum(H, k=4)
    got = scmodes.solve(H, [40, 40], k=4).eigenvalues
    np.testing.assert_allclose(got, oracle, atol=1e-6)


def test_cpb_reduced_vs_rotated_inductor(cpb):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    W = np.diag([1.0, -1.0])  # orthogonal rotation of the single inductor mode
    H2 = apply(H_red, CanonicalTransform.from_orthogonal(W))
    diff = spectral_equivalence_check(H_red, H2, k=4, cutoff=30)
    assert diff < 1e-6


def test_equivalence_difference_shrinks_with_cutoff():
    H = two_mode_instance()
    rng = np.random.default_rng(31)
    W = random_orthogonal(rng, 2) @ np.diag([1.4, 0.9])
    H2 = apply(H, CanonicalTransform.from_matrix(W))
    diffs = [
        spectral_equivalence_check(H, H2, k=4, cutoff=d)
        for d in (10, 20, 40)
    ]
    assert diffs[2] <= diffs[1] + 1e-12
    assert diffs[1] <= diffs[0] + 1e-12


def test_more_than_three_modes_rejected(fluxonium):
    with pytest.raises(ValueError, match="3 modes"):
        spectral_equivalence_check(fluxonium, fluxonium, k=2, cutoff=5)
