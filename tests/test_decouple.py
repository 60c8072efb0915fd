"""Decoupling transformations and the cosine local/coupling split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scmodes
from scmodes.canonical import offdiag_sq
from scmodes.decouple import (
    SAD_MAX_SWEEPS,
    DecoupleMethod,
    _round_robin,
    full_symplectic,
    inductor_symplectic,
    jacobi_pair_angle,
    simultaneous_approx_diag,
)
from scmodes.model import CircuitHamiltonian, ModeKind
from scmodes.spectrum import split_cosine_row
from scmodes.symplectic import NotPositiveDefiniteError, symplectic_residual

from conftest import (
    match_rows_up_to_sign_and_order,
    random_spd,
    sad_pairwise,
    spectral_equivalence_check,
)

SAD_W_EXPECTED = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.707, 0.707, 0.0],
        [0.0, 0.0, -0.510, 0.510, -0.693],
        [0.0, 0.0, -0.490, 0.490, 0.721],
    ]
)

FS_JARGS_EXPECTED = np.array(
    [
        [-0.0259, 2.29, -0.0614, 0.00628, 0.0],
        [2.24, 0.0721, 0.0454, 0.00569, 0.0],
    ]
)


def two_mode_with_junction():
    return CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
        C_inv=np.array([[3.0, 0.4], [0.4, 5.0]]),
        M0=np.array([[0.8, 0.2], [0.2, 2.0]]),
        E_J=[2.5],
    )


# ---------------------------------------------------------------------------
# simultaneous approximate diagonalization
# ---------------------------------------------------------------------------


def test_sad_fluxonium_golden(fluxonium):
    result = simultaneous_approx_diag(fluxonium)
    assert result.method is DecoupleMethod.SAD
    assert abs(result.offdiag_after - 494.0) <= 0.01 * 494.0
    match_rows_up_to_sign_and_order(result.T.W, SAD_W_EXPECTED, atol=0.005)
    # junction rows are untouched
    np.testing.assert_array_equal(result.H_out.J_args, fluxonium.J_args)
    np.testing.assert_array_equal(result.T.W[:2, :], np.eye(5)[:2, :])


def test_sad_already_diagonal_is_identity():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3,
        C_inv=np.diag([1.0, 2.0, 3.0]),
        M0=np.diag([2.0, 1.0, 4.0]),
    )
    result = simultaneous_approx_diag(H)
    np.testing.assert_array_equal(result.T.W, np.eye(3))
    assert result.iterations == 0


def test_sad_pair_angle_matches_grid_scan():
    """Dense oracle: scan 1e5 angles for the 2-inductor joint objective."""
    rng = np.random.default_rng(41)
    for _ in range(5):
        M0 = random_spd(rng, 2)
        C = random_spd(rng, 2)
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 100_000)

        def objective(t, M0=M0, C=C):
            c, s = np.cos(t), np.sin(t)
            G = np.array([[c, s], [-s, c]])
            return sum(
                float((A**2).sum() - (np.diag(A) ** 2).sum())
                for A in (G @ M0 @ G.T, G @ C @ G.T)
            )

        values = np.array([objective(t) for t in thetas])
        best_grid = values.min()

        H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 2, C_inv=C, M0=M0)
        result = simultaneous_approx_diag(H, max_sweeps=1)
        assert result.offdiag_after <= result.offdiag_before
        assert result.offdiag_after <= best_grid + 1e-6


def test_sad_objective_nonincreasing_per_rotation(fluxonium):
    trace = []
    simultaneous_approx_diag(fluxonium, on_rotation=trace.append)
    values = [scmodes.offdiag_norm(fluxonium)] + trace
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-9 * max(values))


def test_sad_nonconvergence_reported_via_iterations(fluxonium):
    result = simultaneous_approx_diag(fluxonium, max_sweeps=2)
    assert result.iterations == 2  # still rotating when the budget ran out


def mixed_kinds(rng, n_L, n_J):
    """n_L inductor and n_J junction kinds in a random order."""
    kinds = np.array([ModeKind.INDUCTOR] * n_L + [ModeKind.JUNCTION] * n_J)
    return list(rng.permutation(kinds))


def test_round_robin_meets_every_inductor_pair_once_per_sweep():
    rng = np.random.default_rng(53)
    for n_L in range(10):
        kinds = mixed_kinds(rng, n_L, 3)
        H = CircuitHamiltonian(
            kinds=kinds, C_inv=np.eye(n_L + 3), M0=np.eye(n_L + 3), E_J=[1.0] * 3
        )
        L = H.inductor_indices
        steps = _round_robin(L)
        pairs = [(int(a), int(b)) for p, q in steps for a, b in zip(p, q)]
        assert sorted(pairs) == [(a, b) for i, a in enumerate(L) for b in L[i + 1 :]]
        for p, q in steps:
            assert len(set(p) | set(q)) == 2 * len(p)  # disjoint within a step
            assert set(p) | set(q) <= set(L)  # no junction index
        assert len(steps) == (0 if n_L < 2 else n_L - 1 + n_L % 2)


def test_jacobi_angle_vector_matches_scalar():
    rng = np.random.default_rng(59)
    mats = [random_spd(rng, 8), random_spd(rng, 8)]
    p, q = np.triu_indices(8, k=1)
    vector = jacobi_pair_angle(mats, p, q)
    scalar = [jacobi_pair_angle(mats, int(a), int(b)) for a, b in zip(p, q)]
    np.testing.assert_allclose(vector, scalar, rtol=0.0, atol=1e-15)


def test_sad_steps_match_pairwise_oracle():
    """Each step's vectorized update equals rotating its pairs one by one."""
    rng = np.random.default_rng(61)
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 12, C_inv=random_spd(rng, 12), M0=random_spd(rng, 12)
    )
    trace = []
    result = simultaneous_approx_diag(H, max_sweeps=1, on_rotation=trace.append)
    M0, C_inv, W = H.M0, H.C_inv, np.eye(12)
    expected = []
    for p, q in _round_robin(H.inductor_indices):
        M0, C_inv, W = sad_pairwise(M0, C_inv, W, zip(p, q))
        expected.append(offdiag_sq((M0, C_inv)))
    np.testing.assert_allclose(trace, expected, rtol=1e-12)
    np.testing.assert_allclose(result.T.W, W, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.H_out.M0, M0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.H_out.C_inv, C_inv, rtol=0.0, atol=1e-12)


def mixed_circuit(rng, n, n_J):
    """n modes, n_J of them junctions in random places, with SPD C_inv and M0."""
    return CircuitHamiltonian(
        kinds=mixed_kinds(rng, n - n_J, n_J),
        C_inv=5.0 * random_spd(rng, n, 30.0),
        M0=random_spd(rng, n, 30.0),
        E_J=[1.0] * n_J,
    )


def check_sad_invariants(H, result, trace):
    """W orthogonal, junction rows untouched, frequencies kept, objective never rising."""
    W, out, n = result.T.W, result.H_out, H.n
    np.testing.assert_allclose(W @ W.T, np.eye(n), rtol=0.0, atol=1e-12)
    J = list(H.junction_indices)
    np.testing.assert_array_equal(out.J_args, H.J_args)
    np.testing.assert_array_equal(W[J], np.eye(n)[J])

    def frequencies(h):
        return np.sqrt(np.sort(np.linalg.eigvals(h.M0 @ h.C_inv).real))

    np.testing.assert_allclose(frequencies(out), frequencies(H), rtol=1e-10)
    values = [scmodes.offdiag_norm(H)] + trace
    assert np.all(np.diff(values) <= 1e-12 * values[0])


def test_sad_large_random_circuit_invariants():
    rng = np.random.default_rng(67)
    H = mixed_circuit(rng, 40, 5)
    trace = []
    result = simultaneous_approx_diag(H, max_sweeps=15, on_rotation=trace.append)
    check_sad_invariants(H, result, trace)


def test_sad_stops_when_the_objective_stalls():
    """The angle rule this replaced ran all 100 sweeps on this circuit; the
    stall rule stops early, within 1e-7 of the 100-sweep objective."""
    H = mixed_circuit(np.random.default_rng(8), 12, 3)
    result = simultaneous_approx_diag(H, max_sweeps=100)
    assert result.iterations < 100
    pairs = [(a, b) for p, q in _round_robin(H.inductor_indices) for a, b in zip(p, q)]
    M0, C_inv, _ = sad_pairwise(H.M0, H.C_inv, np.eye(H.n), pairs * 100)
    full = offdiag_sq((M0, C_inv))
    assert abs(result.offdiag_after - full) <= 1e-7 * full


@st.composite
def mixed_circuits(draw):
    n = draw(st.integers(1, 16))
    n_J = draw(st.integers(0, min(3, n)))
    return mixed_circuit(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, n_J)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mixed_circuits())
def test_sad_invariants_and_stop_rule(H):
    trace = []
    result = simultaneous_approx_diag(H, on_rotation=trace.append)
    check_sad_invariants(H, result, trace)
    if result.iterations < SAD_MAX_SWEEPS:
        assert simultaneous_approx_diag(result.H_out).iterations <= 1


# ---------------------------------------------------------------------------
# inductor-only symplectic diagonalization
# ---------------------------------------------------------------------------


def test_ios_fluxonium_golden(fluxonium):
    result = inductor_symplectic(fluxonium)
    assert abs(result.offdiag_after - 89.3) <= 0.01 * 89.3
    block = result.H_out.C_inv[2:, 2:]
    np.testing.assert_allclose(np.diag(block), [4.40, 25.4, 39.4], rtol=0.02)
    # inductor blocks of both matrices are the same diagonal matrix
    np.testing.assert_allclose(
        result.H_out.M0[2:, 2:], block, atol=1e-8 * np.abs(block).max()
    )


def test_ios_no_inductors_is_identity():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.JUNCTION],
        C_inv=np.array([[2.0, 0.3], [0.3, 1.5]]),
        M0=np.array([[1.0, 0.1], [0.1, 1.2]]),
        E_J=[1.0, 2.0],
    )
    result = inductor_symplectic(H)
    np.testing.assert_array_equal(result.T.W, np.eye(2))


def test_ios_random_invariants():
    rng = np.random.default_rng(43)
    for _ in range(5):
        kinds = [ModeKind.JUNCTION, ModeKind.INDUCTOR, ModeKind.INDUCTOR, ModeKind.INDUCTOR]
        H = CircuitHamiltonian(
            kinds=kinds, C_inv=random_spd(rng, 4), M0=random_spd(rng, 4), E_J=[2.0]
        )
        result = inductor_symplectic(H)
        out = result.H_out
        scale = np.abs(out.C_inv).max()
        for mat in (out.C_inv, out.M0):
            block = mat[1:, 1:]
            assert np.abs(block - np.diag(np.diag(block))).max() < 1e-8 * scale
        # junction-junction couplings bitwise preserved
        assert out.C_inv[0, 0] == H.C_inv[0, 0]
        assert out.M0[0, 0] == H.M0[0, 0]
        np.testing.assert_array_equal(out.J_args, H.J_args)


def test_ios_requires_pd_inductor_block():
    M0 = np.zeros((2, 2))
    M0[0, 0] = 1.0  # inductor block (mode 1) is zero
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR, ModeKind.INDUCTOR],
        C_inv=np.eye(2),
        M0=M0,
    )
    with pytest.raises(NotPositiveDefiniteError):
        inductor_symplectic(H)


# ---------------------------------------------------------------------------
# full symplectic diagonalization
# ---------------------------------------------------------------------------


def test_fs_fluxonium_golden(fluxonium, fluxonium_lambda_reference):
    result = full_symplectic(fluxonium)
    out = result.H_out
    assert result.offdiag_after < 1e-8
    lam = np.diag(out.C_inv)
    reference, tolerance, _ = fluxonium_lambda_reference
    assert np.all(np.abs(lam - reference) <= tolerance), (lam, reference, tolerance)
    np.testing.assert_allclose(out.M0, out.C_inv, atol=1e-8 * lam.max())
    match_rows_up_to_sign_and_order(out.J_args, FS_JARGS_EXPECTED, atol=0.01)
    # J_args rows are rows of S_n = W^-1
    np.testing.assert_allclose(out.J_args, result.T.W_inv[:2, :], atol=1e-12)


def test_fs_identity_matrices():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.eye(2), M0=np.eye(2)
    )
    result = full_symplectic(H)
    np.testing.assert_allclose(np.diag(result.H_out.C_inv), [1.0, 1.0], atol=1e-10)
    W = result.T.W
    np.testing.assert_allclose(W @ W.T, np.eye(2), atol=1e-10)
    S = np.block([[W, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(W).T]])
    assert symplectic_residual(S) < 1e-10


def test_fs_random_quadratic_decoupling_and_spectrum():
    rng = np.random.default_rng(47)
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=random_spd(rng, 2), M0=random_spd(rng, 2)
    )
    result = full_symplectic(H)
    assert result.offdiag_after < 1e-8
    diff = spectral_equivalence_check(H, result.H_out, k=4, cutoff=40)
    assert diff < 1e-5


def test_fs_error_mentions_shunting():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
        C_inv=np.eye(2),
        M0=np.diag([0.0, 1.0]),  # unshunted junction: M0 singular
        E_J=[1.0],
    )
    with pytest.raises(NotPositiveDefiniteError, match="shunt"):
        full_symplectic(H)


def test_all_methods_preserve_two_mode_spectrum():
    H = two_mode_with_junction()
    for result in (
        simultaneous_approx_diag(H),
        inductor_symplectic(H),
        full_symplectic(H),
    ):
        diff = spectral_equivalence_check(H, result.H_out, k=4, cutoff=40)
        assert diff < 1e-5, result.method


# ---------------------------------------------------------------------------
# cosine split
# ---------------------------------------------------------------------------


def test_split_selector_row_has_no_coupling():
    locals_, coupling = split_cosine_row(np.array([0.0, 1.0, 0.0]), energy=3.0, sign=1.0)
    assert locals_ == [(1, 1.0)]
    assert coupling is None


def test_split_fluxonium_fs_row(fluxonium):
    out = full_symplectic(fluxonium).H_out
    locals_, coupling = split_cosine_row(out.J_args[0], energy=3.9, sign=-1.0)
    # Four substantial coefficients; the fifth is a near-zero (~2e-5)
    # remnant of the three-significant-figure inputs and stays above the
    # 1e-10 drop tolerance, so the split keeps it.
    coeffs = np.abs(out.J_args[0])
    assert np.sum(coeffs > 1e-3) == 4
    assert coeffs.min() < 1e-4
    assert len(locals_) == 5
    assert coupling is not None


def test_split_taylor_cross_term():
    """Finite-difference oracle: the mixed second partial of the coupling
    residual at zero equals E_J * a1 * a2 (for sign +1)."""
    a1, a2, ej, sign = 0.7, -1.3, 2.0, 1.0
    _, coupling = split_cosine_row(np.array([a1, a2]), energy=ej, sign=sign)

    def residual(phi1, phi2):
        c = coupling
        total = np.cos(c.coeffs[0] * phi1 + c.coeffs[1] * phi2)
        local = np.cos(c.coeffs[0] * phi1) + np.cos(c.coeffs[1] * phi2)
        return -c.sign * c.energy * (total - local)

    h = 1e-4
    mixed = (
        residual(h, h) - residual(h, -h) - residual(-h, h) + residual(-h, -h)
    ) / (4 * h**2)
    np.testing.assert_allclose(mixed, ej * a1 * a2, rtol=1e-6)


def test_split_drops_tiny_coefficients():
    row = np.array([1.0, 1e-12, 0.5])
    locals_, coupling = split_cosine_row(row, energy=1.0, sign=1.0)
    assert [m for m, _ in locals_] == [0, 2]
    assert coupling.modes == (0, 2)


def test_jacobi_angle_zero_for_diagonal_pair():
    mats = [np.diag([3.0, 1.0]), np.diag([2.0, 5.0])]
    assert abs(jacobi_pair_angle(mats, 0, 1)) < 1e-15
