"""Local bases, operator assembly, eigensolving, reduced density matrices,
and adaptive cutoffs."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scmodes
from scmodes import spectrum
from scmodes.model import CircuitHamiltonian, ModeKind
from scmodes.spectrum import (
    BasisMismatchError,
    CouplingSet,
    EigensolverConvergenceError,
    adaptive_cutoffs,
    assemble_hamiltonian,
    build_local_mode,
    eigensolve,
    embed,
    make_locals_builder,
    reduced_density_matrix,
    spectrum_vs_cutoff,
)

from conftest import hermiticity_residual, mathieu_levels, sinc_dvr_levels

TABLE_ENERGIES = [-0.999, -0.00981, 0.979, 1.88, 1.97, 2.87, 2.96, 3.32, 3.85, 3.95]


def coupled_pair(c01=0.4, m01=0.2):
    return CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2,
        C_inv=np.array([[2.0, c01], [c01, 3.0]]),
        M0=np.array([[1.0, m01], [m01, 1.5]]),
    )


# ---------------------------------------------------------------------------
# local modes
# ---------------------------------------------------------------------------


def test_harmonic_mode_energies():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR], C_inv=np.array([[1.0]]), M0=np.array([[1.0]])
    )
    loc = build_local_mode(H, 0, primitive_dim=40, keep=10)
    np.testing.assert_allclose(loc.energies, np.arange(10) + 0.5, atol=1e-8)
    assert loc.phi_op is not None


def test_cpb_junction_mode_self_convergence(cpb):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    # charges -20..20 and -40..40
    e20 = build_local_mode(H_red, 0, primitive_dim=41, keep=10).energies
    e40 = build_local_mode(H_red, 0, primitive_dim=81, keep=10).energies
    assert np.abs(e20 - e40).max() < 1e-6


def test_fluxonium_fs_local_mode_basis_convergence(fluxonium):
    Hfs = scmodes.full_symplectic(fluxonium).H_out
    e120 = build_local_mode(Hfs, 0, primitive_dim=120, keep=10).energies
    e240 = build_local_mode(Hfs, 0, primitive_dim=240, keep=10).energies
    assert np.abs(e120 - e240).max() < 1e-8


def test_flux_offset_shifts_oscillator():
    # 1/2 c n^2 + 1/2 m phi^2 + f phi is a displaced oscillator:
    # energies (k + 1/2) w - f^2 / (2 m)
    c, m, f = 2.0, 3.0, 0.7
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR], C_inv=[[c]], M0=[[m]],
        N=[[1.0]], Phi_x=[f],
    )
    loc = build_local_mode(H, 0, primitive_dim=120, keep=6)
    w = np.sqrt(c * m)
    analytic = (np.arange(6) + 0.5) * w - f**2 / (2 * m)
    np.testing.assert_allclose(loc.energies, analytic, atol=1e-8)


def test_junction_sign_flag_flips_potential():
    # For a bare charge-basis junction the sign is a gauge (phi -> phi + pi,
    # same spectrum); with an inductive shunt the flip turns the single well
    # at phi = 0 into the sweet-spot double well and raises the ground state.
    base = dict(kinds=[ModeKind.JUNCTION], C_inv=[[2.0]], M0=[[0.5]], E_J=[3.0])
    plus = CircuitHamiltonian(E_sign=[1.0], **base)
    minus = CircuitHamiltonian(E_sign=[-1.0], **base)
    e_plus = build_local_mode(plus, 0, primitive_dim=150, keep=3).energies
    e_minus = build_local_mode(minus, 0, primitive_dim=150, keep=3).energies
    assert e_plus[0] < e_minus[0]
    assert e_minus[0] - e_plus[0] > 1.0

    bare = dict(kinds=[ModeKind.JUNCTION], C_inv=[[2.0]], M0=[[0.0]], E_J=[3.0])
    e_bare = [
        build_local_mode(CircuitHamiltonian(E_sign=[s], **bare), 0, keep=3).energies
        for s in (1.0, -1.0)
    ]
    np.testing.assert_allclose(e_bare[0], e_bare[1], atol=1e-10)


def test_charge_basis_rejects_non_integer_coefficient():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.array([[2.0]]), M0=np.zeros((1, 1)),
        E_J=[1.0],
    )
    H = H.replace(J_args=np.array([[0.5]]))
    with pytest.raises(BasisMismatchError, match="integer"):
        build_local_mode(H, 0, keep=4)


def test_charge_basis_rejects_linear_flux_term():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.array([[2.0]]), M0=np.zeros((1, 1)),
        E_J=[1.0], N=[[1.0]], Phi_x=[0.3],
    )
    with pytest.raises(BasisMismatchError, match="linear flux"):
        build_local_mode(H, 0, keep=4)


def test_phase_factor_unitarity():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.array([[3.0]]), M0=np.array([[1.5]]),
        E_J=[2.0],
    )
    # untruncated: exactly unitary
    loc = build_local_mode(H, 0, primitive_dim=60, keep=60)
    E = loc.phase_factor(1.0)
    np.testing.assert_allclose(E @ E.conj().T, np.eye(60), atol=1e-8)
    # Truncation always leaks at the top kept states (exp(i*phi) maps them
    # partially out of the kept space), but matrix elements between states
    # the cutoff comfortably covers stay unitary far below the documented
    # 1e-6 tolerance.
    loc = build_local_mode(H, 0, primitive_dim=200, keep=30)
    E = loc.phase_factor(1.0)
    product = E @ E.conj().T
    np.testing.assert_allclose(product[:8, :8], np.eye(30)[:8, :8], atol=1e-6)


def test_phase_factor_needs_exact_key():
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.array([[3.0]]), M0=np.array([[1.5]]),
        E_J=[2.0],
    )
    loc = build_local_mode(H, 0, primitive_dim=60, keep=10)
    with pytest.raises(BasisMismatchError, match="no phase factor"):
        loc.phase_factor(1.0 + 1e-13)


def test_commutator_on_primitive_basis():
    # With nothing truncated P is unitary and [phi_op, n_op] = P^H [phi, n] P.
    # On the primitive ladder [phi, n] = i except at the top corner, where it
    # is i (1 - dim), so the defect is rank one with singular value dim.
    dim = 30
    oscillator = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR], C_inv=np.array([[2.0]]), M0=np.array([[0.5]])
    )
    with_cosine = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.array([[3.0]]), M0=np.array([[1.5]]),
        E_J=[2.0],
    )
    for H in (oscillator, with_cosine):
        loc = build_local_mode(H, 0, primitive_dim=dim, keep=dim)
        defect = loc.phi_op @ loc.n_op - loc.n_op @ loc.phi_op - 1j * np.eye(dim)
        sv = np.linalg.svd(defect, compute_uv=False)
        np.testing.assert_allclose(sv[0], dim, rtol=1e-10)
        assert sv[1:].max() < 1e-10


def test_truncated_mode_matches_rebuild():
    H = coupled_pair()
    big = build_local_mode(H, 0, primitive_dim=50, keep=12)
    small = build_local_mode(H, 0, primitive_dim=50, keep=5)
    cut = big.truncated(5)
    np.testing.assert_allclose(cut.energies, small.energies, atol=1e-12)
    np.testing.assert_allclose(cut.n_op, small.n_op, atol=1e-12)


def junction_mode(c, m, E_J, sign, flux_lin=0.0, V=0.0):
    """One junction mode with a flux offset through N = 1 and a drive through C_V = 1."""
    return CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=[[c]], M0=[[m]], E_J=[E_J], E_sign=[sign],
        N=[[1.0]], Phi_x=[flux_lin], C_V=[[1.0]], V=[V],
    )


ORACLE_SETTINGS = settings(max_examples=20, derandomize=True, database=None, deadline=None)


@ORACLE_SETTINGS
@given(
    c=st.floats(0.5, 8.0),
    m=st.floats(0.05, 3.0),
    E_J=st.floats(0.0, 6.0),
    sign=st.sampled_from([1.0, -1.0]),
    flux_lin=st.floats(-1.0, 1.0),
    V=st.floats(-1.0, 1.0),
)
def test_harmonic_mode_matches_sinc_dvr(c, m, E_J, sign, flux_lin, V):
    # 400 primitive states resolve the whole drawn range (4.8e-13 on a grid
    # of its corners); the default 200 do not, see the xfail below.
    H = junction_mode(c, m, E_J, sign, flux_lin, V)
    loc = build_local_mode(H, 0, primitive_dim=400, keep=4)
    expected = sinc_dvr_levels(c, m, flux_lin, E_J, sign, drive=c * V, k=4)
    np.testing.assert_allclose(loc.energies, expected, rtol=0, atol=1e-8)


@pytest.mark.xfail(strict=True, reason="the default harmonic basis misses displaced deep wells")
def test_default_harmonic_basis_resolves_displaced_deep_well():
    # Known limitation: the harmonic primitive basis is centred at phi = 0
    # with max(200, 4 keep) states, and nothing checks its truncation.  Here
    # the flux term displaces deep cosine wells by flux_lin/m = 20, and the
    # default basis misses the third level by 1.7e-5; 300 states agree to 1.4e-12.
    c, m, E_J, sign, flux_lin = 0.5, 0.05, 6.0, -1.0, 1.0
    loc = build_local_mode(junction_mode(c, m, E_J, sign, flux_lin), 0, keep=4)
    expected = sinc_dvr_levels(c, m, flux_lin, E_J, sign, drive=0.0, k=4)
    np.testing.assert_allclose(loc.energies, expected, rtol=0, atol=1e-8)


@ORACLE_SETTINGS
@given(c=st.floats(0.5, 8.0), E_J=st.floats(0.1, 6.0), sign=st.sampled_from([1.0, -1.0]))
def test_charge_mode_matches_mathieu(c, E_J, sign):
    loc = build_local_mode(junction_mode(c, 0.0, E_J, sign), 0, keep=4)
    assert loc.phi_op is None
    np.testing.assert_allclose(loc.energies, mathieu_levels(c, E_J, 4), rtol=0, atol=1e-12)


@ORACLE_SETTINGS
@given(
    c=st.floats(0.5, 8.0),
    E_J=st.floats(0.1, 6.0),
    sign=st.sampled_from([1.0, -1.0]),
    V=st.floats(-1.0, 1.0),
)
@example(c=4.0, E_J=0.5, sign=1.0, V=0.5)  # the sweet spot, where charges 0 and 1 meet
def test_driven_charge_mode_matches_plain_charge_basis(c, E_J, sign, V):
    # The drive is c V: 1/2 c n^2 - c V n = 1/2 c (n - V)^2 - 1/2 c V^2,
    # here diagonalized in the plain charge states -60 .. 60.
    loc = build_local_mode(junction_mode(c, 0.0, E_J, sign, V=V), 0, keep=4)
    charges = np.arange(-60, 61.0)
    shift = np.eye(charges.size, k=-1)
    H = np.diag(0.5 * c * (charges - V) ** 2) - sign * E_J * (shift + shift.T) / 2
    expected = np.linalg.eigvalsh(H)[:4] - 0.5 * c * V**2
    np.testing.assert_allclose(loc.energies, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("x,harmonic", [(1.5, True), (0.5, False)])
def test_basis_kind_follows_relative_flux_term(x, harmonic):
    # harmonic exactly when M0_ii > 1e-10 * max(1, max|M0|), here 2e-10
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.eye(2), M0=np.diag([2.0, x * 2e-10])
    )
    assert (build_local_mode(H, 1, keep=4).phi_op is not None) == harmonic


def assert_same_local_mode(a, b):
    assert a.mode_index == b.mode_index and a.real_basis == b.real_basis
    for x, y in ((a.energies, b.energies), (a.phi_op, b.phi_op), (a.n_op, b.n_op)):
        assert (x is None and y is None) or np.array_equal(x, y)
    assert a.phase_factors.keys() == b.phase_factors.keys()
    for key in a.phase_factors:
        assert np.array_equal(a.phase_factors[key], b.phase_factors[key])


@pytest.mark.parametrize(
    "m,keep,primitive_dim",
    [(0.5, 10, 200), (0.5, 60, 240), (0.0, 10, 201), (0.0, 30, 201)],
    ids=["harmonic-10", "harmonic-60", "charge-10", "charge-30"],
)
def test_default_primitive_size(m, keep, primitive_dim):
    # 4 max(keep, 50) oscillator states; charges +-2 max(keep, 50)
    H = junction_mode(1.0, m, 2.0, 1.0)
    default = build_local_mode(H, 0, keep=keep)
    assert (default.phi_op is not None) == (m > 0)
    assert_same_local_mode(default, build_local_mode(H, 0, primitive_dim=primitive_dim, keep=keep))


@pytest.mark.parametrize(
    "m,V,real",
    [(0.5, 0.0, True), (0.5, 0.3, False), (0.0, 0.3, True), (0.0, 0.0, True)],
    ids=["harmonic", "driven-harmonic", "driven-charge", "charge"],
)
def test_real_basis_is_whether_the_quadratic_factors_are_real(m, V, real):
    # a drive makes the primitive Hamiltonian complex; the driven charge
    # mode's n_op still comes out real with the eigenvector phases LAPACK
    # picks, the driven harmonic mode's does not; an undriven charge mode's
    # n_op is i times a real matrix
    loc = build_local_mode(junction_mode(1.0, m, 2.0, 1.0, V=V), 0, keep=4)
    assert loc.real_basis == real and loc.truncated(2).real_basis == real


def test_parity_basis_matches_one_eigh_of_the_primitive_hamiltonian():
    # E_J small against C_inv: the +-m pairs above the lowest few are
    # degenerate to machine precision, and one eigh in the plain charge
    # states returns them mixed; in the parity-adapted states the two
    # sectors are separate exact blocks
    c, E_J, keep = 1.0, 0.1, 30
    loc = build_local_mode(junction_mode(c, 0.0, E_J, 1.0), 0, keep=keep)
    max_charge = max(40, 2 * keep)
    charges = np.arange(-max_charge, max_charge + 1.0)
    shift = np.eye(charges.size, k=-1)  # exp(i phi): |m> -> |m + 1>
    levels, vectors = np.linalg.eigh(np.diag(0.5 * c * charges**2) - E_J * (shift + shift.T) / 2)
    assert np.diff(levels[:keep]).min() < 1e-12
    for d in (keep, 7):
        part = loc.truncated(d)
        np.testing.assert_allclose(part.energies, levels[:d], rtol=0, atol=1e-12)
        assert not part.n_op.real.any()
        for E in part.phase_factors.values():
            np.testing.assert_allclose(E, E.T, rtol=0, atol=1e-15)
    # the three lowest levels lie far apart, where the bases differ by phases alone
    P = vectors[:, :3]
    for X, Y in ((np.diag(charges), loc.n_op), (shift, loc.phase_factor(1.0))):
        np.testing.assert_allclose(np.abs(Y[:3, :3]), np.abs(P.T @ X @ P), rtol=0, atol=1e-10)


CUTOFF_RULE = r"^mode {}: cutoff {} must be an integer in \[1, {}\]$"


@pytest.mark.parametrize(
    "cutoffs,mode,value",
    [
        ([-1, 3, 3, 3, 3], 0, "-1"),
        ([0, 4, 4, 4, 4], 0, "0"),
        ([3, 3, 3, 3, 3.7], 4, "3.7"),
        ([True, 3, 3, 3, 3], 0, "True"),
    ],
    ids=["negative", "zero", "fractional", "boolean"],
)
def test_solve_rejects_cutoffs_outside_the_rule(fluxonium, cutoffs, mode, value):
    # unchecked, -1 slices from the end of the local eigenbasis, int() cuts
    # 3.7 to 3 and True counts as 1
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(mode, value, "inf")):
        scmodes.solve(fluxonium, cutoffs, k=1)


@pytest.fixture
def local_builds(monkeypatch):
    """spectrum's build_local_mode, recording each built mode in the list it returns."""
    calls = []
    build = spectrum.build_local_mode

    def recording(H, mode, *args, **kwargs):
        calls.append(mode)
        return build(H, mode, *args, **kwargs)

    monkeypatch.setattr(spectrum, "build_local_mode", recording)
    return calls


def test_solve_rejects_a_cutoff_before_any_build(fluxonium, local_builds):
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(0, 0, "inf")):
        scmodes.solve(fluxonium, [0, 4, 4, 4, 4], k=1)
    assert local_builds == []


def test_cutoff_sweep_rejects_zero():
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(0, 0, "inf")):
        spectrum_vs_cutoff(coupled_pair(), 2, [0])


@pytest.mark.parametrize("keep", [0, -1])
def test_build_local_mode_rejects_keep_below_one(keep):
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(1, keep, 200)):
        build_local_mode(coupled_pair(), 1, keep=keep)


@pytest.mark.parametrize("d", [0, 5, 2.0, False])
def test_truncated_rejects_cutoffs_outside_the_rule(d):
    loc = build_local_mode(coupled_pair(), 1, keep=4)
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(1, d, 4)):
        loc.truncated(d)


@pytest.mark.parametrize(
    "options,value",
    [(dict(d_init=0), 0), (dict(d_init=-3), -3), (dict(d_max=0), 0)],
    ids=["d_init-zero", "d_init-negative", "d_max-zero"],
)
def test_adaptive_rejects_starting_cutoffs_below_one(fluxonium, monkeypatch, options, value):
    # unchecked, d_init=-3 reaches the assembler as a (194,)*5 product (2 TiB);
    # the rule must reject it before any product-size array is made
    def no_assembly(*args):
        raise AssertionError("assembled an operator before rejecting the cutoff")

    monkeypatch.setattr(spectrum, "assemble_hamiltonian", no_assembly)
    with pytest.raises(ValueError, match=CUTOFF_RULE.format(0, value, "inf")):
        adaptive_cutoffs(fluxonium, **options)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_zero_couplings_gives_separable_sums():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3,
        C_inv=np.diag([1.0, 2.0, 3.0]),
        M0=np.diag([1.0, 0.5, 2.0]),
    )
    res = scmodes.solve(H, [4, 4, 4], k=8)
    freqs = [np.sqrt(1.0 * 1.0), np.sqrt(2.0 * 0.5), np.sqrt(3.0 * 2.0)]
    analytic = np.sort(
        [
            sum((k + 0.5) * w for k, w in zip(ks, freqs))
            for ks in np.ndindex(4, 4, 4)
        ]
    )[:8]
    np.testing.assert_allclose(res.eigenvalues, analytic, atol=1e-8)


def test_two_mode_quadratic_matches_dense_kron():
    """Dense oracle: build the same operator by explicit Kronecker products."""
    H = coupled_pair()
    builder = make_locals_builder(H)
    locs = [builder(m, 12) for m in range(2)]
    op = assemble_hamiltonian(locs, H, CouplingSet.from_hamiltonian(H))

    eye = [np.eye(12)] * 2
    dense = (
        np.kron(np.diag(locs[0].energies), eye[1])
        + np.kron(eye[0], np.diag(locs[1].energies))
        + H.C_inv[0, 1] * np.kron(locs[0].n_op, locs[1].n_op)
        + H.M0[0, 1] * np.kron(locs[0].phi_op, locs[1].phi_op)
    )
    dense = (dense + dense.conj().T) / 2
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dense), np.linalg.eigvalsh(op.to_dense()), atol=1e-10
    )
    with pytest.raises(ValueError, match="ordered by mode index"):
        assemble_hamiltonian(locs[::-1], H, CouplingSet.from_hamiltonian(H))


def charge_harmonic_pair():
    """Junction row [1.0, 0.7] over a charge-basis mode and a harmonic mode.

    Undriven, the charge mode is parity-adapted, its phase factor complex
    symmetric, and the operator real.  With an offset charge
    (:func:`with_offset_charge`) the charge mode's phase factor is not
    symmetric, so the coupled cosine takes the product-plus-conjugate path
    and the operator is complex.
    """
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
        C_inv=np.diag([4.0, 2.0]),
        M0=np.diag([0.0, 1.5]),
        E_J=[1.5],
    )
    return H.replace(J_args=np.array([[1.0, 0.7]]))


def with_offset_charge(H, mode=0):
    """H of two or three modes with an offset charge on charge mode ``mode`` alone.

    C_V V is adj(C_inv) e_mode / 64, so C_inv C_V V is det(C_inv) / 64 on
    that mode and zero on the others.  C_inv is rounded to multiples of
    2^-10 first, so that every product is exact and the zeros too: with the
    reduced box's own entries a fused multiply-add leaves ~3e-18, which
    drives the harmonic mode.  The driven charge mode's n_op has a real
    nonzero diagonal, so its charge couplings to harmonic modes are not
    real, and its phase factor is not symmetric, whatever phases LAPACK
    picks for its complex eigenvectors.
    """
    C_inv = np.round(H.C_inv * 1024) / 1024
    rows = [r for r in range(H.n) if r != mode]

    def cofactor(k):  # of entry (mode, k), from a 1 x 1 or 2 x 2 minor
        M = C_inv[np.ix_(rows, [c for c in range(H.n) if c != k])]
        minor = M[0, 0] if M.size == 1 else M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return (-1) ** (mode + k) * minor

    C_V = np.array([[cofactor(k)] for k in range(H.n)]) / 64
    out = H.replace(C_inv=C_inv, C_V=C_V, V=np.array([1.0]))
    drive = out.C_inv @ (out.C_V @ out.V)
    assert drive[mode] != 0.0 and not np.delete(drive, mode).any()
    return out


def harmonic_charge_harmonic():
    """Modes harmonic, charge, harmonic with charge couplings (0, 1) and (0, 2).

    With an offset charge on mode 1 alone (:func:`with_offset_charge`) the
    quadratic form's row 0 holds an imaginary coefficient (harmonic x
    driven charge) and a real one (harmonic x harmonic) over real factors,
    with the eigenvector phases LAPACK picks for the driven charge mode.
    """
    return with_offset_charge(
        CircuitHamiltonian(
            kinds=[ModeKind.INDUCTOR, ModeKind.JUNCTION, ModeKind.INDUCTOR],
            C_inv=np.array([[2.0, 0.3, 0.2], [0.3, 4.0, 0.0], [0.2, 0.0, 1.5]]),
            M0=np.diag([1.0, 0.0, 2.0]),
            E_J=[1.5],
        ),
        mode=1,
    )


def oracle_hamiltonian(case, fluxonium, cpb):
    if case == "fluxonium-fs":
        return scmodes.full_symplectic(fluxonium).H_out
    if case == "fluxonium-none":
        return scmodes.remove_free_modes(fluxonium)[0]
    if case == "harmonic-charge-harmonic-offset":
        return harmonic_charge_harmonic()
    H = scmodes.remove_free_modes(cpb)[0] if case.startswith("cpb") else charge_harmonic_pair()
    return with_offset_charge(H) if case.endswith("-offset") else H


@pytest.mark.parametrize(
    "case,dims,dtype",
    [
        ("fluxonium-fs", [6, 6, 4, 3, 2], np.float64),
        ("charge-harmonic", [7, 8], np.float64),
        ("fluxonium-none", [3, 4, 2, 3, 2], np.float64),
        ("cpb", [7, 8], np.float64),
        ("cpb-offset", [7, 8], np.complex128),
        ("charge-harmonic-offset", [7, 8], np.complex128),
        ("harmonic-charge-harmonic-offset", [5, 6, 4], np.complex128),
    ],
    ids=[
        "fluxonium-fs", "charge-harmonic", "fluxonium-none", "cpb", "cpb-offset",
        "charge-harmonic-offset", "harmonic-charge-harmonic-offset",
    ],
)
def test_cosine_coupling_matches_dense_kron(fluxonium, cpb, case, dims, dtype):
    # junction arguments spread over two modes exercise the phase-factor
    # path; the undecoupled fluxonium pair, the n-mode quadratic couplings;
    # the reduced Cooper-pair box (charge x harmonic), a charge coupling
    # whose phases i * i make it real; with an offset charge on the charge
    # mode, an imaginary charge coefficient and an asymmetric phase factor;
    # harmonic-charge-harmonic, a row of imaginary and real coefficients
    H = oracle_hamiltonian(case, fluxonium, cpb)
    builder = make_locals_builder(H)
    locs = [builder(m, d) for m, d in enumerate(dims)]
    couplings = CouplingSet.from_hamiltonian(H)
    op = assemble_hamiltonian(locs, H, couplings)
    assert op.dtype == dtype

    mats = [np.diag(l.energies).astype(complex) for l in locs]
    eyes = [np.eye(l.dim) for l in locs]

    def embed(matrix_by_mode):
        out = None
        for m in range(len(locs)):
            factor = matrix_by_mode.get(m, eyes[m])
            out = factor if out is None else np.kron(out, factor)
        return out

    dense = sum(embed({m: mats[m]}) for m in range(len(locs)))
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            dense = dense + H.C_inv[i, j] * embed({i: locs[i].n_op, j: locs[j].n_op})
            if H.M0[i, j] != 0.0:
                dense = dense + H.M0[i, j] * embed({i: locs[i].phi_op, j: locs[j].phi_op})
    for cc in couplings.cosines:
        pre = -cc.sign * cc.energy
        prod = embed({m: locs[m].phase_factor(a) for m, a in zip(cc.modes, cc.coeffs)})
        dense = dense + pre * (prod + prod.conj().T) / 2
        for m, a in zip(cc.modes, cc.coeffs):
            E = locs[m].phase_factor(a)
            dense = dense - pre * embed({m: (E + E.conj().T) / 2})
    dense = (dense + dense.conj().T) / 2
    np.testing.assert_allclose(op.to_dense(), dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dense)[:6], eigensolve(op, k=6).eigenvalues, atol=1e-10
    )


def test_local_phases_rotate_the_quadratic_couplings(fluxonium):
    # Retained eigenvectors may carry any phases (a drive makes them
    # complex).  Rephasing modes 1 and 3 by diagonal unitaries D_m gives
    # U^H H U with U = kron(D_m), from real and complex factors in one
    # quadratic form.
    H = scmodes.remove_free_modes(fluxonium)[0]
    builder = make_locals_builder(H)
    locs = [builder(m, d) for m, d in enumerate([3, 4, 2, 3, 2])]
    couplings = CouplingSet.from_hamiltonian(H)
    rng = np.random.default_rng(0)
    phases = [
        np.diag(np.exp(2j * np.pi * rng.random(loc.dim))) if m in (1, 3) else np.eye(loc.dim)
        for m, loc in enumerate(locs)
    ]
    rephased = [
        dataclasses.replace(loc, phi_op=D.conj().T @ loc.phi_op @ D, n_op=D.conj().T @ loc.n_op @ D)
        for loc, D in zip(locs, phases)
    ]
    op = assemble_hamiltonian(rephased, H, couplings)
    assert op.dtype == np.complex128
    U = functools.reduce(np.kron, phases)
    dense = U.conj().T @ assemble_hamiltonian(locs, H, couplings).to_dense() @ U
    np.testing.assert_allclose(op.to_dense(), dense, rtol=0, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize(
    "case",
    [
        "fluxonium-fs", "charge-harmonic", "fluxonium-none", "charge-harmonic-offset",
        "harmonic-charge-harmonic-offset",
    ],
)
def test_complex_block_is_applied_linearly(fluxonium, case):
    # A symmetric cosine term takes Re(X psi) only for real psi; a complex
    # block must give the real and imaginary parts' images combined.  The
    # kernel views blocks as contiguous arrays, so a Fortran-ordered block
    # and a strided column slice must give the same columns too.
    if case == "fluxonium-fs":
        op = assembled(scmodes.full_symplectic(fluxonium).H_out, [4, 3, 3, 2, 2])
    elif case == "fluxonium-none":
        op = assembled(scmodes.remove_free_modes(fluxonium)[0], [3, 4, 2, 3, 2])
    elif case == "charge-harmonic":
        op = assembled(charge_harmonic_pair(), [6, 8])
    elif case == "harmonic-charge-harmonic-offset":
        op = assembled(harmonic_charge_harmonic(), [5, 6, 4])
    else:
        op = assembled(with_offset_charge(charge_harmonic_pair()), [6, 8])
    if case.endswith("-offset"):
        assert op.dtype == np.complex128
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((op.dim, 3)) + 1j * rng.standard_normal((op.dim, 3))
    HZ = op.matmat(Z)
    np.testing.assert_allclose(
        HZ, op.matmat(Z.real) + 1j * op.matmat(Z.imag), rtol=0, atol=1e-12)
    for c in range(Z.shape[1]):
        np.testing.assert_allclose(op.matvec(Z[:, c]), HZ[:, c], rtol=0, atol=1e-12)
    for block in (np.asfortranarray(Z), np.asfortranarray(Z.real), Z[:, ::2], Z.real[:, 1:]):
        columns = np.column_stack([op.matvec(block[:, c]) for c in range(block.shape[1])])
        np.testing.assert_allclose(op.matmat(block), columns, rtol=0, atol=1e-12)


def test_assembled_operator_is_hermitian(cpb, fluxonium):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    builder = make_locals_builder(H_red)
    locs = [builder(m, 8) for m in range(2)]
    op = assemble_hamiltonian(locs, H_red, CouplingSet.from_hamiltonian(H_red))
    assert hermiticity_residual(op) < 1e-8

    Hfs = scmodes.full_symplectic(fluxonium).H_out
    builder = make_locals_builder(Hfs)
    locs = [builder(m, 5) for m in range(5)]
    op = assemble_hamiltonian(locs, Hfs, CouplingSet.from_hamiltonian(Hfs))
    assert op.dtype == np.float64  # drive-free all-harmonic case stays real
    assert hermiticity_residual(op) < 1e-8

    op = assembled(scmodes.remove_free_modes(fluxonium)[0], [5] * 5)
    assert op.dtype == np.float64  # each charge pair's phases i * i make its coefficient real
    assert hermiticity_residual(op) < 1e-8


def test_undriven_cpb_is_real_at_every_cutoff(cpb):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    couplings = CouplingSet.from_hamiltonian(H_red)
    for d in range(1, 41):
        locs = [build_local_mode(H_red, m, keep=d) for m in range(2)]
        assert assemble_hamiltonian(locs, H_red, couplings).dtype == np.float64, d


@pytest.mark.parametrize(
    "case,dims,quadratic,dtype",
    [
        ("fluxonium-none", [4] * 5, True, np.float64),
        ("fluxonium-fs", [5] * 5, False, np.float64),
        ("charge-harmonic-offset", [7, 8], False, np.complex128),
        ("one-mode", [6], False, np.float64),
    ],
    ids=["fluxonium-none", "fluxonium-fs", "charge-harmonic-offset", "one-mode"],
)
def test_operator_facts_follow_from_its_diagonal_and_terms(fluxonium, cpb, case, dims, quadratic, dtype):
    if case == "one-mode":
        H = junction_mode(1.0, 0.5, 2.0, 1.0)
    else:
        H = oracle_hamiltonian(case, fluxonium, cpb)
    builder = make_locals_builder(H)
    locs = [builder(m, d) for m, d in enumerate(dims)]
    energies = [loc.energies.copy() for loc in locs]
    op = assemble_hamiltonian(locs, H, CouplingSet.from_hamiltonian(H))
    assert op.dims == tuple(dims) and all(type(d) is int for d in op.dims)
    assert op.dim == np.prod(dims)
    assert op.quadratic == quadratic and op.dtype == dtype
    summed = sum(
        e.reshape([-1 if axis == m else 1 for axis in range(len(dims))])
        for m, e in enumerate(energies)
    )
    np.testing.assert_array_equal(op.diagonal, summed.reshape(-1))
    # with one mode the diagonal is that mode's energies array, which
    # neither the operator's users nor a solve may write
    with pytest.raises(ValueError, match="read-only"):
        op.diagonal[0] = 0.0
    eigensolve(op, k=2)
    for loc, e in zip(locs, energies):
        np.testing.assert_array_equal(loc.energies, e)


def test_flux_coupling_to_charge_mode_rejected(cpb):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    bad = H_red.replace(M0=np.array([[0.0, 0.05], [0.05, 0.204]]))
    builder = make_locals_builder(bad)
    locs = [builder(m, 6) for m in range(2)]
    with pytest.raises(BasisMismatchError, match="flux"):
        assemble_hamiltonian(locs, bad, CouplingSet.from_hamiltonian(bad))


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------


def test_separable_three_mode_analytic():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3,
        C_inv=np.diag([2.0, 1.0, 4.0]),
        M0=np.diag([0.5, 2.0, 1.0]),
    )
    freqs = [1.0, np.sqrt(2.0), 2.0]
    res = scmodes.solve(H, [5, 5, 5], k=6)
    analytic = np.sort(
        [sum((k + 0.5) * w for k, w in zip(ks, freqs)) for ks in np.ndindex(5, 5, 5)]
    )[:6]
    np.testing.assert_allclose(res.eigenvalues, analytic, atol=1e-8)


def test_iterative_path_matches_analytic_sums():
    # dimension above the dense limit forces ARPACK
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 5,
        C_inv=np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
        M0=np.eye(5),
    )
    freqs = np.sqrt([1.0, 2.0, 3.0, 4.0, 5.0])
    res = scmodes.solve(H, [8] * 5, k=4)
    assert np.prod(res.cutoffs) > spectrum.DENSE_LIMIT
    analytic = np.sort(
        [freqs.sum() / 2 + k @ freqs for k in np.ndindex(2, 2, 2, 2, 2)]
    )[:4]
    np.testing.assert_allclose(res.eigenvalues, analytic, atol=1e-7)
    assert np.all(res.residuals < 1e-6)


def test_cpb_table_of_energies(cpb):
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    res = scmodes.solve(H_red, [30, 30], k=10)
    np.testing.assert_allclose(res.eigenvalues, TABLE_ENERGIES, atol=0.01)
    qubit = res.eigenvalues[1] - res.eigenvalues[0]
    assert abs(qubit - 0.989) <= 0.005


def test_eigensolve_rejects_k_above_dimension():
    H = coupled_pair()
    with pytest.raises(ValueError):
        scmodes.solve(H, [2, 2], k=5)


def test_eigensolve_rejects_k_below_one():
    with pytest.raises(ValueError, match="k = 0"):
        eigensolve(assembled(coupled_pair(), [3, 3]), k=0)


@pytest.mark.parametrize(
    "d,k", [(6, 2.5), (3, 2.5), (3, True), (3, 2.0)],
    ids=["arpack-fractional", "dense-fractional", "boolean", "integral-float"],
)
def test_eigensolve_rejects_a_k_that_is_not_an_integer(fluxonium, d, k):
    # unchecked, ARPACK died with a SystemError on 2.5, the dense branch
    # returned 2 levels for 2.5 and 1 for True
    with pytest.raises(ValueError, match=rf"^k = {k!r} must be an integer$"):
        scmodes.solve(fluxonium, [d] * 5, k=k)


def assembled(H, dims):
    builder = make_locals_builder(H)
    locs = [builder(m, d) for m, d in enumerate(dims)]
    return assemble_hamiltonian(locs, H, CouplingSet.from_hamiltonian(H))


def small_operator(case, fluxonium, cpb):
    """A dense-branch operator: real (fs fluxonium, and the undriven CPB and
    charge-harmonic pair, whose charge modes are parity-adapted) or complex
    (with an offset charge, the CPB's imaginary charge coupling and the
    charge-harmonic pair's asymmetric cosine factor)."""
    if case == "fs":
        return assembled(scmodes.full_symplectic(fluxonium).H_out, [4, 3, 3, 2, 2])
    dims = [8, 6] if case.startswith("cpb") else [6, 8]
    return assembled(oracle_hamiltonian(case, fluxonium, cpb), dims)


def projector(vectors):
    return vectors @ vectors.conj().T


@pytest.mark.parametrize(
    "case,dtype",
    [
        ("fs", np.float64),
        ("cpb", np.float64),
        ("charge-harmonic", np.float64),
        ("cpb-offset", np.complex128),
        ("charge-harmonic-offset", np.complex128),
    ],
    ids=["real-fs", "real-cpb", "real-charge-harmonic", "complex-cpb", "complex-charge-harmonic"],
)
@pytest.mark.parametrize("k_from_dim", [lambda d: 3, lambda d: d - 1, lambda d: d],
                         ids=["k=3", "k=dim-1", "k=dim"])
def test_dense_branch_matches_full_eigh(
        fluxonium, cpb, arpack_refused, lobpcg_refused, case, dtype, k_from_dim):
    op = small_operator(case, fluxonium, cpb)
    assert op.dtype == dtype
    k = k_from_dim(op.dim)
    ref_vals, ref_vecs = np.linalg.eigh(op.to_dense())
    res = eigensolve(op, k=k)
    assert res.eigenvalues.shape == (k,) and res.eigenvectors.shape == (op.dim, k)
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:k], rtol=1e-12, atol=1e-10)
    if k < op.dim:
        assert ref_vals[k] - ref_vals[k - 1] > 1e-6  # the span of the k lowest is defined
    np.testing.assert_allclose(
        projector(res.eigenvectors), projector(ref_vecs[:, :k]), atol=1e-8)


def test_dense_branch_returns_both_degenerate_levels():
    # two identical oscillators: levels 1, 2, 2, 3, 3, 3, ... (units of the frequency)
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.eye(2), M0=np.eye(2)
    )
    op = assembled(H, [4, 4])
    res = eigensolve(op, k=3)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 2.0], atol=1e-8)
    ref_vals, ref_vecs = np.linalg.eigh(op.to_dense())
    assert ref_vals[3] - ref_vals[2] > 0.5
    np.testing.assert_allclose(
        projector(res.eigenvectors), projector(ref_vecs[:, :3]), atol=1e-8)


@pytest.mark.parametrize(
    "case", ["cpb-offset", "charge-harmonic-offset"], ids=["cpb", "charge-harmonic"]
)
def test_to_dense_of_complex_operator_equals_complex_identity_product(fluxonium, cpb, case):
    op = small_operator(case, fluxonium, cpb)
    dense = op.to_dense()
    assert dense.dtype == np.complex128
    np.testing.assert_array_equal(dense, op.matmat(np.eye(op.dim, dtype=complex)))


def test_to_dense_of_real_operator_is_real(fluxonium, cpb):
    for case in ("fs", "cpb", "charge-harmonic"):
        assert small_operator(case, fluxonium, cpb).to_dense().dtype == np.float64, case


def to_dense_peak(op):
    """The traced peak of ``op.to_dense()`` in units of one real dim x dim array."""
    tracemalloc.start()
    try:
        op.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (op.dim**2 * np.dtype(np.float64).itemsize)


@pytest.mark.parametrize(
    "case,dims,arrays",
    [("fluxonium-fs", [6, 6, 4, 3, 2], 7), ("cpb", [40, 40], 4)],
    ids=["fs-fluxonium", "reduced-cpb"],
)
def test_to_dense_holds_only_the_arrays_that_must_coexist(fluxonium, cpb, case, dims, arrays):
    # fs: the identity, the result, the two complex arrays a cosine chain
    # alternates between (the first holds the identity cast for the first
    # complex factor) and one real array for the single-mode terms.  cpb:
    # the identity, the result, Y_1 and the row's product.  0.01 allows
    # for the factor matrices.
    op = assembled(oracle_hamiltonian(case, fluxonium, cpb), dims)
    assert to_dense_peak(op) <= arrays + 0.01


def test_eigensolve_rejects_large_residual(monkeypatch):
    op = assembled(coupled_pair(), [6, 6])
    exact_eigh = spectrum.scipy.linalg.eigh

    def shifted_eigh(*args, **kwargs):
        evals, evecs = exact_eigh(*args, **kwargs)
        return evals + np.array([0.0, 1e-3, 0.0]), evecs

    monkeypatch.setattr(spectrum.scipy.linalg, "eigh", shifted_eigh)
    with pytest.raises(EigensolverConvergenceError, match="levels \\[1\\]") as info:
        eigensolve(op, k=3)
    residuals = info.value.residuals
    assert residuals.shape == (3,)
    np.testing.assert_allclose(residuals[1], 1e-3, rtol=1e-6)
    assert residuals[0] < 1e-10 and residuals[2] < 1e-10


@pytest.mark.parametrize("vectors", ["one-pair", "none"])
def test_arpack_non_convergence_reports_pairs_found(monkeypatch, vectors):
    H = coupled_pair()
    op = assembled(H, [70, 70])
    assert op.dim > spectrum.DENSE_LIMIT
    # a dense ground state at [20, 20], whose weight near the top of that
    # space is far below the solver tolerance, embedded as the converged pair
    ref = eigensolve(assembled(H, [20, 20]), k=1)
    found = embed(ref.eigenvectors, ref.cutoffs, op.dims)

    def no_convergence(A, k, **kwargs):
        assert A.shape == (op.dim, op.dim) and A.dtype == op.dtype and k == 3
        np.testing.assert_array_equal(A @ found, op.matmat(found))
        raise spectrum.scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", ref.eigenvalues,
            found if vectors == "one-pair" else None,
        )

    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(EigensolverConvergenceError, match=r"\(1 of 3 eigenpairs found\)") as info:
        eigensolve(op, k=3)
    residuals = info.value.residuals
    if vectors == "none":
        assert residuals is None
    else:
        assert residuals.shape == (1,) and residuals[0] < 1e-10


# ---------------------------------------------------------------------------
# LOBPCG: operators above DENSE_LIMIT whose couplings are all cosines
# ---------------------------------------------------------------------------


def identical_oscillators(n, charge_coupling=0.0):
    """n oscillators of frequency 1, C_inv = I + c (J - I) and M0 = I."""
    return CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * n,
        C_inv=np.eye(n) + charge_coupling * (np.ones((n, n)) - np.eye(n)),
        M0=np.eye(n),
    )


def has_quadratic_form(op):
    return op.quadratic


def block_operator(case, fluxonium):
    """A cosine-coupled operator above DENSE_LIMIT: the fs fluxonium pair
    (real) or the charge-harmonic pair with an offset charge (complex)."""
    if case == "fs":
        op = assembled(scmodes.full_symplectic(fluxonium).H_out, [8] * 5)
    else:
        op = assembled(with_offset_charge(charge_harmonic_pair()), [70, 70])
    assert op.dim > spectrum.DENSE_LIMIT and not has_quadratic_form(op)
    return op


@pytest.fixture
def arpack_refused(monkeypatch):
    """spectrum's eigsh replaced by one that raises; returns scipy's own."""
    oracle = spectrum.scipy.sparse.linalg.eigsh

    def refused(*args, **kwargs):
        raise AssertionError("eigsh reached")

    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "eigsh", refused)
    return oracle


@pytest.mark.parametrize("case,dtype", [("fs", np.float64), ("charge-harmonic-offset", np.complex128)])
def test_block_path_matches_eigsh_oracle(fluxonium, arpack_refused, case, dtype):
    op = block_operator(case, fluxonium)
    assert op.dtype == dtype
    A = spectrum.scipy.sparse.linalg.LinearOperator(
        (op.dim, op.dim), matvec=op.matvec, dtype=op.dtype)
    ref_vals, ref_vecs = arpack_refused(A, k=5, which="SA", tol=1e-13, ncv=60)
    order = np.argsort(ref_vals)
    ref_vals, ref_vecs = ref_vals[order], ref_vecs[:, order]
    assert ref_vals[4] - ref_vals[3] > 1e-3  # the span of the 4 lowest is defined
    res = eigensolve(op, k=4)
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:4], rtol=0, atol=1e-10)
    # the oracle's span holds the block: no dim x dim projector is formed
    ref = ref_vecs[:, :4]
    outside = res.eigenvectors - ref @ (ref.conj().T @ res.eigenvectors)
    assert np.linalg.norm(outside, axis=0).max() < 1e-6


def test_only_quadratic_forms_reach_arpack(fluxonium, arpack_refused):
    res = eigensolve(block_operator("fs", fluxonium), k=2)
    assert res.eigenvalues.shape == (2,)
    op = assembled(identical_oscillators(3, charge_coupling=0.2), [17] * 3)
    assert op.dim > spectrum.DENSE_LIMIT and has_quadratic_form(op)
    with pytest.raises(AssertionError, match="eigsh reached"):
        eigensolve(op, k=2)


@pytest.fixture
def lobpcg_refused(monkeypatch):
    """spectrum's lobpcg replaced by one that raises."""

    def refused(*args, **kwargs):
        raise AssertionError("lobpcg reached")

    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "lobpcg", refused)


def test_more_than_a_fifth_of_cosine_coupled_levels_go_dense(
        fluxonium, monkeypatch, lobpcg_refused):
    # At 5 k > dim LOBPCG falls back to its own dense solve, one matvec per
    # unit vector, and warns as on a miss; the dense branch takes it first.
    # Below DENSE_LIMIT a cosine-coupled operator with 5 k > dim is under
    # its crossover of 50 k dims anyway, so the guard acts only above
    # DENSE_LIMIT, which caps the crossover: patched to 64, it puts k = 48
    # at 243 dims on LOBPCG.
    monkeypatch.setattr(spectrum, "DENSE_LIMIT", 64)
    op = assembled(scmodes.full_symplectic(fluxonium).H_out, [3] * 5)
    assert op.dim == 243 and not has_quadratic_form(op)
    res = eigensolve(op, k=50)
    ref_vals = np.linalg.eigh(op.to_dense())[0]
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:50], rtol=0, atol=1e-10)
    with pytest.raises(AssertionError, match="lobpcg reached"):
        eigensolve(op, k=48)  # 5 * 48 = 240 <= 243


def test_more_than_a_fifth_of_quadratic_coupled_levels_go_dense(monkeypatch, arpack_refused):
    monkeypatch.setattr(spectrum, "DENSE_LIMIT", 16)
    op = assembled(coupled_pair(), [6, 6])
    assert op.dim == 36 and has_quadratic_form(op)
    res = eigensolve(op, k=8)
    ref_vals = np.linalg.eigh(op.to_dense())[0]
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:8], rtol=0, atol=1e-10)
    with pytest.raises(AssertionError, match="eigsh reached"):
        eigensolve(op, k=7)  # 5 * 7 = 35 <= 36


@pytest.fixture
def lobpcg_calls(monkeypatch):
    """spectrum's lobpcg, counting its calls in the list it returns."""
    calls = []
    lobpcg = spectrum.scipy.sparse.linalg.lobpcg

    def recording(*args, **kwargs):
        calls.append(1)
        return lobpcg(*args, **kwargs)

    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "lobpcg", recording)
    return calls


def fs_operator(fluxonium, dims):
    op = assembled(scmodes.full_symplectic(fluxonium).H_out, dims)
    assert not has_quadratic_form(op)
    return op


def test_cosine_coupled_operator_above_its_crossover_reaches_lobpcg(fluxonium, lobpcg_calls):
    # 576 > max(320, 50 * 4), where LOBPCG took a quarter of dense's time
    op = fs_operator(fluxonium, [4, 4, 4, 3, 3])
    assert op.dim == 576
    res = eigensolve(op, k=4)
    assert len(lobpcg_calls) == 1
    ref_vals = np.linalg.eigh(op.to_dense())[0]
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:4], rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "dims,k", [([4, 4, 4, 3, 3], 20), ([4, 4, 5, 2, 2], 1)], ids=["576-k20", "320-k1"])
def test_cosine_coupled_operator_below_its_crossover_stays_dense(
        fluxonium, lobpcg_refused, dims, k):
    # 576 <= 50 * 20, where LOBPCG took twice dense's time; 320 is the
    # floor, where the two tied at k = 4
    op = fs_operator(fluxonium, dims)
    assert op.dim <= max(320, 50 * k)
    res = eigensolve(op, k=k)
    ref_vals = np.linalg.eigh(op.to_dense())[0]
    np.testing.assert_allclose(res.eigenvalues, ref_vals[:k], rtol=0, atol=1e-10)


def test_quadratic_coupled_operator_stays_dense_up_to_the_limit(arpack_refused, lobpcg_refused):
    # Why a quadratic coupling keeps DENSE_LIMIT: at 1 728 dims ARPACK
    # returns one copy of the doubly degenerate first excited level, so its
    # last two levels come out 0.29 and 0.61 too high.
    op = assembled(identical_oscillators(3, charge_coupling=0.2), [12] * 3)
    assert op.dim == 1728 and has_quadratic_form(op)
    w_sym, w_pair = np.sqrt(1.4), np.sqrt(0.8)
    ground = (w_sym + 2 * w_pair) / 2
    res = eigensolve(op, k=4)
    np.testing.assert_allclose(
        res.eigenvalues, [ground, ground + w_pair, ground + w_pair, ground + w_sym], atol=1e-8)


def test_adaptive_fs_solve_forms_no_dense_matrix(fluxonium, monkeypatch, lobpcg_calls):
    # The final solve of the fs search, 1 344 dims at k = 4, is LOBPCG's,
    # at a twentieth of the time of to_dense and eigh.
    def refused(self):
        raise AssertionError("to_dense reached")

    monkeypatch.setattr(spectrum.ProductOperator, "to_dense", refused)
    res = scmodes.solve(scmodes.full_symplectic(fluxonium).H_out, [16, 14, 3, 2, 1], k=4)
    assert np.prod(res.cutoffs) == 1344 and len(lobpcg_calls) == 1


def test_exact_warm_start_converges_within_one_search_space(fluxonium):
    op = block_operator("fs", fluxonium)
    calls = []
    matvec = op.matvec

    def counting(v):
        calls.append(1)
        return matvec(v)

    op.matvec = counting
    cold = eigensolve(op, k=4)
    n_cold = len(calls)
    calls.clear()
    warm = eigensolve(op, k=4, start=cold.eigenvectors)
    # the solve is LOBPCG's, which applies H to at most k = 4 vectors an
    # iteration: from an exact start it needs fewer matvecs than a cold
    # solve, and fewer than the 40 of ten full iterations
    assert len(calls) < min(n_cold, 40)
    np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, rtol=0, atol=1e-10)


def test_lobpcg_iteration_cap_reports_k_residuals(fluxonium, monkeypatch):
    monkeypatch.setattr(spectrum, "_LOBPCG_MAX_ITER", 2)
    with pytest.raises(EigensolverConvergenceError, match="within 2 iterations") as info:
        eigensolve(block_operator("fs", fluxonium), k=3)
    residuals = info.value.residuals
    assert residuals.shape == (3,) and np.all(residuals > 0)


@pytest.mark.parametrize(
    "case,tol", [("fs", 1e-9), ("fs", 1e-7), ("charge-harmonic-offset", 1e-9)])
def test_block_path_pairs_meet_the_stopping_rule(fluxonium, arpack_refused, case, tol):
    res = eigensolve(block_operator(case, fluxonium), k=4, tol=tol)
    assert np.all(res.residuals <= tol * np.maximum(1.0, np.abs(res.eigenvalues)))


def test_block_path_rejects_a_silent_miss(fluxonium, monkeypatch):
    # A LOBPCG that stops at a looser tolerance than it was given, without
    # a warning, returns pairs inside RESIDUAL_FACTOR tolerances but outside
    # the stopping rule.
    lobpcg = spectrum.scipy.sparse.linalg.lobpcg

    def loose(*args, tol, **kwargs):
        return lobpcg(*args, tol=1e3 * tol, **kwargs)

    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "lobpcg", loose)
    with pytest.raises(EigensolverConvergenceError, match="exceed") as info:
        eigensolve(block_operator("fs", fluxonium), k=3)
    assert info.value.residuals.shape == (3,)


@pytest.mark.parametrize("column", ["ground-state", "all-ones"])
def test_dependent_start_columns_still_converge(fluxonium, column):
    # LOBPCG stalls on a start block of dependent columns; the block path
    # keeps the independent ones and fills up with unit vectors.
    op = block_operator("fs", fluxonium)
    cold = eigensolve(op, k=3)
    v = cold.eigenvectors[:, 0] if column == "ground-state" else np.ones(op.dim)
    res = eigensolve(op, k=3, start=np.stack([v, v, v], axis=1))
    np.testing.assert_allclose(res.eigenvalues, cold.eigenvalues, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "n,d,k,levels",
    [(2, 65, 3, [1.0, 2.0, 2.0]), (3, 17, 4, [1.5, 2.5, 2.5, 2.5])],
    ids=["two-at-65", "three-at-17"],
)
def test_block_path_returns_exact_degenerate_copies(n, d, k, levels):
    # Single-vector Lanczos holds one vector of each exactly degenerate
    # eigenspace; a block of k columns holds as many as the block has.
    op = assembled(identical_oscillators(n), [d] * n)
    assert op.dim > spectrum.DENSE_LIMIT and not has_quadratic_form(op)
    res = eigensolve(op, k=k)
    np.testing.assert_allclose(res.eigenvalues, levels, atol=1e-8)


@pytest.mark.xfail(strict=True, reason="single-vector Lanczos misses exact degenerate copies")
def test_arpack_misses_exact_degenerate_copy():
    # Known limitation: with a charge coupling the operator stays on ARPACK,
    # whose single-vector Lanczos holds one vector of each exactly degenerate
    # eigenspace.  Three identical oscillators, equally charge-coupled, have
    # normal-mode frequencies sqrt(1.4) and sqrt(0.8) twice, and ARPACK
    # returns 1.48604, 2.38046, 2.66925, 3.27489, every residual passing.
    op = assembled(identical_oscillators(3, charge_coupling=0.2), [17] * 3)
    assert op.dim > spectrum.DENSE_LIMIT and has_quadratic_form(op)
    w_sym, w_pair = np.sqrt(1.4), np.sqrt(0.8)
    ground = (w_sym + 2 * w_pair) / 2
    res = eigensolve(op, k=4)
    np.testing.assert_allclose(
        res.eigenvalues, [ground, ground + w_pair, ground + w_pair, ground + w_sym], atol=1e-6)


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def test_embed_pads_and_truncates_exactly():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((4 * 3 * 5, 2)) + 1j * rng.standard_normal((4 * 3 * 5, 2))
    padded = embed(vecs, (4, 3, 5), (6, 3, 7))
    assert padded.shape == (6 * 3 * 7, 2) and padded.dtype == vecs.dtype
    np.testing.assert_array_equal(embed(padded, (6, 3, 7), (4, 3, 5)), vecs)
    np.testing.assert_array_equal(np.linalg.norm(padded, axis=0), np.linalg.norm(vecs, axis=0))


def test_embed_rejects_a_different_mode_count():
    # broadcasting would spread the 9 rows of (3, 3) over a third axis
    with pytest.raises(ValueError, match="mode count"):
        embed(np.ones((9, 1)), (3, 3), (3, 3, 3))


def test_embedded_eigenvector_keeps_rayleigh_quotient(fluxonium):
    # The builder truncates one local eigenbasis, so the [6]*5 space is a
    # subspace of the [7]*5 one and the operators agree on it.
    H = scmodes.full_symplectic(fluxonium).H_out
    builder = make_locals_builder(H)
    couplings = CouplingSet.from_hamiltonian(H)
    res6 = eigensolve(assemble_hamiltonian([builder(m, 6) for m in range(5)], H, couplings), k=1)
    op7 = assemble_hamiltonian([builder(m, 7) for m in range(5)], H, couplings)
    v = embed(res6.eigenvectors, res6.cutoffs, op7.dims)
    np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-14)
    quotient = (v.conj().T @ op7.matmat(v)).real.item()
    assert abs(quotient - res6.eigenvalues[0]) < 1e-12 * abs(res6.eigenvalues[0])


def test_start_in_one_parity_sector_still_finds_all_levels():
    # Uncoupled oscillators of frequencies 1 and 1.3: levels 1.15, 2.15,
    # 2.45, 3.15.  A start on even n0 only holds no weight on the 2.15
    # level; without the random admixture ARPACK returns 1.15, 2.45, 3.15.
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.diag([1.0, 1.69]), M0=np.eye(2)
    )
    op = assembled(H, [70, 70])
    assert op.dim > spectrum.DENSE_LIMIT
    start = np.random.default_rng(5).standard_normal((70, 70))
    start[1::2, :] = 0.0  # no weight on odd n0
    res = eigensolve(op, k=3, start=start.reshape(-1))
    np.testing.assert_allclose(res.eigenvalues, [1.15, 2.15, 2.45], atol=1e-8)


def test_warm_started_adaptive_cutoffs_unchanged(fluxonium):
    H = scmodes.full_symplectic(fluxonium).H_out
    assert adaptive_cutoffs(H, epsilon=1e-8) == (16, 14, 3, 2, 1)


def test_adaptive_search_builds_each_mode_once(fluxonium, local_builds):
    # its working dimensions reach 32, within the 50 states every build
    # retains, so the growths to 16 and 32 slice the first builds
    H = scmodes.full_symplectic(fluxonium).H_out
    assert adaptive_cutoffs(H, epsilon=1e-8) == (16, 14, 3, 2, 1)
    assert local_builds == [0, 1, 2, 3, 4]


def test_sequences_solve_once_per_point_through_module_eigensolve(fluxonium, monkeypatch):
    # The benchmark counts solves by patching spectrum.eigensolve, so every
    # sequence looks it up at call time and solves once per point.
    dims = []

    def recording(op, *args, **kwargs):
        dims.append(op.dims)
        return eigensolve(op, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eigensolve", recording)
    spectrum_vs_cutoff(fluxonium, 4, [6, 7])
    assert dims == [(6,) * 5, (7,) * 5]
    dims.clear()
    H = scmodes.full_symplectic(fluxonium).H_out
    assert adaptive_cutoffs(H, epsilon=1e-8) == (16, 14, 3, 2, 1)
    assert dims == [(8,) * 5, (16, 16, 4, 3, 2), (32, 15, 4, 3, 2), (17, 15, 4, 3, 2)]


def test_warm_started_sweep_matches_cold_solves(fluxonium):
    H, _, _ = scmodes.remove_free_modes(fluxonium)
    tol = 1e-9
    rows = spectrum_vs_cutoff(H, 4, [6, 7])
    for d, energies in rows:
        cold = scmodes.solve(H, [d] * 5, k=4, tol=tol)
        assert np.prod(cold.cutoffs) > spectrum.DENSE_LIMIT
        np.testing.assert_allclose(energies, cold.eigenvalues, rtol=0, atol=10 * tol)


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------


def test_product_state_projector():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.diag([1.0, 2.0]), M0=np.diag([1.0, 2.0])
    )
    res = scmodes.solve(H, [5, 5], k=1)
    rho = reduced_density_matrix(res, 0, 0)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.trace(rho @ rho), 1.0, atol=1e-12)


def test_partial_trace_matches_dense_reshape_oracle():
    H = coupled_pair()
    res = scmodes.solve(H, [7, 6], k=3)
    psi = res.eigenvectors[:, 2].reshape(7, 6)
    rho_oracle = np.einsum("ab,cb->ac", psi.conj(), psi)
    rho = reduced_density_matrix(res, 2, 0)
    np.testing.assert_allclose(rho, rho_oracle, atol=1e-12)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    with pytest.raises(IndexError, match=r"^state 3 out of range \(k = 3\)$"):
        reduced_density_matrix(res, 3, 0)
    with pytest.raises(IndexError, match="^mode 2 out of range$"):
        reduced_density_matrix(res, 0, 2)


@pytest.mark.parametrize(
    "state,mode,name",
    [(0, 1.5, "mode"), (0, True, "mode"), (True, 0, "state"), (1.0, 0, "state")],
    ids=["fractional-mode", "boolean-mode", "boolean-state", "integral-float-state"],
)
def test_reduced_density_matrix_rejects_indices_that_are_not_integers(state, mode, name):
    # unchecked, mode 1.5 returned the squared norm as a 0-d array, mode True
    # mode 1's matrix, and state True failed in a reshape
    res = scmodes.solve(coupled_pair(), [3, 3], k=2)
    value = state if name == "state" else mode
    with pytest.raises(ValueError, match=rf"^{name} = {value!r} must be an integer$"):
        reduced_density_matrix(res, state, mode)


def test_fluxonium_ground_mode_populations_coincide(fluxonium):
    # with no decoupling, the populations of the two stiff inductor modes
    # decay almost identically
    res = scmodes.solve(fluxonium, [10] * 5, k=1)
    p3 = reduced_density_matrix(res, 0, 2).diagonal().real
    p4 = reduced_density_matrix(res, 0, 3).diagonal().real
    mask = (p3 > 1e-12) & (p4 > 1e-12)
    ratio = p3[mask] / p4[mask]
    assert ratio.max() < 1.1 and ratio.min() > 1 / 1.1


# ---------------------------------------------------------------------------
# adaptive cutoffs
# ---------------------------------------------------------------------------


def test_adaptive_trivial_product_system():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3,
        C_inv=np.diag([1.0, 2.0, 3.0]),
        M0=np.diag([1.0, 1.0, 1.0]),
    )
    cuts = adaptive_cutoffs(H, epsilon=0.5, d_init=4, d_max=16)
    assert cuts == (1, 1, 1)


def test_adaptive_cutoffs_are_minimal():
    """Exhaustive oracle: populations from a large reference basis confirm
    the returned cutoffs satisfy the criterion and one less would not."""
    H = coupled_pair(c01=0.9, m01=0.5)
    eps = 1e-10
    cuts = adaptive_cutoffs(H, epsilon=eps, d_init=4, d_max=32)
    ref = scmodes.solve(H, [max(cuts) + 8] * 2, k=1)
    for mode in range(2):
        pops = reduced_density_matrix(ref, 0, mode).diagonal().real
        d = cuts[mode]
        assert np.all(pops[d:] < eps)
        assert pops[d - 1] >= eps  # one smaller would violate the criterion


def test_adaptive_reports_offending_mode():
    H = coupled_pair(c01=0.9, m01=0.5)
    with pytest.raises(spectrum.CutoffLimitError, match="mode"):
        adaptive_cutoffs(H, epsilon=1e-30, d_init=2, d_max=4)


def test_adaptive_without_fixed_point_raises():
    H = coupled_pair(c01=0.9, m01=0.5)
    with pytest.raises(spectrum.CutoffLimitError, match="fixed point"):
        adaptive_cutoffs(H, epsilon=1e-10, d_init=4, d_max=32, max_rounds=1)


@pytest.mark.parametrize(
    "epsilon,message",
    [
        (0.0, "epsilon must be positive"),
        (-1e-8, "epsilon must be positive"),
        (float("nan"), "epsilon must be positive"),
        (1.0, "epsilon must be below 1"),
        (2.0, "epsilon must be below 1"),
        (float("inf"), "epsilon must be below 1"),
    ],
)
def test_adaptive_rejects_epsilon_outside_unit_interval(epsilon, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        adaptive_cutoffs(coupled_pair(), epsilon=epsilon)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------


def test_converge_separable_rows_identical():
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.diag([1.0, 2.0]), M0=np.diag([1.0, 2.0])
    )
    rows = spectrum_vs_cutoff(H, k=3, d_values=[3, 4, 6])
    for _, energies in rows:
        np.testing.assert_allclose(energies, rows[0][1], atol=1e-9)


def test_converge_monotone_beyond_knee():
    H = coupled_pair(c01=0.8, m01=0.4)
    rows = spectrum_vs_cutoff(H, k=4, d_values=[4, 6, 8, 10, 12, 16])
    energies = np.array([e for _, e in rows])
    steps = np.abs(np.diff(energies, axis=0)).max(axis=1)
    assert np.all(np.diff(steps) <= 1e-9)  # shrinking increments
    assert steps[-1] < 1e-8


def test_variational_monotonicity():
    H = coupled_pair(c01=0.8, m01=0.4)
    rows = spectrum_vs_cutoff(H, k=4, d_values=[4, 6, 8, 12])
    energies = np.array([e for _, e in rows])
    assert np.all(np.diff(energies, axis=0) <= 1e-9)


def test_fluxonium_ios_and_fs_pipelines_agree(fluxonium):
    # decoupled pipelines converge fast enough that their four lowest
    # levels already agree to 1e-3 at a uniform cutoff of 10
    ios = scmodes.inductor_symplectic(fluxonium).H_out
    fs = scmodes.full_symplectic(fluxonium).H_out
    e_ios = scmodes.solve(ios, [10] * 5, k=4, tol=1e-7).eigenvalues
    e_fs = scmodes.solve(fs, [10] * 5, k=4, tol=1e-7).eigenvalues
    assert np.abs(e_ios - e_fs).max() < 1e-3


def test_drive_keeps_operator_hermitian_and_shifts_levels_slightly(cpb):
    # The undriven reduced CPB is real: its charge mode is parity-adapted,
    # so the charge coupling's phases i * i make its coefficient real.  The
    # drive makes the harmonic mode's eigenvectors complex; the operator's
    # dtype then depends on the eigenvector phases LAPACK picks, so it is
    # not asserted (with_offset_charge gives a case that is complex for
    # certain).
    H_red, _, _ = scmodes.remove_free_modes(cpb)
    H_drive = H_red.replace(V=np.array([0.003]))
    builder = make_locals_builder(H_drive)
    locs = [builder(m, 6) for m in range(2)]
    assert locs[1].phi_op is not None and not locs[1].real_basis
    op = assemble_hamiltonian(locs, H_drive, CouplingSet.from_hamiltonian(H_drive))
    assert hermiticity_residual(op) < 1e-8
    res = eigensolve(op, k=3)
    undriven = assembled(H_red, [6, 6])
    assert undriven.dtype == np.float64
    ref = eigensolve(undriven, k=3)
    # a small drive shifts energies only slightly
    assert np.abs(res.eigenvalues - ref.eigenvalues).max() < 0.1
