"""Data-model construction and validation checks."""

import numpy as np
import pytest

from scmodes import require_valid, validate
from scmodes.model import CircuitHamiltonian, InvalidHamiltonianError, ModeKind

from conftest import random_spd


def test_validate_accepts_fluxonium(fluxonium):
    assert validate(fluxonium) == ()


def test_validate_accepts_cooper_pair_box(cpb):
    assert validate(cpb) == ()


def test_validate_accepts_uncorrected_example_matrices():
    # the three-mode example exactly as printed, including the resonator
    # flux value the bundled data file corrects
    H = CircuitHamiltonian(
        kinds=["inductor", "junction", "inductor"],
        C_inv=[[15.2, -2.06, 3.78], [-2.06, 3.57, -0.0312], [3.78, -0.0312, 4.79]],
        M0=np.diag([0.0, 0.0, 0.0204]),
        C_V=[[-21.8], [0.0], [0.0]],
        E_J=[3.0],
        V=[0.0],
    )
    assert validate(H) == ()


# the smallest eigenvalue against DEFINITENESS_RTOL times the largest |eigenvalue|
C_INV_FAILS = "C_inv_positive_definite (value -1.000e+00, threshold 2.000e-12)"
M0_FAILS = "M0_positive_semidefinite (value -5.000e-01, threshold -2.000e-12)"


def test_negative_definite_c_inv_flagged():
    C = np.diag([1.0, -1.0, 2.0])
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=C, M0=np.eye(3)
    )
    assert validate(H) == (C_INV_FAILS,)


@pytest.mark.parametrize(
    "C_inv,M0,failures",
    [
        ([1.0, -1.0, 2.0], [1.0, 1.0, 1.0], C_INV_FAILS),
        ([1.0, 1.0, 1.0], [1.0, -0.5, 2.0], M0_FAILS),
        ([1.0, -1.0, 2.0], [1.0, -0.5, 2.0], f"{C_INV_FAILS}, {M0_FAILS}"),
    ],
    ids=["C_inv", "M0", "both"],
)
def test_require_valid_message(C_inv, M0, failures):
    H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 3, C_inv=np.diag(C_inv), M0=np.diag(M0))
    with pytest.raises(InvalidHamiltonianError) as exc:
        require_valid(H)
    assert str(exc.value) == f"Hamiltonian failed validation: {failures}"


def test_gram_constructed_matrices_pass():
    # Gram matrices G^T G are PSD by construction; adding a multiple of the
    # identity makes them PD.
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = rng.integers(2, 6)
        C = random_spd(rng, n)
        G = rng.standard_normal((rng.integers(1, n + 1), n))
        M = G.T @ G  # PSD, possibly singular
        H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * n, C_inv=C, M0=M)
        assert validate(H) == ()


def test_validate_is_pure(fluxonium):
    r1 = validate(fluxonium)
    r2 = validate(fluxonium)
    assert r1 == r2


def test_small_asymmetry_is_symmetrized():
    C = np.array([[2.0, 0.5], [0.5 + 1e-12, 2.0]])
    H = CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 2, C_inv=C, M0=np.eye(2))
    assert H.C_inv[0, 1] == H.C_inv[1, 0]


def test_large_asymmetry_rejected():
    C = np.array([[2.0, 0.5], [0.6, 2.0]])
    with pytest.raises(InvalidHamiltonianError, match="not symmetric"):
        CircuitHamiltonian(kinds=[ModeKind.INDUCTOR] * 2, C_inv=C, M0=np.eye(2))


def test_default_j_args_are_selector_rows(fluxonium):
    selectors = np.zeros((2, 5))
    selectors[0, 0] = 1.0
    selectors[1, 1] = 1.0
    np.testing.assert_array_equal(fluxonium.J_args, selectors)


def test_string_kinds_become_mode_kinds():
    H = CircuitHamiltonian(
        kinds=["junction", "inductor"], C_inv=np.eye(2), M0=np.eye(2), E_J=[1.0]
    )
    assert H.kinds == (ModeKind.JUNCTION, ModeKind.INDUCTOR)
    assert H.junction_indices == (0,)


def test_junction_count_mismatch_rejected():
    with pytest.raises(InvalidHamiltonianError, match="junction"):
        CircuitHamiltonian(
            kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
            C_inv=np.eye(2),
            M0=np.eye(2),
            E_J=[1.0, 2.0],
        )


def test_bad_sign_flag_rejected():
    with pytest.raises(InvalidHamiltonianError, match="sign"):
        CircuitHamiltonian(
            kinds=[ModeKind.JUNCTION],
            C_inv=np.eye(1),
            M0=np.zeros((1, 1)),
            E_J=[1.0],
            E_sign=[0.5],
        )


def test_bad_sign_flag_rejected_on_replace():
    one = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION], C_inv=np.eye(1), M0=np.zeros((1, 1)), E_J=[1.0]
    )
    with pytest.raises(InvalidHamiltonianError, match="sign"):
        one.replace(E_sign=[2.5])


THREE = dict(kinds=[ModeKind.INDUCTOR] * 3, C_inv=np.eye(3), M0=np.eye(3))


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.eye(3), M0=np.eye(2)),
         r"C_inv has shape \(3, 3\), expected \(2, 2\)"),
        (dict(kinds=[ModeKind.INDUCTOR] * 2, C_inv=np.ones((2, 3)), M0=np.eye(2)),
         r"C_inv has shape \(2, 3\), expected \(2, 2\)"),
        # transposed (m_x, n) and (m_v, n) couplings, which reshaping would
        # rebuild as a different circuit
        (dict(THREE, N=np.arange(6.0).reshape(2, 3), Phi_x=[0.1, 0.2]),
         r"N has shape \(2, 3\), expected \(3, any\)"),
        (dict(THREE, C_V=np.arange(6.0).reshape(2, 3), V=[0.1, 0.2]),
         r"C_V has shape \(2, 3\), expected \(3, any\)"),
        (dict(THREE, N=np.arange(3.0)), r"N has shape \(3,\), expected \(3, any\)"),
        (dict(THREE, N=np.ones((3, 2)), Phi_x=[0.1]), r"Phi_x has shape \(1,\), expected \(2,\)"),
        (dict(THREE, kinds=[ModeKind.JUNCTION] + THREE["kinds"][1:], E_J=[1.0],
              J_args=[[1.0], [0.0], [0.0]]),
         r"J_args has shape \(3, 1\), expected \(1, 3\)"),
    ],
    ids=["wrong-size-C_inv", "non-square-C_inv", "transposed-N", "transposed-C_V", "flat-N",
         "short-Phi_x", "transposed-J_args"],
)
def test_dimension_mismatch_rejected(fields, message):
    with pytest.raises(InvalidHamiltonianError, match=message):
        CircuitHamiltonian(**fields)


EVERY_FIELD = dict(
    kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
    C_inv=[[2.0, 0.1], [0.1, 1.0]],
    M0=[[0.5, 0.0], [0.0, 1.0]],
    N=[[0.0], [0.2]],
    C_V=[[0.1], [0.0]],
    E_J=[1.0],
    E_sign=[-1.0],
    J_args=[[1.0, 0.3]],
    Phi_x=[0.4],
    V=[0.01],
)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", list(EVERY_FIELD)[1:])
def test_non_finite_entry_rejected(field, bad):
    CircuitHamiltonian(**EVERY_FIELD)  # the base circuit is valid
    value = np.array(EVERY_FIELD[field], dtype=float)
    value.flat[-1] = bad
    with pytest.raises(InvalidHamiltonianError, match=f"{field} has non-finite entries"):
        CircuitHamiltonian(**dict(EVERY_FIELD, **{field: value}))


@pytest.mark.parametrize(
    "field,value",
    [
        ("J_args", [[1.0, True]]),  # converts to a float array without complaint
        ("E_sign", np.array([True])),
        ("C_inv", np.array([["2.0", "0.1"], ["0.1", "1.0"]])),
        ("Phi_x", np.array([None])),
    ],
    ids=["mixed-list", "bool-array", "string-array", "object-array"],
)
def test_non_numeric_entry_rejected(field, value):
    with pytest.raises(InvalidHamiltonianError, match=f"{field} has non-numeric entries"):
        CircuitHamiltonian(**dict(EVERY_FIELD, **{field: value}))


def test_integer_entries_accepted():
    H = CircuitHamiltonian(**dict(EVERY_FIELD, E_J=[1], E_sign=np.array([-1]), M0=[[1, 0], [0, 1]]))
    assert (H.E_J.dtype, H.E_sign.tolist(), H.M0.tolist()) == (float, [-1.0], [[1.0, 0.0], [0.0, 1.0]])


def test_negative_junction_energy_rejected():
    with pytest.raises(InvalidHamiltonianError, match="E_J has negative entries"):
        CircuitHamiltonian(**dict(EVERY_FIELD, E_J=[-1.0], E_sign=[1.0]))
    with pytest.raises(InvalidHamiltonianError, match="E_J has negative entries"):
        CircuitHamiltonian(**EVERY_FIELD).replace(E_J=[-1.0])


def test_arrays_are_immutable(cpb):
    with pytest.raises(ValueError):
        cpb.C_inv[0, 0] = 99.0
