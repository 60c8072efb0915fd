"""Data-model construction and validation checks."""

import numpy as np
import pytest

from scmodes import validate
from scmodes.model import CircuitHamiltonian, InvalidHamiltonianError, ModeKind

from conftest import random_spd


def test_validate_accepts_fluxonium(fluxonium):
    assert validate(fluxonium).ok


def test_validate_accepts_cooper_pair_box(cpb):
    assert validate(cpb).ok


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
    assert validate(H).ok


def test_negative_definite_c_inv_flagged():
    C = np.diag([1.0, -1.0, 2.0])
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 3, C_inv=C, M0=np.eye(3)
    )
    report = validate(H)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert "C_inv_positive_definite" in names


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
        assert validate(H).ok


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


def test_arrays_are_immutable(cpb):
    with pytest.raises(ValueError):
        cpb.C_inv[0, 0] = 99.0
