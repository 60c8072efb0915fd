"""Each output check of the benchmark passes on the program's output and
rejects a deliberately wrong one.  Toy sizes; the file runs in seconds:

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from scmodes import canonical, decouple, io, spectrum  # noqa: E402

DATA = HERE.parent / "data"
TOL = workloads.SOLVE_TOL


@pytest.fixture(scope="module")
def cpb():
    return workloads._prepare(str(DATA / "cooper_pair_box.json"), "none")


@pytest.fixture(scope="module")
def fluxonium():
    return {m: workloads._prepare(str(DATA / "coupled_fluxonium.json"), m) for m in ("none", "fs")}


def solved(H, cutoffs, k, couplings=None):
    locals_ = checks.local_modes(H, cutoffs)
    couplings = couplings or spectrum.CouplingSet.from_hamiltonian(H)
    return locals_, spectrum.eigensolve(spectrum.assemble_hamiltonian(locals_, H, couplings), k=k)


def test_dense_reference_rejects_shifted_eigenvalue(cpb):
    locals_, result = solved(cpb, [8, 8], k=10)
    checks.check_dense_reference(locals_, cpb, result.eigenvalues)
    shifted = result.eigenvalues.copy()
    shifted[3] += 2 * checks.DENSE_EIG_ATOL
    with pytest.raises(checks.CheckFailed):
        checks.check_dense_reference(locals_, cpb, shifted)


def test_paper_levels_reject_shifted_eigenvalue(cpb):
    (_, energies), = spectrum.spectrum_vs_cutoff(cpb, 10, [workloads.CPB_PAPER_CUTOFF])
    checks.check_cpb_paper(energies)
    for level, shift in ((5, 2 * checks.CPB_PAPER_ATOL), (1, 2 * checks.CPB_PAPER_QUBIT_ATOL)):
        wrong = energies.copy()
        wrong[level] += shift
        with pytest.raises(checks.CheckFailed):
            checks.check_cpb_paper(wrong)


@pytest.mark.parametrize("method", ["none", "fs"])
def test_residuals_reject_shifted_eigenvalue(fluxonium, method):
    H = fluxonium[method]
    locals_, result = solved(H, [3] * H.n, k=4)
    checks.check_residuals(locals_, H, result.eigenvalues, result.eigenvectors, TOL)
    shifted = result.eigenvalues.copy()
    shifted[2] += 1e3 * TOL * abs(shifted[2])
    with pytest.raises(checks.CheckFailed):
        checks.check_residuals(locals_, H, shifted, result.eigenvectors, TOL)


def test_nonincreasing_rejects_shifted_eigenvalue(fluxonium):
    H = fluxonium["none"]
    d_values, energies, residuals = [3, 4], [], []
    for d in d_values:
        locals_, result = solved(H, [d] * H.n, k=4)
        energies.append(result.eigenvalues)
        residuals.append(checks.residual_norms(locals_, H, result.eigenvalues, result.eigenvectors))
    checks.check_nonincreasing(d_values, energies, residuals)
    raised = energies[1].copy()
    raised[0] = energies[0][0] + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_nonincreasing(d_values, [energies[0], raised], residuals)


@pytest.mark.parametrize("method,kind", [("none", "charge"), ("none", "flux"), ("fs", "cosines")])
def test_residuals_reject_dropped_coupling_term(fluxonium, method, kind):
    H = fluxonium[method]
    full = spectrum.CouplingSet.from_hamiltonian(H)
    terms = getattr(full, kind)
    assert terms
    dropped = dataclasses.replace(full, **{kind: terms[1:]})
    locals_, result = solved(H, [3] * H.n, k=4, couplings=dropped)
    with pytest.raises(checks.CheckFailed):
        checks.check_residuals(locals_, H, result.eigenvalues, result.eigenvectors, TOL)


def test_adaptive_check_rejects_lowered_cutoff(fluxonium):
    H, epsilon = fluxonium["fs"], 1e-4
    cutoffs = list(spectrum.adaptive_cutoffs(H, epsilon=epsilon, d_init=4))
    checks.check_adaptive_cutoffs(H, cutoffs, epsilon, TOL)
    for mode in [m for m, d in enumerate(cutoffs) if d > 1]:
        lowered = list(cutoffs)
        lowered[mode] -= 1
        with pytest.raises(checks.CheckFailed):
            checks.check_adaptive_cutoffs(H, lowered, epsilon, TOL)


@pytest.fixture()
def prepared(tmp_path):
    circuit = workloads.random_circuit(np.random.default_rng(5), 10, 2)
    path = str(tmp_path / "circuit.json")
    workloads.write_circuit(circuit, path)
    return circuit, workloads.prepare_circuit(path, str(tmp_path / "reduced"))


def test_circuit_prep_passes(prepared):
    checks.check_circuit_prep(*prepared)


@pytest.mark.parametrize("name", ["sad", "ios", "fs"])
def test_circuit_prep_rejects_changed_frequencies(prepared, name):
    circuit, out = prepared
    res = out[name]
    wrong = res.H_out.replace(C_inv=res.H_out.C_inv * 1.01)
    with pytest.raises(checks.CheckFailed, match="frequencies"):
        checks.check_circuit_prep(circuit, {**out, name: dataclasses.replace(res, H_out=wrong)})


def test_circuit_prep_rejects_wrong_reduction(prepared, tmp_path):
    circuit, out = prepared
    with pytest.raises(checks.CheckFailed, match="built with"):
        checks.check_circuit_prep({**circuit, "free": circuit["free"] + 1}, out)
    other = str(tmp_path / "other.json")
    io.save_hamiltonian(out["sad"].H_out, other)
    with pytest.raises(checks.CheckFailed, match="reload"):
        checks.check_circuit_prep(circuit, {**out, "reduced_path": other})


def test_circuit_prep_rejects_moved_junction_rows(prepared):
    circuit, out = prepared
    H_red = out["reduced"]
    T = decouple.full_symplectic(H_red).T
    assert H_red.n_J
    moved = dataclasses.replace(out["sad"], T=T, H_out=canonical.apply(H_red, T))
    with pytest.raises(checks.CheckFailed, match="junction rows"):
        checks.check_circuit_prep(circuit, {**out, "sad": moved})
