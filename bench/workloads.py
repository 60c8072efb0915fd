"""The three benchmark workloads.

Each workload mirrors scmodes CLI commands and calls the library in the
order they do.  ``setup`` makes the inputs, ``run`` is the
timed round and returns one output per operation (None where the
operation raised), and ``check`` verifies every output (see checks.py).

Sizes are chosen so that one round takes a few seconds on one CPU: the
benchmark repeats whole rounds, each in a fresh process, and reports
medians.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import traceback

import numpy as np

import checks
from spans import patched

from scmodes import decouple, freemode, io, model, spectrum

# `scmodes spectrum --method fs --cutoff adaptive --epsilon 1e-8 --k 4`:
# adaptive rounds on nested bases, then one solve at the cutoffs.
FS_EPSILON = 1e-8
FS_K = 4

# `scmodes converge --method none --cutoff 6,7,8,9 --k 4`: ARPACK on
# product dimensions 7 776 to 59 049.
NONE_CUTOFFS = (6, 7, 8, 9)
NONE_K = 4

# `scmodes converge` on the Cooper-pair box: dense solves up to 1 600 dims.
CPB_CUTOFFS = (20, 30, 40)
CPB_K = 10
CPB_PAPER_CUTOFF = 30

# `scmodes remove-free`, then `scmodes decouple` with sad (--max-sweeps 15),
# ios and fs, on random circuits of these sizes and free-mode counts.  SAD
# runs all 15 sweeps at 60 modes whatever the seed, so the seed changes the
# matrices but not the work.
CIRCUITS = ((12, 1), (16, 2), (60, 3))
SAD_SWEEPS = 15

# The tolerance `spectrum.solve` works to when the CLI gives none.
SOLVE_TOL = inspect.signature(spectrum.solve).parameters["tol"].default


def _attempt(count, fn):
    """Run fn for ``count`` operations: their outputs, or None for each if it raised."""
    try:
        return fn()
    except Exception:  # an operation failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return [None] * count


def _prepare(path, method):
    """Load, validate, remove free modes and decouple, as the CLI's spectrum commands do."""
    H = io.load_hamiltonian(path)
    model.require_valid(H)
    H, _, _ = freemode.remove_free_modes(H, freemode.DEFAULT_THRESHOLD)
    if method != "none":
        H = decouple.apply_method(H, method).H_out
    return H


class _DataFile:
    """A workload on one of the bundled circuits, which do not depend on the seed."""

    data = None

    def __init__(self, root, seed):
        self.path = os.path.join(root, "data", self.data)

    def setup(self, workdir):
        with open(self.path) as fh:
            json.load(fh)


def _capturing(solve, into):
    def eigensolve(*args, **kwargs):
        result = solve(*args, **kwargs)
        into.append(result)
        return result

    return eigensolve


class NoneConverge(_DataFile):
    data = "coupled_fluxonium.json"

    def run(self):
        def op():
            H = _prepare(self.path, "none")
            # spectrum_vs_cutoff returns eigenvalues only; the eigenvectors
            # the checks need are taken from the solves as they return.
            solved = []
            with patched([(spectrum, "eigensolve", _capturing(spectrum.eigensolve, solved))]):
                rows = spectrum.spectrum_vs_cutoff(H, NONE_K, sorted(NONE_CUTOFFS))
            if len(solved) != len(rows):
                raise RuntimeError(f"{len(solved)} eigensolves for {len(rows)} cutoffs")
            return [(H, d, energies, result) for (d, energies), result in zip(rows, solved)]

        return _attempt(len(NONE_CUTOFFS), op)

    def check(self, outputs):
        done = [o for o in outputs if o is not None]
        residuals = []
        for H, d, energies, result in done:
            checks.require(
                np.array_equal(energies, result.eigenvalues) and result.cutoffs == (d,) * H.n,
                f"d={d}: reported eigenvalues are not those of the solve at that cutoff",
            )
            residuals.append(checks.check_residuals(
                checks.local_modes(H, [d] * H.n), H,
                result.eigenvalues, result.eigenvectors, SOLVE_TOL))
        if len(done) == len(outputs):
            checks.check_nonincreasing(
                [v[1] for v in done], [v[2] for v in done], residuals)


class CpbDense(_DataFile):
    data = "cooper_pair_box.json"

    def run(self):
        def op():
            H = _prepare(self.path, "none")
            return [(H, d, e) for d, e in spectrum.spectrum_vs_cutoff(H, CPB_K, sorted(CPB_CUTOFFS))]

        return _attempt(len(CPB_CUTOFFS), op)

    def check(self, outputs):
        for o in filter(None, outputs):
            H, d, energies = o
            checks.check_dense_reference(checks.local_modes(H, [d] * H.n), H, energies)
            if d == CPB_PAPER_CUTOFF:
                checks.check_cpb_paper(energies)


def _random_spd(rng, n, cond):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.exp(rng.uniform(0.0, np.log(cond), n))) @ Q.T


def random_circuit(rng, n, free):
    """A circuit of n modes with ``free`` hidden free modes and junction rows.

    Built with the free inductor modes whose rows and columns of M0 vanish,
    then mixed by a random rotation of the inductor fluxes, which hides
    the free directions and leaves the junction modes alone.  Every other
    mode, junctions included, is shunted, so M0 is positive definite off
    the free directions.
    """
    n_J = max(1, n // 8)
    junctions = set(rng.choice(n, n_J, replace=False).tolist())
    kinds = ["junction" if i in junctions else "inductor" for i in range(n)]
    inductors = [i for i in range(n) if i not in junctions]
    kept = [i for i in range(n) if i not in inductors[:free]]
    C_inv = 5.0 * _random_spd(rng, n, 30.0)
    M0 = np.zeros((n, n))
    M0[np.ix_(kept, kept)] = _random_spd(rng, len(kept), 30.0)
    Q, R = np.linalg.qr(rng.standard_normal((len(inductors), len(inductors))))
    W = np.eye(n)
    W[np.ix_(inductors, inductors)] = Q * np.sign(np.diag(R))
    C_inv = W @ C_inv @ W.T
    M0 = W @ M0 @ W.T
    return {
        "kinds": kinds,
        "free": free,
        "C_inv": (C_inv + C_inv.T) / 2,
        "M0": (M0 + M0.T) / 2,
        "E_J": rng.uniform(2.0, 8.0, n_J),
        "E_sign": rng.choice([-1, 1], n_J),
    }


def write_circuit(circuit, path):
    """The circuit as a Hamiltonian file, written here rather than by scmodes.io."""
    with open(path, "w") as fh:
        json.dump({
            "mode_kinds": circuit["kinds"],
            "C_inv": circuit["C_inv"].tolist(),
            "M0": circuit["M0"].tolist(),
            "E_J": [{"value": float(e), "sign": int(s)}
                    for e, s in zip(circuit["E_J"], circuit["E_sign"])],
        }, fh)


def prepare_circuit(path, stem):
    """One circuit-preparation operation: `remove-free --output STEM.json`, then sad, ios and fs."""
    H = io.load_hamiltonian(path)
    model.require_valid(H)
    H_red, T, report = freemode.remove_free_modes(H, freemode.DEFAULT_THRESHOLD)
    io.save_hamiltonian(H_red, stem + ".json")
    io.save_transform(T, stem + ".transform.json")
    return {
        "reduced": H_red,
        "transform": T,
        "report": report,
        "reduced_path": stem + ".json",
        "transform_path": stem + ".transform.json",
        "sad": decouple.simultaneous_approx_diag(H_red, max_sweeps=SAD_SWEEPS),
        "ios": decouple.apply_method(H_red, "ios"),
        "fs": decouple.apply_method(H_red, "fs"),
    }


class PrepFsAdaptive(_DataFile):
    """Circuit preparation on random circuits, then the adaptive fs spectrum.

    One round prepares each circuit of CIRCUITS, drawn from the seed (one
    operation each), then runs `scmodes spectrum --method fs --cutoff
    adaptive` on the bundled fluxonium pair (one operation).
    """

    data = "coupled_fluxonium.json"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.seed = seed

    def setup(self, workdir):
        super().setup(workdir)
        rng = np.random.default_rng(self.seed)
        self.workdir = workdir
        self.circuits = [random_circuit(rng, n, free) for n, free in CIRCUITS]
        for i, c in enumerate(self.circuits):
            c["path"] = os.path.join(workdir, f"circuit{i}.json")
            write_circuit(c, c["path"])

    def run(self):
        outputs = []
        for i, c in enumerate(self.circuits):
            stem = os.path.join(self.workdir, f"reduced{i}")
            outputs += _attempt(1, lambda: [prepare_circuit(c["path"], stem)])
        return outputs + _attempt(1, self._spectrum)

    def _spectrum(self):
        H = _prepare(self.path, "fs")
        cutoffs = list(spectrum.adaptive_cutoffs(H, epsilon=FS_EPSILON))
        return [(H, cutoffs, spectrum.solve(H, cutoffs, k=FS_K))]

    def check(self, outputs):
        *prepared, solved = outputs
        for c, o in zip(self.circuits, prepared):
            if o is not None:
                checks.check_circuit_prep(c, o)
        if solved is not None:
            H, cutoffs, result = solved
            checks.check_residuals(
                checks.local_modes(H, cutoffs), H, result.eigenvalues, result.eigenvectors, SOLVE_TOL)
            checks.check_adaptive_cutoffs(H, cutoffs, FS_EPSILON, SOLVE_TOL)


WORKLOADS = {
    "prep-fs-adaptive": PrepFsAdaptive,
    "none-converge": NoneConverge,
    "cpb-dense": CpbDense,
}
