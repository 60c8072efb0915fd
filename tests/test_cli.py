"""Command-line interface: file round trips, golden outputs, error paths."""

import argparse
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmodes import canonical, cli, decouple, freemode, io, spectrum
from scmodes.cli import main
from scmodes.model import CircuitHamiltonian, ModeKind

from conftest import (
    CPB_PATH,
    FLUXONIUM_PATH,
    GOLDEN_DIR,
    random_orthogonal,
    random_spd,
    reference_commands,
    run_reference,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_toy(tmp_path, name="toy.json"):
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2,
        C_inv=np.diag([1.0, 2.0]),
        M0=np.diag([1.0, 2.0]),
    )
    path = tmp_path / name
    io.save_hamiltonian(H, str(path))
    return path


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_fluxonium(capsys):
    code, out, _ = run(capsys, "inspect", "--input", str(FLUXONIUM_PATH))
    assert code == 0
    assert out.splitlines()[0] == "n=5, n_J=2, F=0, offdiag=2.87e+05"


def test_inspect_cpb_reports_free_mode(capsys):
    code, out, _ = run(capsys, "inspect", "--input", str(CPB_PATH))
    assert code == 0
    assert "F=1" in out


def test_inspect_empty_file(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    code, out, err = run(capsys, "inspect", "--input", str(bad))
    assert code == 1
    assert "error" in err
    assert "1:1" in err  # line context


def test_inspect_invalid_hamiltonian(tmp_path, capsys):
    data = {
        "mode_kinds": ["inductor"],
        "C_inv": [[-1.0]],
        "M0": [[1.0]],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "inspect", "--input", str(bad))
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(E_J=[{"value": float("inf")}, {"value": 1.0}]), "E_J has non-finite entries"),
        (dict(C_inv=[[float("nan")] * 5] * 5), "C_inv has non-finite entries"),
        (dict(n=5.7), "n = 5.7 but 5 mode kinds listed"),
        (dict(n_J=2.5), "n_J = 2.5 but 2 junction energies listed"),
        (dict(E_J=[{"value": -3.9, "sign": 1}, {"value": 3.9}]), "E_J has negative entries"),
        (dict(E_J=[{"value": "3.9", "sign": -1}, {"value": 4.4}]), "E_J has non-numeric entries"),
    ],
    ids=["infinite-E_J", "nan-C_inv", "fractional-n", "fractional-n_J", "negative-E_J",
         "string-E_J"],
)
def test_inspect_rejects_bad_numbers(tmp_path, capsys, fluxonium, change, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**io.hamiltonian_to_dict(fluxonium), **change}))
    code, _, err = run(capsys, "inspect", "--input", str(bad))
    assert code == 1
    assert f"bad.json: {message}" in err


# ---------------------------------------------------------------------------
# remove-free
# ---------------------------------------------------------------------------


def test_remove_free_cpb(tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    code, _, err = run(
        capsys, "remove-free", "--input", str(CPB_PATH), "--output", str(out_path)
    )
    assert code == 0
    H_red = io.load_hamiltonian(str(out_path))
    np.testing.assert_allclose(H_red.C_V[:, 0], [12.5, -17.2], atol=0.1)
    T = io.load_transform(str(tmp_path / "reduced.transform.json"))
    assert T.n == 3
    assert T.residual < 1e-10


def test_remove_free_noop(tmp_path, capsys):
    out_path = tmp_path / "same.json"
    code, _, _ = run(
        capsys, "remove-free", "--input", str(FLUXONIUM_PATH), "--output", str(out_path)
    )
    assert code == 0
    H_in = io.load_hamiltonian(str(FLUXONIUM_PATH))
    H_out = io.load_hamiltonian(str(out_path))
    np.testing.assert_array_equal(H_in.C_inv, H_out.C_inv)
    T = io.load_transform(str(tmp_path / "same.transform.json"))
    np.testing.assert_array_equal(T.W, np.eye(5))


def test_remove_free_every_mode_free(tmp_path, capsys):
    H = CircuitHamiltonian(
        kinds=[ModeKind.INDUCTOR] * 2, C_inv=[[2.0, 0.3], [0.3, 1.5]], M0=np.zeros((2, 2))
    )
    path = tmp_path / "free.json"
    io.save_hamiltonian(H, str(path))
    code, _, err = run(
        capsys, "remove-free", "--input", str(path), "--output", str(tmp_path / "out.json")
    )
    assert code == 1
    assert "F = n = 2" in err


# ---------------------------------------------------------------------------
# decouple
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method,expected",
    [("sad", 494.0), ("ios", 89.3)],
)
def test_decouple_offdiag_report(tmp_path, capsys, method, expected):
    out_path = tmp_path / f"{method}.json"
    code, out, _ = run(
        capsys,
        "decouple", "--input", str(FLUXONIUM_PATH), "--method", method,
        "--output", str(out_path),
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "method,offdiag_before,offdiag_after,iterations"
    fields = row.split(",")
    assert fields[0] == method
    assert abs(float(fields[2]) - expected) <= 0.01 * expected
    assert out_path.exists()


def test_decouple_fs_kills_quadratic_couplings(tmp_path, capsys):
    out_path = tmp_path / "fs.json"
    code, out, _ = run(
        capsys,
        "decouple", "--input", str(FLUXONIUM_PATH), "--method", "fs",
        "--output", str(out_path),
    )
    assert code == 0
    row = out.strip().splitlines()[1]
    assert float(row.split(",")[2]) < 1e-8
    # the decoupled file round-trips with its transformed junction arguments
    H_fs = io.load_hamiltonian(str(out_path))
    assert np.abs(H_fs.J_args[0]).max() > 2.0


# ---------------------------------------------------------------------------
# spectrum family
# ---------------------------------------------------------------------------


def test_spectrum_cpb_table(tmp_path, capsys):
    out_path = tmp_path / "spec.csv"
    code, _, err = run(
        capsys,
        "spectrum", "--input", str(CPB_PATH), "--cutoff", "30", "--k", "10",
        "--output", str(out_path),
    )
    assert code == 0
    assert "removed 1 free mode" in err
    lines = out_path.read_text().splitlines()
    assert lines[0] == "level,energy"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(
        energies,
        [-0.999, -0.00981, 0.979, 1.88, 1.97, 2.87, 2.96, 3.32, 3.85, 3.95],
        atol=0.01,
    )


def test_spectrum_with_external_flux(tmp_path, capsys):
    # one external-flux column for two modes
    H = CircuitHamiltonian(
        kinds=[ModeKind.JUNCTION, ModeKind.INDUCTOR],
        C_inv=[[2.0, 0.3], [0.3, 1.5]],
        M0=[[0.4, 0.1], [0.1, 0.8]],
        N=[[0.0], [0.5]],
        Phi_x=[0.25],
        E_J=[3.0],
    )
    path = tmp_path / "biased.json"
    io.save_hamiltonian(H, str(path))
    code, out, err = run(
        capsys, "spectrum", "--input", str(path), "--cutoff", "10", "--k", "3"
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "level,energy"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_spectrum_separable_toy(tmp_path, capsys):
    toy = write_toy(tmp_path)
    code, out, _ = run(
        capsys, "spectrum", "--input", str(toy), "--cutoff", "5", "--k", "4"
    )
    assert code == 0
    energies = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    np.testing.assert_allclose(energies, [1.5, 2.5, 3.5, 3.5], atol=1e-8)


def test_spectrum_deterministic_output(tmp_path, capsys):
    toy = write_toy(tmp_path)
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "spectrum", "--input", str(toy), "--cutoff", "6", "--k", "3"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_converge_csv(tmp_path, capsys):
    toy = write_toy(tmp_path)
    code, out, _ = run(
        capsys, "converge", "--input", str(toy), "--cutoff", "3,5", "--k", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,E0,E1,E2"
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "5"]


def test_converge_cutoff_list_is_uniform_sweep(capsys):
    # the d list length is unrelated to the mode count
    code, out, _ = run(
        capsys,
        "converge", "--input", str(FLUXONIUM_PATH), "--method", "fs",
        "--cutoff", "3,4", "--k", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


def test_rdm_csv(tmp_path, capsys):
    toy = write_toy(tmp_path)
    code, out, _ = run(
        capsys, "rdm", "--input", str(toy), "--cutoff", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,m,rho_mm"
    assert len(lines) == 1 + 2 * 4
    ground_pop = float(lines[1].split(",")[2])
    np.testing.assert_allclose(ground_pop, 1.0, atol=1e-10)


def test_rdm_negative_state_is_an_error(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --state")

    monkeypatch.setattr(cli.spectrum, "solve", no_solve)
    toy = write_toy(tmp_path)
    code, out, err = run(capsys, "rdm", "--input", str(toy), "--cutoff", "4", "--state", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--state" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--k", "0"], "k = 0 must be at least 1"),
        (["converge", "--cutoff", "4", "--k", "-2"], "k = -2 must be at least 1"),
        (["spectrum", "--epsilon", "0"], "epsilon must be positive"),
        (["rdm", "--epsilon=-1e-8"], "epsilon must be positive"),
        (["adaptive-cutoffs", "--epsilon", "0"], "epsilon must be positive"),
        (["adaptive-cutoffs", "--epsilon", "nan"], "epsilon must be positive"),
        (["adaptive-cutoffs", "--epsilon", "inf"], "epsilon must be below 1"),
        (["adaptive-cutoffs", "--epsilon", "2"], "epsilon must be below 1"),
        (["rdm", "--epsilon", "1"], "epsilon must be below 1"),
        (["inspect", "--threshold", "nan"], "threshold = nan must lie in [0, 1)"),
        (["inspect", "--threshold", "-1"], "threshold = -1.0 must lie in [0, 1)"),
        (["spectrum", "--threshold", "1"], "threshold = 1.0 must lie in [0, 1)"),
        (["remove-free", "--output", "unwritten.json", "--threshold", "nan"],
         "threshold = nan must lie in [0, 1)"),
        (["decouple", "--method", "sad", "--max-sweeps", "-3"], "max_sweeps = -3 must be >= 0"),
    ],
)
def test_bad_k_or_epsilon_rejected_before_loading(capsys, monkeypatch, argv, message):
    def no_prepare(*args):
        raise AssertionError("read the circuit before rejecting the option")

    monkeypatch.setattr(cli, "_prepare", no_prepare)
    monkeypatch.setattr(cli.io, "load_hamiltonian", no_prepare)
    code, out, err = run(capsys, *argv, "--input", str(FLUXONIUM_PATH))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_adaptive_cutoffs_csv(tmp_path, capsys):
    toy = write_toy(tmp_path)
    code, out, _ = run(
        capsys, "adaptive-cutoffs", "--input", str(toy), "--epsilon", "0.5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,cutoff"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "1"]


def test_bad_cutoff_flag(tmp_path, capsys):
    toy = write_toy(tmp_path)
    code, _, err = run(
        capsys, "spectrum", "--input", str(toy), "--cutoff", "abc"
    )
    assert code == 1
    assert "cutoff" in err


@pytest.mark.parametrize("text", ["3.7", ","])
def test_cutoff_text_must_list_integers(tmp_path, capsys, text):
    toy = write_toy(tmp_path)
    code, out, err = run(capsys, "converge", "--input", str(toy), "--cutoff", text)
    assert (code, out) == (1, "")
    assert err == (f"error: bad --cutoff {text!r}: expected an integer "
                   "or a comma-separated integer list\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--cutoff", "0"], "mode 0: cutoff 0 must be an integer in [1, 200]"),
        (["spectrum", "--cutoff", "3,3"], "2 cutoffs given for 5 modes"),
        (["rdm", "--cutoff", "4,4,4,4,-1"], "mode 4: cutoff -1 must be an integer in [1, 200]"),
        (["converge", "--cutoff", "-1"], "mode 0: cutoff -1 must be an integer in [1, 200]"),
    ],
    ids=["spectrum-zero", "spectrum-too-few", "rdm-negative", "converge-negative"],
)
def test_cutoffs_are_judged_by_the_library(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--input", str(FLUXONIUM_PATH))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def command_options(command):
    """The argparse actions of one subcommand, by destination."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def test_parser_reads_library_defaults():
    methods = [m.value for m in decouple.DecoupleMethod]
    for command in ("inspect", "remove-free", "spectrum", "converge", "rdm", "adaptive-cutoffs"):
        assert command_options(command)["threshold"].default == freemode.DEFAULT_THRESHOLD
    for command in ("spectrum", "rdm", "adaptive-cutoffs"):
        assert command_options(command)["epsilon"].default == spectrum.ADAPTIVE_EPSILON
        assert command_options(command)["method"].choices == ["none", *methods]
    assert command_options("converge")["method"].choices == ["none", *methods]
    assert command_options("decouple")["method"].choices == methods
    assert cli._ERRORS == (ValueError, RuntimeError)


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def split_numbers(text):
    """``text`` with every comma-separated field that parses as a float
    replaced by ``#``, and those numbers gathered by field index."""
    lines, columns = [], {}
    for line in text.split("\n"):
        fields = line.split(",")
        for j, field in enumerate(fields):
            try:
                columns.setdefault(j, []).append(float(field))
            except ValueError:
                continue
            fields[j] = "#"
        lines.append(",".join(fields))
    return "\n".join(lines), columns


def assert_numbers_close(got, want, where):
    """rtol 1e-9, with an absolute floor of 1e-12 times the largest magnitude."""
    want = np.asarray(want, dtype=float)
    floor = 1e-12 * np.abs(want).max() if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=floor, err_msg=where)


def assert_text_close(got, want, where):
    """Text, row count and field layout exact; numbers close, column by column."""
    got_text, got_columns = split_numbers(got)
    want_text, want_columns = split_numbers(want)
    assert got_text == want_text, where
    for j, column in want_columns.items():
        assert_numbers_close(got_columns[j], column, f"{where}, column {j}")


def assert_json_close(got, want, where):
    """Keys, strings and shapes exact; each numeric array close to its own scale."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
        return
    if isinstance(want, str):
        assert got == want, where
        return
    try:
        expected = np.array(want, dtype=float)
    except (TypeError, ValueError):  # a list of strings or of records
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
        return
    assert np.shape(got) == expected.shape, where
    assert_numbers_close(got, expected, where)


@pytest.mark.parametrize("name,template", reference_commands(),
                         ids=[name for name, _ in reference_commands()])
def test_reference_outputs(tmp_path, name, template):
    """The reference commands reproduce the outputs stored in ``tests/golden``.

    ``tests/golden/regenerate.py`` rewrites them when an output is meant to change.
    """
    want = GOLDEN_DIR / name
    code, out, err = run_reference(template, tmp_path)
    assert code == int((want / "exit_code.txt").read_text())
    assert_text_close(out, (want / "stdout.txt").read_text(), "stdout")
    assert_text_close(err, (want / "stderr.txt").read_text(), "stderr")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (want / "files").glob("*"))
    for file_name in written:
        got = json.loads((tmp_path / file_name).read_text())
        assert_json_close(got, json.loads((want / "files" / file_name).read_text()), file_name)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_hamiltonian_file_round_trip(tmp_path, fluxonium):
    path = tmp_path / "rt.json"
    io.save_hamiltonian(fluxonium, str(path))
    H2 = io.load_hamiltonian(str(path))
    np.testing.assert_array_equal(H2.C_inv, fluxonium.C_inv)
    np.testing.assert_array_equal(H2.M0, fluxonium.M0)
    np.testing.assert_array_equal(H2.E_sign, fluxonium.E_sign)
    assert H2.kinds == fluxonium.kinds


@st.composite
def transformed_circuits(draw):
    """(H, apply(H, T)): a circuit with every field set, and its image under
    a random canonical transform, whose J_args are no longer selector rows."""
    n = draw(st.integers(1, 5))
    n_J = draw(st.integers(0, n))
    m_x, m_v = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [ModeKind.JUNCTION] * n_J + [ModeKind.INDUCTOR] * (n - n_J)
    H = CircuitHamiltonian(
        kinds=[kinds[i] for i in rng.permutation(n)],
        C_inv=random_spd(rng, n),
        M0=random_spd(rng, n),
        N=rng.standard_normal((n, m_x)),
        C_V=rng.standard_normal((n, m_v)),
        E_J=rng.uniform(1.0, 5.0, n_J),
        E_sign=rng.choice([-1.0, 1.0], n_J),
        Phi_x=rng.uniform(-1.0, 1.0, m_x),
        V=rng.uniform(-0.01, 0.01, m_v),
    )
    W = random_orthogonal(rng, n) * rng.uniform(0.5, 2.0, n)
    return H, canonical.apply(H, canonical.CanonicalTransform.from_matrix(W))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(transformed_circuits())
def test_hamiltonian_file_round_trip_is_bit_exact(tmp_path_factory, circuit):
    path = tmp_path_factory.mktemp("round_trip") / "h.json"
    for H in circuit:
        io.save_hamiltonian(H, str(path))
        H2 = io.load_hamiltonian(str(path))
        assert H2.kinds == H.kinds
        for field in dataclasses.fields(H)[1:]:
            a, b = getattr(H, field.name), getattr(H2, field.name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), field.name
    original, transformed = circuit
    assert "J_args" not in io.hamiltonian_to_dict(original)
    assert ("J_args" in io.hamiltonian_to_dict(transformed)) == (transformed.n_J > 0)


# A file with every field set, J_args included
EVERY_FIELD = {
    "mode_kinds": ["junction", "inductor"],
    "C_inv": [[2.0, 0.1], [0.1, 1.0]],
    "M0": [[0.5, 0.0], [0.0, 1.0]],
    "N": [[0.0], [0.2]],
    "C_V": [[0.1], [0.0]],
    "E_J": [{"value": 1.0, "sign": -1}],
    "J_args": [[1.0, 0.3]],
    "Phi_x": [0.4],
    "V": [0.01],
}


@pytest.mark.parametrize("bad", ["1.0", True, None], ids=["string", "true", "null"])
@pytest.mark.parametrize(
    "field", ["C_inv", "M0", "N", "C_V", "J_args", "Phi_x", "V", "E_J", "E_sign"]
)
def test_hamiltonian_file_entries_must_be_numbers(field, bad):
    data = json.loads(json.dumps(EVERY_FIELD))
    io.hamiltonian_from_dict(data)  # valid as written
    if field in ("E_J", "E_sign"):
        data["E_J"][0]["value" if field == "E_J" else "sign"] = bad
    else:
        # the last entry, so that a matrix mixes it with numbers
        last = data[field][-1] if isinstance(data[field][-1], list) else data[field]
        last[-1] = bad
    with pytest.raises(io.ParseError, match=f"^<dict>: {field} has non-numeric entries$"):
        io.hamiltonian_from_dict(data)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n", True, "n = True is not an integer"),
        ("n_J", True, "n_J = True is not an integer"),
        ("n", 1.0, "n = 1.0 is not an integer"),
        ("n_J", "1", "n_J = '1' but 1 junction energies listed"),
    ],
)
def test_hamiltonian_file_counts_must_be_integers(key, value, message):
    one = {"mode_kinds": ["junction"], "C_inv": [[1.0]], "M0": [[0.0]], "E_J": [{"value": 1.0}]}
    io.hamiltonian_from_dict({**one, key: 1})
    with pytest.raises(io.ParseError, match=f"^<dict>: {message}$"):
        io.hamiltonian_from_dict({**one, key: value})


@pytest.mark.parametrize(
    "data,message",
    [
        ({"n": 1, "W": [[1.0]]}, "W_inv"),
        ({"W": [[1.0]], "W_inv": [[1.0, 2.0], [3.0]]}, "t.transform.json"),
        ([[1.0]], "t.transform.json"),
        # entries must be finite JSON numbers, not converted
        ({"W": [["0.5"]], "W_inv": [[2.0]]}, "t.transform.json: W has non-numeric entries"),
        ({"W": [[True]], "W_inv": [[True]]}, "t.transform.json: W has non-numeric entries"),
        ({"W": [[1.0]], "W_inv": [[None]]}, "t.transform.json: W_inv has non-numeric entries"),
        ({"W": [[float("nan")]], "W_inv": [[1.0]]}, "t.transform.json: W has non-finite entries"),
        ({"W": [[float("inf")]], "W_inv": [[0.0]]}, "t.transform.json: W has non-finite entries"),
    ],
)
def test_malformed_transform_file(tmp_path, data, message):
    path = tmp_path / "t.transform.json"
    path.write_text(json.dumps(data))
    with pytest.raises(io.ParseError, match=message):
        io.load_transform(str(path))


def load_with_j_args(tmp_path, fluxonium, j_args):
    data = io.hamiltonian_to_dict(fluxonium)
    data["J_args"] = j_args
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    return io.load_hamiltonian(str(path))


def test_malformed_hamiltonian_j_args(tmp_path, fluxonium):
    with pytest.raises(io.ParseError, match=r"h.json: J_args has shape \(3,\), expected \(2, 5\)"):
        load_with_j_args(tmp_path, fluxonium, [1.0, 0.0, 0.0])


def test_transposed_hamiltonian_j_args(tmp_path, fluxonium):
    # the (5, 2) transpose must not be reshaped into another (2, 5) circuit
    with pytest.raises(io.ParseError, match=r"h.json: J_args has shape \(5, 2\), expected \(2, 5\)"):
        load_with_j_args(tmp_path, fluxonium, fluxonium.J_args.T.tolist())


def test_csv_format_is_stable(tmp_path):
    path = tmp_path / "t.csv"
    io.write_csv([(1, 0.1), (2, 2.0 / 3.0)], header=["a", "b"], path=str(path))
    content = path.read_bytes()
    assert content == b"a,b\n1,1.00000000000e-01\n2,6.66666666667e-01\n"
