"""File formats: Hamiltonian JSON, transform JSON, and CSV output.

A Hamiltonian file is a JSON object with fields
{n, n_J, mode_kinds, C_inv, M0, N, C_V, E_J: [{value, sign}], Phi_x, V};
matrices are row-major nested arrays.  N, C_V, Phi_x, V may be omitted
when empty.  Files written after a decoupling transform additionally
carry a J_args matrix; on input it defaults to identity-selector rows.

CSV output uses a header row, 12 significant digits, comma separators,
and LF line endings, so golden outputs are bit-stable across platforms.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .canonical import CanonicalTransform
from .model import CircuitHamiltonian, ModeKind


class ParseError(ValueError):
    """Raised for malformed input files; carries file/line context."""


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_hamiltonian(path: str) -> CircuitHamiltonian:
    return hamiltonian_from_dict(_read_json(path), origin=path)


def hamiltonian_from_dict(data: dict, origin: str = "<dict>") -> CircuitHamiltonian:
    try:
        kinds = [ModeKind(k) for k in data["mode_kinds"]]
        n = len(kinds)
        if "n" in data and int(data["n"]) != n:
            raise ParseError(f"{origin}: n = {data['n']} but {n} mode kinds listed")
        ej_entries = data.get("E_J", [])
        E_J = [float(e["value"]) for e in ej_entries]
        E_sign = [float(e.get("sign", 1)) for e in ej_entries]
        if "n_J" in data and int(data["n_J"]) != len(E_J):
            raise ParseError(f"{origin}: n_J = {data['n_J']} but {len(E_J)} junction energies listed")
        H = CircuitHamiltonian.create(
            kinds=kinds,
            C_inv=np.array(data["C_inv"], dtype=float),
            M0=np.array(data["M0"], dtype=float),
            N=np.array(data["N"], dtype=float) if data.get("N") else None,
            C_V=np.array(data["C_V"], dtype=float) if data.get("C_V") else None,
            E_J=E_J,
            E_sign=E_sign,
            Phi_x=np.array(data["Phi_x"], dtype=float) if data.get("Phi_x") else None,
            V=np.array(data["V"], dtype=float) if data.get("V") else None,
        )
        if "J_args" in data:
            H = H.replace(J_args=np.array(data["J_args"], dtype=float))
    except KeyError as exc:
        raise ParseError(f"{origin}: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{origin}: {exc}") from exc
    return H


def hamiltonian_to_dict(H: CircuitHamiltonian) -> dict:
    data = {
        "n": H.n,
        "n_J": H.n_J,
        "mode_kinds": [k.value for k in H.kinds],
        "C_inv": H.C_inv.tolist(),
        "M0": H.M0.tolist(),
        "N": H.N.tolist() if H.N.size else [],
        "C_V": H.C_V.tolist() if H.C_V.size else [],
        "E_J": [
            {"value": float(v), "sign": int(s)} for v, s in zip(H.E_J, H.E_sign)
        ],
        "Phi_x": H.Phi_x.tolist(),
        "V": H.V.tolist(),
    }
    selectors = np.zeros_like(H.J_args)
    for row, mode in enumerate(H.junction_indices):
        selectors[row, mode] = 1.0
    if H.J_args.shape != selectors.shape or not np.array_equal(H.J_args, selectors):
        data["J_args"] = H.J_args.tolist()
    return data


def save_hamiltonian(H: CircuitHamiltonian, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(hamiltonian_to_dict(H), fh, indent=1)
        fh.write("\n")


def save_transform(T: CanonicalTransform, path: str) -> None:
    data = {
        "n": T.n,
        "W": T.W.tolist(),
        "W_inv": T.W_inv.tolist(),
        "residual": T.residual,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_transform(path: str) -> CanonicalTransform:
    data = _read_json(path)
    try:
        W, W_inv = (np.array(data[key], dtype=float) for key in ("W", "W_inv"))
    except KeyError as exc:
        raise ParseError(f"{path}: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return CanonicalTransform(W, W_inv)


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.11e}"


def write_csv(rows, header, path: str | None = None) -> None:
    """Write rows as CSV to ``path`` or stdout; 12 significant digits, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
