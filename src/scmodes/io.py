"""File formats: Hamiltonian JSON, transform JSON, and CSV output.

A Hamiltonian file is a JSON object whose matrices are row-major nested
arrays, for n modes of which n_J are junctions:

    n, n_J      optional; JSON integers equal to the counts below
    mode_kinds  n strings, "junction" or "inductor"
    C_inv, M0   (n, n)
    N, C_V      (n, m_x) and (n, m_v)
    E_J         n_J objects {value >= 0, sign}, sign +1 (the default) or -1
    J_args      (n_J, n), written only when it differs from the rows that
                select the junction modes
    Phi_x, V    (m_x,) and (m_v,)

Shapes are checked as written (nothing is reshaped) and entries, junction
values and signs included, must be finite JSON numbers: a string, true,
false or null is rejected, not converted.  A field after M0 that is
absent or empty takes the default: no external fluxes or voltages, zero
Phi_x and V, and selector J_args.

CSV output uses a header row, 12 significant digits, comma separators,
and LF line endings, so golden outputs are bit-stable across platforms.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .canonical import CanonicalTransform
from .model import CircuitHamiltonian, junction_selectors


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
        ej_entries = data.get("E_J", [])
        for key, count, listed in (
            ("n", len(data["mode_kinds"]), "mode kinds"),
            ("n_J", len(ej_entries), "junction energies"),
        ):
            given = data.get(key, count)
            if given != count:
                raise ValueError(f"{key} = {given!r} but {count} {listed} listed")
            if type(given) is not int:  # JSON integers only: not 1.0, not true
                raise ValueError(f"{key} = {given!r} is not an integer")
        return CircuitHamiltonian(
            kinds=data["mode_kinds"],
            C_inv=data["C_inv"],
            M0=data["M0"],
            N=data.get("N"),
            C_V=data.get("C_V"),
            E_J=[e["value"] for e in ej_entries],
            E_sign=[e.get("sign", 1) for e in ej_entries],
            J_args=data.get("J_args"),
            Phi_x=data.get("Phi_x"),
            V=data.get("V"),
        )
    except KeyError as exc:
        raise ParseError(f"{origin}: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{origin}: {exc}") from exc


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
    if not np.array_equal(H.J_args, junction_selectors(H.kinds)):
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
