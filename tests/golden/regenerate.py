"""Rewrite the reference CLI outputs stored beside this file.

Run from the repository root, with the code whose outputs become the
reference on the path:

    PYTHONPATH=src python tests/golden/regenerate.py

Each command of ``commands.txt`` runs in-process through ``scmodes.cli.main``
with one BLAS thread.  Its exit code, stdout and stderr go to
``<name>/exit_code.txt``, ``stdout.txt`` and ``stderr.txt``, and every file it
writes under ``{out}`` to ``<name>/files/``.
"""

import pathlib
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from conftest import GOLDEN_DIR, reference_commands, run_reference  # noqa: E402


def main():
    for name, template in reference_commands():
        target = GOLDEN_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as out_dir:
            code, out, err = run_reference(template, out_dir)
            written = sorted(pathlib.Path(out_dir).iterdir())
            (target / "files").mkdir(parents=True)
            for path in written:
                shutil.copy(path, target / "files" / path.name)
        (target / "exit_code.txt").write_text(f"{code}\n")
        (target / "stdout.txt").write_text(out)
        (target / "stderr.txt").write_text(err)
        print(f"{name}: exit {code}, {len(written)} file(s) written", file=sys.stderr)


if __name__ == "__main__":
    main()
