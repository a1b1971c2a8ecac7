"""Golden outputs of the command line: exit code, sha256 of stdout, stderr.

Each command runs with ``--no-timestamp`` in a directory holding the module
files of ``_module_files``.  Exact commands are compared byte for byte.  For
the commands whose documents carry floating point results (``sym g``,
``zeta ...``) those fields are dropped first, and ``verify-all`` rows lose
their ``seconds`` and ``detail``: LAPACK, libm and numpy versions differ in
the last bits.  A command with ``--out`` hashes stdout followed by the file.

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff of
``tests/data/cli_golden.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from cqforms.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

MODULE_FILES = {
    "rep32.json": "rep build --p 3 --q 2 --mult 1",
    "rep11.json": "rep build --p 1 --q 1 --mult 1,0,1,0",
    "rep21.json": "rep build --p 2 --q 1 --mult 1,1",
}
# S_2 = -S_1: a well-formed module file whose relations fail
ANTI = {"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [[[1, 0], [0, -1]], [[-1, 0], [0, 1]]]}

COMMANDS = [
    "rep build --p 3 --q 2 --mult 1 --out built.json",
    "rep build --p 2 --q 1 --mult 1,1",
    "rep verify rep32.json",
    "rep verify anti.json",
    "rep canonical rep32.json",
    "rep canonical rep21.json",
    "quartic coeffs rep32.json --format csv",
    "quartic coeffs rep11.json",
    "quartic coeffs --p 2 --q 1 --mult 1,1 --format csv --out coeffs.csv",
    "quartic eval rep32.json --w 1,0,2,0,0,1,0,0",
    "quartic grad rep32.json --w 1,0,2,0,0,1,0,0",
    "quartic homaloidal rep32.json --trials 20 --seed 7",
    "quartic square-detect rep32.json",
    "quartic square-detect rep11.json",
    "quartic check-32 --k 2",
    "sym h rep32.json",
    "sym h --p 3 --q 2 --mult 2",
    "sym g rep32.json --seed 3",
    "sym sharp rep32.json",
    "sym predict --p 3 --q 2 --mult 2",
    "sym predict --p 10 --q 1 --mult 1,0",
    "zeta gamma --p 3 --q 2 --m 16 --s 0.4+0i --formula pullback",
    "zeta gamma --p 4 --q 0 --m 8 --s 0.3 --formula quartic",
    "zeta gamma --p 3 --q 2 --s 0.4 --formula quadratic",
    "zeta check-involution --p 3 --q 2 --m 16 --s 0.3+0.7i",
    "zeta check-involution --p 3 --q 2 --m 16 --s 0.3+0.7i --tol 0",
    "zeta check-pullback --p 4 --q 1 --mult 2,0 --s 0.27",
    "zeta check-fe-quadratic --p 2 --q 0 --s -0.5 --tol 1e-8",
    "zeta mc rep32.json --component + --s 1 --samples 20000 --seed 42",
    "zeta mc --p 3 --q 1 --mult 1,1 --component mm --s 0.3 --samples 3000",
    "classify --p 9 --q 0 --mult 1,0",
    "classify --p 3 --q 2 --mult 2 --explain",
    "--seed 9 classify --p 5 --q 1 --mult 1,1,0,0 --out classify.json",
    "verify-all --max-pq 2 --max-m 4",
    # input and usage errors
    "classify --p 2 --q 3 --mult 1",
    "zeta gamma --p 4 --q 0 --s 0.3 --formula quartic",
    "zeta gamma --formula pullback --p 3 --q 0 --m 0 --s 0.3",
    "zeta gamma --p 3 --q 2 --m 16 --mult 1 --s 0.4 --formula quartic",
    "zeta gamma --p 3 --q 2 --m 8 --mult 1 --s 0.4 --formula quadratic",
    "quartic eval --p 3 --q 0 --mult 1 --w 1,x,0,0",
    "sym predict --p 3 --q 2 --mult 1 --format csv",
    "quartic coeffs",
    "rep verify absent.json",
    "sym g anti.json",
    "verify-all --max-pq 0 --max-m 0",
]

FLOAT_FIELDS = {"residual", "matrix", "relative_error", "value", "stderr"}


def _drop(doc, keys):
    if isinstance(doc, dict):
        return {k: _drop(v, keys) for k, v in doc.items() if k not in keys}
    if isinstance(doc, list):
        return [_drop(v, keys) for v in doc]
    return doc


def _normalized(argv, out: str) -> str:
    """stdout as compared: floats dropped where the platform may change them."""
    if not out or not (argv[:2] == ["sym", "g"] or argv[0] in ("zeta", "verify-all")):
        return out
    doc = json.loads(out)
    if argv[0] == "verify-all":
        doc["rows"] = _drop(doc["rows"], {"seconds", "detail"})
    else:
        doc = _drop(doc, FLOAT_FIELDS)
    return json.dumps(doc, indent=2)


def _module_files(directory: Path) -> None:
    for name, line in MODULE_FILES.items():
        assert main(shlex.split(line) + ["--out", str(directory / name)]) == 0
    (directory / "anti.json").write_text(json.dumps(ANTI))


def run(line: str) -> dict:
    """Run one command in the current directory and record what it printed."""
    argv = shlex.split(line) + ["--no-timestamp"]
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to $COLUMNS
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        code = main(argv)
    out = _normalized(argv, stdout.getvalue())
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        out += path.read_text() if path.exists() else ""
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _module_files(directory)
    return directory


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_golden(line, module_dir, monkeypatch):
    monkeypatch.chdir(module_dir)
    assert run(line) == json.loads(GOLDEN.read_text())[line]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _module_files(Path(tmp))
            golden = {line: run(line) for line in COMMANDS}
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, ensure_ascii=False) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
