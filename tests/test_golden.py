"""The committed command-line outputs in tests/golden, compared exactly.

Each file holds one command's argv, exit code, stdout and stderr.  Run this
module as a script to regenerate them (see tests/golden/README.md).
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bianchisurf.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [
    # the console smoke commands of the CI workflow
    "census 3 2.2",
    "census 15 30 --format csv",
    "census 195 20 --format csv",
    "census 3 1e19",
    "census 3 1e300000",
    "lemma-count 3 1 0 100000",
    "lemma-count 4 1 0 100000",
    "lemma-count 5 1 0 1",
    *(f"lemma-count 15 15 {r} 100000" for r in range(15)),
    "lemma-count 15 1 0 100000",
    "constant 3 --digits 6 --full",
    "constant 4 --digits 6 --full",
    "fit 3 --points 1000,10000",
    "verify order 15 2 -1",
    "check 39",
    "check 4000003",
    # census tables, a listing, one area and its order, a large-d refusal
    "census 3 10 --format csv",
    "census 227 40 --format csv",
    "census 1007 60 --format csv",
    "census 3 30 --records",
    "area 195 7 -2",
    "area 3 0 -2",
    "verify order 195 7 -2",
    "verify order 3 1 -26",
    "census 1000000007 1",
    # reduced discriminants 33337 = 17 37 53, and the prime 33331 past the
    # brute-force route's prime limit
    "verify order 3 1 -11112",
    "verify order 3 1 -11110",
    # the flat candidate layout: a prime d where most residues have no
    # candidate, omega(d) = 4 and its four-symbol classes, a large field's
    # count, the lemma at tau(d) = 8, and the area refusal past the table limit
    "census 10007 50 --format csv",
    "census 1155 5 --format csv",
    "census 100003 100",
    "lemma-count 195 1 0 100000",
    "area 1000000007 1 0",
]


def _path(command: str) -> Path:
    return GOLDEN / ("_".join(a.removeprefix("--") for a in command.split()) + ".json")


def _run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command.split())
    lines = lambda text: text.splitlines(keepends=True)  # noqa: E731  "".join gives text back
    return {"argv": command.split(), "exit": code, "stdout": lines(out.getvalue()), "stderr": lines(err.getvalue())}


def test_golden_outputs():
    assert sorted(GOLDEN.glob("*.json")) == sorted(map(_path, COMMANDS))
    differ = [c for c in COMMANDS if _run(c) != json.loads(_path(c).read_text(encoding="utf-8"))]
    assert differ == []


if __name__ == "__main__":
    for command in sys.argv[1:] or COMMANDS:
        text = json.dumps(_run(command), ensure_ascii=False, indent=1) + "\n"
        _path(command).write_text(text, encoding="utf-8")
