"""The byte-identity listing: every CLI answer on the benchmark documents.

Run as ``python tests/listing.py [OUT]`` from any checkout; pytest does
not collect it.  It writes the ``documents`` benchmark workload (seeds
1-3, rounds 0-9: 480 INI documents) through ``bench/workloads.py``, loaded
as ``conftest.bench_workloads`` loads it, and runs ``cli.dispatch`` on
each document for ``invariants``, ``linearizable``, ``symdim``,
``pencil``, two ``pullback``s, three ``geodesic``s, ``symcheck`` on each
``[field ...]`` section and ``symcheck`` on a missing field; then
``verify-paper`` as text and ``--json`` at ``--order`` 2, 3, 6 and 12.
Each call is one line, the JSON list (argv, exit code, stdout, stderr),
with the document named relative to its seed's folder.  It prints the
number of lines and their sha256, and writes the lines to OUT when given.

A change keeps every answer when a clone of its parent and the change
print the same two values.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import projstruct.cli  # noqa: E402
from conftest import bench_workloads  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 10
PER_DOCUMENT = (
    ["invariants"], ["linearizable"], ["symdim"], ["pencil"],
    ["pullback", "--scale=3"],
    ["pullback", "--psi=x + x^2/2", "--phi=x^2/3 - x^3"],
    ["geodesic", "--z=0"], ["geodesic", "--z=1/2"], ["geodesic", "--z=inf"],
)
MISSING_FIELD = "NOFIELD"
VERIFY = [["verify-paper", *form, "--order", str(order)]
          for order in (2, 3, 6, 12) for form in ([], ["--json"])]
_FIELD = re.compile(r"^\[field (\S+)\]", re.M)


def run(argv):
    """The listing line of one ``cli.dispatch`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = projstruct.cli.dispatch(argv)
    return json.dumps([argv, code, out.getvalue(), err.getvalue()])


def document_argvs(path):
    """The argv of each call on the document at ``path``."""
    names = _FIELD.findall(Path(path).read_text(encoding="utf-8"))
    return [argv + [path] for argv in PER_DOCUMENT + tuple(
        ["symcheck", "--field=" + name] for name in names + [MISSING_FIELD])]


def listing():
    workloads = bench_workloads()
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                folder = "seed-%d" % seed
                os.mkdir(folder)
                rounds = workloads.DocumentRounds(projstruct, seed, folder)
                for index in range(ROUNDS):
                    rounds.round(index)   # writes the round's documents
                    for k in range(len(workloads.DOCUMENT_ROUND)):
                        path = os.path.join(folder,
                                            "doc-%d-%d.ini" % (index, k))
                        lines += map(run, document_argvs(path))
        finally:
            os.chdir(cwd)
    return lines + [run(argv) for argv in VERIFY]


def main(argv):
    lines = listing()
    text = "".join(line + "\n" for line in lines)
    if len(argv) > 1:
        Path(argv[1]).write_text(text, encoding="utf-8")
    print("%d lines, sha256 %s"
          % (len(lines), hashlib.sha256(text.encode("utf-8")).hexdigest()))


if __name__ == "__main__":
    main(sys.argv)
