"""One sha256 over the bytes of a fixed list of CLI calls.

    python tools/output_digest.py

Run from the repository root; the package is imported from ./src and the
benchmark's op lists from ./perfbench/workloads.py, which is only read.
Two checkouts that print the same count and digest wrote the same bytes
for every call: a change meant to keep every output can be checked by
running this at the parent and at the change.

Each call goes through ``cheegerlab.cli.main`` in this process.  The
calls are
  * the ops of the first three cycles of the ``corpus`` and ``search``
    workloads and of the first cycle of ``genericity``, at seeds 1729, 2
    and 7;
  * ``gen`` for every family at its least n, ``verify`` on a graph and on
    a corpus, and ``perturb``, each with no options and with the default
    values spelled out;
  * each subcommand's help, at a fixed width, and a few refusals.
Per call the digest takes the argv (paths under the temporary directory
reduced to their base names), the exit code, stdout and stderr.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
os.environ["COLUMNS"] = "100"  # argparse wraps help and usage to this width

import cheegerlab  # noqa: E402
from cheegerlab import cli  # noqa: E402
from cheegerlab.graph import _FAMILIES, dumps_graph, generate, with_random_signature  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1729, 2, 7)
CYCLES = {"corpus": 3, "search": 3, "genericity": 1}


def _workload_calls(workdir: str):
    # One cycle's graph files at a time: a later cycle's reuse the names.
    for seed in SEEDS:
        for name, cycles in CYCLES.items():
            for c in range(cycles):
                for op in WORKLOADS[name].make_ops(seed, c, workdir):
                    yield op["argv"]


def _default_calls(workdir: str) -> list[list[str]]:
    g = generate("random_connected", 6, 11, w_low=0.5, w_high=2.0)
    graphs = {"g": g, "signed": with_random_signature(g, 3)}
    paths = {}
    for key, graph in graphs.items():
        paths[key] = os.path.join(workdir, key + ".json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(dumps_graph(graph))
    corpus = json.dumps({"families": ["random_connected", "cycle"], "sizes": [5], "count": 2})
    verify_defaults = ["--checks", "main,basics", "--eps", "0.05", "--seed", "1729"]
    calls = []
    for family, row in _FAMILIES.items():
        calls.append(["gen", "--family", family, "--n", str(row.min_n)])
        calls.append(["gen", "--family", family, "--n", str(row.min_n), "--a", "1.1", "--p", "0.3",
                      "--mu", "degree", "--seed", "1729"])
    calls += [
        ["gen", "--family", "random_connected", "--n", "7", "--p", "0.6", "--w-low", "1", "--w-high", "3"],
        ["gen", "--family", "path", "--n", "4", "--mu", "unit"],
        ["gen", "--family", "gn", "--n", "4", "--a", "2"],
    ]
    for path in paths.values():
        calls.append(["verify", path])
        calls.append(["verify", path, *verify_defaults])
        calls.append(["verify", path, "--checks", "main,nodal,nodal_cheeger,lower,basics"])
        calls.append(["perturb", path, "--trials", "3"])
        calls.append(["perturb", path, "--trials", "3", "--eps", "0.05", "--seed", "1729"])
    calls.append(["verify", "--corpus", corpus])
    calls.append(["verify", "--corpus", corpus, *verify_defaults])
    calls.append(["verify", "--corpus", corpus, "--format", "csv"])
    # Refusals: argparse's (exit 2 by SystemExit) and the library's.
    calls += [
        ["gen", "--n", "5"],
        ["gen", "--family", "nope", "--n", "5"],
        ["gen", "--family", "cycle", "--n", "2"],
        ["gen", "--family", "random_connected", "--n", "5", "--p", "2"],
        ["gen", "--family", "random_connected", "--n", "5", "--w-low", "3", "--w-high", "1"],
        ["gen", "--family", "path", "--n", "4", "--mu", "nope"],
        ["verify", paths["g"], "--eps", "-1"],
        ["verify", paths["g"], "--checks", "nope"],
        ["verify", paths["g"], "--corpus", corpus],
        ["verify", "--corpus", '{"p": 2}'],
        ["perturb", paths["g"], "--eps", "nan"],
        ["perturb", paths["g"], "--trials", "0"],
        ["perturb", os.path.join(workdir, "missing.json")],
    ]
    calls += [[command, "--help"] for command in ("analyze", "cheeger", "verify", "perturb", "gen")]
    return calls


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    where = os.path.dirname(os.path.dirname(os.path.abspath(cheegerlab.__file__)))
    if where != os.path.join(ROOT, "src"):
        print(f"cheegerlab imported from {where}, not from ./src", file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as workdir:
        prefix = workdir + os.sep
        for argv in itertools.chain(_workload_calls(workdir), _default_calls(workdir)):
            code, out, err = _run(argv)
            record = [[a.replace(prefix, "") for a in argv], code,
                      out.replace(prefix, ""), err.replace(prefix, "")]
            digest.update(json.dumps(record).encode("utf-8"))
            count += 1
    print(f"calls: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
