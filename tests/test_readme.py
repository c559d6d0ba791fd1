"""The README states the contract: every check, every record name it emits,
and a quick start and CLI examples that run as written."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from cheegerlab import generate, with_random_signature
from cheegerlab.bounds import CHECK_NAMES, run_checks_on_graph
from cheegerlab.cli import main
from test_cli import src_env, strict_json

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def cli_examples() -> list[list[str]]:
    """The argument lists of the `cheegerlab` lines of the one `sh` block
    in the README's CLI section, continuations joined and comments dropped."""
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S)
    text = block.replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [args[1:] for args in commands if args and args[0] == "cheegerlab"]


def emitted_record_names() -> set[str]:
    """The names of every record the checks emit, skipped ones included,
    over an unsigned graph, a signed one and P3 x K2."""
    unsigned = generate("random_connected", 6, seed=3)
    signed = with_random_signature(unsigned, 5)
    assert signed.is_signed()
    p3 = generate("path", 3, mu="unit")
    k2 = generate("path", 2, mu="unit", w_low=0.05)
    names = set()
    for g, checks, pair in ((unsigned, CHECK_NAMES, None), (signed, CHECK_NAMES, None),
                            (p3, ("product",), k2)):
        rows, errors = run_checks_on_graph("g", g, checks, 0.05, 11, pair, 2)
        assert errors == []
        names |= {record.name for _, record in rows}
    return names


def test_every_record_name_is_documented():
    names = emitted_record_names()
    # Every kind of record, so none escapes the README by not being made.
    assert {"main", "main_signed", "monotonic", "monotonic_signed", "eq1_left", "cheeger_upper",
            "lower_eta", "lower_gap", "nodal_lower", "nodal_strong_upper", "nodal_weak_upper",
            "nodal_cheeger", "product"} <= names
    assert [name for name in sorted(names) if f"`{name}`" not in README] == []


@pytest.mark.parametrize("check", [*CHECK_NAMES, "product"])
def test_every_check_is_documented(check):
    assert f"| `{check}` |" in README


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # In order, in an empty directory: each exits 0 and writes strict JSON (or CSV).
    examples = cli_examples()
    assert {args[0] for args in examples} == {"gen", "analyze", "cheeger", "perturb", "verify"}
    monkeypatch.chdir(tmp_path)
    for args in examples:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        if "-o" in args:
            out = (tmp_path / args[args.index("-o") + 1]).read_text(encoding="utf-8")
        if "csv" not in args:
            strict_json(out)


def test_quick_start_runs(tmp_path):
    [block] = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
    result = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=src_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_console_script_is_cli_main():
    # Read as text: tomllib is not in Python 3.10, which the package supports.
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^\[project\.scripts\]\n(.*)$", text, flags=re.M) == ['cheegerlab = "cheegerlab.cli:main"']
