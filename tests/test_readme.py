"""The README's command-line examples run as written."""

import importlib
import re
import shlex
from pathlib import Path

import numpy as np

from rdmkit.cli import main, save_state
from rdmkit.ghz import make_ghz
from rdmkit.qstate import PureState

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of each `rdmkit ...` line in the block under "## Command line".

    Optional `[...]` groups and trailing comments are dropped.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    out = []
    for line in block.splitlines():
        line = re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]).strip()
        if line.startswith("rdmkit "):
            out.append(shlex.split(line)[1:])
    return out


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "rdm", "verdict", "partner", "sweep", "proofcheck", "family"}
    monkeypatch.chdir(tmp_path)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    save_state("STATE.json", PureState(3, w))
    save_state("PSI.json", make_ghz(3, 0.8, 0.6))
    # family writes the OMEGA.json that partner reads
    commands.sort(key=lambda argv: argv[0] != "family")
    codes = {}
    for argv in commands:
        codes[" ".join(argv)] = main(argv)
        capsys.readouterr()
    assert codes == {line: 0 for line in codes}


def test_library_overview_names_exist():
    # every backticked identifier in a row is an attribute of its module
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `rdmkit.")]
    assert len(rows) == 6
    for module_cell, contents in rows:
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = re.findall(r"`([A-Za-z_]\w*)`", contents)
        assert names, module_cell
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
