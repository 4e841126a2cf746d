"""The reachability trace runs, and tells library-only code from the code
that a command enters."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def test_reach_lists_the_search_and_not_the_verdict():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = tool.unreached(nmax=3)
    assert "rdmkit.compat.search_max_tmax" in names
    assert "rdmkit.compat.determinedness" not in names
    assert "rdmkit.cli.main" not in names
