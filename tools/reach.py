"""List the rdmkit functions that no command enters.

    python3 tools/reach.py [--nmax N]

Runs, under `sys.setprofile`, everything a user reaches through the
command line: `tools/verdict_corpus.py dump` (`verdict` on its whole
corpus, `proofcheck` and `partner`, at n = 2..nmax) plus one `rdm`, one
`sweep` and one `family` call.  Then prints, one per line as
`module.qualname`, every function and method defined in src/rdmkit/*.py
(properties included, nested functions not) whose code never ran.  A name
listed here is library code that no command path needs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_corpus_tool():
    spec = importlib.util.spec_from_file_location(
        "verdict_corpus", ROOT / "tools" / "verdict_corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def defined_functions(module):
    """{qualified name: code object} of every function defined in module."""
    here = module.__file__
    candidates = []
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                if isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                candidates.append(attr)
        else:
            candidates.append(obj)
    out = {}
    for obj in candidates:
        fn = inspect.unwrap(obj)
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename == here:
            out[f"{module.__name__}.{fn.__qualname__}"] = code
    return out


def run_commands(nmax: int) -> None:
    """Every command once or more, with stdout and stderr discarded."""
    import rdmkit
    from rdmkit import cli

    tool = _load_corpus_tool()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        tool.dump(os.path.join(tmp, "corpus.json"), str(ROOT / "src"), nmax,
                  2021)
        state = os.path.join(tmp, "state.json")
        cli.save_state(state, rdmkit.haar_random_state(3, 1))
        cli.main(["rdm", state])
        cli.main(["sweep", "--n", "3", "--samples", "2"])
        cli.main(["family", "--n", "3", "--alpha", "0.8", "--beta", "0.6",
                  "--out", os.path.join(tmp, "omega.json")])


def unreached(nmax: int) -> list[str]:
    """Sorted names of the rdmkit functions that no command entered."""
    sys.path.insert(0, str(ROOT / "src"))
    functions = {}
    for path in sorted((ROOT / "src" / "rdmkit").glob("*.py")):
        name = "rdmkit" if path.stem == "__init__" else f"rdmkit.{path.stem}"
        functions.update(defined_functions(importlib.import_module(name)))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_commands(nmax)
    finally:
        sys.setprofile(None)
    return sorted(name for name, code in functions.items()
                  if code not in entered)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--nmax", type=int, default=6)
    args = ap.parse_args(argv)
    for name in unreached(args.nmax):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
