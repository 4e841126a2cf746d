"""The same-output tool: a record compares equal to itself, and a changed
verdict, exit code or count makes `compare` exit 1."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_corpus.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("verdict_corpus", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_a_record_compares_equal_to_itself(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "a.json"
    assert tool.main(["dump", str(out), "--nmax", "3"]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert {e["family"] for e in entries} >= {
        "haar", "w", "product", "ghz-gapped", "ghz-equal", "near-ghz",
        "dicke", "graph"}
    assert tool.main(["compare", str(out), str(out)]) == 0
    assert "0 of" in capsys.readouterr().out
    for key in ("determined", "exit", "anomaly", "k", "null_dim"):
        doc = json.loads(out.read_text())
        doc["entries"][0][key] = -1
        changed = tmp_path / f"{key}.json"
        changed.write_text(json.dumps(doc))
        assert tool.main(["compare", str(out), str(changed)]) == 1
