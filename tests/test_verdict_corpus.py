"""The same-output tool: a record compares equal to itself, and a changed
verdict, exit code or count makes `compare` exit 1, for `verdict`,
`proofcheck` and `partner` entries alike."""

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
        "near-ghz-equal", "dicke", "graph", "proofcheck", "partner"}
    assert tool.main(["compare", str(out), str(out)]) == 0
    assert "0 of" in capsys.readouterr().out
    first = {}
    for i, e in enumerate(entries):
        first.setdefault(e["family"], i)
    cases = [("haar", key) for key in ("determined", "exit", "anomaly", "k",
                                       "null_dim")]
    for family, key in cases + [("proofcheck", "exit"), ("partner", "exit")]:
        doc = json.loads(out.read_text())
        doc["entries"][first[family]][key] = -1
        changed = tmp_path / f"{family}-{key}.json"
        changed.write_text(json.dumps(doc))
        assert tool.main(["compare", str(out), str(changed)]) == 1


def test_proofcheck_and_partner_entries_hold_their_outputs(tmp_path):
    tool = load_tool()
    out = tmp_path / "a.json"
    assert tool.main(["dump", str(out), "--nmax", "3"]) == 0
    entries = json.loads(out.read_text())["entries"]
    proof = {e["id"]: e for e in entries if e["family"] == "proofcheck"}
    assert len(proof) == 2 * len(tool.PROOFCHECK_ARGS)
    for ident, e in proof.items():
        if ident.endswith(f"-{len(tool.PROOFCHECK_ARGS) - 1}"):
            assert (e["exit"], e["max_residual"]) == (2, None)
        else:
            assert e["exit"] == 0 and e["max_residual"] <= 1e-12
    partner = {e["id"]: e for e in entries if e["family"] == "partner"}
    assert len(partner) == 6
    for n in (2, 3):
        for kind in ("gapped", "equal"):
            e = partner[f"partner-{kind}-{n}"]
            assert e["exit"] == 0 and e["rdm_residual"] <= 1e-12
        assert partner[f"partner-equal-{n}"]["overlap"] <= 1e-12
        assert partner[f"partner-gapped-{n}"]["overlap"] >= 0.1
        assert partner[f"partner-unrelated-{n}"]["exit"] == 2
