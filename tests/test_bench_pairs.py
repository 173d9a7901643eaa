"""scripts/bench_pairs.py on two stub checkouts whose perfbench/run.py
prints a fixed record line and result line."""
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

STUB_RUN = """\
import json
print(json.dumps({"record": {"git_sha": %(sha)r}}))
print(json.dumps({"correct": True, "metrics": {"fits_per_s": {"value": %(fps)r}}}))
"""


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_checkout(root, sha, fps):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN % {"sha": sha, "fps": fps})
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "fits_per_s", "better": "higher"}]}))
    return root


def test_json_holds_every_run_and_the_summary(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", "aaa", 100.0)
    change = stub_checkout(tmp_path / "change", "bbb", 150.0)
    out = tmp_path / "bench.json"
    assert load_bench_pairs().main([str(parent), str(change), "--workload", "sim_logit",
                                    "--seconds", "1", "--pairs", "2", "--json", str(out)]) == 0
    assert "fits_per_s" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["seed"], doc["seconds"]) == ("sim_logit", 1, 1.0)
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change"]
    for pair in doc["pairs"]:
        assert pair["parent"] == {"record": {"git_sha": "aaa"}, "correct": True,
                                  "metrics": {"fits_per_s": 100.0}}
        assert pair["change"]["record"] == {"git_sha": "bbb"}
        assert pair["change"]["metrics"] == {"fits_per_s": 150.0}
    assert doc["summary"] == [{"metric": "fits_per_s", "pairs": 2, "wins": 2,
                               "parent_median": 100.0, "change_median": 150.0,
                               "parent_iqr": 0.0, "claim": True}]
