"""scripts/bench_pairs.py: alternating perfbench pairs of two checkouts."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_one_tiny_pair_of_a_tree_against_itself(capsys, tmp_path):
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", "train-ft", "--seed", "3",
                             "--pairs", "1", "--seconds", "1", "--tiny", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert len(lines) == 1 + len(metrics) + 1
    assert re.match(r"pair 0 \(parent first\): steps_per_s [\d.e+]+ -> [\d.e+]+, ", lines[0])
    assert lines[0].endswith("outputs equal; parent correct=True failed=0, "
                             "change correct=True failed=0")
    for name, line in zip(metrics, lines[1:]):
        assert re.fullmatch(rf"{name} \((higher|lower) is better\): parent median \S+ "
                            r"\(IQR 0\), change median \S+ \(\S+%\), change won [01] of 1", line)
    assert lines[-1] == "outputs equal in every pair: yes"
    record = json.loads(out.read_text())
    assert record["outputs_equal"] and len(record["pairs"]) == 1
    assert set(record["summary"]) == set(metrics)
    assert record["pairs"][0]["parent"]["outputs"]["oracle_sha256"] == \
        record["pairs"][0]["change"]["outputs"]["oracle_sha256"]
