"""scripts/ab_inprocess.py: an in-process A/B of two checkouts."""

import importlib.util
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"
_spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


def test_a_tiny_a_a_run_of_the_repo_against_itself(capsys, tmp_path):
    out = tmp_path / "ab.json"
    path = list(sys.path)
    assert ab_inprocess.main([str(ROOT), str(ROOT), "--workload", "train-ft", "--seed", "3",
                              "--rounds", "3", "--tiny", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"train-ft seed=3: median time ratio change/parent [\d.]+ "
                        r"\(IQR [\d.]+-[\d.]+, width [\d.]+\); change faster in [0-3] of 3 "
                        r"rounds; chunk [\d.]+ -> [\d.]+ ms", lines[0])
    assert lines[1] == "outputs equal in every round: yes"
    record = json.loads(out.read_text())
    assert record["summary"]["outputs_equal"] and len(record["rounds"]) == 3
    assert all(r["parent"] > 0 and r["change"] > 0 for r in record["rounds"])
    # both copies were imported under names of their own, and nothing else moved
    assert {"fsdg_parent.autodiff", "fsdg_change.autodiff"} <= set(sys.modules)
    assert sys.modules["fsdg_parent.autodiff"] is not sys.modules["fsdg_change.autodiff"]
    assert sys.path == path
    import fsdg
    assert Path(fsdg.__file__).resolve().parents[1] == ROOT / "src"
