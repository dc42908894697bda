"""The benchmark's own tests: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(capsys, workload):
    first = bench(capsys, workload, 1)["metrics"]
    second = bench(capsys, workload, 1)["metrics"]
    counts = [k for k in first if k.endswith((".calls", "_per_iter"))]
    assert "autodiff.nodes_per_iter" in counts and len(counts) > 10
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if workload == "train-lft":
        assert 0.9 <= first["training.stage.coverage_frac"]["value"] < 1.0
        assert first["autodiff.nodes_per_iter"]["value"] > 0


def test_stage_split_names_its_spans():
    import layers

    spans = [["training.train_loop", 0.0, 10.0, -1, None],
             ["tasks.sample_episode", 0.0, 1.0, 0, None],
             ["training.lft_train_step", 1.0, 10.0, 0, None],
             ["training.lft_outer_loss", 1.0, 4.0, 2, None],
             ["training.pseudo_unseen_loss", 3.0, 4.0, 3, None],
             ["autodiff.backward", 4.0, 6.0, 2, False],
             ["rng.substream", 6.0, 6.5, 2, None],
             ["training.renamed_replay", 6.5, 8.0, 2, None],
             ["training.Adam.step", 8.0, 9.0, 2, None]]
    profile = layers.Profile()
    profile.fold(spans, 0, 0, 1)
    # The unknown span gets no stage rather than falling into one.
    assert profile.stage == {"sample": 1.0, "outer_fwd": 1.0, "meta_bwd": 2.0,
                             "replay": 0.5, "opt": 1.0}


def test_traced_run_leaves_no_wrapper_behind(capsys):
    fsdg = run.import_fsdg()
    import layers

    targets = layers.targets(fsdg)
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    bench(capsys, "train-lft", 1)
    after = [vars(owner)[attr] for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_tracer_restores_on_error():
    from tracer import Tracer

    class Box:
        @staticmethod
        def f():
            raise ValueError("inside")

    original = vars(Box)["f"]
    tracer = Tracer([(Box, "f", "box.f")])
    with pytest.raises(ValueError):
        with tracer:
            Box.f()
    assert vars(Box)["f"] is original
    spans, _, _ = tracer.drain()
    assert [s[0] for s in spans] == ["box.f"] and spans[0][2] >= spans[0][1]


def test_self_time_subtracts_direct_children():
    from tracer import self_times

    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 9.0, 0, None]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-ft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
