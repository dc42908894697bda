"""scripts/node_census.py: made tensors and backward walks per iteration."""

import importlib.util
import re
from pathlib import Path

from fsdg import autodiff as ad

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "node_census.py"
_spec = importlib.util.spec_from_file_location("node_census", SCRIPT)
node_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(node_census)

TINY = ["--seed", "3", "--iterations", "2", "--widths", "8", "4"]
# Tensors made per iteration and the walk of each backward.  They depend
# on the graph's shape only, so they equal those of the benchmark's 64-32
# encoder; a change that makes more nodes has to update them here.
TENSORS = {"lft": 227, "ft": 52}
WALKS = [25, 80, 25]  # lft's create_graph and meta-backward, then ft's backward


def test_census_prints_counts_per_iteration_and_walks_by_op(capsys):
    wrapped = {name: getattr(ad, name) for name in ("_fresh", "_adjoint", "_reaching_order", "backward")}
    assert node_census.main(TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {name: getattr(ad, name) for name in wrapped} == wrapped  # unwrapped again
    assert len(lines) == 5  # lft: a create_graph and a meta-backward; ft: one backward
    for header, mode in ((lines[0], "lft"), (lines[3], "ft")):
        counts = re.fullmatch(rf"train-{mode} seed=3: _fresh per iteration (\d+) (\d+)", header)
        assert counts and counts[1] == counts[2]  # the graph's shape repeats
        assert int(counts[1]) == TENSORS[mode]
    walks = [re.fullmatch(r"  backward (\d) \((create_graph|first order)\): walk (\d+): (.*)", line)
             for line in lines[1:3] + lines[4:]]
    assert all(walks)
    assert [(w[1], w[2]) for w in walks] == [("1", "create_graph"), ("2", "first order"),
                                             ("1", "first order")]
    assert [int(w[3]) for w in walks] == WALKS
    for w in walks:
        by_op = dict(part.rsplit(" ", 1) for part in w[4].split(", "))
        assert sum(map(int, by_op.values())) == int(w[3])
    # the meta-backward walks the adjoint nodes that the create_graph backward made
    meta = walks[1][4]
    for op in ("standardize'", "neg_sq_distances'", "softmax_cross_entropy'", "affine'", "linear'"):
        assert op in meta
    assert "matmul" not in meta and "transpose" not in meta  # linear's VJPs are adjoint nodes
    assert "'" not in walks[0][4] + walks[2][4]
