"""scripts/oracle_digest.py: one digest per config and an ALL line."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "oracle_digest.py"
_spec = importlib.util.spec_from_file_location("oracle_digest", SCRIPT)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

TINY = ["--seeds", "1", "2", "--iterations", "2", "--trials", "2", "--widths", "8", "4"]


def test_configs_cover_every_mode_head_and_optimizer_and_two_lft_variants():
    configs = oracle.configs(seed=3, iterations=2, widths=(8, 4))
    names = [name for name, _ in configs]
    assert len(names) == len(set(names)) == 3 * 3 * 2 + 2
    extra = dict(configs[-2:])
    assert extra["lft-proto-sgd-inner2"].inner_steps == 2
    assert extra["lft-proto-adam-lastblock"].ft_blocks == (False, True)


def test_digests_repeat_and_differ_by_seed(capsys):
    runs = []
    for _ in range(2):
        assert oracle.main(TINY) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = runs[0]
    assert len(lines) == 2 * 20 + 1
    assert all(re.fullmatch(r"seed=[12] \S+ [0-9a-f]{64}", line) for line in lines[:-1])
    assert re.fullmatch(r"ALL [0-9a-f]{64}", lines[-1])
    by_seed = [[line.split()[-1] for line in lines if line.startswith(f"seed={s} ")] for s in (1, 2)]
    assert not set(by_seed[0]) & set(by_seed[1])
