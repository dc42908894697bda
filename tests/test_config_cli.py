import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsdg import config as cfgmod
from fsdg import tasks
from fsdg.checkpoint import load_checkpoint
from fsdg.cli import run_cli
from fsdg.errors import ConfigError, ParseError
from fsdg.training import TrainConfig

TINY_CONFIG = """\
# episodic run, small sizes for tests
mode = baseline
head = proto
alpha = 0.05
iterations = 4
way = 3
shot = 2
query = 3
seed = 9
encoder_widths = 8,4
"""


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    dom_a = tmp_path / "dom_a.bin"
    dom_b = tmp_path / "dom_b.bin"
    for path, dseed in ((dom_a, 0), (dom_b, 1)):
        code = run_cli([
            "gen-domain", "--out", str(path), "--seed", "5",
            "--domain-seed", str(dseed), "--classes", "6", "--dim", "5",
            "--per-class", "20", "--latent", "3",
        ])
        assert code == 0
    return tmp_path


# ---------------------------------------------------------------------------
# config text


def test_parse_minimal_config_fills_defaults():
    cfg = cfgmod.parse_config_text("mode = ft\n")
    assert cfg.mode == "ft"
    assert cfg.head == TrainConfig().head
    assert cfg.iterations == TrainConfig().iterations


def test_parse_full_round_trip():
    cfg = TrainConfig(mode="lft", head="relation", alpha=0.025, iterations=123,
                      inner_steps=2, ft_reg_weight=3e-7, way=7, shot=1, query=9,
                      seed=42, optimizer="adam", encoder_widths=(12, 6, 3),
                      ft_blocks=(True, False, True))
    back = cfgmod.parse_config_text(cfgmod.format_config(cfg))
    assert back == cfg


def test_parse_ignores_comments_and_blank_lines():
    text = "\n# comment\nmode = ft   # trailing comment\n\n   \nseed = 4\n"
    cfg = cfgmod.parse_config_text(text)
    assert cfg.mode == "ft"
    assert cfg.seed == 4


def test_parse_list_values():
    cfg = cfgmod.parse_config_text("encoder_widths = 32, 16\nft_blocks = 1 , 0\n")
    assert cfg.encoder_widths == (32, 16)
    assert cfg.ft_blocks == (True, False)
    cfg2 = cfgmod.parse_config_text("ft_blocks = true,false\nencoder_widths = 8,8\n")
    assert cfg2.ft_blocks == (True, False)


def test_parse_error_taxonomy():
    with pytest.raises(ConfigError, match="unknown key"):
        cfgmod.parse_config_text("modee = ft\n")
    with pytest.raises(ParseError, match="line 1"):
        cfgmod.parse_config_text("mode ft\n")
    with pytest.raises(ParseError):
        cfgmod.parse_config_text("iterations = many\n")
    with pytest.raises(ParseError):
        cfgmod.parse_config_text("alpha = fast\n")
    with pytest.raises(ParseError):
        cfgmod.parse_config_text("ft_blocks = maybe\n")
    with pytest.raises(ParseError):
        cfgmod.parse_config_text("encoder_widths = 8;4\n")
    with pytest.raises(ConfigError):  # parses fine, violates invariants
        cfgmod.parse_config_text("mode = warpdrive\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    cfg = cfgmod.load_config(str(path))
    assert cfg.way == 3
    assert cfg.encoder_widths == (8, 4)
    assert cfg.seed == 9


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_and_flag_are_usage_errors(capsys):
    assert run_cli(["transmogrify"]) == 1
    assert run_cli(["gen-domain", "--out", "x", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "gen-domain" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["eval", "--out", "x.csv", "--ckpt", "m.ckpt"]) == 1


def test_runtime_failure_exits_two(tmp_path, capsys):
    code = run_cli(["eval", "--out", str(tmp_path / "r.csv"),
                    "--ckpt", str(tmp_path / "missing.ckpt"),
                    "--domain", str(tmp_path / "missing.bin")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# domain generation and splitting


def test_gen_domain_binary_and_csv(workspace, tmp_path):
    base = tasks.load_domain(str(workspace / "dom_a.bin"))
    assert base.n_classes == 6
    assert base.dim == 5
    assert base.classes[0].shape == (20, 5)

    csv_path = tmp_path / "dom.csv"
    code = run_cli(["gen-domain", "--out", str(csv_path), "--seed", "5",
                    "--domain-seed", "0", "--classes", "6", "--dim", "5",
                    "--per-class", "20", "--latent", "3"])
    assert code == 0
    from_csv = tasks.load_domain(str(csv_path))
    for cid in base.class_ids():
        assert np.array_equal(from_csv.classes[cid], base.classes[cid])


def test_gen_domain_is_seed_deterministic(workspace, tmp_path):
    out = tmp_path / "again.bin"
    run_cli(["gen-domain", "--out", str(out), "--seed", "5", "--domain-seed", "0",
             "--classes", "6", "--dim", "5", "--per-class", "20", "--latent", "3"])
    assert open(out, "rb").read() == open(workspace / "dom_a.bin", "rb").read()


def test_split_writes_three_files(workspace, capsys):
    out = workspace / "parts.bin"
    code = run_cli(["split", str(workspace / "dom_a.bin"), "--out", str(out),
                    "--fractions", "0.5,0.25,0.25", "--seed", "3"])
    assert code == 0
    sizes = {}
    for tag in ("train", "val", "test"):
        part = tasks.load_domain(str(workspace / f"parts.{tag}.bin"))
        sizes[tag] = part.n_classes
    # round(1.5) rounds to even, so val and test each take 2 of 6 classes
    assert sizes == {"train": 2, "val": 2, "test": 2}
    ids = set()
    for tag in ("train", "val", "test"):
        part = tasks.load_domain(str(workspace / f"parts.{tag}.bin"))
        ids |= set(part.class_ids())
    assert ids == set(range(6))


def test_split_bad_fractions_exits_two(workspace, capsys):
    code = run_cli(["split", str(workspace / "dom_a.bin"),
                    "--out", str(workspace / "p.bin"), "--fractions", "0.5,0.5"])
    assert code == 2


# ---------------------------------------------------------------------------
# training, evaluation, and stats commands


def train_ckpt(workspace, mode="baseline", extra=()):
    out = workspace / f"{mode}.ckpt"
    args = ["train", "--config", str(workspace / "run.cfg"),
            "--seen", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin"),
            "--out", str(out), "--mode", mode, *extra]
    assert run_cli(args) == 0
    return out


def test_train_writes_checkpoint_and_log(workspace, capsys):
    log = workspace / "train.log.csv"
    out = train_ckpt(workspace, extra=("--log", str(log)))
    stdout = capsys.readouterr().out
    assert "trained mode=baseline" in stdout
    model, text = load_checkpoint(str(out))
    assert model.ft is None
    assert "mode = baseline" in text
    lines = log.read_text().splitlines()
    assert lines[0] == "iter,mode,loss_ps,loss_pu"
    assert len(lines) == 5  # header + 4 iterations


def test_train_each_mode_round_trips(workspace):
    for mode in ("ft", "lft"):
        out = train_ckpt(workspace, mode=mode)
        model, text = load_checkpoint(str(out))
        assert model.ft is not None
        assert f"mode = {mode}" in text


def test_train_single_domain_lft_warns_but_succeeds(workspace, caplog):
    out = workspace / "single.ckpt"
    with caplog.at_level(logging.WARNING, logger="fsdg.training"):
        code = run_cli(["train", "--config", str(workspace / "run.cfg"),
                        "--seen", str(workspace / "dom_a.bin"),
                        "--out", str(out), "--mode", "lft"])
    assert code == 0
    assert any("single seen domain" in r.getMessage() for r in caplog.records)


def test_train_seed_flag_overrides_config(workspace):
    a = workspace / "seed_a.ckpt"
    b = workspace / "seed_b.ckpt"
    base = ["train", "--config", str(workspace / "run.cfg"),
            "--seen", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin")]
    assert run_cli(base + ["--out", str(a), "--seed", "1"]) == 0
    assert run_cli(base + ["--out", str(b), "--seed", "2"]) == 0
    ma, _ = load_checkpoint(str(a))
    mb, _ = load_checkpoint(str(b))
    assert not np.array_equal(ma.encoder.blocks[0].weight.data,
                              mb.encoder.blocks[0].weight.data)


def test_eval_command_writes_per_trial_csv(workspace, capsys):
    ckpt = train_ckpt(workspace)
    out = workspace / "eval.csv"
    code = run_cli(["eval", "--ckpt", str(ckpt), "--domain", str(workspace / "dom_b.bin"),
                    "--out", str(out), "--way", "3", "--shot", "2", "--trials", "12",
                    "--seed", "4"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean=" in stdout and "ci95=" in stdout
    assert re.search(r"12 trials, \d+\.\d{3} s, \d+\.\d trials/s\)$", stdout.strip())
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,accuracy"
    assert len(lines) == 14  # header + 12 trials + summary comment
    assert lines[-1].startswith("# mean=")


def test_cross_eval_command(workspace):
    ckpt = train_ckpt(workspace)
    out = workspace / "matrix.csv"
    code = run_cli(["cross-eval", "--ckpt", str(ckpt),
                    "--domains", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin"),
                    "--out", str(out), "--way", "3", "--shot", "2", "--trials", "6"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "domain,way,shot,trials,mean,ci95"
    assert len(lines) == 3
    assert lines[1].split(",")[1:4] == ["3", "2", "6"]


def test_stats_ft_requires_modulation(workspace, capsys):
    base = train_ckpt(workspace)
    code = run_cli(["stats-ft", "--ckpt", str(base), "--out", str(workspace / "q.csv")])
    assert code == 2
    assert "no modulation" in capsys.readouterr().err

    lft = train_ckpt(workspace, mode="lft")
    out = workspace / "quartiles.csv"
    assert run_cli(["stats-ft", "--ckpt", str(lft), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "layer,gamma_q1,gamma_med,gamma_q3,beta_q1,beta_med,beta_q3"
    assert len(lines) == 3  # two modulated blocks


def test_stats_projection_command(workspace):
    ckpt = train_ckpt(workspace)
    out = workspace / "proj.csv"
    code = run_cli(["stats-projection", "--ckpt", str(ckpt),
                    "--domains", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin"),
                    "--out", str(out), "--samples", "10"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "domain,class_id,pc1,pc2"
    assert len(lines) == 21


def test_pretrain_then_train_with_init(workspace, capsys):
    pre = workspace / "pre.ckpt"
    code = run_cli(["pretrain", str(workspace / "dom_a.bin"),
                    "--config", str(workspace / "run.cfg"),
                    "--out", str(pre), "--epochs", "2", "--batch-size", "8"])
    assert code == 0
    assert "pretrained 2 epochs" in capsys.readouterr().out
    model, _ = load_checkpoint(str(pre))
    assert model.ft is None

    out = workspace / "warm.ckpt"
    code = run_cli(["train", "--config", str(workspace / "run.cfg"),
                    "--seen", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin"),
                    "--out", str(out), "--mode", "ft", "--init", str(pre)])
    assert code == 0
    warm, _ = load_checkpoint(str(out))
    assert warm.ft is not None


def test_train_with_init_from_lft_model_flagging_no_block(workspace):
    cfg = workspace / "noft.cfg"
    cfg.write_text(TINY_CONFIG + "ft_blocks = 0,0\n")
    first = workspace / "first.ckpt"
    args = ["train", "--config", str(cfg), "--mode", "lft",
            "--seen", str(workspace / "dom_a.bin"), str(workspace / "dom_b.bin")]
    assert run_cli([*args, "--out", str(first)]) == 0
    second = workspace / "second.ckpt"
    assert run_cli([*args, "--out", str(second), "--init", str(first)]) == 0
    model, _ = load_checkpoint(str(second))
    assert model.encoder.config.ft_blocks == (False, False)
    assert model.ft is not None and model.ft.n_layers == 0
    assert not [n for n in model.param_store().names() if n.startswith("ft.")]


def test_train_rejects_init_with_another_encoder_layout(workspace, capsys):
    pre = workspace / "pre.ckpt"  # default config: encoder_widths = 32,16
    assert run_cli(["pretrain", str(workspace / "dom_a.bin"), "--out", str(pre),
                    "--epochs", "1", "--batch-size", "8"]) == 0
    cfg = workspace / "small.cfg"
    cfg.write_text(TINY_CONFIG + "ft_blocks = 0,1\n")
    out = workspace / "warm.ckpt"
    capsys.readouterr()
    code = run_cli(["train", "--config", str(cfg), "--seen", str(workspace / "dom_a.bin"),
                    "--out", str(out), "--mode", "ft", "--init", str(pre)])
    assert code == 2
    err = capsys.readouterr().err
    assert "encoder widths (32, 16) and FT blocks (True, True)" in err
    assert "encoder widths (8, 4) and FT blocks (False, True)" in err
    assert not out.exists()


def test_train_missing_init_checkpoint_exits_two(workspace, capsys):
    code = run_cli(["train", "--config", str(workspace / "run.cfg"),
                    "--seen", str(workspace / "dom_a.bin"),
                    "--out", str(workspace / "x.ckpt"),
                    "--init", str(workspace / "nope.ckpt")])
    assert code == 2


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_exit_codes(tmp_path):
    ok = subprocess.run([sys.executable, "-m", "fsdg", "--help"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert "gen-domain" in ok.stdout

    bad = subprocess.run([sys.executable, "-m", "fsdg", "frobnicate"],
                         capture_output=True, text=True)
    assert bad.returncode == 1
    assert "usage error" in bad.stderr

    gen = subprocess.run(
        [sys.executable, "-m", "fsdg", "gen-domain", "--out",
         str(tmp_path / "d.bin"), "--classes", "4", "--dim", "3",
         "--per-class", "6", "--latent", "2"],
        capture_output=True, text=True)
    assert gen.returncode == 0
    assert (tmp_path / "d.bin").exists()


# ---------------------------------------------------------------------------
# imports and BLAS threads, each in a fresh interpreter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _fresh_python(code: str, **env_vars: str) -> str:
    """stdout of ``code`` in a new interpreter that imports this fsdg and
    starts with only ``env_vars`` of the BLAS thread variables set."""
    src = str(Path(cfgmod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_package_root_does_not_load_numpy():
    assert _fresh_python("import sys, fsdg; print('numpy' in sys.modules)") == "False"


def test_cli_pins_blas_threads_unless_set():
    code = f"import os, fsdg.cli; print(*(os.environ[v] for v in {THREAD_VARS!r}))"
    assert _fresh_python(code).split() == ["1"] * 6
    got = dict(zip(THREAD_VARS, _fresh_python(code, OPENBLAS_NUM_THREADS="3").split()))
    assert got == {v: "3" if v == "OPENBLAS_NUM_THREADS" else "1" for v in THREAD_VARS}
