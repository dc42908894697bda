"""SHA-256 digests of what training and evaluation write, for a refactor's
byte-identity check.

For each master seed and each config (every mode x head x optimizer, plus
lft with two inner steps and lft modulating only the second block), trains
a model on two synthetic domains, saves and reloads its checkpoint, and
evaluates the reloaded model on a third domain.  One digest covers the
checkpoint bytes, the training CSV rows and the per-trial accuracies of a
config; the last line, ``ALL``, covers every config's digest.  Run it at two
commits on the same machine: a change that keeps every output byte-identical
prints the same ``ALL`` line.

Example:
    python3 scripts/oracle_digest.py --seeds 1 5 67
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# One BLAS/OpenMP thread, as perfbench pins it, set before NumPy loads; a
# value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fsdg.checkpoint import load_checkpoint, save_checkpoint
from fsdg.config import format_config
from fsdg.evaluation import evaluate
from fsdg.heads import HEAD_KINDS
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain
from fsdg.training import MODES, OPTIMIZERS, TrainConfig, train_loop


def configs(seed: int, iterations: int, widths: tuple[int, ...]) -> list[tuple[str, TrainConfig]]:
    """(name, config) of every config the digest covers."""
    def cfg(mode, head, optimizer, **extra):
        return TrainConfig(mode=mode, head=head, optimizer=optimizer, alpha=0.005,
                           iterations=iterations, way=3, shot=2, query=4, seed=seed,
                           encoder_widths=widths, **extra)

    out = [(f"{mode}-{head}-{opt}", cfg(mode, head, opt))
           for mode in MODES for head in HEAD_KINDS for opt in OPTIMIZERS]
    out.append(("lft-proto-sgd-inner2", cfg("lft", "proto", "sgd", inner_steps=2)))
    flags = (False,) * (len(widths) - 1) + (True,)
    out.append(("lft-proto-adam-lastblock", cfg("lft", "proto", "adam", ft_blocks=flags)))
    return out


def config_digest(config: TrainConfig, seen, held, trials: int, workdir: str) -> str:
    """Digest of one config's checkpoint bytes, training CSV and accuracies."""
    log = io.StringIO()
    model, _ = train_loop(config, seen, log_file=log)
    path = os.path.join(workdir, "model.ckpt")
    save_checkpoint(model, format_config(config), path)
    with open(path, "rb") as fh:
        ckpt = fh.read()
    loaded, _ = load_checkpoint(path)
    report = evaluate(loaded, held, config.way, config.shot, trials=trials,
                      seed=config.seed, n_query=config.query)
    h = hashlib.sha256()
    for part in (ckpt, log.getvalue().encode("utf-8"),
                 np.asarray(report.accuracies, dtype="<f8").tobytes()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--iterations", type=int, default=30)
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--widths", type=int, nargs="+", default=[16, 8])
    args = ap.parse_args(argv)

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            domains = [generate_synthetic_domain(SyntheticDomainSpec(master_seed=seed, domain_seed=d))
                       for d in range(3)]
            for name, config in configs(seed, args.iterations, tuple(args.widths)):
                line = f"seed={seed} {name} {config_digest(config, domains[:2], domains[2], args.trials, workdir)}"
                total.update(line.encode("utf-8") + b"\n")
                print(line, flush=True)
    print(f"ALL {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
