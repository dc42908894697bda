"""Command line interface.

Subcommands cover the full desk workflow: generate synthetic domains,
split classes, pretrain an encoder, train any of the three modes, and
evaluate or inspect the result.  Exit codes: 0 success, 1 usage error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

# One BLAS/OpenMP thread, set before the package loads NumPy: the arrays
# are tiny, and BLAS threads only add overhead to them.  A value already
# in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .checkpoint import load_checkpoint, save_checkpoint
from .config import format_config, load_config
from .errors import ConfigError
from .evaluation import (
    cross_domain_matrix,
    emit_feature_projection,
    evaluate,
    write_eval_csv,
    write_matrix_csv,
    write_projection_csv,
    write_quartile_csv,
)
from .rng import RngStream
from .tasks import (
    SyntheticDomainSpec,
    generate_synthetic_domain,
    load_domain,
    save_domain,
    split_classes,
)
from .training import ModelState, TrainConfig, build_model, pretrain_encoder, train_loop


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fsdg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen-domain", help="generate one synthetic domain")
    common(p)
    p.add_argument("--domain-seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--latent", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--warp", type=float, default=1.0)

    p = sub.add_parser("split", help="partition a domain's classes into train/val/test files")
    common(p)
    p.add_argument("domain", help="domain file (.csv or binary)")
    p.add_argument("--fractions", default="0.5,0.25,0.25",
                   help="train,val,test fractions summing to 1")

    p = sub.add_parser("pretrain", help="supervised warm start for the encoder")
    common(p)
    p.add_argument("domain")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)

    p = sub.add_parser("train", help="episodic training (baseline, ft, or lft)")
    common(p)
    p.add_argument("--seen", nargs="+", required=True, help="seen-domain files")
    p.add_argument("--mode", choices=("baseline", "ft", "lft"))
    p.add_argument("--iterations", type=int)
    p.add_argument("--init", help="checkpoint to start from (e.g. a pretrained encoder)")
    p.add_argument("--log", help="write a per-iteration loss CSV here")

    p = sub.add_parser("eval", help="episodic evaluation of a checkpoint")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--way", type=int, help="classes per episode (default: config, else 5)")
    p.add_argument("--shot", type=int, help="support samples per class (default: config, else 5)")
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("cross-eval", help="evaluate one checkpoint across domains")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--domains", nargs="+", required=True)
    p.add_argument("--way", type=int, help="classes per episode (default: config, else 5)")
    p.add_argument("--shot", type=int, help="support samples per class (default: config, else 5)")
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("stats-ft", help="quartiles of the modulation spreads")
    common(p)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("stats-projection", help="2-d projection of embeddings per domain")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--domains", nargs="+", required=True)
    p.add_argument("--samples", type=int, default=100)

    return parser


def _config_from_args(args) -> TrainConfig:
    """The config file, or the defaults, with the command-line flags that a
    subcommand has (seed, mode, iterations) taking precedence."""
    config = load_config(args.config) if args.config else TrainConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "mode", None):
        updates["mode"] = args.mode
    if getattr(args, "iterations", None) is not None:
        updates["iterations"] = args.iterations
    return replace(config, **updates) if updates else config


def _cmd_gen_domain(args) -> int:
    seed = _config_from_args(args).seed
    spec = SyntheticDomainSpec(
        master_seed=seed, domain_seed=args.domain_seed, n_classes=args.classes,
        dim=args.dim, samples_per_class=args.per_class, latent_dim=args.latent,
        noise_sigma=args.noise, warp_strength=args.warp,
    )
    domain = generate_synthetic_domain(spec)
    save_domain(domain, args.out)
    print(f"wrote {domain.n_classes} classes x {args.per_class} samples ({domain.dim} dims) to {args.out}")
    return 0


def _split_path(base: str, tag: str) -> str:
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}.{tag}.{ext}"
    return f"{base}.{tag}"


def _cmd_split(args) -> int:
    fractions = tuple(float(tok) for tok in args.fractions.split(","))
    if len(fractions) != 3:
        raise ConfigError("split: --fractions needs exactly three values")
    domain = load_domain(args.domain)
    seed = _config_from_args(args).seed
    parts = split_classes(domain, fractions, RngStream(seed).substream("class-split"))
    for tag, part in parts.items():
        path = _split_path(args.out, tag)
        save_domain(part, path)
        print(f"{tag}: {part.n_classes} classes -> {path}")
    return 0


def _cmd_pretrain(args) -> int:
    config = _config_from_args(args)
    domain = load_domain(args.domain)
    rng = RngStream(config.seed)
    model = build_model(config, domain.dim, rng)
    encoder, losses = pretrain_encoder(
        model.encoder, domain, args.epochs, args.batch_size, config.alpha,
        rng.substream("pretrain"),
    )
    save_checkpoint(ModelState(config.head, encoder, model.head, None),
                    format_config(config), args.out)
    print(f"pretrained {args.epochs} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}, wrote {args.out}")
    return 0


def _check_init_layout(loaded: ModelState, config: TrainConfig) -> None:
    """The new checkpoint carries the run config, so it must describe the
    encoder layout that ``--init`` loads."""
    enc = loaded.encoder.config
    if (enc.block_widths, enc.ft_blocks) != (config.encoder_widths, config.ft_blocks):
        raise ConfigError(
            f"train: the --init checkpoint has encoder widths {enc.block_widths} and FT "
            f"blocks {enc.ft_blocks}, but the config has encoder widths "
            f"{config.encoder_widths} and FT blocks {config.ft_blocks}"
        )


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    domains = [load_domain(p) for p in args.seen]
    init = None
    if args.init:
        loaded, _ = load_checkpoint(args.init)
        _check_init_layout(loaded, config)
        init = build_model(config, domains[0].dim, RngStream(config.seed),
                           encoder=loaded.encoder)
        if loaded.head is not None and config.head == "relation":
            init = ModelState(config.head, init.encoder, loaded.head, init.ft)
        if loaded.ft is not None and config.mode in ("ft", "lft"):
            init = ModelState(config.head, init.encoder, init.head, loaded.ft)
    log_file = open(args.log, "w") if args.log else None
    try:
        model, rows = train_loop(config, domains, init=init, log_file=log_file)
    finally:
        if log_file is not None:
            log_file.close()
    save_checkpoint(model, format_config(config), args.out)
    last = rows[-1].loss_ps if rows else float("nan")
    print(f"trained mode={config.mode} for {config.iterations} iterations "
          f"(final episode loss {last:.4f}), wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    way = args.way if args.way is not None else config.way
    shot = args.shot if args.shot is not None else config.shot
    model, _ = load_checkpoint(args.ckpt)
    domain = load_domain(args.domain)
    report = evaluate(model, domain, way, shot, trials=args.trials, seed=config.seed)
    write_eval_csv(report, args.out)
    print(f"{domain.name}: mean={report.mean:.6f} ci95={report.ci95:.6f} "
          f"({way}-way {shot}-shot, {args.trials} trials, "
          f"{report.seconds:.3f} s, {report.trials_per_s:.1f} trials/s)")
    return 0


def _cmd_cross_eval(args) -> int:
    config = _config_from_args(args)
    way = args.way if args.way is not None else config.way
    shot = args.shot if args.shot is not None else config.shot
    model, _ = load_checkpoint(args.ckpt)
    domains = [load_domain(p) for p in args.domains]
    reports = cross_domain_matrix(model, domains, way, shot,
                                  trials=args.trials, seed=config.seed)
    write_matrix_csv(reports, args.out)
    for r in reports:
        print(f"{r.domain}: mean={r.mean:.6f} ci95={r.ci95:.6f}")
    return 0


def _cmd_stats_ft(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    if model.ft is None:
        raise ConfigError("stats-ft: checkpoint has no modulation parameters")
    write_quartile_csv(model.ft, args.out)
    print(f"wrote quartiles for {model.ft.n_layers} modulated blocks to {args.out}")
    return 0


def _cmd_stats_projection(args) -> int:
    seed = _config_from_args(args).seed
    model, _ = load_checkpoint(args.ckpt)
    domains = [load_domain(p) for p in args.domains]
    rows = emit_feature_projection(model, domains, args.samples, seed=seed)
    write_projection_csv(rows, args.out)
    print(f"wrote {len(rows)} projected embeddings to {args.out}")
    return 0


_COMMANDS = {
    "gen-domain": _cmd_gen_domain,
    "split": _cmd_split,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cross-eval": _cmd_cross_eval,
    "stats-ft": _cmd_stats_ft,
    "stats-projection": _cmd_stats_projection,
}


def run_cli(argv: list[str]) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help lands here with code 0
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
