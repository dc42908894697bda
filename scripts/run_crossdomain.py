"""Leave-one-out cross-domain comparison on the synthetic testbed.

Trains the three training modes (baseline, fixed feature modulation, learned
feature modulation) on four of five synthetic domains and evaluates each on
the held-out fifth, rotating the held-out domain across master seeds.  Prints
one row per (seed, mode), a final mean table, and the paired differences
between modes with two-sided 95% t-intervals: over seeds, and over trials
(every mode of a seed is evaluated on the same episodes).

Example:
    python3 scripts/run_crossdomain.py --seeds 11 12 13 14 15 --trials 1000
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fsdg.threads import pin_blas_threads

pin_blas_threads()  # one BLAS thread, as perfbench pins it, before NumPy loads

import numpy as np

from fsdg.evaluation import evaluate
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain
from fsdg.training import TrainConfig, train_loop

MODES = ("baseline", "ft", "lft")
PAIRS = (("lft", "baseline"), ("lft", "ft"), ("ft", "baseline"))

# Two-sided 95% quantiles of Student's t by degrees of freedom.  A df
# between two rows uses the smaller df, whose quantile is the larger.
T_975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
         8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131, 20: 2.086,
         30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980, 1000: 1.962}


def t_interval(values) -> tuple[float, float]:
    """Mean and half-width of the two-sided 95% t-interval of the mean."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise ValueError("t_interval: needs at least two values")
    df = x.size - 1
    t = T_975[max(k for k in T_975 if k <= df)]
    return float(np.mean(x)), float(t * np.std(x, ddof=1) / np.sqrt(x.size))


def build_testbed(master_seed: int, n_domains: int, latent_dim: int,
                  noise_sigma: float, warp_strength: float):
    specs = [
        SyntheticDomainSpec(master_seed=master_seed, domain_seed=d,
                            latent_dim=latent_dim, noise_sigma=noise_sigma,
                            warp_strength=warp_strength)
        for d in range(n_domains)
    ]
    return [generate_synthetic_domain(s) for s in specs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13, 14, 15],
                    help="master seeds; seed i holds out domain i mod n-domains")
    ap.add_argument("--n-domains", type=int, default=5)
    ap.add_argument("--latent-dim", type=int, default=4)
    ap.add_argument("--noise-sigma", type=float, default=0.3)
    ap.add_argument("--warp-strength", type=float, default=4.5)
    ap.add_argument("--alpha", type=float, default=0.005)
    ap.add_argument("--optimizer", choices=("sgd", "adam"), default="adam")
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--widths", type=int, nargs="+", default=[64, 32])
    ap.add_argument("--way", type=int, default=5)
    ap.add_argument("--shot", type=int, default=5)
    ap.add_argument("--inner-steps", type=int, default=1,
                    help="inner SGD steps of each lft meta-update")
    ap.add_argument("--trials", type=int, default=1000)
    args = ap.parse_args(argv)

    per_mode: dict[str, list[float]] = {m: [] for m in MODES}
    per_trial: dict[str, list[float]] = {m: [] for m in MODES}
    for i, master in enumerate(args.seeds):
        domains = build_testbed(master, args.n_domains, args.latent_dim,
                                args.noise_sigma, args.warp_strength)
        held_idx = i % args.n_domains
        held = domains[held_idx]
        seen = [d for j, d in enumerate(domains) if j != held_idx]
        for mode in MODES:
            cfg = TrainConfig(mode=mode, head="proto", alpha=args.alpha,
                              optimizer=args.optimizer,
                              iterations=args.iterations, way=args.way,
                              shot=args.shot, seed=master,
                              encoder_widths=tuple(args.widths),
                              inner_steps=args.inner_steps)
            t0 = time.time()
            model, _ = train_loop(cfg, seen)
            report = evaluate(model, held, args.way, args.shot,
                              trials=args.trials, seed=master)
            per_mode[mode].append(report.mean)
            per_trial[mode].extend(report.accuracies)
            print(f"seed={master} held={held.name} mode={mode:8s} "
                  f"acc={report.mean:.4f} ci95={report.ci95:.4f} "
                  f"({time.time() - t0:.0f}s)", flush=True)

    print()
    means = {m: float(np.mean(v)) for m, v in per_mode.items()}
    for mode in MODES:
        print(f"mean[{mode:8s}] = {means[mode]:.4f}")
    gap = means["lft"] - means["baseline"]
    ordered = means["lft"] >= means["ft"] >= means["baseline"]
    print(f"ordering lft >= ft >= baseline: {'yes' if ordered else 'no'}")
    print(f"lft - baseline: {gap * 100:+.2f} accuracy points")
    if len(args.seeds) < 2:
        return 0

    print()
    print("paired differences in accuracy points, mean +- 95% t half-width")
    for a, b in PAIRS:
        diffs = np.subtract(per_mode[a], per_mode[b]) * 100
        mean, half = t_interval(diffs)
        per_seed = " ".join(f"{d:+.2f}" for d in diffs)
        print(f"{a:>3s} - {b:8s}: seeds [{per_seed}] -> {mean:+.2f} +- {half:.2f} "
              f"(n={diffs.size} seeds)")
        mean, half = t_interval(np.subtract(per_trial[a], per_trial[b]) * 100)
        print(f"{'':14s}trial-paired {mean:+.2f} +- {half:.2f} "
              f"(n={len(per_trial[a])} trials)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
