"""Alternating perfbench pairs of two checkouts, for a before/after claim.

Runs ``perfbench/run.py`` of each checkout (untraced) on one workload and
seed, in pairs whose order alternates: even pairs run the parent first,
odd pairs the change first.  Prints each pair's end-to-end metrics, then
per metric both medians, the parent's interquartile range and how many
pairs the change won.  The metrics and whether each is better higher or
lower come from the change checkout's ``BENCHMARK.json``.  Each side's
outputs (checkpoint digests and accuracies) are compared pair by pair;
the number of completed chunks, and so the final accuracy, varies from
run to run and is left out.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload train-lft --seed 19 \\
        --pairs 10 --seconds 30 --json pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
VARYING_OUTPUTS = ("unadjusted", "final_accuracy")


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One untraced perfbench run in ``tree``: its result line, with the
    outputs of the line before it under ``outputs``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    result["outputs"] = record["outputs"]
    return result


def stable_outputs(result: dict) -> dict:
    return {k: v for k, v in result["outputs"].items() if k not in VARYING_OUTPUTS}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict[str, dict]], metrics: list[dict]) -> dict:
    """Per metric: both medians, the parent's quartiles and the change's wins."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"]))
        q1, q3 = quartiles(runs["parent"])
        parent, change = (statistics.median(runs[side]) for side in SIDES)
        out[name] = {"better": metric["better"], "parent_median": parent, "change_median": change,
                     "change_minus_parent_frac": change / parent - 1.0 if parent else None,
                     "parent_iqr": q3 - q1, "change_wins": wins, "pairs": len(pairs),
                     "parent_runs": runs["parent"], "change_runs": runs["change"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--tiny", action="store_true", help="perfbench's smallest sizes")
    ap.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs, outputs_equal = [], True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(trees[side], args.workload, args.seed, args.seconds, args.tiny)
                for side in order}
        same = stable_outputs(pair["parent"]) == stable_outputs(pair["change"])
        outputs_equal &= same
        cells = ", ".join(f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g}"
                          f" -> {pair['change']['metrics'][m['name']]['value']:.4g}"
                          for m in metrics)
        flags = [f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}"
                 for side in SIDES]
        print(f"pair {i} ({order[0]} first): {cells}; outputs "
              f"{'equal' if same else 'DIFFER'}; {', '.join(flags)}", flush=True)
        pairs.append(pair)

    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        frac = s["change_minus_parent_frac"]
        gap = "n/a" if frac is None else f"{100 * frac:+.2f}%"
        print(f"{name} ({s['better']} is better): parent median {s['parent_median']:.4g} "
              f"(IQR {s['parent_iqr']:.4g}), change median {s['change_median']:.4g} ({gap}), "
              f"change won {s['change_wins']} of {s['pairs']}")
    print(f"outputs equal in every pair: {'yes' if outputs_equal else 'no'}")
    if args.json:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "tiny": args.tiny, "outputs_equal": outputs_equal, "summary": summary,
                  "pairs": pairs}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
