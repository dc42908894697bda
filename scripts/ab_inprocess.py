"""In-process A/B timing of two checkouts on one perfbench workload.

Copies each checkout's ``src/fsdg`` into a temporary directory under a
package name of its own (``fsdg_parent``, ``fsdg_change``), imports both
into this one process, and builds perfbench's workload (the checkout's
own ``perfbench/workloads.py``) on each.  Then it runs rounds: in each, one
timed chunk per side with the same chunk index, the parent first in even
rounds and the change first in odd ones.  A round's ratio is the change's
chunk time over the parent's.  Prints the median ratio, the interquartile
range of the ratios, how many rounds the change won and whether the two
sides' chunk outputs (parameter fingerprints, or trial accuracies) agreed
in every round.

Both sides share one interpreter, heap and machine state, so the layout
offsets that separate two perfbench processes do not enter the ratio.
A checkout against itself (an A/A run) shows the method's own spread.

Example:
    python3 scripts/ab_inprocess.py ../parent . --workload train-lft --seed 61 \\
        --rounds 100 --json ab.json
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as perfbench pins it, before NumPy loads

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SIDES = ("parent", "change")
WORKLOADS = ("train-lft", "train-ft", "eval-heads")


def load_side(tree: Path, side: str, dest: Path):
    """Perfbench's workloads module of ``tree``, bound to a copy of the
    tree's fsdg imported as ``fsdg_<side>``."""
    package = f"fsdg_{side}"
    shutil.copytree(tree / "src" / "fsdg", dest / package)
    for k in [k for k in sys.modules if k == package or k.startswith(package + ".")]:
        del sys.modules[k]  # a copy from an earlier call
    names = sorted(p.stem for p in (dest / package).glob("*.py")
                   if p.stem not in ("__init__", "__main__"))
    mods = {name: importlib.import_module(f"{package}.{name}") for name in names}
    # workloads.py imports ``fsdg``: while it loads, that name stands for this copy.
    saved = {k: v for k, v in sys.modules.items() if k == "fsdg" or k.startswith("fsdg.")}
    for k in saved:
        del sys.modules[k]
    sys.modules["fsdg"] = importlib.import_module(package)
    sys.modules.update({f"fsdg.{name}": mod for name, mod in mods.items()})
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}",
                                                      tree / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        for k in [k for k in sys.modules if k == "fsdg" or k.startswith("fsdg.")]:
            del sys.modules[k]
        sys.modules.update(saved)
    return workloads


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--tiny", action="store_true", help="perfbench's smallest sizes")
    ap.add_argument("--json", type=Path, help="also write every round and the summary here")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as workdir:
        dest = Path(tmp)
        sys.path.insert(0, tmp)
        loaded = {side: load_side(tree.resolve(), side, dest)
                  for side, tree in zip(SIDES, (args.parent, args.change))}
        wls = {}
        for side, workloads in loaded.items():
            sizes = workloads.TINY if args.tiny else workloads.FULL
            side_dir = Path(workdir) / side
            side_dir.mkdir()
            wls[side] = workloads.make(args.workload, args.seed, sizes, side_dir)
            wls[side].set_up()
        for side in SIDES:
            wls[side].chunk(0)  # warm-up, not counted

        rounds, outputs_equal = [], True
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            chunks = {side: wls[side].chunk(r + 1) for side in order}
            outputs_equal &= chunks["parent"].output == chunks["change"].output
            rounds.append({side: chunks[side].busy_s for side in SIDES})
        ratios = [rnd["change"] / rnd["parent"] for rnd in rounds]
        del wls  # the workloads' checkpoints live under workdir
        sys.path.remove(tmp)

    q1, q3 = quartiles(ratios)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
               "tiny": args.tiny, "median_ratio": statistics.median(ratios),
               "ratio_q1": q1, "ratio_q3": q3, "ratio_iqr": q3 - q1,
               "change_wins": sum(x < 1.0 for x in ratios), "outputs_equal": outputs_equal,
               "parent_ms_per_chunk": 1e3 * statistics.median(r["parent"] for r in rounds),
               "change_ms_per_chunk": 1e3 * statistics.median(r["change"] for r in rounds)}
    print(f"{args.workload} seed={args.seed}: median time ratio change/parent "
          f"{summary['median_ratio']:.4f} (IQR {q1:.4f}-{q3:.4f}, width {q3 - q1:.4f}); "
          f"change faster in {summary['change_wins']} of {args.rounds} rounds; chunk "
          f"{summary['parent_ms_per_chunk']:.2f} -> {summary['change_ms_per_chunk']:.2f} ms")
    print(f"outputs equal in every round: {'yes' if outputs_equal else 'no'}")
    if args.json:
        args.json.write_text(json.dumps({"summary": summary, "rounds": rounds}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
