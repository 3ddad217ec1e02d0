"""Run perfbench/run.py once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workloads bulk3p,map3p --seeds 0-9 \
        --seconds 15 --trace 0 --out perfbench/out/spread.json

For every workload and metric it reports the median of the per-run values
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Every run
is kept in the output, with its exit code and wall time, including runs that
failed or printed no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else None,
            "min": min(values), "max": max(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    runs, summary = [], {}
    for name in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "exit": proc.returncode, "wall_s": wall, "result": result})
            if result:
                record = json.loads((RUN.parent / "out" /
                                     f"{name}-seed{seed}-trace{args.trace}.json").read_text())
                figures = {k: m["value"] for k, m in result["metrics"].items()}
                figures.update({k: v for k, v in record["extra"].items()
                                if isinstance(v, (int, float)) and not isinstance(v, bool)})
                runs[-1]["extra"] = record["extra"]
                for metric, value in figures.items():
                    values.setdefault(metric, []).append(value)
            print(f"{name} seed={seed} exit={proc.returncode} wall={wall:.1f}s "
                  f"correct={result and result['correct']}", file=sys.stderr, flush=True)
        summary[name] = {k: spread(v) for k, v in values.items() if len(v) >= 2}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                    "summary": summary, "runs": runs}, indent=1) + "\n")
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            sp = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:8s} {metric:24s} median={s['median']:.6g} spread={sp}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
