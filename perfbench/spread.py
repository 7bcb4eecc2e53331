"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads plane_path ...] \
        [--seconds 30] [--out perfbench/baseline.json --label <commit>]

For every workload and end-to-end metric it prints the median over the
seeds and the quartile spread (Q3 - Q1) / median, with the quartiles taken
by statistics.quantiles(values, n=4), next to a third of the metric's bound
in BENCHMARK.json.  With --out it also writes the medians, the spreads, one
traced run's per-layer metrics per workload (seed 0) and the machine they
were measured on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine_info() -> dict:
    import numpy
    import scipy
    sys.path.insert(0, str(HERE))
    from run import BLAS_THREADS
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS)}


def run_once(workload, seed, seconds, trace=0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            report = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={report['correct']} "
                  f"attempted={report['attempted']} "
                  f"failed={report['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in report["metrics"].items()),
                  flush=True)
            steady &= report["correct"]
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            sp = spread(vals) if len(vals) > 1 else 0.0
            ok = name == "setup_s" or sp < bounds[name] / 3.0
            steady &= ok
            summary[workload][name] = {"median": statistics.median(vals),
                                       "spread": sp, "values": vals}
            print(f"  {workload:15s} {name:15s} median "
                  f"{statistics.median(vals):.6g}  spread {sp:.4f}  "
                  f"bound/3 {bounds[name] / 3.0:.4f}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    if args.out:
        for workload in args.workloads:
            report = run_once(workload, 0, args.seconds, trace=1)
            summary[workload]["per_layer"] = {
                k: v["value"] for k, v in report["metrics"].items()}
        Path(args.out).write_text(json.dumps(
            {"label": args.label, "seeds": seeds, "seconds": args.seconds,
             "machine": machine_info(), "workloads": summary},
            indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
