"""magloop benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload plane_path --seed 0 --seconds 60 \
        --trace 0

Workloads are plane_path, torus_shoot and torus_cylinder (see README.md).
The package is imported from the src/ directory next to this one; a
checkout without it exits with code 2 and prints no result.  The inputs are
generated from --seed, solved repeatedly for about --seconds seconds, and
every solve is gated for correctness.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--smoke swaps in tiny inputs so the whole harness runs in seconds.
"""

import os

# One BLAS thread (no more than nproc): solves stay single-threaded and
# steadier on a shared machine.  Set before numpy is imported here or in a
# set-up probe.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 2
PROBE_TIMEOUT_S = 120

# Functions whose time inside a `magloop run` belongs to set-up, not solve.
SETUP_TARGETS = {"cli": ("load_config",), "minimax": ("init_sweep_family",)}
SETUP_KEYS = ("cli.load_config", "minimax.init_sweep_family")


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that does not touch magloop: the
    small-array numpy and interpreter work that dominates a solve.  Timed
    just before and after each solve, it tracks how fast the host runs at
    that moment."""
    v = np.linspace(0.0, 1.0, 256).reshape(128, 2)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3000):
        d = np.roll(v, -1, axis=0) - v
        acc += float(np.einsum("ni,ni->", d, d))
        v = v + 1e-9 * d
    return time.perf_counter() - t0


def log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_magloop():
    """Import magloop from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "magloop" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import magloop
    import magloop.cli  # noqa: F401  (the run workloads' entry point)
    if Path(magloop.__file__).resolve().parent != (src / "magloop").resolve():
        return None
    return magloop


class Bench:
    """Set-up probes, timed solves and gates for one workload and seed."""

    def __init__(self, magloop, workload: str, seed: int, work: Path,
                 smoke: bool):
        self.magloop = magloop
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.spec = magloop.GeometrySpec(magloop.GeometryKind.FLAT_TORUS_SINE,
                                         a=workloads.SHOOT_A, k=1)

    def prepare(self, rep: int):
        """Inputs of round `rep`, with its config file or seed states, built
        before any timing starts."""
        inputs = workloads.make_inputs(self.workload, self.seed, rep,
                                       self.smoke)
        log(f"round {rep} inputs {json.dumps(inputs.params)}")
        job = {"kind": inputs.kind}
        if inputs.kind == "run":
            cfg_path = self.work / f"config-{rep}.json"
            cfg_path.write_text(json.dumps(inputs.config, indent=2))
            job["config_path"] = str(cfg_path)
        else:
            ml = self.magloop
            job["seeds"] = [ml.FlowState(ml.ChartPoint(x, y),
                                         np.array([math.cos(a),
                                                   math.sin(a)]))
                            for x, y, a in inputs.states]
            job["states"] = [list(s) for s in inputs.states]
        return inputs, job

    # -- set-up -----------------------------------------------------------

    def setup_probe(self, job_path: Path) -> float:
        """One set-up time, measured in a fresh process."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"),
               str(ROOT / "src"), str(job_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=self.work)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    # -- one solve --------------------------------------------------------

    def solve(self, inputs, job, traced: bool):
        """One gated solve.  Returns (solve_s, solve_norm, kernel_s, verdict,
        layer metrics or None); the times are None when the gate failed."""
        self.attempted += 1
        tracer = Tracer() if traced else Tracer(SETUP_TARGETS)
        out = self.work / f"out-{self.attempted}"
        kernel_s = reference_kernel()
        try:
            if inputs.kind == "run":
                wall, verdict, extra = self._solve_run(inputs, job, tracer,
                                                       out)
            else:
                wall, verdict, extra = self._solve_shoot(inputs, job, tracer)
        except Exception:
            log(f"solve {self.attempted} raised:\n{traceback.format_exc()}")
            verdict, wall = None, None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if verdict is None or not verdict.ok:
            self.failed += 1
            if verdict is not None:
                log(f"solve {self.attempted} failed its gate: "
                    f"{'; '.join(verdict.problems)}")
            return None, None, None, verdict, None
        kernel_s = 0.5 * (kernel_s + self.kernel_after)
        solve_s = wall - sum(tracer.incl.get(k, 0.0) for k in SETUP_KEYS)
        layers = tracer.metrics(wall, extra) if traced else None
        if traced and tracer.absent:
            log(f"not traced, gone from magloop: {sorted(tracer.absent)}")
        log(f"solve {self.attempted} {'traced' if traced else 'untraced'} "
            f"{solve_s:.4f} s = {solve_s / kernel_s:.2f} kernels of "
            f"{kernel_s:.4f} s, residual {verdict.final_residual:.4e}, "
            f"level error {verdict.level_err:.4e}")
        return solve_s, solve_s / kernel_s, kernel_s, verdict, layers

    def _solve_run(self, inputs, job, tracer, out: Path):
        argv = ["run", "--config", job["config_path"], "--output-dir",
                str(out)]
        with contextlib.redirect_stdout(sys.stderr), tracer:
            t0 = time.perf_counter()
            code = self.magloop.cli.main(argv)
            wall = time.perf_counter() - t0
        self.kernel_after = reference_kernel()
        verdict = workloads.check_run(self.magloop, inputs, out, code)
        result = json.loads((out / "result.json").read_text())
        sweeps = improving = 0
        for rec in result["records"]:
            levels = [lv for _, lv in rec["minimax"]["history"][:-1]]
            sweeps += len(levels)
            improving += sum(
                1 for a, b in zip(levels, levels[1:])
                if b < a - 1e-9 * max(1.0, abs(a)))
        written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        extra = {
            "minimax.sweeps": (sweeps, "count"),
            "minimax.sweeps_improving": (improving, "count"),
            "minimax.sweep_useful_ratio": (improving / sweeps if sweeps
                                           else 0.0, "ratio"),
            "cli.bytes_written": (written, "bytes"),
        }
        return wall, verdict, extra

    def _solve_shoot(self, inputs, job, tracer):
        w = workloads
        with tracer:
            t0 = time.perf_counter()
            cands = self.magloop.oracle.shooting_periodic(
                self.spec, w.SHOOT_E_MECH, job["seeds"], w.SHOOT_PERIOD_CAP,
                w.SHOOT_TOL, dt=w.SHOOT_DT)
            wall = time.perf_counter() - t0
        self.kernel_after = reference_kernel()
        verdict = w.check_shoot(self.magloop, inputs, self.spec, cands)
        extra = {"minimax.sweeps": (0, "count"),
                 "minimax.sweeps_improving": (0, "count"),
                 "minimax.sweep_useful_ratio": (0.0, "ratio"),
                 "cli.bytes_written": (0, "bytes")}
        return wall, verdict, extra

    # -- the measured run -------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        inputs, job = self.prepare(0)
        job_path = self.work / "job.json"
        job_path.write_text(json.dumps({k: v for k, v in job.items()
                                        if k != "seeds"}))
        repeats = 0 if trace else \
            SMOKE_SETUP_REPEATS if self.smoke else SETUP_REPEATS
        setup = []
        plain, traced, residuals, level_errs, layer_runs = [], [], [], [], []
        walls, kernels = [], []
        reference_kernel()  # warm up before the first bracket
        rounds = []
        t_start = time.perf_counter()
        while True:
            # Set-up probes are spread over the run, so their median covers
            # the host's slow and fast stretches alike.
            spent = time.perf_counter() - t_start
            while len(setup) < repeats and \
                    len(setup) <= spent / seconds * repeats:
                setup.append(self.setup_probe(job_path))
            if rounds:
                inputs, job = self.prepare(len(rounds))
            r0 = time.perf_counter()
            for is_traced in ((False, True) if trace else (False,)):
                wall, norm, kernel_s, verdict, layers = self.solve(
                    inputs, job, is_traced)
                if norm is None:
                    continue
                (traced if is_traced else plain).append(norm)
                if not is_traced:
                    walls.append(wall)
                    kernels.append(kernel_s)
                residuals.append(verdict.final_residual)
                level_errs.append(verdict.level_err)
                if layers is not None:
                    layer_runs.append(layers)
            rounds.append(time.perf_counter() - r0)
            spent = time.perf_counter() - t_start
            if spent + statistics.median(rounds) > seconds:
                break
        while len(setup) < repeats:
            setup.append(self.setup_probe(job_path))

        metrics = {}
        if trace:
            for name in layer_runs[0] if layer_runs else ():
                vals = [run[name]["value"] for run in layer_runs
                        if name in run]
                metrics[name] = {"value": statistics.median(vals),
                                 "unit": layer_runs[0][name]["unit"]}
            if plain and traced:
                metrics["trace.overhead_frac"] = {
                    "value": statistics.median(traced)
                    / statistics.median(plain) - 1.0,
                    "unit": "ratio"}
            metrics["host.solve_wall_s"] = _metric(walls, "s")
            metrics["host.kernel_s"] = _metric(kernels, "s")
        else:
            metrics["setup_s"] = _metric(setup, "s")
            metrics["solve_norm"] = _metric(plain, "kernels")
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"}
            metrics["final_residual"] = _metric(residuals, "1")
            metrics["level_err"] = _metric(level_errs, "1")
        metrics = {k: v for k, v in metrics.items() if v is not None}
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _metric(values, unit):
    if not values:
        return None
    return {"value": statistics.median(values), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    magloop = import_magloop()
    if magloop is None:
        log(f"no magloop package under {ROOT / 'src'}; run from a checkout")
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = Bench(magloop, args.workload, args.seed, work,
                       args.smoke).run(
            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
