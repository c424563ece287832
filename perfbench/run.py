"""rsfield benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload casimir_dense --seed 1 --seconds 30 --trace 0

Every op is ``rsfield.cli.main(argv)`` run inside a fresh child process
(``child.py``) on a config generated from ``--seed``.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` a separate
run reports per-layer metrics from outside-in spans (``tracing.py``).
Every op's outputs are checked against ``reference.py`` and the seed's
column lists and thresholds after the timed processes have ended.  The
last line of standard output is the JSON result.

Workloads are described in ``notes.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Fresh processes that run ops, one after another; each times its set-up,
# then runs its first op and warm ops for an equal share of --seconds.
# Several processes give several set-up and first-op samples and spread
# every kind of sample over the whole run, so a slow spell of a shared
# machine weighs on all metrics alike.
OPS_PROCESSES = 9
IMPORT_SAMPLES = 3
TIME_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns the child processes of one benchmark run within a time budget."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.trace = trace
        self.deadline = time.monotonic() + TIME_BUDGET_S
        self.nproc = len(os.sched_getaffinity(0))
        self.run_dir = WORK / f"run-{workload}-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.config = workloads.make_config(workload, seed)
        self.config_path = self.run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        for var in THREAD_VARS:
            self.env[var] = str(self.nproc)
        self.children = 0

    def _run(self, argv, **kwargs):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            return subprocess.run(
                argv, env=self.env, cwd=ROOT, timeout=remaining,
                stdin=subprocess.DEVNULL, **kwargs,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the time budget: {argv[:3]}") from exc

    def import_times(self):
        """(rsfield, scipy.integrate) cumulative import seconds from -X importtime."""
        proc = self._run(
            [sys.executable, "-X", "importtime", "-c", "import rsfield.cli"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import rsfield.cli:\n{proc.stderr[-2000:]}")
        rsfield_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            stripped = name.strip()
            depth = len(name) - len(name.lstrip())
            if stripped.split(".")[0] == "rsfield" and depth == 1:
                rsfield_us += int(cumulative)
            elif stripped == "scipy.integrate":
                scipy_us = int(cumulative)
        return rsfield_us * 1e-6, scipy_us * 1e-6

    def child(self, seconds):
        """Run one fresh rsfield process; returns (set-up seconds, result)."""
        tag = f"ops-{self.children}"
        self.children += 1
        out_base = self.run_dir / tag
        result_path = self.run_dir / f"{tag}.json"
        args = {
            "config": str(self.config_path),
            "argv": workloads.op_argv(self.workload, self.config_path, "OUT"),
            "out_base": str(out_base),
            "seconds": seconds,
            "trace": self.trace,
            "kernels": sorted({"ode", workloads.CALIBRATION_KERNEL[self.workload]}),
            "result": str(result_path),
            "spans": str(WORK / f"spans-{self.workload}.json"),
        }
        with open(self.run_dir / f"{tag}.log", "wb") as log:
            spawned = time.monotonic()
            proc = self._run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(args)],
                stdout=log, stderr=subprocess.STDOUT,
            )
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.run_dir / f"{tag}.log").read_text(errors="replace")[-3000:]
            raise BenchError(f"ops process exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return result["ready"] - spawned, result

    def env_record(self):
        import numpy
        import scipy

        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            blas = "unknown"
        return {
            "nproc": self.nproc,
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {var: self.env[var] for var in THREAD_VARS},
        }

    def references(self, seed):
        """Reference final densities, cached per workload and seed."""
        inputs = workloads.reference_inputs(self.workload, self.config)
        if inputs is None:
            return None
        cache = WORK / "reference" / f"{self.workload}-{seed}.json"
        if cache.exists():
            cached = json.loads(cache.read_text(encoding="utf-8"))
            if cached["inputs"] == inputs:
                return cached["densities"]
        import reference

        densities = reference.final_densities(**inputs)
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps({"inputs": inputs, "densities": densities}), encoding="utf-8")
        return densities


def _high_percentile(values):
    """(p, value) for the highest of p90/p99/p99.9 with ten values beyond it."""
    ordered = sorted(values)
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(ordered) * (1.0 - p / 100.0) >= 10.0:
            best = (p, ordered[math.ceil(len(ordered) * p / 100.0) - 1])
    return best


def _check_ops(runner, ops, refs):
    """Check every op's outputs; returns (failures, csv bytes per op)."""
    failures = []
    first_digest = None
    sizes = []
    for op in ops:
        problem = None
        if op["rc"] != 0:
            problem = op["error"] or f"exit code {op['rc']}"
        else:
            try:
                workloads.check_outputs(runner.workload, op["out"], refs)
                size, digest = workloads.csv_digest(op["out"])
                sizes.append(size)
                first_digest = first_digest or digest
                if digest != first_digest:
                    problem = "CSV bytes differ from the first op's on the same config"
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{Path(op['out']).name}: {problem}")
    return failures, sizes


def run(workload, seed, seconds, trace):
    runner = Runner(workload, seed, trace)
    try:
        # The first import also fills the byte-code and file caches, so
        # every timed set-up below starts warm.
        imports = [runner.import_times() for _ in range(IMPORT_SAMPLES if trace else 1)]
        if trace:
            _, result = runner.child(seconds)
            ops = result["ops"]
        else:
            setups, ops, kernels, peak_kb = [], [], [], 0
            for _ in range(OPS_PROCESSES):
                setup, result = runner.child(seconds / OPS_PROCESSES)
                setups.append(setup)
                ops.extend(result["ops"])
                kernels.extend(result["calibration"])
                peak_kb = max(peak_kb, result["maxrss_kb"])
        refs = runner.references(seed)
        failures, sizes = _check_ops(runner, ops, refs)
        env = runner.env_record()
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)

    attempted = len(ops)
    report = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "env": env,
    }
    if trace:
        metrics, details = _layer_metrics(result, ops, sizes, imports)
        report.update(details)
    else:
        warm = [op["wall"] for op in ops if op["kind"] == "warm"]
        first = [op["wall"] for op in ops if op["kind"] == "first"]
        # On a shared host the speed a process gets switches between a fast
        # and a slow state every few seconds and drifts by up to 1.5x over
        # minutes.  A median of op times then jumps between the modes from
        # run to run, while a mean follows the share of time spent in
        # each, and the mean kernel time of the run follows it too.  So
        # the op metrics are means, and every timing is scaled to the
        # reference host's speed by the kernel that does its kind of work;
        # the measured values and medians are in the report line.
        kernel_s = {
            name: statistics.fmean(sample[name] for sample in kernels)
            for name in kernels[0]
        }
        scale = {name: calibration.REFERENCE_S[name] / t for name, t in kernel_s.items()}
        op_scale = scale[workloads.CALIBRATION_KERNEL[workload]]
        measured = {
            "setup_s": statistics.median(setups),
            "first_op_s": statistics.fmean(first),
            "wall_s": statistics.fmean(warm),
        }
        metrics = {
            "setup_s": measured["setup_s"] * scale["ode"],
            "first_op_s": measured["first_op_s"] * op_scale,
            "wall_s": measured["wall_s"] * op_scale,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        high = _high_percentile(warm)
        report["measured"] = measured
        report["calibration"] = {"kernel_s": kernel_s, "samples": len(kernels), "scale": scale}
        report["first_op_s"] = {"median": statistics.median(first), "ops": len(first)}
        report["wall_s"] = {
            "median": statistics.median(warm),
            "ops": len(warm),
            "high_percentile": None if high is None else {"p": high[0], "value": high[1]},
        }
        report["samples"] = {"setup_s": setups, "first_op_s": first, "wall_s": warm}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


def _layer_metrics(result, ops, sizes, imports):
    per_op = [m for m, _ in result["layers"]]
    shares = [s for _, s in result["layers"]]
    metrics = {k: statistics.median_low(m[k] for m in per_op) for k in per_op[0]}
    untraced = statistics.median(op["wall"] for op in ops if op["kind"] == "warm")
    metrics["cli.csv.bytes"] = statistics.median_low(sizes) if sizes else 0
    metrics["setup.import.rsfield_s"] = statistics.median(i[0] for i in imports)
    metrics["setup.import.scipy_integrate_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead"] = metrics["trace.op_wall_s"] / untraced
    metrics["trace.absent"] = len(result["absent"])
    layers = sorted({k for s in shares for k in s["layers"]})
    details = {
        "absent_entry_points": result["absent"],
        "traced_ops": len(per_op),
        "untraced_wall_s": untraced,
        "shares": {
            "layers": {k: statistics.median(s["layers"].get(k, 0.0) for s in shares) for k in layers},
            **{
                k: statistics.median(s[k] for s in shares)
                for k in ("solve_ivp", "per_sample", "fock", "casimir_spans")
            },
        },
    }
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rsfield" / "cli.py").is_file():
        print(f"error: no rsfield sources under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
