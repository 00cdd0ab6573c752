"""Run one seeded omsqueeze workload and print its metrics.

    python3 benchmarks/run.py --workload calibrate --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --out results.jsonl

Each workload runs in a fresh child process (``worker.py``) as a closed
loop with one client and one thread: ``OMSQUEEZE_THREADS`` is unset and
the BLAS/OpenMP pools are pinned to 1.  Set-up (interpreter start,
``import omsqueeze.cli`` and the first ``load_config``) is timed from
spawning the child to its ``READY`` line, in ``SETUP_SAMPLES`` processes,
and reported as the median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
``--out`` appends the result and the environment to a JSON-lines file
that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from quantiles import percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map-sweep", "calibrate", "oracle")
SETUP_SAMPLES = 3  # the worker's own set-up plus two set-up-only processes
CHILD_TIMEOUT_S = 170.0
ACCOUNTED_TOL = 0.05  # layer self times must account for each op's wall time within 5%

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, each a mean per timed op unless its
# unit says otherwise.
LAYER_METRICS = {
    "core.spectrum_full.calls": "calls/op",
    "core.spectrum_full.self_s": "s/op",
    "core.transfer_coefficients.calls": "calls/op",
    "core.transfer_coefficients.self_s": "s/op",
    "core.SystemParams.build.calls": "calls/op",
    "noise.extra_mode_psd.calls": "calls/op",
    "noise.extra_mode_psd.self_s": "s/op",
    "noise.phase_noise_psd.self_s": "s/op",
    "noise.absorptive_psd.self_s": "s/op",
    "noise.apply_detection_chain.self_s": "s/op",
    "instrument.output_spectrum.calls": "calls/op",
    "instrument.output_spectrum.self_s": "s/op",
    "instrument.assemble_density_map.self_s": "s/op",
    "instrument.rbw_resample.calls": "calls/op",
    "instrument.rbw_resample.self_s": "s/op",
    "instrument.rbw_resample.macs": "MAC/op",
    "estimate.fit_thermometry.calls": "calls/op",
    "estimate.fit_thermometry.self_s": "s/op",
    "estimate.fit_thermometry.sequential": "fits/op",
    "estimate.thermometry_model.calls": "calls/op",
    "estimate.infer_detuning.self_s": "s/op",
    "estimate.model_zero_transduction_lock.calls": "calls/op",
    "estimate.model_zero_transduction_lock.self_s": "s/op",
    "estimate.generate_thermometry_curve.self_s": "s/op",
    "estimate.generate_lock_sweep.self_s": "s/op",
    "oracle.matrix_solve_spectrum.calls": "calls/op",
    "oracle.matrix_solve_spectrum.self_s": "s/op",
    "oracle.sde_time_domain_psd.calls": "calls/op",
    "oracle.sde_time_domain_psd.self_s": "s/op",
    "oracle.sde_time_domain_psd.msamples_per_s": "Msample/s",
    "config.load_config.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.write_map_csv.self_s": "s/op",
    "cli.write_spectrum_csv.self_s": "s/op",
    "cli.write_fit_csv.self_s": "s/op",
    "cli.read_thermometry_csv.self_s": "s/op",
    "cli.read_locksweep_csv.self_s": "s/op",
    "cli.csv_bytes": "B/op",
    "trace.accounted_frac": "frac",
    "trace_overhead_frac": "frac",
}


def child_env():
    env = dict(os.environ)
    env.pop("OMSQUEEZE_THREADS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(args, workdir, setup_only):
    """Run ``worker.py``; returns (set-up seconds, result dict or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--spans", str(workdir.parent / f"spans-{args.workload}.csv.gz"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rc != 0 or setup is None or (result is None and not setup_only):
        raise RuntimeError(f"benchmark worker failed (exit code {rc})")
    return setup, result


def _rate(ops, ok_only=True):
    done = sum(1 for op in ops if not (ok_only and op["problems"]))
    return done / sum(op["wall_s"] for op in ops)


def end_to_end(setups, result):
    ops = result["ops"]
    lat_ms = [op["wall_s"] * 1e3 for op in ops]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": _rate(ops),
        "op_p50_ms": percentile(lat_ms, 50),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {"fail_frac": sum(1 for op in ops if op["problems"]) / len(ops), "ops": len(ops)}
    tail = tail_percentile(len(lat_ms))
    if tail is not None:
        extra[f"op_p{tail:g}_ms"] = percentile(lat_ms, tail)
    return values, extra, []


def per_layer(result):
    """Per-layer metric values of a traced run, and accounting problems."""
    ops = result["ops"]
    layers = result["layers"]
    n = len(ops)
    values = {}
    for name in LAYER_METRICS:
        func, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = layers[stat].get(func, 0) / n
        else:
            values[name] = layers["counters"].get(name, 0) / n
    sde = "oracle.sde_time_domain_psd"
    sde_s = layers["incl_s"].get(sde, 0.0)
    samples = layers["counters"].get(f"{sde}.samples", 0)
    values[f"{sde}.msamples_per_s"] = samples / sde_s / 1e6 if sde_s else 0.0
    values["cli.csv_bytes"] = sum(op["csv_bytes"] for op in ops) / n

    own = {op["op"]: layers["op_self_s"].get(str(op["op"]), 0.0) for op in ops}
    values["trace.accounted_frac"] = sum(own.values()) / sum(op["wall_s"] for op in ops)
    values["trace_overhead_frac"] = (
        _rate(result["untraced_ops"], ok_only=False) / _rate(ops, ok_only=False) - 1.0
    )
    problems = [
        f"op {op['op']}: layer self times {own[op['op']]:.4f} s vs op wall time {op['wall_s']:.4f} s"
        for op in ops
        if abs(own[op["op"]] - op["wall_s"]) > ACCOUNTED_TOL * op["wall_s"]
    ]
    return values, {"traced_ops": n}, problems


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(args):
    workdir = ROOT / ".bench" / f"work-{os.getpid()}-{args.workload}"
    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setups.append(spawn(args, workdir, setup_only=True)[0])
        setup, result = spawn(args, workdir, setup_only=False)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, extra, problems = per_layer(result)
    else:
        values, extra, problems = end_to_end(setups, result)
    units = LAYER_METRICS if args.trace else END_TO_END
    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    problems = [p for op in ops for p in op["problems"]] + problems
    summary = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **summary, "extra": extra, "problems": problems[:10],
        "env": {**result["env"], "commit": git_commit()},
    }
    return summary, record


def print_record(record):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")
    for name, metric in record["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["extra"].items():
        unit = "ms" if name.endswith("_ms") else "frac" if name.endswith("_frac") else "ops"
        print(f"#   {name} = {value:.6g} {unit}")
    for problem in record["problems"]:
        print(f"#   problem: {problem}")
    print(f"#   env: {json.dumps(record['env'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON-lines file to append the result to")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summary, record = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print_record(record)
        summaries[name] = summary
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(summaries if args.workload == "all" else summaries[args.workload]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
