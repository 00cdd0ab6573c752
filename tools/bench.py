"""Compare the benchmark's end-to-end metrics between a base commit and this checkout.

    python3 tools/bench.py --base HEAD~1 --workdir ../bench-base --json BENCH.json
    python3 tools/bench.py --diff BENCH_a.json BENCH_b.json

The committed files of ``--base`` are exported with ``git archive`` into
``--workdir``, which must not exist yet.  Each side then runs its own
``benchmarks/run.py --workload all --trace 0 --out`` in a child process, in
10 pairs that alternate which side runs first, with seed 1 and the run
length ``run_seconds`` of ``BENCHMARK.json`` on both.  The JSON holds both
commits, the CPU model and core count, every run's end-to-end metrics and
failed-op counts, and per side the median and interquartile range of every
workload x end-to-end metric of ``BENCHMARK.json``, with the change of the
medians against the metric's bound, the number of pairs the checkout won,
and whether either side's interquartile range exceeds the bound, in which case
the change cannot be told from the spread.  After the pairs, each side runs
the seven CLI commands on ``configs/default.ini`` and an SDE-tracing
``oracle-check`` (``sde_duration_s = 6e-3``, ``sde_dt_s = 5e-11``), each in
its own child process, 5 times, alternating which side runs first; the
``commands`` key holds per side and command every run's wall time and the
child's peak RSS (``ru_maxrss`` from ``os.wait4``), their medians and the exit
codes, and beside each wall time the child's CPU time (``ru_utime +
ru_stime``), which the machine's other load sways less.  Next, one child per
side makes ``HWM_OPS`` SDE-tracing ``oracle-check`` calls in process, each on
another point of the ``oracle`` workload, and the ``oracle_vmhwm`` key holds
its VmHWM after each call: a peak that grows with the op count shows there,
where a fixed-length run would read it as a cost of speed.  Then each side runs
its Tier-1 suite 3 times, alternating sides, with the command ``ROADMAP.md``
gives, as two child processes, ``-m sde`` and ``-m "not sde"``; the ``tier1``
key holds per side and marker every run's pass and fail counts, wall and CPU
time, peak RSS and five slowest tests, and the median wall time and peak RSS.

``--diff A B`` reads two such files and prints, per workload x end-to-end
metric, the change of the checkout's median from A to B against the metric's
bound, and the failed ops of each; it exits 1 when a resolved change is worse
than its bound.  The two files may come from different sessions, so their
medians carry the machine's drift between them; the last column repeats B's
own change against its base, measured alongside, for comparison.  It then
prints the per-command rows of the files that hold them and the Tier-1 rows
of both files: the median and each run where there are several, else the one
run, with CPU times where the file holds them; a file written before the
split holds one row per side, for the whole suite, printed as ``all``.  Files
that hold ``oracle_vmhwm`` print its first and last value per side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS, SEED = 10, 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]  # with PYTHONPATH=src, as in ROADMAP.md
TIER1_MARKERS = ("sde", "not sde")  # the two halves each side's Tier-1 runs as
TIER1_RUNS, COMMAND_RUNS = 3, 5
COMMANDS = ("synth", "spectrum", "densitymap", "quasistatic", "oracle-check", "thermometry-fit", "infer-detuning")
FIT_DATA = {"thermometry-fit": "thermometry.csv", "infer-detuning": "locksweep.csv"}
SDE_RUN = "sde_duration_s = 6e-3\nsde_dt_s = 5e-11\n"  # as tools/csv_digest.py runs it
HWM_OPS = 8  # in-process oracle ops of the VmHWM child, one point each
HWM_CHILD = """
import contextlib, io, json, shutil, sys, tempfile
from pathlib import Path
sys.path.insert(0, "benchmarks")
import workloads
from omsqueeze import cli

def vmhwm_mb():
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

seed, ops = map(int, sys.argv[1:])
marks = []
with tempfile.TemporaryDirectory() as work:
    for k, point in enumerate(workloads.generate("oracle", seed, n=ops)):
        cfg, out = Path(work) / f"cfg-{k}.ini", Path(work) / f"op-{k}"
        cfg.write_text(workloads.config_text(point), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["oracle-check", "--config", str(cfg), "--out", str(out)]) != 0:
                raise SystemExit(f"oracle-check exited nonzero on point {k}")
        shutil.rmtree(out)
        marks.append(vmhwm_mb())
print(json.dumps(marks))
"""


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export(rev, workdir):
    """The committed files of ``rev`` in ``workdir``, as a fresh checkout has them."""
    workdir.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(workdir, filter="data")


def run_side(checkout, seconds, out):
    """One ``run.py --workload all`` of ``checkout``; returns its records by workload."""
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "all", "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    return {r["workload"]: r for r in records}


def src_env():
    """This process's environment with a checkout's ``src`` (the working directory) first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def child(argv, checkout, **kwargs):
    """Run ``argv`` in ``checkout`` with its ``src`` on the path; its exit code,
    wall time, peak RSS (MB) and CPU time (user + system), from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=checkout, env=src_env(), **kwargs)
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage, unlike RUSAGE_CHILDREN
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def commands(checkout, work):
    """Each CLI command on ``configs/default.ini``, and an SDE-tracing
    ``oracle-check``, once in its own child process: {name: (exit, wall, rss, cpu)}."""
    default = checkout / "configs" / "default.ini"
    sde = work / "sde.ini"
    sde.write_text(default.read_text(encoding="utf-8").rstrip("\n") + "\n" + SDE_RUN, encoding="utf-8")
    rows = {}
    for name, config in [(c, default) for c in COMMANDS] + [("oracle-check-sde", sde)]:
        command = name.removesuffix("-sde")
        argv = [sys.executable, "-m", "omsqueeze.cli", command, "--config", str(config), "--out", str(work / name)]
        if command in FIT_DATA:
            argv += ["--data", str(work / "synth" / FIT_DATA[command])]
        rows[name] = child(argv, checkout, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return rows


def oracle_vmhwm(checkout):
    """VmHWM (MB) of one child process of ``checkout`` after each of ``HWM_OPS``
    SDE-tracing ``oracle-check`` calls, made in process on the first ``HWM_OPS``
    ``oracle`` points of the benchmark's workload at ``SEED``."""
    argv = [sys.executable, "-c", HWM_CHILD, str(SEED), str(HWM_OPS)]
    proc = subprocess.run(argv, cwd=checkout, env=src_env(), check=True, capture_output=True, text=True)
    marks = json.loads(proc.stdout.splitlines()[-1])
    return {"first_mb": marks[0], "last_mb": marks[-1], "after_each_mb": marks}


def tier1(checkout, marker):
    """Run the Tier-1 tests of ``checkout`` that ``-m marker`` selects once in a child
    process: their outcome counts, wall and CPU time, peak RSS and five slowest tests,
    from pytest's summary."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as log:
        code, wall, rss, cpu = child([sys.executable, *TIER1, "-m", marker, "--durations=5"], checkout,
                                     stdout=log, stderr=subprocess.STDOUT)
        log.seek(0)
        lines = log.read().splitlines()
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for n, word in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts["errors" if word == "error" else word] += int(n)
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (call|setup|teardown) +(.+)").fullmatch, lines) if m]
    return {**counts, "exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "slowest": slowest[:5]}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def change(old, new, metric):
    """How much worse ``new`` is than ``old`` (two summaries) as a fraction of
    the old median, and whether either spread exceeds the metric's bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (new["median"] - old["median"]) / old["median"]
    return worse, max(s["iqr"] / s["median"] for s in (old, new)) > metric["bound"]


def diff(path_a, path_b):
    """Print the change of the checkout's medians from BENCH file A to B; 1 if one is worse than its bound."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    print(f"A: {path_a} (head {a['head']['commit'][:12]})\nB: {path_b} (head {b['head']['commit'][:12]})")
    print(f"{'workload':<11}{'metric':<13}{'A median':>11}{'B median':>11}{'worse by':>10}{'bound':>8}  "
          f"{'status':<11}{'B vs its base':>13}")
    worst = 0
    for workload, rows in b["workloads"].items():
        old_rows = a["workloads"].get(workload, {})
        for name, row in rows.items():
            if name == "failed_ops" or name not in old_rows:
                continue
            old, new = old_rows[name]["head"], row["head"]
            worse, unresolved = change(old, new, row)
            status = "unresolved" if unresolved else "WORSE" if worse > row["bound"] else "ok"
            worst |= status == "WORSE"
            print(f"{workload:<11}{name:<13}{old['median']:>11.4g}{new['median']:>11.4g}"
                  f"{100 * worse:>+9.1f}%{100 * row['bound']:>7.0f}%  {status:<11}"
                  f"{100 * row['head_worse_by']:>+12.1f}%")
        failed = [sum(f["failed_ops"]["head"]) for f in (old_rows, rows) if "failed_ops" in f]
        print(f"{workload:<11}{'failed ops':<13}" + "".join(f"{n:>11d}" for n in failed))
    for label, bench in (("A", a), ("B", b)):
        for side, rows in bench.get("commands", {}).items():
            for name, row in rows.items():
                cpu = row.get("cpu_s")  # files before BENCH_pr28.json hold wall times only
                print(f"command {label} {side} {name:<17} median {row['wall_s']['median']:.3f} s"
                      + (f" wall, {cpu['median']:.3f} s CPU" if cpu else "")
                      + f", {row['peak_rss_mb']['median']:.1f} MB; runs "
                      + " ".join(f"{w:.3f}" for w in row["wall_s"]["runs"])
                      + (" (CPU " + " ".join(f"{c:.3f}" for c in cpu["runs"]) + ")" if cpu else "")
                      + f"; exit {row['exit_codes']}")
    for label, bench in (("A", a), ("B", b)):
        for side, row in bench.get("oracle_vmhwm", {}).items():  # files since BENCH_pr30.json
            print(f"oracle VmHWM {label} {side}: {row['first_mb']:.1f} MB after op 1, "
                  f"{row['last_mb']:.1f} MB after op {len(row['after_each_mb'])}")
    for label, bench in (("A", a), ("B", b)):
        for side, rows in bench.get("tier1", {}).items():
            for marker, row in ({"all": rows} if "passed" in rows else rows).items():
                runs = row.get("runs", [row])
                print(f"tier1 {label} {side} [{marker}]: median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
                      f"peak RSS {statistics.median(r['peak_rss_mb'] for r in runs):.0f} MB over {len(runs)} run(s)")
                for run in runs:
                    cpu = f" ({run['cpu_s']:.1f} s CPU)" if "cpu_s" in run else ""
                    print(f"  {run['passed']} passed, {run['failed']} failed, {run['errors']} errors in "
                          f"{run['wall_s']:.1f} s{cpu}, peak RSS {run['peak_rss_mb']:.0f} MB")
                    for test in run["slowest"]:
                        print(f"    {test['seconds']:7.2f} s {test['phase']:<8} {test['test']}")
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="commit to compare this checkout against")
    parser.add_argument("--workdir", type=Path, help="new directory for the base's files")
    parser.add_argument("--json", type=Path, help="file to write the comparison to")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two files this script wrote")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if None in (args.base, args.workdir, args.json):
        parser.error("--base, --workdir and --json are required without --diff")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_commit = git("rev-parse", args.base).decode().strip()
    export(base_commit, args.workdir)
    sides = {"base": args.workdir.resolve(), "head": ROOT}
    runs = {"base": [], "head": []}
    for k in range(PAIRS):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            out = args.workdir.resolve() / f"bench-{side}.jsonl"
            runs[side].append(run_side(sides[side], spec["run_seconds"], out))
            print(f"pair {k + 1}/{PAIRS}: {side} done", file=sys.stderr, flush=True)

    calls = {"base": [], "head": []}
    for k in range(COMMAND_RUNS):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            with tempfile.TemporaryDirectory() as work:
                calls[side].append(commands(sides[side], Path(work)))
    per_command = {side: {name: {"wall_s": summary([r[name][1] for r in runs]),
                                 "cpu_s": summary([r[name][3] for r in runs]),
                                 "peak_rss_mb": summary([r[name][2] for r in runs]),
                                 "exit_codes": sorted({r[name][0] for r in runs})} for name in runs[0]}
                   for side, runs in calls.items()}
    vmhwm = {side: oracle_vmhwm(sides[side]) for side in ("base", "head")}
    suites = {side: {marker: [] for marker in TIER1_MARKERS} for side in ("base", "head")}
    for k in range(TIER1_RUNS):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            for marker in TIER1_MARKERS:
                suites[side][marker].append(tier1(sides[side], marker))
    suites = {side: {marker: {"runs": runs, "median_wall_s": statistics.median(r["wall_s"] for r in runs),
                              "median_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
                     for marker, runs in rows.items()} for side, rows in suites.items()}
    env = runs["head"][0][spec["workloads"][0]["name"]]["env"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        rows = {"failed_ops": {s: [r[workload]["failed"] for r in runs[s]] for s in runs}}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {s: [r[workload]["metrics"][name]["value"] for r in runs[s]] for s in runs}
            row = {s: summary(v) for s, v in values.items()}
            worse, unresolved = change(row["base"], row["head"], metric)
            row.update(
                unit=metric["unit"], better=metric["better"], bound=metric["bound"],
                head_worse_by=worse, within_bound=worse <= metric["bound"], spread_exceeds_bound=unresolved,
                head_wins=sum(sign * (h - b) < 0 for b, h in zip(values["base"], values["head"])),
            )
            rows[name] = row
        workloads[workload] = rows
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    result = {
        "base": {"commit": base_commit},
        "head": {"commit": git("rev-parse", "HEAD").decode().strip(), "uncommitted_changes": dirty},
        "cpu_model": env["cpu_model"], "nproc": env["nproc"],
        "seed": SEED, "seconds": spec["run_seconds"], "pairs": PAIRS,
        "order": "pair k runs the base first for even k, the checkout first for odd k",
        "workloads": workloads, "commands": per_command, "oracle_vmhwm": vmhwm, "tier1": suites,
    }
    args.json.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
