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
its Tier-1 suite once, with the command ``ROADMAP.md`` gives, in a child
process; the ``tier1`` key holds per side its pass and fail counts, its wall
time, the child's peak RSS and its five slowest tests.

``--diff A B`` reads two such files and prints, per workload x end-to-end
metric, the change of the checkout's median from A to B against the metric's
bound, and the failed ops of each; it exits 1 when a resolved change is worse
than its bound.  The two files may come from different sessions, so their
medians carry the machine's drift between them; the last column repeats B's
own change against its base, measured alongside, for comparison.  It then
prints the Tier-1 rows of both files.
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


def tier1(checkout):
    """Run the Tier-1 suite of ``checkout`` once in a child process: its outcome
    counts, wall time, peak RSS and five slowest tests, from pytest's summary."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile("w+", encoding="utf-8") as log:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *TIER1, "--durations=5"], cwd=checkout, env=env,
                                 stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage, unlike RUSAGE_CHILDREN
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        lines = log.read().splitlines()
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for n, word in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts["errors" if word == "error" else word] += int(n)
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (call|setup|teardown) +(.+)").fullmatch, lines) if m]
    return {**counts, "exit_code": child.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024, "slowest": slowest[:5]}


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
        for side, row in bench.get("tier1", {}).items():
            print(f"tier1 {label} {side}: {row['passed']} passed, {row['failed']} failed, {row['errors']} errors "
                  f"in {row['wall_s']:.1f} s, peak RSS {row['peak_rss_mb']:.0f} MB")
            for test in row["slowest"]:
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

    suites = {side: tier1(sides[side]) for side in ("base", "head")}
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
        "workloads": workloads, "tier1": suites,
    }
    args.json.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
