"""One benchmark run in a fresh process: a closed loop with one client.

Started by ``run.py``.  Imports ``omsqueeze.cli`` from the checkout's
``src`` and loads a config (the set-up the parent times), prints
``READY``, then runs one untimed warm-up op and timed ops until the
time is up.  One op is one or more in-process ``omsqueeze.cli.main(argv)``
calls on inputs generated from the seed.  The last stdout line is
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    import omsqueeze.cli
    from omsqueeze.config import default_config_text, load_config

    src = (ROOT / "src").resolve()
    if src not in Path(omsqueeze.cli.__file__).resolve().parents:
        raise SystemExit(f"omsqueeze was imported from outside {src}")
    return omsqueeze.cli, default_config_text, load_config


def _call(cli, argv):
    """One ``cli.main`` call; returns a problem string or None."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        return f"{argv[0]} raised {type(exc).__name__}: {exc}"
    if rc != 0:
        return f"{argv[0]} exited {rc}: {sink.getvalue().strip()[:200]}"
    return None


def environment():
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    blas = {}
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version")}
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMSQUEEZE_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


class Run:
    def __init__(self, cli, workload, points, workdir):
        self.cli = cli
        self.workload = workload
        self.points = points
        self.workdir = workdir
        self.configs = []
        for k, point in enumerate(points):
            path = workdir / f"cfg-{k}.ini"
            path.write_text(workloads.config_text(point), encoding="utf-8")
            self.configs.append(path)
        self.op_index = 0
        self.warm_problems = []

    def _op(self, k, out):
        """Run op ``k`` (on point ``k`` modulo the point count) into ``out``;
        returns (wall seconds, problems)."""
        calls = workloads.op_calls(self.workload, self.configs[k % len(self.configs)], out)
        problems = []
        start = time.perf_counter()
        for argv in calls:
            problem = _call(self.cli, argv)
            if problem:
                problems.append(problem)
                break
        wall = time.perf_counter() - start
        return wall, problems

    def _checked(self, k, out, problems):
        if not problems:
            try:
                problems = workloads.check(self.workload, self.points[k % len(self.points)], out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return problems

    def warm_up(self, load_config):
        """Untimed op on point 0, plus the once-per-run checks that need it."""
        out = self.workdir / "warm"
        _, problems = self._op(0, out)
        problems = self._checked(0, out, problems)
        if not problems and self.workload == "map-sweep":
            row = self.points[0]["row"]
            theta = load_config(self.configs[0]).grid.theta_locks()[row]
            spec = self.workdir / "row"
            argv = ["spectrum", "--config", str(self.configs[0]), "--out", str(spec),
                    "--theta-lock", repr(float(theta))]
            problem = _call(self.cli, argv)
            problems = [problem] if problem else workloads.check_map_row(out, spec, row)
            shutil.rmtree(spec, ignore_errors=True)
        self.warm_problems = problems

    def phase(self, seconds, tracer=None):
        """Timed closed loop for ``seconds``; per-op records.  With a tracer,
        every odd op runs traced, so traced and untraced ops see the same
        machine conditions."""
        records = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (tracer is not None and len(records) < 2):
            k = self.op_index
            self.op_index += 1
            out = self.workdir / f"op-{k}"
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.op = k
                tracer.install()
            try:
                wall, problems = self._op(k, out)
            finally:
                if traced:
                    tracer.remove()
            problems = self._checked(k, out, problems)
            if k == 0:
                problems = problems + self.warm_problems
                if not problems:
                    problems = workloads.same_files(self.workdir / "warm", out)
                shutil.rmtree(self.workdir / "warm", ignore_errors=True)
            csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv")) if out.exists() else 0
            shutil.rmtree(out, ignore_errors=True)
            records.append({"op": k, "wall_s": wall, "problems": problems,
                            "csv_bytes": csv_bytes, "traced": traced})
        return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="gzipped CSV to write the traced run's spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cli, default_config_text, load_config = _import_program()
    base = workdir / "base.ini"
    base.write_text(default_config_text(), encoding="utf-8")
    load_config(base)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = Run(cli, args.workload, workloads.generate(args.workload, args.seed), workdir)
    run.warm_up(load_config)
    result = {"env": environment()}
    tracer = Tracer() if args.trace else None
    records = run.phase(args.seconds, tracer)
    result["ops"] = [r for r in records if r["traced"]] if tracer else records
    if tracer is not None:
        result["untraced_ops"] = [r for r in records if not r["traced"]]
        calls, self_s, incl_s = tracer.totals()
        result["layers"] = {
            "calls": calls, "self_s": self_s, "incl_s": incl_s,
            "counters": dict(tracer.counters),
            "op_self_s": {str(k): v for k, v in tracer.op_self_time().items()},
        }
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
