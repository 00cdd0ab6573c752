"""Print the sha256 of every file the CLI writes on a fixed set of runs.

    python3 tools/csv_digest.py > head.txt
    python3 tools/csv_digest.py --src ../base/src > base.txt
    diff base.txt head.txt

The runs are the seven commands on ``configs/default.ini`` (the fits on the
``synth`` data), an SDE-tracing ``oracle-check`` on the same config with
``sde_duration_s = 6e-3`` and ``sde_dt_s = 5e-11``, and the
``benchmarks/workloads.op_calls`` of the first 16 points that
``workloads.generate`` draws per workload at seed 2024.  Each run gets its
own output directory and is called in-process through ``cli.main`` of the
package under ``--src`` (this checkout's ``src`` by default).  Each run
prints one ``name: exit N`` line, then ``sha256  name/file`` for every file
it wrote, in name order, so two checkouts that write the same bytes print
the same text.  The commands' own stdout goes to stderr.

The first line names numpy's version, its SIMD baseline and the dispatched
targets this CPU runs: some files' bytes depend on which kernels numpy picks,
so two digests are a byte-identity check only when their first lines match.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, POINTS = 2024, 16
SDE_RUN = "sde_duration_s = 6e-3\nsde_dt_s = 5e-11\n"
FIT_DATA = {"thermometry-fit": "thermometry.csv", "infer-detuning": "locksweep.csv"}


def runs(work, workloads):
    """``(name, out, [argv, ...])`` of every run, its config files written under ``work``."""
    default = ROOT / "configs" / "default.ini"
    sde = work / "sde.ini"
    sde.write_text(default.read_text(encoding="utf-8").rstrip("\n") + "\n" + SDE_RUN, encoding="utf-8")
    synth_out = work / "default" / "synth"
    for command in ("synth", "spectrum", "densitymap", "quasistatic", "oracle-check", *FIT_DATA):
        out = work / "default" / command
        argv = [command, "--config", str(default), "--out", str(out)]
        if command in FIT_DATA:
            argv += ["--data", str(synth_out / FIT_DATA[command])]
        yield f"default/{command}", out, [argv]
    out = work / "default" / "oracle-check-sde"
    yield "default/oracle-check-sde", out, [["oracle-check", "--config", str(sde), "--out", str(out)]]
    for workload in ("map-sweep", "calibrate", "oracle"):
        for i, point in enumerate(workloads.generate(workload, SEED, n=POINTS)):
            cfg, out = work / f"{workload}-{i:02d}.ini", work / workload / f"{i:02d}"
            cfg.write_text(workloads.config_text(point), encoding="utf-8")
            yield f"{workload}/{i:02d}", out, workloads.op_calls(workload, cfg, out)


def numpy_dispatch():
    """``numpy <version> baseline <targets> dispatch <targets>``: the dispatched
    targets this CPU runs, less any that ``NPY_DISABLE_CPU_FEATURES`` turns off."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} baseline {' '.join(umath.__cpu_baseline__)} dispatch {' '.join(active) or '-'}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the omsqueeze package")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmarks")]
    import workloads
    from omsqueeze import cli

    print(numpy_dispatch())
    with tempfile.TemporaryDirectory() as tmp:
        for name, out, calls in runs(Path(tmp), workloads):
            with contextlib.redirect_stdout(sys.stderr):
                codes = [cli.main(call) for call in calls]
            print(f"{name}: exit {' '.join(map(str, codes))}")
            for path in sorted(out.iterdir()) if out.exists() else ():
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
