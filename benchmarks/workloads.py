"""Seeded workload generators, the CLI calls that make one op, and output checks.

A workload turns a seed into a list of operating points.  Each point is a
dict of config values (``{section: {key: value}}``) plus the per-op
arguments.  The program only ever sees the generated config files and
CSVs; the seed stays in the benchmark.

Every generated point is checked for a positive total mechanical damping
(``SystemParams.build(...).gamma > 0``) and redrawn otherwise, so a
stability gate in the model can never turn a benchmark op into a failure.

The output checks test invariants any correct program satisfies, never
recorded values, so an intended numerical change is not counted as a
failure.
"""

from __future__ import annotations

import configparser
import io
import math

import numpy as np

from omsqueeze.config import ConfigError, default_config_text, load_config_text

N_POINTS = 64  # distinct points per run; ops cycle through them
SDE_SEGMENTS = 300  # 300 x 2**14 = 4.9e6 samples: more than one 2**22-sample RNG chunk
SDE_SEGMENT_SAMPLES = 1 << 14
SYNTH_N_C = 10.0  # probe power of the calibration data, as in calibration practice

HARMONIC_RTOL = 1e-7
SUM_RTOL = 1e-7
ROW_RTOL = 2e-8  # one unit in the 9th significant digit of the CSV
FIT_RTOL = 0.05
DETUNING_ATOL = 0.006


def base_sections():
    """The shipped default config as ``{section: {key: text}}``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config_text())
    return {s: dict(parser.items(s)) for s in parser.sections()}


def config_text(point):
    """Default config with the point's values substituted, as INI text."""
    sections = base_sections()
    for section, values in point["config"].items():
        sections.setdefault(section, {}).update({k: repr(v) for k, v in values.items()})
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def system_of(point, n_c=None):
    """SystemParams of the point (optionally at another photon number), or
    None when the model rejects it."""
    overrides = {} if n_c is None else {("system", "n_c"): n_c}
    try:
        return load_config_text(config_text(point), overrides=overrides).system
    except ConfigError:
        return None


def is_stable(point, n_c=None):
    params = system_of(point, n_c)
    return params is not None and params.gamma > 0


def _log_uniform(rng, lo, hi):
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _map_sweep_point(rng):
    return {
        "config": {
            "system": {
                "n_c": _log_uniform(rng, 300.0, 1500.0),
                "delta_over_kappa": float(rng.uniform(0.02, 0.08)),
            },
        },
        "row": int(rng.integers(int(base_sections()["grid"]["n_theta_lock"]))),
    }


def _calibrate_point(rng):
    return {
        "config": {
            "system": {"n_c": _log_uniform(rng, 100.0, 1500.0)},
            "run": {
                "theta_lock_rad": float(rng.uniform(-1.2, 1.2)),
                "seed": int(rng.integers(1 << 31)),
            },
        },
    }


def _oracle_point(rng):
    point = {
        "config": {
            "system": {
                "kappa_over_2pi_hz": float(rng.uniform(1.5e8, 3e8)),
                "omega_m0_over_2pi_hz": float(rng.uniform(0.8e6, 1.5e6)),
                "gamma_i_over_2pi_hz": float(rng.uniform(1e4, 3e4)),
                "g0_over_2pi_hz": float(rng.uniform(0.5e3, 2e3)),
                "n_c": float(rng.uniform(5.0, 30.0)),
                "delta_over_kappa": float(rng.uniform(0.01, 0.08)),
            },
            "run": {
                "theta_lock_rad": float(rng.uniform(-1.5, 1.5)),
                "seed": int(rng.integers(1 << 31)),
            },
        },
    }
    params = system_of(point)
    if params is not None:
        # step inside the dt <= 0.01/omega_m precondition; a fixed sample count
        # keeps the op cost independent of the drawn device
        dt = 0.009 / params.omega_m
        point["config"]["run"]["sde_dt_s"] = dt
        point["config"]["run"]["sde_duration_s"] = (SDE_SEGMENTS * SDE_SEGMENT_SAMPLES + 0.5) * dt
    return point


def _stable_calibrate(point):
    return is_stable(point) and is_stable(point, n_c=SYNTH_N_C)


def generate(workload, seed, n=N_POINTS):
    """``n`` stable operating points of ``workload``, a pure function of ``seed``."""
    draw, stable = {
        "map-sweep": (_map_sweep_point, is_stable),
        "calibrate": (_calibrate_point, _stable_calibrate),
        "oracle": (_oracle_point, is_stable),
    }[workload]
    rng = np.random.default_rng([seed, len(workload)])
    points = []
    while len(points) < n:
        point = draw(rng)
        if stable(point):
            points.append(point)
    return points


def op_calls(workload, cfg, out):
    """The ``omsqueeze.cli.main`` argument lists that make one op."""
    common = ["--config", str(cfg), "--out", str(out)]
    if workload == "map-sweep":
        return [["densitymap", *common]]
    if workload == "oracle":
        return [["oracle-check", *common]]
    n_c = repr(SYNTH_N_C)
    return [
        ["synth", *common, "--n-c", n_c],
        ["thermometry-fit", *common, "--n-c", n_c, "--data", str(out / "thermometry.csv")],
        ["infer-detuning", *common, "--data", str(out / "locksweep.csv")],
        ["spectrum", *common],
        ["quasistatic", *common],
    ]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _fit_estimates(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    return {r[0]: float(r[1]) for r in rows}


def harmonic_residual(theta_locks, values):
    """Largest per-column residual of ``S = A + B cos2t + C sin2t``, relative
    to that column's largest value (``values`` has shape (n_theta, n_freq))."""
    t = np.asarray(theta_locks, dtype=float)
    basis = np.column_stack([np.ones_like(t), np.cos(2 * t), np.sin(2 * t)])
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    resid = np.abs(basis @ coef - values).max(axis=0)
    return float(np.max(resid / np.abs(values).max(axis=0)))


def _map(out):
    _, data = _read_csv(out / "densitymap.csv")
    thetas = np.unique(data[:, 0])
    return thetas, data[:, 2].reshape(len(thetas), -1)


def check_map(out):
    thetas, values = _map(out)
    if values.shape[0] < 4:
        return [f"map has only {values.shape[0]} lock angles"]
    resid = harmonic_residual(thetas, values)
    return [] if resid <= HARMONIC_RTOL else [f"map is not harmonic in 2*theta: residual {resid:.3g}"]


def check_spectrum_sum(path):
    _, data = _read_csv(path)
    total = data[:, 1]
    parts = data[:, 2:].sum(axis=1)
    scale = np.maximum(np.abs(total), np.abs(data[:, 2:]).sum(axis=1))
    err = float(np.max(np.abs(parts - total) / scale))
    return [] if err <= SUM_RTOL else [f"spectrum components miss s_norm by {err:.3g}"]


def check_map_row(map_out, spectrum_out, row):
    """The map row at lock angle ``row`` equals a spectrum taken at that angle."""
    _, values = _map(map_out)
    _, spec = _read_csv(spectrum_out / "spectrum.csv")
    err = float(np.max(np.abs(values[row] - spec[:, 1]) / np.abs(spec[:, 1])))
    return [] if err <= ROW_RTOL else [f"map row {row} differs from its spectrum by {err:.3g}"]


def check_calibrate(point, out):
    system = {**base_sections()["system"], **point["config"].get("system", {})}
    problems = check_spectrum_sum(out / "spectrum.csv")
    fit = _fit_estimates(out / "thermometry_fit.csv")
    for key, name in (("g0_hz", "g0_over_2pi_hz"), ("gamma_i_hz", "gamma_i_over_2pi_hz")):
        truth = float(system[name])
        if not abs(fit[key] - truth) <= FIT_RTOL * truth:
            problems.append(f"{key} = {fit[key]:.6g}, generated with {truth:.6g}")
    delta = _fit_estimates(out / "detuning_fit.csv")["delta_over_kappa"]
    truth = float(system["delta_over_kappa"])
    if not abs(delta - truth) <= DETUNING_ATOL:
        problems.append(f"delta_over_kappa = {delta:.6g}, generated with {truth:.6g}")
    _, quasi = _read_csv(out / "quasistatic.csv")
    if not np.all(np.isfinite(quasi)):
        problems.append("quasistatic curve is not finite")
    return problems


def check_oracle(out):
    header, data = _read_csv(out / "sde_trace.csv")
    cols = data[:, [header.index("s_norm"), header.index("stderr")]]
    if not (np.all(np.isfinite(cols)) and np.all(cols > 0)):
        return ["SDE trace values or stderr not finite and positive"]
    return []


def check(workload, point, out):
    """Problems found in one op's outputs (empty when they are correct)."""
    if workload == "map-sweep":
        return check_map(out)
    if workload == "calibrate":
        return check_calibrate(point, out)
    return check_oracle(out)


def same_files(a, b):
    """Problems if directories ``a`` and ``b`` do not hold byte-identical files."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"repeated op wrote other files: {names}"]
    return [
        f"repeated op changed {name}"
        for name in names
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
