"""Command-line entry point: config-driven, reproducible runs to CSV.

Commands
--------
spectrum        one detected spectrum at the configured lock angle
densitymap      detected PSD over (lock angle, frequency), long-form CSV
quasistatic     low-frequency closed-form curve at the configured lock angle
thermometry-fit fit (g0, gamma_i, n_b) to a thermometry CSV
infer-detuning  recover the detuning from a lock-sweep CSV
oracle-check    closed form vs frequency-domain solve over random draws
synth           generate seeded noisy synthetic data for the fits

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 I/O error.
All file frequencies are ordinary Hz, all angles radians, floats carry
9 significant digits; identical config + seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import core
from .config import ConfigError, ScenarioConfig, load_config, serialize_config
from .estimate import (
    EstimationError,
    ThermometryCurve,
    fit_thermometry,
    generate_lock_sweep,
    generate_thermometry_curve,
    infer_detuning,
)
from .instrument import (
    SpectrumTrace,
    assemble_density_map,
    detected_components,
    lock_to_quadrature,
)
from .noise import bath_occupation, effective_temperature
from .oracle import (
    InputCorrelationMatrix,
    OracleError,
    matrix_solve_spectrum,
    plan_sde,
    sde_time_domain_psd,
    solve_scalars,
)

FMT = "%.9g"
NEEDS_STABLE = ("spectrum", "densitymap", "quasistatic")


class DataError(ValueError):
    """An input CSV lacks a column or holds values that do not parse."""


def _fmt(x):
    return FMT % x


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_spectrum_csv(path, trace: SpectrumTrace, components=None):
    """SpectrumTrace schema: freq_hz,s_norm[,s_vac,s_thermal,s_phase,s_extra,s_absorptive][,stderr]."""
    header = ["freq_hz", "s_norm"]
    cols = [trace.freqs, trace.values]
    for name in ("s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive"):
        if components and name in components:
            header.append(name)
            cols.append(components[name])
    if trace.stderr is not None:
        header.append("stderr")
        cols.append(trace.stderr)
    # the same bytes ``csv.writer`` produces, one formatted string per row
    row_fmt = ",".join([FMT] * len(cols)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([row_fmt % tuple(row) for row in np.column_stack(cols).tolist()]))


def write_map_csv(path, sqmap):
    """Long form theta_lock_rad,freq_hz,s_norm; the same bytes ``csv.writer``
    produces, one map row per write from one prebuilt ``%`` template."""
    # "\0" stands for the row's lock angle; formatted numbers hold no "%"
    template = "".join([f"\0,{_fmt(f)},{FMT}\r\n" for f in sqmap.freqs])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("theta_lock_rad,freq_hz,s_norm\r\n")
        for theta, row in zip(sqmap.theta_locks, sqmap.values.tolist()):
            fh.write(template.replace("\0", _fmt(theta)) % tuple(row))


def write_fit_csv(path, pairs, residual_norm):
    rows = [[name, _fmt(est), _fmt(err)] for name, est, err in pairs]
    rows.append(["residual_norm", _fmt(residual_norm), _fmt(0.0)])
    _write_rows(path, ["param", "estimate", "stderr"], rows)


def _read_columns(path, names):
    """Named columns of a CSV with a header row, as float arrays."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    missing = [n for n in names if n not in (data.dtype.names or ())]
    if missing:
        raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
    cols = [np.atleast_1d(data[n]) for n in names]
    if not all(np.all(np.isfinite(c)) for c in cols):
        raise DataError(f"{path}: empty or non-numeric values in {', '.join(names)}")
    return cols


def read_thermometry_csv(path) -> ThermometryCurve:
    delta, freq, linewidth, area = _read_columns(
        path, ("delta_hz", "eff_freq_hz", "eff_linewidth_hz", "area_sn_hz")
    )
    try:
        return ThermometryCurve(
            detunings=2 * np.pi * delta,
            eff_freqs=2 * np.pi * freq,
            eff_linewidths=2 * np.pi * linewidth,
            areas=area,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_locksweep_csv(path):
    return np.column_stack(_read_columns(path, ("theta_lock_rad", "area_sn_hz")))


def cmd_spectrum(cfg: ScenarioConfig, outdir: Path):
    grid = cfg.grid
    trace, columns = detected_components(
        cfg.theta_lock_rad, grid.out_freqs(), cfg.scenario, grid.rbw_hz
    )
    write_spectrum_csv(outdir / "spectrum.csv", trace, components=columns)
    return 0


def cmd_densitymap(cfg: ScenarioConfig, outdir: Path):
    grid = cfg.grid
    sqmap = assemble_density_map(
        grid.theta_locks(), grid.out_freqs(), cfg.scenario, grid.rbw_hz
    )
    write_map_csv(outdir / "densitymap.csv", sqmap)
    return 0


def cmd_quasistatic(cfg: ScenarioConfig, outdir: Path):
    scenario = cfg.scenario
    params = scenario.system
    freqs = cfg.grid.out_freqs()
    theta = lock_to_quadrature(cfg.theta_lock_rad, params.optical, params.drive.delta)
    t_eff = (
        effective_temperature(scenario.bath, params.drive.n_c)
        if scenario.bath is not None
        else None
    )
    nbar = bath_occupation(2 * np.pi * freqs, t_eff) if t_eff else np.zeros_like(freqs)
    values = core.quasi_static_spectrum(theta, params, nbar)
    write_spectrum_csv(outdir / "quasistatic.csv", SpectrumTrace(freqs=freqs, values=values))
    return 0


def cmd_thermometry_fit(cfg: ScenarioConfig, outdir: Path, data=None):
    path = data or cfg.fit_paths.get("thermometry_csv")
    if not path:
        raise ConfigError(["thermometry-fit requires fit.thermometry_csv or --data"])
    curve = read_thermometry_csv(path)
    result = fit_thermometry(curve, cfg.system.optical, cfg.system.drive.n_c)
    two_pi = 2 * np.pi
    write_fit_csv(
        outdir / "thermometry_fit.csv",
        [
            ("g0_hz", result.g0_hat / two_pi, result.g0_err / two_pi),
            ("gamma_i_hz", result.gamma_i_hat / two_pi, result.gamma_i_err / two_pi),
            ("n_b", result.nb_hat, result.nb_err),
            ("omega_m0_hz", result.omega_m0_hat / two_pi, result.omega_m0_err / two_pi),
        ],
        result.residual_norm,
    )
    return 0


def cmd_infer_detuning(cfg: ScenarioConfig, outdir: Path, data=None):
    path = data or cfg.fit_paths.get("locksweep_csv")
    if not path:
        raise ConfigError(["infer-detuning requires fit.locksweep_csv or --data"])
    sweep = read_locksweep_csv(path)
    delta_hat, theta_star = infer_detuning(
        sweep, cfg.system.optical, omega_probe=cfg.system.mech.omega_m0
    )
    kappa = cfg.system.optical.kappa
    write_fit_csv(
        outdir / "detuning_fit.csv",
        [
            ("delta_hz", delta_hat / (2 * np.pi), 0.0),
            ("delta_over_kappa", delta_hat / kappa, 0.0),
            ("theta_star_lock_rad", theta_star, 0.0),
        ],
        0.0,
    )
    return 0


def _oracle_draws(params, seed, n_draws):
    """The ``oracle_check.csv`` rows of ``n_draws`` seeded random operating
    points, closed form against stacked matrix solves, and the largest
    relative error.  Only scalars and 4x4 correlation matrices are kept
    per draw, and all of them are freed before an SDE trace runs."""
    rng = np.random.default_rng(seed)
    omegas, thetas, s_ref = np.empty((3, n_draws))
    scalars = np.empty((n_draws, 8))
    corrs = np.empty((n_draws, 4, 4), dtype=complex)
    for i in range(n_draws):
        p = params.with_drive(
            delta=params.drive.delta * 10 ** rng.uniform(-1.5, 1.5) * rng.choice((-1.0, 1.0)),
            n_c=params.drive.n_c * 10 ** rng.uniform(-1.5, 1.5),
        )
        omegas[i] = omega = 2 * np.pi * 10 ** rng.uniform(5.5, 7.6)
        thetas[i] = theta = rng.uniform(-np.pi, np.pi)
        nbar = bath_occupation(omega, 16.0)
        s_ref[i] = core.spectrum_full(omega, theta, p, nbar)[0]
        scalars[i] = solve_scalars(p)
        corrs[i] = InputCorrelationMatrix.vacuum_thermal(nbar).matrix
    # stacked solves of 125 draws (250 systems): every temporary stays below
    # 128 kB; one stack of all draws, once freed, left about 1 MB of heap
    # resident under glibc malloc, which raised the peak of an SDE run after it
    blocks = [slice(k, k + 125) for k in range(0, n_draws, 125)]
    s_orc = np.concatenate(
        [matrix_solve_spectrum(omegas[b], thetas[b], scalars[b], corrs[b]) for b in blocks]
    )
    errs = np.abs(s_orc - s_ref) / np.abs(s_ref)
    max_err = float(errs.max())
    rows = [[_fmt(w / (2 * np.pi)), _fmt(t), _fmt(e)] for w, t, e in zip(omegas, thetas, errs)]
    rows.append(["max_rel_err", "", _fmt(max_err)])
    return rows, max_err


def cmd_oracle_check(cfg: ScenarioConfig, outdir: Path, n_draws=1000, tol=1e-9):
    params = cfg.system
    if (cfg.sde_duration_s > 0) != (cfg.sde_dt_s > 0):
        print(
            "config error: run.sde_duration_s and run.sde_dt_s must both be positive "
            f"for an SDE trace or both <= 0 to skip it (got {cfg.sde_duration_s!r} "
            f"and {cfg.sde_dt_s!r})",
            file=sys.stderr,
        )
        return 1
    sde = cfg.sde_duration_s > 0
    if sde:
        # reject bad SDE settings before the draws run (an unstable operating
        # point raises OracleError)
        try:
            plan_sde(params, cfg.sde_duration_s, cfg.sde_dt_s)
        except ValueError as exc:
            print(f"config error: run.sde_duration_s / run.sde_dt_s: {exc}", file=sys.stderr)
            return 1
    rows, max_err = _oracle_draws(params, cfg.seed, n_draws)
    _write_rows(outdir / "oracle_check.csv", ["freq_hz", "theta_rad", "rel_err"], rows)
    if sde:
        trace = sde_time_domain_psd(
            params, nbar=0.0, theta=cfg.theta_lock_rad, duration=cfg.sde_duration_s,
            dt=cfg.sde_dt_s, seed=cfg.seed,
        )
        write_spectrum_csv(outdir / "sde_trace.csv", trace)
    if max_err > tol:
        print(f"oracle-check FAILED: max relative error {max_err:.3e} > {tol:g}")
        return 2
    print(f"oracle-check ok: max relative error {max_err:.3e}")
    return 0


def cmd_synth(cfg: ScenarioConfig, outdir: Path):
    params = cfg.system
    optical, mech = params.optical, params.mech
    t_eff = (
        effective_temperature(cfg.scenario.bath, params.drive.n_c)
        if cfg.scenario.bath is not None
        else 16.0
    )
    n_b = float(bath_occupation(mech.omega_m0, t_eff))
    rng = np.random.default_rng(cfg.seed)
    # red-side sweep: optomechanically damped (stable) at any probe power
    deltas = np.linspace(0.02, 0.65, 13) * optical.kappa
    curve = generate_thermometry_curve(
        optical, mech, params.drive.n_c, deltas, n_b, noise_frac=0.01, rng=rng
    )
    two_pi = 2 * np.pi
    _write_rows(
        outdir / "thermometry.csv",
        ["delta_hz", "eff_freq_hz", "eff_linewidth_hz", "area_sn_hz"],
        (
            [_fmt(d / two_pi), _fmt(f / two_pi), _fmt(lw / two_pi), _fmt(a)]
            for d, f, lw, a in zip(
                curve.detunings, curve.eff_freqs, curve.eff_linewidths, curve.areas
            )
        ),
    )
    sweep = generate_lock_sweep(
        params, np.linspace(-1.2, 1.2, 41), n_b, noise_frac=0.01, rng=rng
    )
    _write_rows(
        outdir / "locksweep.csv",
        ["theta_lock_rad", "area_sn_hz"],
        ([_fmt(t), _fmt(a)] for t, a in sweep),
    )
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "densitymap": cmd_densitymap,
    "quasistatic": cmd_quasistatic,
    "thermometry-fit": cmd_thermometry_fit,
    "infer-detuning": cmd_infer_detuning,
    "oracle-check": cmd_oracle_check,
    "synth": cmd_synth,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="omsqueeze", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--n-c", type=float, default=None)
    parser.add_argument("--theta-lock", type=float, default=None)
    parser.add_argument("--data", default=None, help="input CSV for the fit commands")
    args = parser.parse_args(argv)

    overrides = {}
    if args.seed is not None:
        overrides[("run", "seed")] = args.seed
    if args.n_c is not None:
        overrides[("system", "n_c")] = args.n_c
    if args.theta_lock is not None:
        overrides[("run", "theta_lock_rad")] = args.theta_lock

    try:
        cfg = load_config(args.config, overrides=overrides)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "resolved_config.ini").write_text(serialize_config(cfg), encoding="utf-8")
        problem = core.instability(cfg.system) if args.command in NEEDS_STABLE else None
        if problem:
            print(f"numerical failure: {problem}", file=sys.stderr)
            return 2
        if args.command in ("thermometry-fit", "infer-detuning"):
            return _COMMANDS[args.command](cfg, outdir, data=args.data)
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (EstimationError, OracleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, DataError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
