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
import functools
import sys
import warnings
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
    NoiseOverflowError,
    SpectrumTrace,
    assemble_density_map,
    detected_components,
    lock_to_quadrature,
)
from .noise import bath_occupation
from .oracle import (
    InputCorrelationMatrix,
    OracleError,
    matrix_solve_spectrum,
    plan_sde,
    sde_time_domain_psd,
)

FMT = "%.9g"
NEEDS_STABLE = ("spectrum", "densitymap", "quasistatic", "synth", "oracle-check")
ORACLE_DRAWS = 1000  # random operating points oracle-check compares
ORACLE_TOL = 1e-9  # largest relative error of the closed form it accepts
# the config keys that set the size of each noise component beside [system], named when it overflows
BATH_KEYS = "noise.t_b0_k, noise.c0_k_per_photon"
COMPONENT_KEYS = {
    "s_thermal": BATH_KEYS,
    "s_phase": "noise.s_omega_omega_rad2_hz",
    "s_extra": f"noise.lump_q, noise.lump_omega_over_2pi_hz, noise.lump_g0_over_2pi_hz, {BATH_KEYS}",
    "s_absorptive": "noise.absorptive_amp_per_photon",
}
# the noise commands check what they write and name an overflow's key: numpy's warnings would repeat it
QUIET_FP = dict(over="ignore", invalid="ignore", divide="ignore")


class DataError(ValueError):
    """An input CSV lacks a column or holds values that do not parse."""


@functools.cache
def _digit_tables():
    """10**0 .. 10**22 (each exact in float64), the three ASCII digits of
    each of 0..999 as a (3, 1000) table, and how many of those three digits
    are left once trailing zeros are stripped (0 for 0)."""
    g = np.arange(1000)
    digits = (np.stack([g // 100, g // 10 % 10, g % 10]) + ord("0")).astype(np.uint8)
    kept = np.where(g % 10, 3, np.where(g % 100, 2, np.where(g, 1, 0))).astype(np.int8)
    return np.array([float(10**k) for k in range(23)]), digits, kept


def _format_table(x):
    """``FMT % v`` for each v of ``x``, as a uint8 table of shape (W, *x.shape):
    ``table[:, i]`` with its zero bytes removed is ``FMT % x[i]``.

    With e = floor(log10|v|), y = |v| 10**(8 - e) is one correctly rounded
    product (10**(8 - e) is exact), so |y - t| <= 6e-8 for the exact
    t = |v| 10**(8 - e) in [1e8, 1e9).  The nine digits are then rint(y),
    which equals the correctly rounded (half-even) round(t) that dtoa
    prints, unless frac(y) lies within 1e-6 of 1/2 or y within 1e-6 of 1e8
    or at or above 1e9 - 1 (where the exponent may differ).  Those values,
    |v| outside [1e-13, 1e9), zeros and non-finite values are formatted by
    ``FMT %`` instead.  The digits come from a table of 0..999; the sign,
    the point, the "0.000" prefix and the "e-XX" suffix follow %g."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    pow10, digits, kept = _digit_tables()
    a = np.abs(x)
    fast = (a >= 1e-13) & (a < 1e9)
    a[~fast] = 1.0
    # log10 can be one off only within ~1e-14 of a power of ten, where y
    # lands within 1e-6 of 1e8 or 1e9 and the value goes to the fallback
    e = np.floor(np.log10(a)).astype(np.int16)
    y = a * pow10.take(8 - e, mode="clip")
    fast &= (y >= 1e8 + 1e-6) & (y < 1e9 - 1) & (np.abs(y - np.floor(y) - 0.5) >= 1e-6)
    y[~fast], e[~fast] = 1e8, 0  # placeholders, overwritten below
    m = np.rint(y).astype(np.int32)
    hi, mid = m // 1000000, m // 1000
    groups = (hi, mid - 1000 * hi, m - 1000 * mid)
    n_sig = np.where(
        groups[2] > 0, 6 + kept[groups[2]],
        np.where(groups[1] > 0, 3 + kept[groups[1]], kept[groups[0]]),
    )
    fixed = e >= -4  # %g: fixed point for exponents -4..8, else d.ddde-XX
    keep = np.where(fixed, np.maximum(n_sig, e + 1), n_sig)  # integer digits stay
    d9 = np.empty((9, len(x)), np.uint8)
    for i, group in enumerate(groups):
        digits.take(group, axis=1, out=d9[3 * i : 3 * i + 3])
    for j in range(keep.min(initial=9), 9):
        d9[j] *= keep > j
    point = np.where(e >= 0, e, np.where(fixed, -1, 0))  # '.' after this digit
    point[n_sig <= point + 1] = -1
    lead = np.where(fixed & (e < 0), 1 - e, 0)  # bytes of the "0.000" prefix
    negative = x < 0
    rows = [negative * np.uint8(ord("-"))] if negative.any() else []
    rows += [(lead > r) * np.uint8(c) for r, c in enumerate(b"0.000"[: lead.max(initial=0)])]
    for j in range(keep.max(initial=0)):
        rows.append(d9[j])
        if (point == j).any():
            rows.append((point == j) * np.uint8(ord(".")))
    sci = ~fixed
    if sci.any():
        rows += [sci * np.uint8(c) for c in b"e-"]
        rows += [sci * (ord("0") + d).astype(np.uint8) for d in divmod(-e, 10)]
    slow = np.flatnonzero(~fast)
    text = _text_table([FMT % v for v in x[slow].tolist()])
    table = np.zeros((max(len(rows), len(text)), len(x)), np.uint8)
    table[: len(rows)] = rows
    table[:, slow] = 0
    table[: len(text), slow] = text
    return table.reshape(len(table), *shape)


def _text_table(cells):
    """The ASCII strings ``cells`` as a (W, n) uint8 table in the layout of
    ``_format_table``: column i with its zero bytes removed is cells[i]."""
    text = np.array([c.encode() for c in cells], dtype=bytes)
    return text.view(np.uint8).reshape(-1, text.itemsize).T


def _number_columns(cols):
    """The (W, n) tables of equal-length float columns, formatted in one call."""
    return list(np.moveaxis(_format_table(np.column_stack(cols)), -1, 0))


def _csv_bytes(fields):
    """CSV lines, ended by CRLF, from one byte table per column of shape
    (W, *shape), the shapes broadcasting together, as ``_format_table``
    returns them; the zero bytes are removed."""
    shape = np.broadcast_shapes(*(f.shape[1:] for f in fields))
    width = sum(len(f) for f in fields) + len(fields) + 1
    table = np.empty((width, *shape), np.uint8)
    at = 0
    for f in fields:
        table[at : at + len(f)] = f
        at += len(f) + 1
        table[at - 1] = ord(",")
    table[at - 1] = ord("\r")
    table[at] = ord("\n")
    return table.reshape(width, -1).T.tobytes().translate(None, b"\0")


def _write_csv(path, header, blocks):
    """The ``header`` line, then the ``_csv_bytes`` lines of each block of fields:
    the bytes ``csv.writer`` writes for cells with no comma, quote or line break."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for fields in blocks:
            fh.write(_csv_bytes(fields))


def write_spectrum_csv(path, trace: SpectrumTrace, components=None):
    """SpectrumTrace schema: freq_hz,s_norm[,s_vac,s_thermal,s_phase,s_extra,s_absorptive][,stderr]."""
    cols = {"freq_hz": trace.freqs, "s_norm": trace.values}
    for name in ("s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive"):
        if components and name in components:
            cols[name] = components[name]
    if trace.stderr is not None:
        cols["stderr"] = trace.stderr
    _write_csv(path, list(cols), [_number_columns(list(cols.values()))])


MAP_BLOCK = 1 << 13  # map values formatted and written at once (64 kB of float64)


def write_map_csv(path, sqmap):
    """Long form theta_lock_rad,freq_hz,s_norm.  Angles and frequencies are formatted
    once, the values in blocks of whole map rows of about MAP_BLOCK values."""
    thetas = _format_table(sqmap.theta_locks[:, np.newaxis])
    freqs = _format_table(sqmap.freqs[np.newaxis])
    step = max(1, MAP_BLOCK // len(sqmap.freqs))
    _write_csv(path, ["theta_lock_rad", "freq_hz", "s_norm"], (
        [thetas[:, r : r + step], freqs, _format_table(sqmap.values[r : r + step])]
        for r in range(0, len(sqmap.theta_locks), step)
    ))


def write_fit_csv(path, pairs, residual_norm):
    """param,estimate,stderr: the (name, estimate, stderr) ``pairs``, then residual_norm."""
    names, estimates, errs = zip(*pairs, ("residual_norm", residual_norm, 0.0))
    fields = [_text_table(names), *_number_columns([estimates, errs])]
    _write_csv(path, ["param", "estimate", "stderr"], [fields])


def _read_columns(path, names):
    """Named columns of a CSV with a header row, as float arrays."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # genfromtxt only warns on an empty file
            data = np.genfromtxt(path, delimiter=",", names=True)
    except (ValueError, UserWarning) as exc:  # also ragged rows and bad UTF-8
        raise DataError(f"{path}: unreadable CSV: {' '.join(str(exc).split())}") from None
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
    with np.errstate(**QUIET_FP):
        trace, columns = detected_components(cfg.theta_lock_rad, grid.out_freqs(), cfg.scenario, grid.rbw_hz)
    write_spectrum_csv(outdir / "spectrum.csv", trace, components=columns)
    return 0


def cmd_densitymap(cfg: ScenarioConfig, outdir: Path):
    grid = cfg.grid
    with np.errstate(**QUIET_FP):
        sqmap = assemble_density_map(grid.theta_locks(), grid.out_freqs(), cfg.scenario, grid.rbw_hz)
    write_map_csv(outdir / "densitymap.csv", sqmap)
    return 0


def cmd_quasistatic(cfg: ScenarioConfig, outdir: Path):
    scenario = cfg.scenario
    params = scenario.system
    freqs = cfg.grid.out_freqs()
    theta = lock_to_quadrature(cfg.theta_lock_rad, params.optical, params.drive.delta)
    with np.errstate(**QUIET_FP):
        values = core.quasi_static_spectrum(theta, params, scenario.occupation(2 * np.pi * freqs))
    if not np.all(np.isfinite(values)):
        raise ConfigError([f"{BATH_KEYS}: the quasi-static thermal term overflows a float"])
    if not np.all(values >= 0):  # the law is first order in gamma_meas/omega_m0: weak measurement only
        ratio = 4 * params.drive.gamma_meas / params.mech.omega_m0
        raise ConfigError([f"quasistatic: 4 gamma_meas/omega_m0 = {ratio:.6g}: the quasi-static law goes negative"])
    write_spectrum_csv(outdir / "quasistatic.csv", SpectrumTrace(freqs=freqs, values=values))
    return 0


def cmd_thermometry_fit(cfg: ScenarioConfig, outdir: Path, data):
    curve = read_thermometry_csv(data)
    with np.errstate(**QUIET_FP):  # what it writes is checked below
        result = fit_thermometry(curve, cfg.system.optical, cfg.system.drive.n_c)
    two_pi = 2 * np.pi
    pairs = [
        ("g0_hz", result.g0_hat / two_pi, result.g0_err / two_pi),
        ("gamma_i_hz", result.gamma_i_hat / two_pi, result.gamma_i_err / two_pi),
        ("n_b", result.nb_hat, result.nb_err),
        ("omega_m0_hz", result.omega_m0_hat / two_pi, result.omega_m0_err / two_pi),
    ]
    # a singular J^T J leaves the error bars nan
    if not np.all(np.isfinite([v for _, estimate, err in pairs for v in (estimate, err)] + [result.residual_norm])):
        raise EstimationError(f"fit result is not finite (singular or overflowing J^T J or residual): "
                              f"residual_norm={result.residual_norm:.3e}")
    write_fit_csv(outdir / "thermometry_fit.csv", pairs, result.residual_norm)
    return 0


def cmd_infer_detuning(cfg: ScenarioConfig, outdir: Path, data):
    sweep = read_locksweep_csv(data)
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
    """Frequency (Hz), quadrature and relative error of ``n_draws`` seeded
    random operating points, closed form against stacked matrix solves, each
    block of draws evaluated as one batched drive."""
    rng = np.random.default_rng(seed)
    deltas, n_cs, omegas, thetas = np.empty((4, n_draws))
    for i in range(n_draws):
        deltas[i] = params.drive.delta * 10 ** rng.uniform(-1.5, 1.5) * (-1.0, 1.0)[rng.integers(0, 2)]
        n_cs[i] = params.drive.n_c * 10 ** rng.uniform(-1.5, 1.5)
        omegas[i] = 2 * np.pi * 10 ** rng.uniform(5.5, 7.6)
        thetas[i] = rng.uniform(-np.pi, np.pi)
    # blocks of 125 draws (250 solved systems): every temporary stays below
    # 128 kB; one stack of all draws, once freed, left about 1 MB of heap
    # resident under glibc malloc, which raised the peak of an SDE run after it
    errs = np.empty(n_draws)
    for k in range(0, n_draws, 125):
        b = slice(k, k + 125)
        omega, theta = omegas[b], thetas[b]
        try:
            p = params.with_drive(delta=deltas[b], n_c=n_cs[b])
        except core.DriveOverflowError as exc:
            raise OracleError(f"oracle draw {k + exc.index} (n_c = {n_cs[k + exc.index]:.6g}): {exc}") from None
        nbar = bath_occupation(omega, 16.0)
        s_ref = core.spectrum_full(omega, theta, p, nbar)[0]
        s_orc = matrix_solve_spectrum(omega, theta, p, InputCorrelationMatrix.vacuum_thermal(nbar))
        errs[b] = np.abs(s_orc - s_ref) / np.abs(s_ref)
    bad = np.flatnonzero(~np.isfinite(errs))
    if len(bad):  # nan would pass the tolerance
        k = int(bad[0])
        raise OracleError(f"oracle draw {k} (n_c = {n_cs[k]:.6g}): the closed form or the matrix solve is not finite")
    return omegas / (2 * np.pi), thetas, errs


def cmd_oracle_check(cfg: ScenarioConfig, outdir: Path):
    params = cfg.system
    sde = cfg.sde_duration_s > 0
    try:  # reject bad SDE settings before the draws run
        if sde != (cfg.sde_dt_s > 0):
            raise ValueError(
                "both must be positive for an SDE trace or both <= 0 to skip it "
                f"(got {cfg.sde_duration_s!r} and {cfg.sde_dt_s!r})"
            )
        if sde:
            plan_sde(params, cfg.sde_duration_s, cfg.sde_dt_s)
    except ValueError as exc:
        print(f"config error: run.sde_duration_s / run.sde_dt_s: {exc}", file=sys.stderr)
        return 1
    with np.errstate(**QUIET_FP):
        freqs, thetas, errs = _oracle_draws(params, cfg.seed, ORACLE_DRAWS)
    max_err = float(errs.max())
    _write_csv(outdir / "oracle_check.csv", ["freq_hz", "theta_rad", "rel_err"], [
        _number_columns([freqs, thetas, errs]),
        [_text_table(["max_rel_err"]), _text_table([""]), _format_table([max_err])],
    ])
    if sde:
        trace = sde_time_domain_psd(
            params, nbar=0.0, theta=cfg.theta_lock_rad, duration=cfg.sde_duration_s,
            dt=cfg.sde_dt_s, seed=cfg.seed,
        )
        write_spectrum_csv(outdir / "sde_trace.csv", trace)
    if max_err > ORACLE_TOL:
        print(f"oracle-check FAILED: max relative error {max_err:.3e} > {ORACLE_TOL:g}")
        return 2
    print(f"oracle-check ok: max relative error {max_err:.3e}")
    return 0


def cmd_synth(cfg: ScenarioConfig, outdir: Path):
    params = cfg.system
    optical, mech, n_c = params.optical, params.mech, params.drive.n_c
    # red-side sweep: optomechanically damped (stable) at any probe power
    deltas, thetas = np.linspace(0.02, 0.65, 13) * optical.kappa, np.linspace(-1.2, 1.2, 41)
    with np.errstate(**QUIET_FP):
        n_b = float(cfg.scenario.occupation(mech.omega_m0))
        if not np.isfinite(n_b):
            raise ConfigError([f"{BATH_KEYS}: the bath occupation at omega_m0 overflows a float"])
        rng = np.random.default_rng(cfg.seed)
        curve = generate_thermometry_curve(optical, mech, n_c, deltas, n_b, noise_frac=0.01, rng=rng)
        sweep = generate_lock_sweep(params, thetas, n_b, noise_frac=0.01, rng=rng)
        columns = np.array([curve.detunings, curve.eff_freqs, curve.eff_linewidths]) / (2 * np.pi)
        if not all(np.all(np.isfinite(c)) for c in (columns, curve.areas, sweep)):
            # the bath enters only the areas, as the factor n_b + 1: without it the rest is [system]'s
            cold = generate_thermometry_curve(optical, mech, n_c, deltas, 0.0)
            parts = (cold.eff_freqs, cold.eff_linewidths, cold.areas, generate_lock_sweep(params, thetas, 0.0))
            keys = BATH_KEYS if all(np.all(np.isfinite(c)) for c in parts) else "[system]"
            raise ConfigError([f"{keys}: the synthetic data overflow a float (n_b = {n_b:.6g})"])
    header = ["delta_hz", "eff_freq_hz", "eff_linewidth_hz", "area_sn_hz"]
    _write_csv(outdir / "thermometry.csv", header, [_number_columns([*columns, curve.areas])])
    _write_csv(outdir / "locksweep.csv", ["theta_lock_rad", "area_sn_hz"], [_number_columns(sweep.T)])
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


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="omsqueeze", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--n-c", type=float, default=None)
    parser.add_argument("--theta-lock", type=float, default=None)
    parser.add_argument("--data", default=None, help="input CSV for the fit commands")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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
            if not args.data:
                raise ConfigError([f"{args.command} requires --data"])
            return _COMMANDS[args.command](cfg, outdir, args.data)
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except NoiseOverflowError as exc:
        print(ConfigError([f"{COMPONENT_KEYS.get(exc.component, '[system]')}: {exc}"]), file=sys.stderr)
        return 1
    except (EstimationError, OracleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, DataError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
