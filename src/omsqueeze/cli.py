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
import collections
import functools
import math
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
    sde_time_domain_psd,
)

FMT = "%.9g"
WORD = np.dtype("<u8")  # the formatter's tables hold text in little-endian 8-byte words
NEEDS_STABLE = ("spectrum", "densitymap", "quasistatic", "synth", "oracle-check")
ORACLE_DRAWS = 1000  # random operating points oracle-check compares
ORACLE_TOL = 1e-9  # largest relative error of the closed form it accepts
# keys named when a model output overflows: the bath's if it is finite at zero occupation, else its component's
BATH_KEYS = "noise.t_b0_k, noise.c0_k_per_photon"
COMPONENT_KEYS = {
    "s_phase": "noise.s_omega_omega_rad2_hz",
    "s_extra": "noise.lump_q, noise.lump_omega_over_2pi_hz, noise.lump_g0_over_2pi_hz",
    "s_absorptive": "noise.absorptive_amp_per_photon",
}
# every command checks what it writes and names an overflow's cause: numpy's warnings would repeat it
QUIET_FP = dict(over="ignore", invalid="ignore", divide="ignore")


class DataError(ValueError):
    """An input CSV lacks a column or holds values that do not parse."""


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _overflow(what, cold_finite, keys="[system]"):
    """The config error for a model output that is not finite: it names the bath
    keys if the same output at zero bath occupation is finite, else ``keys``."""
    return ConfigError([f"{BATH_KEYS if cold_finite else keys}: {what}"])


@functools.cache
def _digit_tables():
    """For the exponents e = -4 .. 8 that the formatter handles, at e + 4: 10**(8 - e); at
    g + 1000 (e + 4) for g in 0..999 and each group j of three of the nine digits, the two words
    holding g's ASCII digits at their places in the text (digit k at 1 + k + (k > e) after a sign
    byte, the point at e + 2; for e < 0 at 2 - e + k after group 0's "0.000"[:1 - e]) and in byte
    15 g's count n of significant digits as group j in unary, 2**(n - 1) - 1, whose OR over the
    groups is the value's; at that + 1000 (e + 4), the masks keeping n digits and every integer one."""
    g, exps = np.arange(1000, dtype=np.uint64), range(-4, 9)
    words, masks = np.zeros((3, 2, len(exps), 1000), WORD), np.zeros((2, len(exps), 1000), WORD)
    kept = 3 - (g % 10 == 0).astype(np.uint64) - (g % 100 == 0) - (g == 0) + np.uint64([[[0]], [[3]], [[6]]])
    words[:, 1] = ((1 << kept * (g > 0)) - 1 >> 1) << 56
    for i, e in enumerate(exps):
        for k in range(9):
            p = 2 - e + k if e < 0 else 1 + k + (k > e)
            words[k // 3, p // 8, i] |= (g // 10 ** (2 - k % 3) % 10 + 48) << np.uint64(8 * (p % 8))
        for p, c in enumerate(b"0.000"[: 1 - e], 1) if e < 0 else [(e + 2, ord("."))] if e < 8 else []:
            words[0, p // 8, i] |= np.uint64(c << 8 * (p % 8))
        for n in range(1, 10):
            end = 2 - e + n if e < 0 else 1 + max(n, e + 1) + (n > e + 1)  # where the kept text ends
            masks[:, i, 2 ** (n - 1) - 1] = [((1 << 8 * end) - 1) >> 64 * w & 2**64 - 1 for w in (0, 1)]
    return np.array([float(10 ** (8 - e)) for e in exps]), words.reshape(3, 2, -1), masks.reshape(2, -1)


def _format_table(x):
    """``FMT % v`` for each v of ``x`` as a table of shape (2, *x.shape) of
    little-endian uint64 words: the 16 bytes of ``table[:, i]`` are
    ``FMT % x[i]`` with zero bytes added.

    With e = floor(log10|v|), y = |v| 10**(8 - e) is one correctly rounded
    product (10**(8 - e) is exact), so |y - t| <= 6e-8 for the exact
    t = |v| 10**(8 - e) in [1e8, 1e9).  The nine digits m are then rint(y),
    which equals the correctly rounded (half-even) round(t) that dtoa
    prints, unless y lies within 1e-6 of a half-integer, or within 1e-6 of
    1e8 or at or above 1e9 - 1 (where the exponent may differ).  Those values,
    |v| outside [1e-4, 1e9) (written with "e"), zeros and non-finite values are
    formatted by ``FMT %`` instead; the rest take their text from tables."""
    shape, x = np.shape(x), np.asarray(x, dtype=float).ravel()
    pow10, words, masks = _digit_tables()
    w0, w1 = table = np.empty((2, len(x)), WORD)
    # |v| outside [1e-4, 1e9), nan too, is clipped to an end (y = 1e8 or 1e9: the fallback), so nothing
    # warns; log10 can be one off only within ~1e-14 of a power of ten, where y is within 1e-6 of 1e8 or 1e9
    y = np.fmax(np.fmin(np.abs(x), 1e9), 1e-4)
    e4 = (np.floor(np.log10(y)) + 4).astype(np.intp)  # e + 4
    y *= pow10.take(e4, mode="clip")
    m = np.rint(y)
    fast = (y >= 1e8 + 1e-6) & (y < 1e9 - 1) & (np.abs(np.subtract(y, m, out=y), out=y) < 0.5 - 1e-6)
    last = m.astype(np.intp)
    middle = last // 1000
    last -= 1000 * middle
    first = middle // 1000  # 1000 at most
    middle -= 1000 * first
    e4 *= 1000
    for group in (first, middle, last):
        group += e4
    for k, w in enumerate(table):
        np.bitwise_or(words[0, k].take(first, mode="clip") | words[1, k].take(middle, mode="clip"),
                      words[2, k].take(last, mode="clip"), out=w)
    e4 += (w1 >> 56).view(np.intp)  # + the unary count of significant digits, from byte 15
    for k, w in enumerate(table):  # %g drops trailing zeros, but not integer digits
        w &= masks[k].take(e4, mode="clip")
    np.bitwise_or(w0, ord("-"), out=w0, where=x < 0)
    slow = np.flatnonzero(~fast)  # "%.9g" is at most 16 bytes long
    if len(slow):
        texts = [(FMT % s).encode() for s in x[slow].tolist()]
        table[:, slow] = np.array(texts, "S16").view(WORD).reshape(-1, 2).T
    return table.reshape(2, *shape)


def _text_table(cells):
    """The ASCII strings ``cells`` as a (k, n) table in the layout of ``_format_table``."""
    text = np.array([c.encode() for c in cells], "S")
    return text.astype(f"S{-(-text.itemsize // 8) * 8}").view(WORD).reshape(len(text), -1).T


def _number_columns(cols):
    """The tables of equal-length float columns, formatted in one call."""
    return list(np.moveaxis(_format_table(np.column_stack(cols)), -1, 0))


def _csv_bytes(fields, buf):
    """CSV lines, ended by CRLF, from one word table per column of shape (k, *shape),
    the shapes broadcasting together, as ``_format_table`` returns them.  Each column
    is as wide as its widest cell, then its separator; a line is OR-ed together in
    ``buf`` (reused from block to block) from the columns' words shifted to their
    byte offsets, and the zero bytes are removed.  A column of the full shape starts
    at a word boundary, as shifting it would cost passes over every cell."""
    shape = np.broadcast_shapes(*(f.shape[1:] for f in fields))
    words, at = collections.defaultdict(list), 0  # per word of a line: the parts OR-ed into it
    for k, f in enumerate(fields):
        width = len(np.bitwise_or.reduce(f.reshape(len(f), -1), axis=1).astype(WORD).tobytes().rstrip(b"\0"))
        q, r = divmod(-(-at // 8) * 8 if f.shape[1:] == shape else at, 8)
        span = bytes(r + width) + (b"\r\n" if k == len(fields) - 1 else b",")
        for j, sep in enumerate(np.frombuffer(span + bytes(-len(span) % 8), WORD)):
            words[q + j] += [f[j] << 8 * r if r else f[j]] if j < len(f) else []
            words[q + j] += ([f[j - 1] >> (64 - 8 * r)] if r and 0 < j <= len(f) else []) + ([sep] if sep else [])
        at = 8 * q + len(span)
    size = 8 * len(words) * math.prod(shape)
    del buf[size:]
    buf.extend(bytes(size - len(buf)))
    lines = np.frombuffer(buf, WORD).reshape(*shape, len(words))
    for k, (first, *rest) in words.items():  # the rest are the separator and broadcast parts: small
        np.bitwise_or(first, functools.reduce(np.bitwise_or, rest, np.uint64(0)), out=lines[..., k])
    return buf.translate(None, b"\0")


def _write_csv(path, header, blocks):
    """The ``header`` line, then the ``_csv_bytes`` lines of each block of fields:
    the bytes ``csv.writer`` writes for cells with no comma, quote or line break."""
    buf = bytearray()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(_csv_bytes(fields, buf) for fields in blocks)


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
    """Long form theta_lock_rad,freq_hz,s_norm.  Angles and frequencies are formatted once,
    in one call, the values in blocks of whole map rows of about MAP_BLOCK values, all before
    the first block is written, so that the formatter runs with its tables in cache."""
    n, step = len(sqmap.theta_locks), max(1, MAP_BLOCK // len(sqmap.freqs))
    thetas, freqs = np.split(_format_table(np.concatenate([sqmap.theta_locks, sqmap.freqs])), [n], axis=1)
    values = [_format_table(sqmap.values[r : r + step]) for r in range(0, n, step)]
    blocks = ([thetas[:, r : r + step, np.newaxis], freqs[:, np.newaxis], v] for r, v in zip(range(0, n, step), values))
    _write_csv(path, ["theta_lock_rad", "freq_hz", "s_norm"], blocks)


def write_fit_csv(path, pairs, residual_norm):
    """param,estimate,stderr: the (name, estimate, stderr) ``pairs``, then residual_norm."""
    names, estimates, errs = zip(*pairs, ("residual_norm", residual_norm, 0.0))
    fields = [_text_table(names), *_number_columns([estimates, errs])]
    _write_csv(path, ["param", "estimate", "stderr"], [fields])


def _read_columns(path, names):
    """Named columns of a CSV with a header row, as float arrays.  The first line
    that is not blank is the header, a leading ``#`` dropped (``np.savetxt``
    writes one); its names, stripped of blanks and double quotes, pick the
    columns in any order.  Later blank lines and ``#`` comments are skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not a name
            first = next((line for line in fh if line.strip()), "")
            header = [name.strip().strip('"') for name in first.strip().removeprefix("#").split(",")]
            rows = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
        if header == [""]:
            raise ValueError("no header row")
        # loadtxt warns on no rows: a header-only file reads as zero rows
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(header)))
        if data.shape[1] != len(header):
            raise ValueError(f"{len(header)} names in the header, {data.shape[1]} cells in each row")
    except ValueError as exc:  # also ragged rows, cells that are not numbers and bad UTF-8
        raise DataError(f"{path}: unreadable CSV: {' '.join(str(exc).split())}") from None
    missing = [n for n in names if n not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
    cols = [data[:, header.index(n)] for n in names]
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
    trace, columns = detected_components(cfg.theta_lock_rad, cfg.grid.out_freqs(), cfg.scenario, cfg.grid.rbw_hz)
    write_spectrum_csv(outdir / "spectrum.csv", trace, components=columns)
    return 0


def cmd_densitymap(cfg: ScenarioConfig, outdir: Path):
    sqmap = assemble_density_map(cfg.grid.theta_locks(), cfg.grid.out_freqs(), cfg.scenario, cfg.grid.rbw_hz)
    write_map_csv(outdir / "densitymap.csv", sqmap)
    return 0


def cmd_quasistatic(cfg: ScenarioConfig, outdir: Path):
    scenario = cfg.scenario
    params = scenario.system
    freqs = cfg.grid.out_freqs()
    theta = lock_to_quadrature(cfg.theta_lock_rad, params.optical, params.drive.delta)
    values = core.quasi_static_spectrum(theta, params, scenario.occupation(2 * np.pi * freqs))
    if not _finite(values):
        cold_finite = _finite(core.quasi_static_spectrum(theta, params, 0.0))
        raise _overflow("the quasi-static thermal term overflows a float", cold_finite)
    if not np.all(values >= 0):  # the law is first order in gamma_meas/omega_m0: weak measurement only
        ratio = 4 * params.drive.gamma_meas / params.mech.omega_m0
        raise ConfigError([f"quasistatic: 4 gamma_meas/omega_m0 = {ratio:.6g}: the quasi-static law goes negative"])
    write_spectrum_csv(outdir / "quasistatic.csv", SpectrumTrace(freqs=freqs, values=values))
    return 0


def cmd_thermometry_fit(cfg: ScenarioConfig, outdir: Path, data):
    curve = read_thermometry_csv(data)
    result = fit_thermometry(curve, cfg.system.optical, cfg.system.drive.n_c)
    two_pi = 2 * np.pi
    pairs = [
        ("g0_hz", result.g0_hat / two_pi, result.g0_err / two_pi),
        ("gamma_i_hz", result.gamma_i_hat / two_pi, result.gamma_i_err / two_pi),
        ("n_b", result.nb_hat, result.nb_err),
        ("omega_m0_hz", result.omega_m0_hat / two_pi, result.omega_m0_err / two_pi),
    ]
    # a singular J^T J leaves the error bars nan
    if not _finite([v for _, estimate, err in pairs for v in (estimate, err)], result.residual_norm):
        raise EstimationError(f"fit result is not finite (singular or overflowing J^T J or residual): "
                              f"residual_norm={result.residual_norm:.3e}")
    write_fit_csv(outdir / "thermometry_fit.csv", pairs, result.residual_norm)
    return 0


def cmd_infer_detuning(cfg: ScenarioConfig, outdir: Path, data):
    optical = cfg.system.optical
    delta_hat, theta_star = infer_detuning(read_locksweep_csv(data), optical, omega_probe=cfg.system.mech.omega_m0)
    pairs = [
        ("delta_hz", delta_hat / (2 * np.pi), 0.0),
        ("delta_over_kappa", delta_hat / optical.kappa, 0.0),
        ("theta_star_lock_rad", theta_star, 0.0),
    ]
    write_fit_csv(outdir / "detuning_fit.csv", pairs, 0.0)
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
    freqs, thetas, errs = _oracle_draws(params, cfg.seed, ORACLE_DRAWS)
    max_err = float(errs.max())
    _write_csv(outdir / "oracle_check.csv", ["freq_hz", "theta_rad", "rel_err"], [
        _number_columns([freqs, thetas, errs]),
        [_text_table(["max_rel_err"]), _text_table([""]), _format_table([max_err])],
    ])
    if cfg.sde_duration_s > 0:  # load_config checked the SDE settings
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
    n_b = float(cfg.scenario.occupation(mech.omega_m0))
    if not np.isfinite(n_b):
        raise ConfigError([f"{BATH_KEYS}: the bath occupation at omega_m0 overflows a float"])
    rng = np.random.default_rng(cfg.seed)
    curve = generate_thermometry_curve(optical, mech, n_c, deltas, n_b, noise_frac=0.01, rng=rng)
    sweep = generate_lock_sweep(params, thetas, n_b, noise_frac=0.01, rng=rng)
    columns = np.array([curve.detunings, curve.eff_freqs, curve.eff_linewidths]) / (2 * np.pi)
    if not _finite(columns, curve.areas, sweep):
        cold = generate_thermometry_curve(optical, mech, n_c, deltas, 0.0)
        parts = (cold.eff_freqs, cold.eff_linewidths, cold.areas, generate_lock_sweep(params, thetas, 0.0))
        raise _overflow(f"the synthetic data overflow a float (n_b = {n_b:.6g})", _finite(*parts))
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
    flags = {("run", "seed"): args.seed, ("system", "n_c"): args.n_c, ("run", "theta_lock_rad"): args.theta_lock}
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        with np.errstate(**QUIET_FP):
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
        print(_overflow(exc, exc.cold_finite, COMPONENT_KEYS.get(exc.component, "[system]")), file=sys.stderr)
        return 1
    except (EstimationError, OracleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, DataError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
