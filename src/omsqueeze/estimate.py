"""Inverse problems: device characterization from measured curves.

Extracts (g0, gamma_i, n_b) from spring/damping/area-vs-detuning data,
the laser detuning from the lock angle that nulls the mechanical signal,
and the homodyne efficiency from an injected calibration tone.

The mechanical-peak area model used throughout is the resonant part of
the thermal spectrum integrated over the line: for a drive at detuning
``delta`` sustaining ``n_c`` photons, the shot-normalized area is

    area(theta) = (n_b + 1) * kappa_e * gamma_i * |c_theta|^2 / gamma_total
    c_theta     = i G [e^{-i theta} u - e^{i theta} v],
    u = 1/(i(delta - omega_probe) + kappa/2),  v = conj(1/(i(delta + omega_probe) + kappa/2))

which is exact up to O(gamma/omega_m) corrections from the anti-resonant
terms.  At constant input power the photon number follows the cavity
Lorentzian, n_c(delta) = n_c0 (kappa/2)^2 / (delta^2 + (kappa/2)^2),
with n_c0 referenced to resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MechanicalMode, OpticalMode, SystemParams, spring_damping_rates, transduction_phasors
from .instrument import reflection_phase
from .noise import DetectionChain

__all__ = [
    "ThermometryCurve",
    "FitResult",
    "EstimationError",
    "fit_thermometry",
    "infer_detuning",
    "homodyne_efficiency_from_tone",
    "generate_thermometry_curve",
    "generate_lock_sweep",
]

MAX_NFEV = 200


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ThermometryCurve:
    """Per-detuning effective frequency, linewidth, and calibrated peak area."""

    detunings: np.ndarray
    eff_freqs: np.ndarray
    eff_linewidths: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        for name in ("detunings", "eff_freqs", "eff_linewidths", "areas"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.detunings)
        if n < 5:
            raise ValueError("need at least 5 detuning points")
        for name in ("eff_freqs", "eff_linewidths", "areas"):
            if len(getattr(self, name)) != n:
                raise ValueError("all curve arrays must have equal length")
        if np.any(self.eff_linewidths <= 0):
            raise ValueError("linewidths must be positive")

    @property
    def span(self):
        return float(self.detunings.max() - self.detunings.min())


@dataclass(frozen=True)
class FitResult:
    g0_hat: float
    gamma_i_hat: float
    nb_hat: float
    omega_m0_hat: float
    g0_err: float
    gamma_i_err: float
    nb_err: float
    omega_m0_err: float
    residual_norm: float
    method: str = "joint"


def _cavity_photon_number(delta, n_c0, kappa):
    return n_c0 * (kappa / 2) ** 2 / (delta**2 + (kappa / 2) ** 2)


def thermometry_model(delta, g0, gamma_i, n_b, omega_m0, optical: OpticalMode, n_c0):
    """Model triple (eff_freq, eff_linewidth, area) at each detuning."""
    delta = np.asarray(delta, dtype=float)
    kappa = optical.kappa
    n_c = _cavity_photon_number(delta, n_c0, kappa)
    g2 = g0**2 * n_c
    d_omega, gamma_om = spring_damping_rates(delta, g2, kappa, omega_m0)
    gamma_tot = gamma_i + gamma_om
    u, v = transduction_phasors(delta, kappa, omega_m0)
    c2_max = g2 * (np.abs(u) + np.abs(v)) ** 2
    area = (n_b + 1.0) * optical.kappa_e * gamma_i * c2_max / gamma_tot
    return omega_m0 + d_omega, gamma_tot, area


def lock_sweep_area_model(theta_lock, params: SystemParams, n_b):
    """Mechanical-peak area vs lock angle for the transduction model."""
    theta_lock = np.asarray(theta_lock, dtype=float)
    optical = params.optical
    delta = params.drive.delta
    phi = reflection_phase(optical, delta)
    theta = theta_lock + phi
    u, v = transduction_phasors(delta, optical.kappa, params.mech.omega_m0)
    c2 = params.drive.g ** 2 * np.abs(np.exp(-1j * theta) * u - np.exp(1j * theta) * v) ** 2
    return (n_b + 1.0) * optical.kappa_e * params.mech.gamma_i * c2 / params.gamma


def _panel_scale(y):
    s = float(np.ptp(y))
    if s <= 0:
        s = max(abs(float(np.mean(y))), 1.0)
    return s


def fit_thermometry(curve: ThermometryCurve, optical: OpticalMode, n_c, weights=None) -> FitResult:
    """Joint weighted fit of (g0, gamma_i, n_b, omega_m0) to all three panels.

    ``n_c`` is the intracavity photon number the constant-power drive
    would sustain on resonance.  Falls back to a sequential fit (spring +
    damping panels, then areas) if the joint fit does not converge;
    raises EstimationError with the residual report if both fail.
    """
    # scipy.optimize takes ~0.5 s to import, so it loads only when a fit runs
    from scipy.optimize import least_squares

    if curve.span <= 0:
        raise EstimationError("degenerate curve: zero detuning span")
    if curve.span < optical.kappa / 10 and (curve.detunings.min() > 0 or curve.detunings.max() < 0):
        raise EstimationError("detunings must span both signs or at least kappa/10")

    scales = (
        _panel_scale(curve.eff_freqs),
        _panel_scale(curve.eff_linewidths),
        _panel_scale(curve.areas),
    ) if weights is None else weights

    omega_m0_init = float(np.median(curve.eff_freqs))
    gamma_i_init = 0.9 * float(np.min(curve.eff_linewidths))
    k = int(np.argmax(curve.eff_linewidths))
    swing = curve.eff_linewidths[k] - np.min(curve.eff_linewidths)
    n_ck = _cavity_photon_number(curve.detunings[k], n_c, optical.kappa)
    _, gom_unit = spring_damping_rates(
        np.atleast_1d(curve.detunings[k]), np.atleast_1d(n_ck), optical.kappa, omega_m0_init
    )
    g0_init = np.sqrt(max(swing, gamma_i_init) / max(abs(float(gom_unit[0])), 1e-300))
    u, v = transduction_phasors(curve.detunings, optical.kappa, omega_m0_init)
    c2 = g0_init**2 * _cavity_photon_number(curve.detunings, n_c, optical.kappa) * (
        np.abs(u) + np.abs(v)
    ) ** 2
    pred = optical.kappa_e * gamma_i_init * c2 / curve.eff_linewidths
    nb_init = max(float(np.median(curve.areas / np.maximum(pred, 1e-300))) - 1.0, 1.0)

    def residuals(p):
        g0, gamma_i, n_b, omega_m0 = p
        f, lw, area = thermometry_model(
            curve.detunings, g0, gamma_i, n_b, omega_m0, optical, n_c
        )
        return np.concatenate(
            [
                (f - curve.eff_freqs) / scales[0],
                (lw - curve.eff_linewidths) / scales[1],
                (area - curve.areas) / scales[2],
            ]
        )

    p0 = np.array([g0_init, gamma_i_init, nb_init, omega_m0_init])
    lb = np.array([1e-6 * g0_init, 1e-6 * gamma_i_init, 0.0, 0.5 * omega_m0_init])
    ub = np.array([1e6 * g0_init, 1e6 * gamma_i_init, np.inf, 1.5 * omega_m0_init])
    try:
        res = least_squares(
            residuals, p0, bounds=(lb, ub), x_scale=np.abs(p0),
            xtol=1e-10, ftol=1e-12, gtol=1e-14, max_nfev=MAX_NFEV,
        )
        if not res.success or not np.all(np.isfinite(res.x)):
            raise EstimationError(
                f"joint fit did not converge: status={res.status}, "
                f"residual_norm={np.linalg.norm(res.fun):.3e}"
            )
        return _pack_result(res, curve, method="joint")
    except EstimationError:
        return _fit_sequential(curve, optical, n_c, scales, p0, lb, ub)


def _fit_sequential(curve, optical, n_c, scales, p0, lb, ub):
    from scipy.optimize import least_squares

    def resid_mech(p):
        g0, gamma_i, omega_m0 = p
        f, lw, _ = thermometry_model(curve.detunings, g0, gamma_i, 0.0, omega_m0, optical, n_c)
        return np.concatenate(
            [(f - curve.eff_freqs) / scales[0], (lw - curve.eff_linewidths) / scales[1]]
        )

    res1 = least_squares(
        resid_mech, p0[[0, 1, 3]], bounds=(lb[[0, 1, 3]], ub[[0, 1, 3]]),
        x_scale=np.abs(p0[[0, 1, 3]]), xtol=1e-10, ftol=1e-12, gtol=1e-14, max_nfev=MAX_NFEV,
    )
    if not res1.success:
        raise EstimationError(
            f"sequential mechanical fit failed: status={res1.status}, "
            f"residual_norm={np.linalg.norm(res1.fun):.3e}"
        )
    g0, gamma_i, omega_m0 = res1.x
    _, _, area_unit = thermometry_model(curve.detunings, g0, gamma_i, 0.0, omega_m0, optical, n_c)
    nb = float(np.mean(curve.areas / area_unit)) - 1.0  # area is linear in (n_b + 1)

    def residuals(p):
        f, lw, area = thermometry_model(curve.detunings, *p, optical=optical, n_c0=n_c)
        return np.concatenate(
            [
                (f - curve.eff_freqs) / scales[0],
                (lw - curve.eff_linewidths) / scales[1],
                (area - curve.areas) / scales[2],
            ]
        )

    x = np.array([g0, gamma_i, nb, omega_m0])
    fun = residuals(x)
    jac = np.empty((len(fun), len(x)))
    for j in range(len(x)):
        step = 1e-6 * max(abs(x[j]), 1e-12)
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (residuals(xp) - fun) / step

    class _Res:
        pass

    _Res.x = x
    _Res.fun = fun
    _Res.jac = jac
    return _pack_result(_Res, curve, method="sequential")


def _pack_result(res, curve, method):
    p = res.x
    dof = max(len(res.fun) - len(p), 1)
    s2 = float(res.fun @ res.fun) / dof
    if getattr(res, "jac", None) is not None:
        jtj = res.jac.T @ res.jac
        try:
            cov = np.linalg.inv(jtj) * s2
            err = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            err = np.full(len(p), np.nan)
    else:
        err = np.full(len(p), np.nan)
    return FitResult(
        g0_hat=float(p[0]),
        gamma_i_hat=float(p[1]),
        nb_hat=float(p[2]),
        omega_m0_hat=float(p[3]),
        g0_err=float(err[0]),
        gamma_i_err=float(err[1]),
        nb_err=float(err[2]),
        omega_m0_err=float(err[3]),
        residual_norm=float(np.linalg.norm(res.fun)),
        method=method,
    )


def _wrap_half_pi(angle):
    """Wrap into (-pi/2, pi/2]; transduction is pi-periodic in the angle."""
    return angle - np.pi * np.round(angle / np.pi)


def model_zero_transduction_lock(delta, optical: OpticalMode, omega_probe=0.0):
    """theta*_lock(delta) = theta*(delta) - phi(delta), wrapped mod pi;
    elementwise over an array ``delta``."""
    u, v = transduction_phasors(delta, optical.kappa, omega_probe)
    theta_star = 0.5 * (np.angle(u) - np.angle(v))
    return _wrap_half_pi(theta_star - reflection_phase(optical, delta))


def infer_detuning(mode_area_vs_lock, optical: OpticalMode, omega_probe=0.0):
    """Recover the drive detuning from a lock-angle sweep of the peak area.

    Locates the transduction minimum theta*_lock by quadratic
    interpolation around the smallest measured area, then solves
    theta*_lock = theta*(delta) - phi(delta) for delta on
    [-kappa/4, kappa/4].  Returns (delta_hat, theta_star_lock).
    """
    from scipy.optimize import brentq

    data = np.asarray(mode_area_vs_lock, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 7:
        raise EstimationError("need >= 7 (theta_lock, area) samples")
    order = np.argsort(data[:, 0])
    th = data[order, 0]
    area = data[order, 1]
    k = int(np.argmin(area))
    if k == 0 or k == len(th) - 1:
        raise EstimationError("no interior minimum: insufficient angular coverage")
    x0, x1, x2 = th[k - 1 : k + 2]
    y0, y1, y2 = area[k - 1 : k + 2]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a <= 0:
        raise EstimationError("non-convex neighborhood around the minimum")
    theta_star_lock = _wrap_half_pi(-b / (2 * a))

    kappa = optical.kappa
    def mismatch(delta):
        return _wrap_half_pi(
            model_zero_transduction_lock(delta, optical, omega_probe) - theta_star_lock
        )

    grid = np.linspace(-0.25 * kappa, 0.25 * kappa, 4001)
    vals = mismatch(grid)
    lo, hi = vals[:-1], vals[1:]
    exact = lo == 0.0
    # a sign change across a wrap of the mismatch jumps by ~pi, not through zero
    bracket = (lo * hi < 0) & (np.abs(hi - lo) < 1.0)
    roots = [
        grid[i] if exact[i]
        else brentq(mismatch, grid[i], grid[i + 1], xtol=1e-9 * kappa)
        for i in np.flatnonzero(exact | bracket)
    ]
    if not roots:
        raise EstimationError("no detuning reproduces the observed lock angle")
    delta_hat = min(roots, key=lambda d: (abs(mismatch(d)), abs(d)))
    return float(delta_hat), float(theta_star_lock)


def homodyne_efficiency_from_tone(
    tone_power_optical, tone_psd_detected, chain_upstream: DetectionChain, lo_power
):
    """Homodyne efficiency from an injected tone of known optical power.

    The ideal balanced-homodyne beat between a tone of power P_t (after
    upstream losses eta_cp * eta_23 * eta_3h) and the LO has mean-square
    power 2 P_LO P_t; ``tone_psd_detected`` is the measured beat power
    integrated over the tone and referred to a 1 Hz bin.  The ratio of
    measured to ideal is eta_HD.
    """
    if tone_power_optical <= 0 or lo_power <= 0:
        raise ValueError("powers must be positive")
    eta_up = chain_upstream.eta_cp * chain_upstream.eta_23 * chain_upstream.eta_3h
    predicted = 2.0 * lo_power * eta_up * tone_power_optical
    eta_hd = tone_psd_detected / predicted
    if not 0 < eta_hd <= 1:
        raise EstimationError(
            f"calibration inconsistency: inferred eta_hd={eta_hd:.4g} outside (0, 1]"
        )
    return float(eta_hd)


def generate_thermometry_curve(
    optical: OpticalMode, mech: MechanicalMode, n_c, deltas, n_b,
    noise_frac=0.0, rng=None,
) -> ThermometryCurve:
    """Forward-model a thermometry curve, optionally with multiplicative noise.

    Noise model: relative ``noise_frac`` on linewidths and areas; on the
    effective frequencies the same fraction of the spring-shift swing
    (frequency scatter scales with the feature, not the carrier).
    """
    deltas = np.asarray(deltas, dtype=float)
    f, lw, area = thermometry_model(
        deltas, mech.g0, mech.gamma_i, n_b, mech.omega_m0, optical, n_c
    )
    if noise_frac > 0:
        rng = np.random.default_rng(rng)
        f = f + rng.standard_normal(len(f)) * noise_frac * max(np.ptp(f), 1.0)
        lw = lw * (1.0 + noise_frac * rng.standard_normal(len(lw)))
        area = area * (1.0 + noise_frac * rng.standard_normal(len(area)))
        lw = np.maximum(lw, 1e-6 * np.median(lw))
    return ThermometryCurve(detunings=deltas, eff_freqs=f, eff_linewidths=lw, areas=area)


def generate_lock_sweep(params: SystemParams, theta_locks, n_b, noise_frac=0.0, rng=None):
    """Synthetic (theta_lock, area) sweep from the transduction model."""
    theta_locks = np.asarray(theta_locks, dtype=float)
    area = lock_sweep_area_model(theta_locks, params, n_b)
    if noise_frac > 0:
        rng = np.random.default_rng(rng)
        area = area * (1.0 + noise_frac * rng.standard_normal(len(area)))
        area = np.maximum(area, 0.0)
    return np.column_stack([theta_locks, area])
