"""Inverse problems: device characterization from measured curves.

Extracts (g0, gamma_i, n_b) from spring/damping/area-vs-detuning data
and the laser detuning from the lock angle that nulls the mechanical signal.

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

from .core import (
    MechanicalMode, OpticalMode, SystemParams, spring_damping_rates, transduction_phasors,
    zero_transduction_angle,
)
from .instrument import lock_to_quadrature, quadrature_to_lock


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
    # always "joint" (one fit path); the benchmark tracer's fit_thermometry hook reads it
    method: str = "joint"


def _cavity_photon_number(delta, n_c0, kappa):
    return n_c0 * (kappa / 2) ** 2 / (delta**2 + (kappa / 2) ** 2)


def _peak_area(n_b, kappa_e, gamma_i, c2, gamma):
    """Shot-normalized mechanical-peak area (n_b + 1) kappa_e gamma_i |c|^2 / gamma."""
    return (n_b + 1.0) * kappa_e * gamma_i * c2 / gamma


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
    area = _peak_area(n_b, optical.kappa_e, gamma_i, c2_max, gamma_tot)
    return omega_m0 + d_omega, gamma_tot, area


def lock_sweep_area_model(theta_lock, params: SystemParams, n_b):
    """Mechanical-peak area vs lock angle for the transduction model."""
    theta_lock = np.asarray(theta_lock, dtype=float)
    optical = params.optical
    delta = params.drive.delta
    theta = lock_to_quadrature(theta_lock, optical, delta)
    u, v = transduction_phasors(delta, optical.kappa, params.mech.omega_m0)
    c2 = params.drive.g ** 2 * np.abs(np.exp(-1j * theta) * u - np.exp(1j * theta) * v) ** 2
    return _peak_area(n_b, optical.kappa_e, params.mech.gamma_i, c2, params.gamma)


def _panel_scale(y):
    s = float(np.ptp(y))
    if s <= 0:
        s = max(abs(float(np.mean(y))), 1.0)
    return s


def fit_thermometry(curve: ThermometryCurve, optical: OpticalMode, n_c) -> FitResult:
    """Weighted least-squares fit of (g0, gamma_i, n_b, omega_m0) to all three panels.

    ``n_c`` is the intracavity photon number the constant-power drive
    would sustain on resonance.  The area panel is linear in (n_b + 1),
    so n_b is projected out in closed form (variable projection) and a
    Levenberg-Marquardt iteration fits (log g0, log gamma_i, omega_m0),
    with omega_m0 kept within [0.5, 1.5] of its initial guess.  Raises
    EstimationError with the residual norm if it does not converge within
    MAX_NFEV trial evaluations.
    """
    if curve.span <= 0:
        raise EstimationError("degenerate curve: zero detuning span")
    if curve.span < optical.kappa / 10 and (curve.detunings.min() > 0 or curve.detunings.max() < 0):
        raise EstimationError("detunings must span both signs or at least kappa/10")

    scales = [_panel_scale(y) for y in (curve.eff_freqs, curve.eff_linewidths, curve.areas)]

    omega_m0_init = float(np.median(curve.eff_freqs))
    gamma_i_init = 0.9 * float(np.min(curve.eff_linewidths))
    k = int(np.argmax(curve.eff_linewidths))
    swing = curve.eff_linewidths[k] - np.min(curve.eff_linewidths)
    n_ck = _cavity_photon_number(curve.detunings[k], n_c, optical.kappa)
    _, gom_unit = spring_damping_rates(
        np.atleast_1d(curve.detunings[k]), np.atleast_1d(n_ck), optical.kappa, omega_m0_init
    )
    g0_init = np.sqrt(max(swing, gamma_i_init) / max(abs(float(gom_unit[0])), 1e-300))

    data = np.concatenate([curve.eff_freqs, curve.eff_linewidths, curve.areas])
    scale = np.repeat(scales, len(curve.detunings))

    def projected(p):
        """Residuals at p = (g0, gamma_i, omega_m0) with n_b >= 0 projected
        out, and that n_b + 1: the area panel is (n_b + 1) times its n_b = 0 value."""
        f, lw, unit = thermometry_model(curve.detunings, p[0], p[1], 0.0, p[2], optical, n_c)
        nb1 = max(unit @ curve.areas / (unit @ unit), 1.0)
        return (np.concatenate([f, lw, nb1 * unit]) - data) / scale, nb1

    def fun(p):
        return projected(p)[0]

    # Levenberg-Marquardt in (log g0, log gamma_i, omega_m0)
    p = np.array([g0_init, gamma_i_init, omega_m0_init])
    tol = 1e-10 * np.array([1.0, 1.0, omega_m0_init])
    r = fun(p)
    cost, lam, jac = r @ r, 1e-3, None
    for _ in range(MAX_NFEV):
        if jac is None:
            jac = _jacobian(fun, p, r) * np.array([p[0], p[1], 1.0])  # d/dlog x = x d/dx
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -(jac.T @ r))
        p_new = np.array([
            p[0] * np.exp(step[0]),
            p[1] * np.exp(step[1]),
            np.clip(p[2] + step[2], 0.5 * omega_m0_init, 1.5 * omega_m0_init),
        ])
        r_new = fun(p_new)
        cost_new = r_new @ r_new
        small = np.all(np.abs(step) <= tol)
        if cost_new < cost:
            done = small or cost - cost_new <= 1e-12 * cost
            p, r, cost, jac = p_new, r_new, cost_new, None
            lam = max(lam / 10, 1e-12)
        else:
            # a step below tolerance that no longer lowers the cost: converged
            done = small and np.isfinite(cost)
            lam *= 10
        if done:
            break
    else:
        raise EstimationError(
            f"fit did not converge in {MAX_NFEV} evaluations: "
            f"residual_norm={np.sqrt(cost):.3e}"
        )

    def residuals(x):
        return (np.concatenate(thermometry_model(curve.detunings, *x, optical, n_c)) - data) / scale

    x = np.array([p[0], p[1], projected(p)[1] - 1.0, p[2]])
    fun_x = residuals(x)
    return _pack_result(x, fun_x, _jacobian(residuals, x, fun_x))


def _jacobian(fun, x, f0):
    """Forward-difference Jacobian of ``fun`` at ``x``, where ``f0 = fun(x)``."""
    jac = np.empty((len(f0), len(x)))
    for j in range(len(x)):
        step = 1e-6 * max(abs(x[j]), 1e-12)
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (fun(xp) - f0) / step
    return jac


def _pack_result(p, fun, jac):
    dof = max(len(fun) - len(p), 1)
    s2 = float(fun @ fun) / dof
    try:
        err = np.sqrt(np.maximum(np.diag(np.linalg.inv(jac.T @ jac)) * s2, 0.0))
    except np.linalg.LinAlgError:
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
        residual_norm=float(np.linalg.norm(fun)),
    )


def _wrap_half_pi(angle):
    """Wrap into (-pi/2, pi/2]; transduction is pi-periodic in the angle."""
    return angle - np.pi * np.round(angle / np.pi)


def model_zero_transduction_lock(delta, optical: OpticalMode, omega_probe=0.0):
    """theta*_lock(delta) = theta*(delta) - phi(delta), wrapped mod pi;
    elementwise over an array ``delta``."""
    theta_star = zero_transduction_angle(omega_probe, optical, delta)
    return _wrap_half_pi(quadrature_to_lock(theta_star, optical, delta))


def _illinois(f, a, b, fa, fb, xtol):
    """Root of ``f`` between ``a`` and ``b`` (``fa``, ``fb`` of opposite sign)
    by Illinois regula falsi: the root stays bracketed, and a stale end's
    value is halved so that end moves too.  Stops once a step is <= xtol."""
    while True:
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) <= xtol:
            return float(c)
        fc = f(c)
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc


def infer_detuning(mode_area_vs_lock, optical: OpticalMode, omega_probe=0.0):
    """Recover the drive detuning from a lock-angle sweep of the peak area.

    Locates the transduction minimum theta*_lock by quadratic
    interpolation around the smallest measured area, then solves
    theta*_lock = theta*(delta) - phi(delta) for delta on
    [-kappa/4, kappa/4]: each sign change on a 4001-point grid is refined
    by Illinois regula falsi to 1e-9 kappa.
    Returns (delta_hat, theta_star_lock).
    """
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
        else _illinois(mismatch, grid[i], grid[i + 1], vals[i], vals[i + 1], 1e-9 * kappa)
        for i in np.flatnonzero(exact | bracket)
    ]
    if not roots:
        raise EstimationError("no detuning reproduces the observed lock angle")
    delta_hat = min(roots, key=lambda d: (abs(mismatch(d)), abs(d)))
    return float(delta_hat), float(theta_star_lock)


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
