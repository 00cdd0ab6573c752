"""From cavity output to a normalized, instrument-shaped spectrum.

Cavity reflection response, lock-angle <-> quadrature mapping, Gaussian
resolution-bandwidth emulation of the spectrum analyzer, and assembly of
spectra and density maps for a complete scenario (system + noise stack +
detection chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OpticalMode, SystemParams
from .noise import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
    absorptive_harmonics,
    apply_detection_chain,
    bath_occupation,
    effective_temperature,
    extra_mode_harmonics,
    phase_noise_harmonics,
)
from . import core

__all__ = [
    "QuadratureSetting",
    "SpectrumTrace",
    "SqueezingMap",
    "Scenario",
    "reflection_coefficient",
    "lock_to_quadrature",
    "quadrature_to_lock",
    "rbw_resample",
    "output_harmonics",
    "total_harmonics",
    "output_spectrum",
    "assemble_density_map",
    "detected_components",
]

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
RBW_BLOCK = 64  # kernel windows gathered at once: 64 x 1579 taps ~ 0.8 MB at the default grid


@dataclass(frozen=True)
class QuadratureSetting:
    """Quadrature bookkeeping: input-referenced angle theta, lock angle
    referenced to the reflected carrier, and the reflection phase phi
    linking them via theta_lock = theta - phi."""

    theta: float
    theta_lock: float
    phi: float


@dataclass(frozen=True)
class SpectrumTrace:
    """Shot-noise-normalized PSD on an ordered frequency grid (Hz)."""

    freqs: np.ndarray
    values: np.ndarray
    rbw: float = 0.0
    stderr: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)
        if freqs.ndim != 1 or len(freqs) != len(values):
            raise ValueError("freqs and values must be 1-d and equal length")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite and nonnegative")
        if self.stderr is not None:
            object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float))


@dataclass(frozen=True)
class SqueezingMap:
    """Normalized PSD over (lock angle, frequency)."""

    theta_locks: np.ndarray
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta_locks, dtype=float)
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "theta_locks", t)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)
        if v.shape != (len(t), len(f)):
            raise ValueError("values must have shape (n_theta, n_freq)")
        if not np.all(np.isfinite(v)):
            raise ValueError("map values must be finite")


def reflection_coefficient(omega, optical: OpticalMode, delta):
    """Cavity reflection amplitude r(omega) = 1 - kappa_e / (i(delta - omega) + kappa/2).

    Reduces to the single-port expression for kappa_e = kappa; far off
    resonance the device acts as a near-perfect mirror (r -> 1).
    """
    omega = np.asarray(omega, dtype=float)
    return 1.0 - optical.kappa_e / (1j * (delta - omega) + optical.kappa / 2)


def reflection_phase(optical: OpticalMode, delta):
    """Phase imparted on the carrier upon reflection, phi(delta); a float
    for scalar ``delta``, an array of the same shape otherwise."""
    phi = np.angle(reflection_coefficient(0.0, optical, delta))
    return float(phi) if np.ndim(phi) == 0 else phi


def lock_to_quadrature(theta_lock, optical: OpticalMode, delta) -> QuadratureSetting:
    """Convert a lock angle (reflected signal vs LO) to the input-referenced
    quadrature angle: theta = theta_lock + phi(delta)."""
    phi = reflection_phase(optical, delta)
    return QuadratureSetting(theta=theta_lock + phi, theta_lock=theta_lock, phi=phi)


def quadrature_to_lock(theta, optical: OpticalMode, delta) -> QuadratureSetting:
    """Inverse of lock_to_quadrature: theta_lock = theta - phi(delta)."""
    phi = reflection_phase(optical, delta)
    return QuadratureSetting(theta=theta, theta_lock=theta - phi, phi=phi)


def rbw_resample(fine: SpectrumTrace, rbw, out_freqs) -> SpectrumTrace:
    """Emulate the analyzer's resolution bandwidth on a finely sampled trace.

    Convolves with a Gaussian kernel of FWHM = rbw (sigma = rbw / 2.355)
    on the uniform fine grid, then samples at ``out_freqs``.  Edge bins
    are padded by replication.  Linear, power preserving for features
    wider than the kernel, and a no-op on white spectra.
    """
    out_freqs = np.asarray(out_freqs, dtype=float)
    out_values = _rbw_shape(fine.freqs, fine.values[np.newaxis], rbw, out_freqs)[0]
    meta = dict(fine.meta)
    meta.update(rbw_hz=float(rbw), rbw_kernel="gaussian_fwhm")
    return SpectrumTrace(freqs=out_freqs, values=out_values, rbw=float(rbw), meta=meta)


def _rbw_shape(freqs, rows, rbw, out_freqs):
    """RBW shaping of each row of ``rows`` (sampled on ``freqs``) at ``out_freqs``.

    The convolution is evaluated only at the fine-grid points that bracket
    an output frequency, then interpolated linearly between them as
    ``np.interp`` would on the fully convolved trace.
    """
    if rbw <= 0:
        raise ValueError("rbw must be positive")
    df = np.diff(freqs)
    if not np.allclose(df, df[0], rtol=1e-6):
        raise ValueError("fine grid must be uniform")
    df = df[0]
    if out_freqs.min() < freqs[0] or out_freqs.max() > freqs[-1]:
        raise ValueError("out_freqs outside the span of the fine grid")
    out_spacing = np.min(np.diff(out_freqs)) if len(out_freqs) > 1 else np.inf
    if df > out_spacing / 10:
        raise ValueError("fine grid must be at least 10x denser than out_freqs")

    sigma = rbw * FWHM_TO_SIGMA
    half = int(np.ceil(5 * sigma / df))
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * df / sigma) ** 2)
    kernel /= kernel.sum()
    lo = np.clip(np.searchsorted(freqs, out_freqs, side="right") - 1, 0, len(freqs) - 2)
    idx = np.union1d(lo, lo + 1)
    out = np.empty((len(rows), len(out_freqs)))
    for row, values in zip(out, rows):
        padded = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
        smooth = np.concatenate(
            [windows[idx[k : k + RBW_BLOCK]] @ kernel for k in range(0, len(idx), RBW_BLOCK)]
        )
        row[:] = np.interp(out_freqs, freqs[idx], smooth)
    return out


@dataclass(frozen=True)
class Scenario:
    """Complete forward-model bundle: driven system, noise environment,
    and detection chain.  Each noise block may be None to switch it off."""

    system: SystemParams
    bath: BathModel = None
    lump: ExtraModeNoise = None
    laser: LaserNoiseModel = None
    absorptive: AbsorptiveNoiseModel = None
    chain: DetectionChain = None

    @property
    def eta_tot(self):
        if self.chain is None:
            return 1.0
        return self.chain.eta_setup * self.system.optical.eta_kappa

    def with_drive(self, delta=None, n_c=None):
        return Scenario(
            system=self.system.with_drive(delta=delta, n_c=n_c),
            bath=self.bath,
            lump=self.lump,
            laser=self.laser,
            absorptive=self.absorptive,
            chain=self.chain,
        )


def output_harmonics(omega, scenario: Scenario):
    """Yield ``(name, (P, Q))`` for every noise component, undetected and
    named like the ``output_spectrum`` columns, where the component at
    quadrature theta is P + 2 Re(e^{-2i theta} Q).  Components are computed
    one at a time, so callers that reduce them keep one pair alive."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    params = scenario.system
    bath, laser, lump, absorptive = scenario.bath, scenario.laser, scenario.lump, scenario.absorptive
    zero = (np.zeros_like(omega),) * 2
    nbar = zero[0] if bath is None else bath_occupation(
        np.abs(omega), effective_temperature(bath, params.drive.n_c)
    )
    vac, thermal = core.spectrum_harmonics(omega, params, nbar)
    yield "s_vac", vac
    yield "s_thermal", thermal
    del vac, thermal
    yield "s_phase", zero if laser is None else phase_noise_harmonics(omega, params, laser)
    yield "s_extra", (
        zero if lump is None or bath is None
        else extra_mode_harmonics(omega, params, lump, nbar)
    )
    yield "s_absorptive", (
        zero if absorptive is None
        else absorptive_harmonics(omega, params.drive.n_c, absorptive, params)
    )


def total_harmonics(omega, scenario: Scenario):
    """``(A, B, C)`` of the summed cavity-output PSD
    A + B cos 2theta + C sin 2theta at input-referenced quadrature theta,
    before the detection chain."""
    p = q = 0.0
    for _, (p_k, q_k) in output_harmonics(omega, scenario):
        p = p + p_k
        q = q + q_k
    return p, 2.0 * q.real, 2.0 * q.imag


def output_spectrum(omega, theta, scenario: Scenario, detected=True):
    """All noise contributions at input-referenced quadrature ``theta``.

    Returns a dict with the shot-normalized components ``s_vac``,
    ``s_thermal``, ``s_extra``, ``s_phase``, ``s_absorptive`` and their
    sum ``s_norm`` (after the detection chain when ``detected``).
    """
    comp = {name: core.at_quadrature(pq, theta) for name, pq in output_harmonics(omega, scenario)}
    total = (
        comp["s_vac"] + comp["s_thermal"] + comp["s_extra"] + comp["s_phase"]
        + comp["s_absorptive"]
    )
    if detected and scenario.chain is not None:
        total = apply_detection_chain(
            total, scenario.chain, scenario.system.optical.eta_kappa
        )
    return {"s_norm": total, **comp}


def assemble_density_map(theta_locks, out_freqs, scenario: Scenario, fine_freqs=None, rbw=None) -> SqueezingMap:
    """Detected, RBW-shaped noise PSD over (lock angle, frequency).

    The analyzer kernel is linear and the detection chain affine, so the
    model is evaluated once on the fine grid as (A, B, C), only those
    three are resampled, and each row is A + B cos 2theta + C sin 2theta
    at the quadrature its lock angle maps to, mixed with vacuum by the
    chain.  The floor over all quadratures, A - sqrt(B^2 + C^2), must be
    nonnegative up to roundoff.
    """
    theta_locks = np.asarray(theta_locks, dtype=float)
    out_freqs = np.asarray(out_freqs, dtype=float)
    if fine_freqs is None:
        span = out_freqs[-1] - out_freqs[0]
        lo = max(out_freqs[0] - span * 0.05, span / 1e4)
        fine_freqs = np.linspace(lo, out_freqs[-1] + span * 0.05, 50000)
    fine_freqs = np.asarray(fine_freqs, dtype=float)
    abc = np.array(total_harmonics(2 * np.pi * fine_freqs, scenario))
    if not np.all(abc[0] - np.hypot(abc[1], abc[2]) >= -1e-12 * abc[0]):
        raise ValueError("model PSD is negative or not finite at some quadrature")
    if rbw is not None:
        abc = _rbw_shape(fine_freqs, abc, rbw, out_freqs)
    elif np.any(np.diff(fine_freqs) <= 0):
        raise ValueError("fine_freqs must be strictly increasing")
    else:
        abc = np.array([np.interp(out_freqs, fine_freqs, v) for v in abc])
    optical, delta = scenario.system.optical, scenario.system.drive.delta
    two_theta = 2.0 * lock_to_quadrature(theta_locks, optical, delta).theta[:, np.newaxis]
    values = abc[0] + np.cos(two_theta) * abc[1] + np.sin(two_theta) * abc[2]
    eta = scenario.eta_tot
    values = eta * values + (1.0 - eta)
    return SqueezingMap(theta_locks=theta_locks, freqs=out_freqs, values=values)


def detected_components(theta_lock, out_freqs, scenario: Scenario, fine_freqs, rbw):
    """Detected, RBW-shaped spectrum at one lock angle, with its components.

    Returns ``(trace, columns)``, where ``columns`` maps each
    ``output_spectrum`` component name to its detected, shaped share
    ``eta * S_k``.  The vacuum column also carries the ``(1 - eta)``
    uncorrelated-vacuum offset, so the columns sum to ``trace.values``.
    All five columns are shaped in one pass over the kernel windows.
    """
    out_freqs = np.asarray(out_freqs, dtype=float)
    fine_freqs = np.asarray(fine_freqs, dtype=float)
    optical, delta = scenario.system.optical, scenario.system.drive.delta
    theta = lock_to_quadrature(theta_lock, optical, delta).theta
    eta = scenario.eta_tot
    names, rows = zip(*(
        (name, eta * core.at_quadrature(pq, theta))
        for name, pq in output_harmonics(2 * np.pi * fine_freqs, scenario)
    ))
    rows = np.array(rows)
    rows[0] += 1 - eta
    shaped = _rbw_shape(fine_freqs, rows, rbw, out_freqs)
    trace = SpectrumTrace(
        freqs=out_freqs, values=sum(shaped), rbw=rbw,
        meta={"theta_lock_rad": float(theta_lock)},
    )
    return trace, dict(zip(names, shaped))
