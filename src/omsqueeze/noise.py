"""Environment and technical noise beyond the ideal single-mode model.

Covers the thermal bath (structural damping, optical-absorption heating),
a lumped background mechanical mode, laser frequency noise, the
phenomenological kappa-fluctuation ("absorptive") noise, and the detection
chain.

All spectral contributions are shot-noise normalized and nonnegative.
The physical constants are the exact SI values (2019 redefinition), equal
to ``scipy.constants.hbar`` and ``scipy.constants.k``, so loading this
module does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MechanicalMode,
    SystemParams,
    reflection_coefficient,
    spectrum_full,
    thermal_harmonics,
    zero_transduction_angle,
)

hbar = 6.62607015e-34 / (2 * math.pi)  # J s, exact h / 2pi
k_B = 1.380649e-23  # J/K, exact


ABSORPTIVE_REF_OMEGA = 2 * np.pi * 1e6  # reference frequency of the amp_coeff


@dataclass(frozen=True)
class BathModel:
    """Thermal bath: base temperature plus photon-dependent heating.

    Structural damping is assumed throughout: gamma_i is spectrally flat
    and the occupation is evaluated per frequency, n(omega) = k_B T / (hbar omega).
    """

    t_b0: float
    c0: float = 0.0

    def __post_init__(self):
        if not self.t_b0 > 0:
            raise ValueError("t_b0 must be positive")
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative")


@dataclass(frozen=True)
class ExtraModeNoise:
    """Single lumped mechanical resonance standing in for the thermal
    background of all other (more weakly coupled) modes."""

    omega_lump: float
    q_lump: float
    g0_lump: float

    def __post_init__(self):
        if min(self.omega_lump, self.q_lump) <= 0 or self.g0_lump < 0:
            raise ValueError("lumped-mode parameters must be positive")
        if not math.isfinite(self.gamma_lump):
            raise ValueError(f"the damping omega_lump / q_lump overflows a float (q_lump = {self.q_lump!r})")

    @property
    def gamma_lump(self):
        return self.omega_lump / self.q_lump

    def system(self, params: SystemParams):
        """The driven system with the lumped mode in place of the mechanics."""
        mech = MechanicalMode(omega_m0=self.omega_lump, gamma_i=self.gamma_lump, g0=self.g0_lump)
        return SystemParams.build(params.optical, mech, params.drive.delta, params.drive.n_c)


@dataclass(frozen=True)
class LaserNoiseModel:
    """Flat laser frequency-noise PSD (rad^2 Hz); intensity noise is zero."""

    s_omega_omega: float

    def __post_init__(self):
        if self.s_omega_omega < 0:
            raise ValueError("s_omega_omega must be nonnegative")

    def scale(self, params: SystemParams):
        """omega^2 times the phase-noise scale S: the input photon flux
        |alpha_in|^2 = n_c (delta^2 + kappa^2/4) / kappa_e that sustains n_c at
        this detuning, times s_omega_omega.  ValueError where it overflows."""
        delta, kappa = params.drive.delta, params.optical.kappa
        try:
            scale = params.drive.n_c * (delta**2 + (kappa / 2) ** 2) / params.optical.kappa_e * self.s_omega_omega
        except OverflowError:  # a float power raises where a float product returns inf
            scale = math.inf
        if not np.all(np.isfinite(scale)):
            raise ValueError(
                f"the phase-noise scale n_c (delta^2 + kappa^2/4) / kappa_e * s_omega_omega overflows "
                f"(kappa/2pi = {kappa / (2 * math.pi):.6g} Hz, n_c = {np.max(params.drive.n_c):.6g})"
            )
        return scale


@dataclass(frozen=True)
class AbsorptiveNoiseModel:
    """Cavity-linewidth fluctuation noise: amplitude per intracavity photon
    at 1 MHz, with a fixed omega^(-1/2) spectrum, orthogonal in quadrature
    to the mechanical transduction."""

    amp_coeff: float

    def __post_init__(self):
        if self.amp_coeff < 0:
            raise ValueError("amp_coeff must be nonnegative")


@dataclass(frozen=True)
class DetectionChain:
    """Cascade of power efficiencies between cavity output and homodyne record."""

    eta_cp: float
    eta_23: float
    eta_3h: float
    eta_hd: float

    def __post_init__(self):
        for name in ("eta_cp", "eta_23", "eta_3h", "eta_hd"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")

    @property
    def eta_setup(self):
        return self.eta_cp * self.eta_23 * self.eta_3h * self.eta_hd

    def eta_tot(self, eta_kappa):
        """Total detection efficiency eta_setup * eta_kappa, the one place it is formed."""
        return self.eta_setup * eta_kappa


def bath_occupation(omega, t_b):
    """High-temperature bath occupation k_B T / (hbar omega).

    The structural-damping correlators are specified directly with this
    per-frequency occupation (no Bose form, no +1/2); rejects omega <= 0.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    if not t_b > 0:
        raise ValueError("t_b must be positive")
    return k_B * t_b / (hbar * omega)


def effective_temperature(bath: BathModel, n_c):
    """Bath temperature including intracavity-photon heating: T_b0 + c0 n_c."""
    if np.any(np.asarray(n_c) < 0):
        raise ValueError("n_c must be nonnegative")
    return bath.t_b0 + bath.c0 * np.asarray(n_c, dtype=float)


def phase_noise_harmonics(omega, params: SystemParams, laser: LaserNoiseModel):
    """``(P, Q)`` pair of the detected laser phase noise, shot-noise normalized.

    The common phase fluctuation of signal and LO cancels except through the
    dispersion of the cavity reflection r(omega) around the carrier, so the
    noise is S |F|^2 with F ~ e^{-i theta} X - e^{i theta} conj(Y), X = r(omega)
    - r(0), Y = r(-omega) - r(0) and S = flux * S_ww / omega^2: P = (|X|^2 +
    |Y|^2) S, Q = -X Y S.  With a flat S_ww it is flat in omega for the bare
    cavity, and vanishes for a dispersionless reflector and at theta = 0 on
    resonance.
    """
    omega = np.asarray(omega, dtype=float)
    delta = params.drive.delta
    r0 = reflection_coefficient(0.0, params.optical, delta)
    x = reflection_coefficient(omega, params.optical, delta) - r0
    y = reflection_coefficient(-omega, params.optical, delta) - r0
    scale = laser.scale(params) / omega**2
    return (np.abs(x) ** 2 + np.abs(y) ** 2) * scale, -x * y * scale


def absorptive_harmonics(omega, model: AbsorptiveNoiseModel, params: SystemParams):
    """``(P, Q)`` pair of the phenomenological kappa-fluctuation noise.

    amp_coeff * n_c * sqrt(omega_ref/omega) * cos^2(theta - theta_perp) at the
    drive's photon number n_c, concentrated in the quadrature orthogonal to the
    mechanical transduction (theta_perp is the zero-transduction angle, ~0
    for small detuning).  omega_ref is fixed at 2 pi * 1 MHz.  With
    cos^2 x = 1/2 + 1/2 cos 2x this is P = w/2, Q = (w/4) e^{2i theta_perp}.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    theta_perp = zero_transduction_angle(params.mech.omega_m0, params.optical, params.drive.delta)
    w = model.amp_coeff * params.drive.n_c * np.sqrt(ABSORPTIVE_REF_OMEGA / omega)
    return 0.5 * w, 0.25 * w * np.exp(2j * theta_perp)


def extra_mode_harmonics(omega, params: SystemParams, lump: ExtraModeNoise, nbar_lump):
    """``(P, Q)`` pair of the thermal contribution of the lumped background mode.

    The six-term thermal part of the full spectrum for a system sharing
    the optical mode and drive but with the lumped mechanical parameters;
    the low-frequency tail falls off as 1/omega.
    """
    return thermal_harmonics(omega, lump.system(params), nbar_lump)


def extra_mode_psd(omega, theta, params: SystemParams, lump: ExtraModeNoise, nbar_lump):
    """Thermal contribution of the lumped background mode at quadrature ``theta``."""
    return spectrum_full(omega, theta, lump.system(params), nbar_lump)[2]


def mix_vacuum(s_out, eta, out=None):
    """The detected spectrum eta * s_out + (1 - eta): the lost share of the cavity
    output replaced by uncorrelated vacuum, so vacuum (s_out = 1) is a fixed point.
    ``out``, as for a ufunc, may be ``s_out`` itself."""
    return np.add(np.multiply(eta, s_out, out=out), 1.0 - eta, out=out)
