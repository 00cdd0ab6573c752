"""Frequency-domain model of a linearized, driven optomechanical cavity.

Single optical mode (total linewidth ``kappa``, waveguide-coupled at rate
``kappa_e``) dispersively coupled to one mechanical mode.  Everything is
expressed in zero-point units (positions in units of x_zpf, spectra
normalized to the shot-noise level of an ideal coherent beam), so no
effective mass ever enters.

All frequencies and rates are angular (rad/s) unless a name says ``_hz``.
Evaluation frequencies ``omega`` may be scalars or numpy arrays; every
function in this module is vectorized over ``omega``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OpticalMode",
    "MechanicalMode",
    "DriveCondition",
    "SystemParams",
    "instability",
    "CoefficientSet",
    "mech_susceptibility",
    "spring_damping_rates",
    "spring_and_damping",
    "transfer_coefficients",
    "spectrum_harmonics",
    "thermal_harmonics",
    "at_quadrature",
    "spectrum_full",
    "quasi_static_spectrum",
    "squeezing_cross_term",
    "transduction_phasors",
    "zero_transduction_angle",
    "reflection_coefficient",
    "reflection_phase",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class OpticalMode:
    """Optical resonance: carrier frequency and decay rates (rad/s).

    ``kappa`` is the total energy decay rate, ``kappa_e`` the extrinsic
    (waveguide) part.  The intrinsic rate is ``kappa_i = kappa - kappa_e``.
    """

    omega_o: float
    kappa: float
    kappa_e: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.kappa_e <= self.kappa:
            raise ValueError("kappa_e must lie in (0, kappa]")

    @property
    def kappa_i(self):
        return self.kappa - self.kappa_e

    @property
    def eta_kappa(self):
        """Coupling efficiency kappa_e/kappa, in (0, 1]."""
        return self.kappa_e / self.kappa


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical resonance: bare frequency, intrinsic damping, vacuum coupling."""

    omega_m0: float
    gamma_i: float
    g0: float

    def __post_init__(self):
        if not self.omega_m0 > 0:
            raise ValueError("omega_m0 must be positive")
        if not self.gamma_i > 0:
            # gamma_i = 0 would make the mechanical susceptibility singular
            raise ValueError("gamma_i must be strictly positive")
        if not self.g0 >= 0:
            raise ValueError("g0 must be nonnegative")

    @property
    def q_m(self):
        return self.omega_m0 / self.gamma_i


@dataclass(frozen=True)
class DriveCondition:
    """Laser drive: detuning (red positive), photon number, derived rates."""

    delta: float
    n_c: float
    g: float
    gamma_meas: float

    @classmethod
    def from_photon_number(cls, delta, n_c, mech: MechanicalMode, optical: OpticalMode):
        if n_c < 0:
            raise ValueError("n_c must be nonnegative")
        g = mech.g0 * math.sqrt(n_c)
        try:
            gamma_meas = 4.0 * g**2 / optical.kappa
        except OverflowError:
            gamma_meas = math.inf
        if not math.isfinite(gamma_meas):
            raise ValueError(f"g = g0 sqrt(n_c) = {g:.6g} rad/s: gamma_meas = 4 g^2/kappa overflows")
        return cls(delta=delta, n_c=n_c, g=g, gamma_meas=gamma_meas)

    def validate_against(self, mech: MechanicalMode, optical: OpticalMode):
        g_ref = mech.g0 * math.sqrt(self.n_c)
        if abs(self.g - g_ref) > _REL_TOL * max(g_ref, 1.0):
            raise ValueError("g inconsistent with g0*sqrt(n_c)")
        gm_ref = 4.0 * self.g**2 / optical.kappa
        if abs(self.gamma_meas - gm_ref) > _REL_TOL * max(gm_ref, 1.0):
            raise ValueError("gamma_meas inconsistent with 4 g^2 / kappa")


@dataclass(frozen=True)
class SystemParams:
    """Optical mode + mechanical mode + drive, with the renormalized
    mechanical frequency and linewidth cached at construction."""

    optical: OpticalMode
    mech: MechanicalMode
    drive: DriveCondition
    omega_m: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        self.drive.validate_against(self.mech, self.optical)
        d_omega, gamma_om = spring_and_damping(self)
        object.__setattr__(self, "omega_m", self.mech.omega_m0 + d_omega)
        object.__setattr__(self, "gamma", self.mech.gamma_i + gamma_om)

    @classmethod
    def build(cls, optical: OpticalMode, mech: MechanicalMode, delta, n_c):
        return cls(optical, mech, DriveCondition.from_photon_number(delta, n_c, mech, optical))

    def with_drive(self, delta=None, n_c=None):
        return SystemParams.build(
            self.optical,
            self.mech,
            self.drive.delta if delta is None else delta,
            self.drive.n_c if n_c is None else n_c,
        )


def instability(params: SystemParams):
    """One line naming why ``params`` is no stable operating point of the
    linearized model, or None: the renormalized frequency omega_m must be
    positive and finite (a spring shift below -omega_m0 leaves no mechanical
    resonance), and the total damping gamma positive and finite."""
    for name, rate in (
        ("renormalized mechanical frequency omega_m", params.omega_m),
        ("total mechanical damping gamma", params.gamma),
    ):
        if not 0 < rate < math.inf:
            return f"unstable operating point: {name}/2pi = {rate / (2 * math.pi):.6g} Hz is not positive and finite"
    return None


@dataclass(frozen=True)
class CoefficientSet:
    """Output-field transfer coefficients at one evaluation frequency.

    The cavity output is
    ``a_out = (1 + a1) a_in + a2 a_in^dag + b1 b_in + b2 b_in^dag``
    plus the intrinsic-port vacuum entering with weights
    ``sqrt(kappa_i/kappa_e) * (a1, a2)``.
    """

    a1: complex
    a2: complex
    b1: complex
    b2: complex


def mech_susceptibility(omega, mech: MechanicalMode):
    """Dimensionless mechanical susceptibility with structural damping.

    chi(omega) = omega_m^2 / (omega_m^2 - omega^2 - i gamma_i omega_m)

    The imaginary part of the denominator is frequency independent
    (constant loss angle), so the static limit is chi(0) = 1/(1 - i/Q_m).
    """
    wm = mech.omega_m0
    return wm**2 / (wm**2 - np.asarray(omega, dtype=float) ** 2 - 1j * mech.gamma_i * wm)


def _cavity_denominators(delta, kappa, omega):
    """D(omega) = i(delta - omega) + kappa/2 and conj D(-omega) = -i(delta + omega) + kappa/2:
    every cavity factor is built from the response 1/D; vectorized over all arguments."""
    return 1j * (delta - omega) + kappa / 2, -1j * (delta + omega) + kappa / 2


def spring_damping_rates(delta, g2, kappa, omega_m0):
    """Optical spring shift and optomechanical damping rate (rad/s) for
    coupling rate squared ``g2``; vectorized over ``delta`` and ``g2``.
    Both come from the bracket u - v of the transduction phasors."""
    u, v = transduction_phasors(delta, kappa, omega_m0)
    bracket = u - v
    return g2 * bracket.imag, 2.0 * g2 * bracket.real


def spring_and_damping(params: SystemParams):
    """Optical spring shift and optomechanical damping rate (rad/s).

    Evaluated once at the bare mechanical frequency; both vanish for an
    undriven cavity and the damping is positive for red detuning
    (delta > 0 in the sign convention used here).
    """
    return spring_damping_rates(
        params.drive.delta, params.drive.g ** 2, params.optical.kappa, params.mech.omega_m0
    )


def _denominators(omega, params: SystemParams):
    w = np.asarray(omega, dtype=float)
    d_c, d_cbar = _cavity_denominators(params.drive.delta, params.optical.kappa, w)
    d_m = 1j * (params.omega_m - w) + params.gamma / 2
    d_mbar = -1j * (params.omega_m + w) + params.gamma / 2
    return d_c, d_cbar, d_m, d_mbar


def _bath_coefficients(d_c, d_m, d_mbar, params: SystemParams):
    """Mechanical-bath coefficients (b1, b2) at +omega."""
    b_pref = np.sqrt(params.optical.kappa_e * params.mech.gamma_i) / d_c * 1j * params.drive.g
    return b_pref / d_m, b_pref / d_mbar


def _coefficients(d_c, d_cbar, d_m, d_mbar, params: SystemParams) -> CoefficientSet:
    kappa_e = params.optical.kappa_e
    mech_loop = params.drive.g**2 * (1.0 / d_m - 1.0 / d_mbar)
    a1 = kappa_e / d_c * (mech_loop / d_c - 1.0)
    a2 = kappa_e / d_c * mech_loop / d_cbar
    b1, b2 = _bath_coefficients(d_c, d_m, d_mbar, params)
    return CoefficientSet(a1=a1, a2=a2, b1=b1, b2=b2)


def transfer_coefficients(omega, params: SystemParams) -> CoefficientSet:
    """Closed-form coefficients relating the cavity output to its inputs.

    The drive-port prefactors carry sqrt(kappa_e); with critical
    kappa_e = kappa this reduces to the single-port expressions.  The
    mechanical denominators use the renormalized (omega_m, gamma) while
    the bath coupling keeps sqrt(gamma_i).
    """
    return _coefficients(*_denominators(omega, params), params)


def _thermal_pq(b1, b2, mirror, nbar):
    """Thermal ``(P, Q)`` from the +omega bath coefficients; the -omega ones
    are ``-conj(b2 * mirror)`` and ``-conj(b1 * mirror)``, mirror = d_c/d_cbar."""
    b1_m = -np.conj(b2 * mirror)
    b2_m = -np.conj(b1 * mirror)
    nbar = np.asarray(nbar, dtype=float)
    p = (
        np.abs(b1) ** 2 * (nbar + 1.0)
        + np.abs(b1_m) ** 2 * nbar
        + np.abs(b2_m) ** 2 * (nbar + 1.0)
        + np.abs(b2) ** 2 * nbar
    )
    q = b1 * b2_m * (nbar + 1.0) + b1_m * b2 * nbar
    return p, q


def thermal_harmonics(omega, params: SystemParams, nbar):
    """``(P, Q)`` of the thermal (mechanical-bath) part of the PSD alone,
    without the vacuum part or the optical coefficients."""
    d_c, d_cbar, d_m, d_mbar = _denominators(omega, params)
    b1, b2 = _bath_coefficients(d_c, d_m, d_mbar, params)
    return _thermal_pq(b1, b2, d_c / d_cbar, nbar)


def spectrum_harmonics(omega, params: SystemParams, nbar):
    """Quadrature dependence of the vacuum and thermal parts of the PSD.

    Each part is a quadratic form in e^{-+i theta}, so it is fixed by a
    real ``P`` and a complex ``Q``: S(theta) = P + 2 Re(e^{-2i theta} Q).
    Returns ``((P_vac, Q_vac), (P_thermal, Q_thermal))``.  The -omega
    coefficients follow from the +omega ones, because
    d_c(-omega) = conj(d_cbar(omega)) and d_m(-omega) = conj(d_mbar(omega)).
    """
    d_c, d_cbar, d_m, d_mbar = _denominators(omega, params)
    c_p = _coefficients(d_c, d_cbar, d_m, d_mbar, params)
    mirror = d_c / d_cbar
    del d_c, d_cbar, d_m, d_mbar  # bounds peak memory on long frequency grids
    a2_m = -np.conj(c_p.a2)

    one_a1 = 1.0 + c_p.a1
    p_vac = np.abs(a2_m) ** 2 + np.abs(one_a1) ** 2
    q_vac = one_a1 * a2_m
    kappa_ratio = params.optical.kappa_i / params.optical.kappa_e
    if kappa_ratio > 0:
        p_vac = p_vac + kappa_ratio * (np.abs(c_p.a1) ** 2 + np.abs(a2_m) ** 2)
        q_vac = q_vac + kappa_ratio * c_p.a1 * a2_m
    return (p_vac, q_vac), _thermal_pq(c_p.b1, c_p.b2, mirror, nbar)


def at_quadrature(harmonics, theta):
    """P + 2 Re(e^{-2i theta} Q) of a ``(P, Q)`` pair, clamped at zero: every
    part is a sum of squared quadrature projections, so only roundoff is cut."""
    p, q = harmonics
    return np.maximum(p + 2.0 * np.real(np.exp(-2j * theta) * q), 0.0)


def spectrum_full(omega, theta, params: SystemParams, nbar):
    """Shot-noise-normalized homodyne PSD of the reflected field.

    Parameters
    ----------
    omega : array_like
        Evaluation frequency (rad/s).
    theta : float
        Quadrature angle between the cavity *input* carrier and the LO.
    params : SystemParams
    nbar : array_like
        Mechanical bath occupation at each ``omega`` (scalar or matching
        array); the structural-damping model makes this frequency
        dependent.

    Returns
    -------
    (s_total, s_vac, s_thermal)
        ``s_vac`` collects the optical vacuum contributions from both the
        waveguide and the intrinsic loss port (so a cold cavity returns
        exactly 1 for any coupling); ``s_thermal`` is the six-term
        mechanical-bath contribution with occupations (nbar, nbar + 1).
    """
    vac, thermal = spectrum_harmonics(omega, params, nbar)
    s_vac = at_quadrature(vac, theta)
    s_thermal = at_quadrature(thermal, theta)
    return s_vac + s_thermal, s_vac, s_thermal


def quasi_static_spectrum(theta, params: SystemParams, nbar):
    """Low-frequency (omega << omega_m) limit of the normalized PSD.

    1 + 4 (G_meas/omega_m) [sin(2 theta) + (nbar/Q_m) (1 - cos(2 theta))]

    The correlation term allows values below 1; the thermal term is
    largest in the quadrature carrying the mechanical signal and cancels
    the squeezing entirely once nbar = Q_m at theta = -pi/4.
    """
    ratio = params.drive.gamma_meas / params.mech.omega_m0
    thermal_weight = np.asarray(nbar, dtype=float) / params.mech.q_m
    return 1.0 + 4.0 * ratio * (
        np.sin(2.0 * theta) + thermal_weight * (1.0 - np.cos(2.0 * theta))
    )


def squeezing_cross_term(omega, theta, params: SystemParams):
    """Back-action/position correlation term of the resonant bad-cavity model.

    4 sin(2 theta) (G_meas/omega_m) Re[chi(omega)]; changes sign across
    the mechanical resonance and vanishes at theta = 0, +-pi/2.
    """
    chi = mech_susceptibility(omega, params.mech)
    ratio = params.drive.gamma_meas / params.mech.omega_m0
    return 4.0 * np.sin(2.0 * theta) * ratio * chi.real


def transduction_phasors(delta, kappa, omega_probe):
    """Resonant transduction phasors u = 1/D(omega_probe) and
    v = conj(1/D(-omega_probe)) of the cavity response; vectorized over ``delta``."""
    d_c, d_cbar = _cavity_denominators(delta, kappa, omega_probe)
    # 1/conj(D), not np.conj(1/D): the same bits, and scalars stay Python
    # numbers, so SystemParams caches omega_m and gamma as Python floats
    return 1.0 / d_c, 1.0 / d_cbar


def zero_transduction_angle(omega_probe, optical: OpticalMode, delta):
    """Input-referenced quadrature angle where the mechanical peak at
    ``omega_probe`` transduces minimally; vectorized over ``delta``.

    From the resonant part of the thermal transfer, the transduced
    amplitude is proportional to |e^{-i theta} u - e^{i theta} v| with
    (u, v) the transduction phasors; it is minimized at
    theta = (arg u - arg v)/2, which tends to -arctan(2 delta/kappa) in
    the quasi-static bad-cavity limit.
    """
    u, v = transduction_phasors(delta, optical.kappa, omega_probe)
    return 0.5 * (np.angle(u) - np.angle(v))


def reflection_coefficient(omega, optical: OpticalMode, delta):
    """Cavity reflection amplitude r(omega) = 1 - kappa_e / D(omega).

    Reduces to the single-port expression for kappa_e = kappa; far off
    resonance the device acts as a near-perfect mirror (r -> 1).  A scalar
    ``delta`` takes the same numpy arithmetic as an array (a complex dtype,
    since 1j * np.float64 would be a Python complex), so both round alike.
    """
    delta = np.asarray(delta, dtype=complex)
    d_c, _ = _cavity_denominators(delta, optical.kappa, np.asarray(omega, dtype=float))
    return 1.0 - optical.kappa_e / d_c


def reflection_phase(optical: OpticalMode, delta):
    """Phase phi(delta) imparted on the carrier upon reflection, which links
    the input-referenced quadrature theta to the lock angle measured
    against the reflected carrier: theta = theta_lock + phi.  A float for
    scalar ``delta``, an array of the same shape otherwise."""
    phi = np.angle(reflection_coefficient(0.0, optical, delta))
    return float(phi) if np.ndim(phi) == 0 else phi
