"""From cavity output to a normalized, instrument-shaped spectrum.

Lock-angle <-> quadrature mapping, the frequency quadrature rule the
model is evaluated on, Gaussian resolution-bandwidth emulation of the
spectrum analyzer, and assembly of spectra and density maps for a complete
scenario (system + noise stack + detection chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    OpticalMode, SystemParams, at_quadrature, instability, reflection_phase, spectrum_harmonics, thermal_harmonics,
)
from .noise import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
    absorptive_harmonics,
    bath_occupation,
    effective_temperature,
    extra_mode_harmonics,
    mix_vacuum,
    phase_noise_harmonics,
)

__all__ = [
    "NoiseOverflowError",
    "SpectrumTrace",
    "SqueezingMap",
    "Scenario",
    "lock_to_quadrature",
    "quadrature_to_lock",
    "rbw_shape_rows",
    "quadrature_rule",
    "rule_node_count",
    "output_harmonics",
    "total_harmonics",
    "assemble_density_map",
    "detected_components",
]

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
RBW_SUPPORT = 10.0  # kernel half-width in sigma; the Gaussian is below 2e-22 beyond it
RBW_BLOCK = 1 << 16  # kernel entries evaluated at once (512 kB of float64)
F_MIN_HZ = 1e3  # low-frequency cutoff of the quadrature rule; no output bin may lie below it
# Node spacing of the frequency quadrature rule, each term of its point density:
H_COARSE = 0.5  # node spacing far from every feature, in units of the RBW sigma
H_LINE = 0.25  # step in asinh((f - f_k) / a_k) per node at each resonance
H_LOG = 0.1  # step in ln(f) per node toward the low-frequency cutoff
# A config whose rule would have more nodes than this is rejected: the rule
# costs about 400 B per node to build, so 2**18 nodes stay near 100 MB
MAX_RULE_NODES = 1 << 18
# A config whose lock-angle x frequency map exceeds this many cells is rejected
# (32 MiB per float64 map)
MAX_MAP_CELLS = 1 << 22
# Gregory's endpoint weights (trapezoid plus differences up to fourth order)
GREGORY = np.array([95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160])


class NoiseOverflowError(ValueError):
    """The model PSD on the frequency rule, or its RBW shaping, is not finite;
    ``component`` names the component that dominates the shaping sums, whose
    peak of P + 2|Q| times the node's weight is largest (a nan counts as inf),
    and ``cold_finite`` tells whether that peak is finite at zero bath occupation."""

    def __init__(self, nodes, weights, scenario):
        omega, params = 2 * np.pi * nodes, scenario.system

        def peak(pq):
            return np.nan_to_num(np.max((pq[0] + 2.0 * np.abs(pq[1])) * weights), nan=np.inf)

        peaks = {name: peak(pq) for name, pq in output_harmonics(omega, scenario)}
        self.component = max(peaks, key=peaks.get)
        cold = {
            "s_thermal": lambda: thermal_harmonics(omega, params, 0.0),
            "s_extra": lambda: extra_mode_harmonics(omega, params, scenario.lump, 0.0),
        }.get(self.component)
        self.cold_finite = cold is not None and bool(np.isfinite(peak(cold())))
        super().__init__(f"the {self.component} component of the model PSD overflows a float on the frequency rule")


@dataclass(frozen=True)
class SpectrumTrace:
    """Shot-noise-normalized PSD on an ordered frequency grid (Hz)."""

    freqs: np.ndarray
    values: np.ndarray
    stderr: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("freqs", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        freqs, values = self.freqs, self.values
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
        for name in ("theta_locks", "freqs", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.values.shape != (len(self.theta_locks), len(self.freqs)):
            raise ValueError("values must have shape (n_theta, n_freq)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map values must be finite")


def lock_to_quadrature(theta_lock, optical: OpticalMode, delta):
    """Input-referenced quadrature angle theta = theta_lock + phi(delta) of a
    lock angle (reflected signal vs LO), with phi = ``core.reflection_phase``."""
    return theta_lock + reflection_phase(optical, delta)


def quadrature_to_lock(theta, optical: OpticalMode, delta):
    """Inverse of lock_to_quadrature: theta_lock = theta - phi(delta)."""
    return theta - reflection_phase(optical, delta)


def rbw_shape_rows(nodes, weights, rows, rbw, out_freqs):
    """RBW shaping of each row of ``rows``, sampled at ``nodes`` and
    integrated with ``weights``, at ``out_freqs``.

    Output bin i is row-times-kernel summed over the nodes within
    RBW_SUPPORT sigma of it, with kernel_j = weights_j exp(-(f_j - f_i)^2 / 2 sigma^2)
    divided by its own sum: the kernel has no support outside the nodes'
    span, and white stays white.  The banded kernel matrix is built and
    applied in row blocks of about RBW_BLOCK entries.
    """
    if rbw <= 0:
        raise ValueError("rbw must be positive")
    sigma = rbw * FWHM_TO_SIGMA
    if len(nodes) < 2 or np.max(np.diff(nodes)) > sigma / 2:
        raise ValueError("the grid must sample the RBW kernel at least every sigma/2")
    if out_freqs.min() < nodes[0] or out_freqs.max() > nodes[-1]:
        raise ValueError("out_freqs outside the span of the grid")
    lo = np.searchsorted(nodes, out_freqs - RBW_SUPPORT * sigma)
    count = np.searchsorted(nodes, out_freqs + RBW_SUPPORT * sigma, side="right") - lo
    step = max(1, RBW_BLOCK // int(count.max()))
    out = np.empty((len(rows), len(out_freqs)))
    for first in range(0, len(out_freqs), step):
        block = slice(first, first + step)
        n_taps = count[block]
        starts = np.cumsum(n_taps) - n_taps
        cols = np.repeat(lo[block] - starts, n_taps)
        cols += np.arange(len(cols))
        kernel = nodes[cols]
        kernel -= np.repeat(out_freqs[block], n_taps)
        kernel *= kernel
        kernel *= -0.5 / sigma**2
        np.exp(kernel, out=kernel)
        kernel *= weights[cols]
        norm = np.add.reduceat(kernel, starts)
        for row, shaped in zip(rows, out[:, block]):
            taps = row[cols]
            taps *= kernel
            shaped[:] = np.add.reduceat(taps, starts) / norm
    return out


def _rule_terms(scenario, out_max, rbw):
    """Centres f_k and half-widths a_k (Hz) of the lines the quadrature rule
    clusters at (the renormalized mechanical line, the cavity at |delta| with
    half-width kappa/2, the lumped mode), its coarse spacing h_c and the top
    f_max of its span for outputs up to ``out_max``."""
    params, lump = scenario.system, scenario.lump
    f_k = [params.omega_m, abs(params.drive.delta)] + ([lump.omega_lump] if lump else [])
    a_k = [params.gamma / 2, params.optical.kappa / 2] + ([lump.gamma_lump / 2] if lump else [])
    h_c, f_max = H_COARSE * rbw * FWHM_TO_SIGMA, out_max + RBW_SUPPORT * rbw * FWHM_TO_SIGMA
    return np.array(f_k) / (2 * np.pi), np.array(a_k) / (2 * np.pi), h_c, f_max


def _cumulative(f, f_k, a_k, h_c):
    """u(f), the integral of the rule's point density from F_MIN_HZ to each ``f``."""
    s = np.arcsinh((f[:, np.newaxis] - f_k) / a_k) - np.arcsinh((F_MIN_HZ - f_k) / a_k)
    return (f - F_MIN_HZ) / h_c + np.sum(s, axis=1) / H_LINE + np.log(f / F_MIN_HZ) / H_LOG


def quadrature_rule(scenario, out_freqs, rbw):
    """Nodes (Hz) and weights of the frequency quadrature rule that RBW-shapes
    the model at ``out_freqs``; it spans [f_min, max(out_freqs) + RBW_SUPPORT sigma]
    with f_min = F_MIN_HZ.

    The nodes are equally spaced in u(f), the integral of the point density

        rho(f) = 1/h_c + sum_k 1/(h_u sqrt(a_k^2 + (f - f_k)^2)) + 1/(h_l f)

    with h_c = H_COARSE sigma, h_u = H_LINE, h_l = H_LOG and (f_k, a_k) from
    ``_rule_terms``: a coarse spacing that resolves the kernel, arcsinh
    clustering at each resonance, and logarithmic clustering toward f_min,
    where the bath and lumped-mode tails rise as 1/f.  u(f) is closed form;
    its inverse is found by safeguarded Newton from a table holding each
    term's own inverse.  The weights are du / rho(f_j) with Gregory's
    endpoint corrections, so the rule is the trapezoid rule in u, which
    converges exponentially for integrands smooth in u, and is of fifth order
    across the cut at f_min.
    """
    problem = instability(scenario.system)
    if problem:
        raise ValueError(problem)
    f_min = F_MIN_HZ
    if not f_min < np.min(out_freqs):
        raise ValueError(f"every output frequency must exceed the {f_min:g} Hz cutoff")
    f_k, a_k, h_c, f_max = _rule_terms(scenario, np.max(out_freqs), rbw)

    def density(f):
        x = f[:, np.newaxis] - f_k
        return 1 / h_c + np.sum(1 / (H_LINE * np.hypot(a_k, x)), axis=1) + 1 / (H_LOG * f)

    s_min = np.arcsinh((f_min - f_k) / a_k)
    table = [
        f_min + h_c * np.arange((f_max - f_min) / h_c),
        f_min * np.exp(H_LOG * np.arange(np.log(f_max / f_min) / H_LOG)),
        [f_max],
    ]
    for f0, a, s0 in zip(f_k, a_k, s_min):
        table.append(f0 + a * np.sinh(np.arange(s0, np.arcsinh((f_max - f0) / a), H_LINE)))
    table = np.unique(np.clip(np.concatenate(table), f_min, f_max))
    u_table = _cumulative(table, f_k, a_k, h_c)
    u_max = u_table[-1]
    n = int(np.ceil(u_max))
    u = np.linspace(0.0, u_max, n + 1)
    j = np.clip(np.searchsorted(u_table, u, side="right") - 1, 0, len(table) - 2)
    lo, hi = table[j], table[j + 1]
    f = np.interp(u, u_table, table)
    for _ in range(60):  # Newton converges in a few steps; bisection bounds the rest
        r = _cumulative(f, f_k, a_k, h_c) - u
        todo = np.abs(r) > 1e-13 * u_max
        if not todo.any():
            break
        lo = np.where(r < 0, f, lo)
        hi = np.where(r > 0, f, hi)
        step = f - r / density(f)
        step = np.where((step <= lo) | (step >= hi), 0.5 * (lo + hi), step)
        f = np.where(todo, step, f)
    f[0], f[-1] = f_min, f_max
    weights = (u_max / n) / density(f)
    weights[: len(GREGORY)] *= GREGORY
    weights[-len(GREGORY) :] *= GREGORY[::-1]
    return f, weights


def rule_node_count(scenario, out_max, rbw):
    """Intervals ``quadrature_rule`` puts on its span for outputs up to
    ``out_max``, ceil(u(f_max)) in closed form: inf where a term overflows (a
    line too narrow for its distance from the span's ends)."""
    f_k, a_k, h_c, f_max = _rule_terms(scenario, out_max, rbw)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(np.ceil(_cumulative(np.array([f_max]), f_k, a_k, h_c)[0]))


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
        return 1.0 if self.chain is None else self.chain.eta_tot(self.system.optical.eta_kappa)

    def occupation(self, omega):
        """Bath occupation at ``|omega|`` and the photon-heated bath temperature; zeros without a bath."""
        if self.bath is None:
            return np.zeros_like(np.asarray(omega, dtype=float))
        return bath_occupation(np.abs(omega), effective_temperature(self.bath, self.system.drive.n_c))


def output_harmonics(omega, scenario: Scenario):
    """Yield ``(name, (P, Q))`` for every noise component, undetected, in the
    order of the spectrum CSV's columns, where the component at quadrature
    theta is ``core.at_quadrature((P, Q), theta)`` = P + 2 Re(e^{-2i theta} Q).
    Components are computed one at a time, so callers that reduce them keep
    one pair alive."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    params = scenario.system
    bath, laser, lump, absorptive = scenario.bath, scenario.laser, scenario.lump, scenario.absorptive
    zero = (np.zeros_like(omega),) * 2
    nbar = scenario.occupation(omega)
    vac, thermal = spectrum_harmonics(omega, params, nbar)
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
        else absorptive_harmonics(omega, absorptive, params)
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


def assemble_density_map(theta_locks, out_freqs, scenario: Scenario, rbw) -> SqueezingMap:
    """Detected, RBW-shaped noise PSD over (lock angle, frequency).

    The analyzer kernel is linear and the detection chain affine, so the
    model is evaluated once on the nodes of ``quadrature_rule`` as
    (A, B, C), only those three are shaped, and each row is
    A + B cos 2theta + C sin 2theta at the quadrature its lock angle maps
    to, mixed with vacuum by the chain.  The floor over all quadratures,
    A - sqrt(B^2 + C^2), must be nonnegative up to roundoff, and A, B and C
    finite before and after shaping (NoiseOverflowError otherwise).
    """
    theta_locks = np.asarray(theta_locks, dtype=float)
    out_freqs = np.asarray(out_freqs, dtype=float)
    nodes, weights = quadrature_rule(scenario, out_freqs, rbw)
    abc = np.array(total_harmonics(2 * np.pi * nodes, scenario))
    shaped = rbw_shape_rows(nodes, weights, abc, rbw, out_freqs)
    if not (np.all(np.isfinite(abc)) and np.all(np.isfinite(shaped))):
        raise NoiseOverflowError(nodes, weights, scenario)
    if not np.all(abc[0] - np.hypot(abc[1], abc[2]) >= -1e-12 * abc[0]):
        raise ValueError("model PSD is negative at some quadrature")
    optical, delta = scenario.system.optical, scenario.system.drive.delta
    two_theta = 2.0 * lock_to_quadrature(theta_locks, optical, delta)[:, np.newaxis]
    values = shaped[0] + np.cos(two_theta) * shaped[1] + np.sin(two_theta) * shaped[2]
    # a shaped value that roundoff leaves slightly below zero is written, not rejected
    values = mix_vacuum(values, scenario.eta_tot)
    return SqueezingMap(theta_locks=theta_locks, freqs=out_freqs, values=values)


def detected_components(theta_lock, out_freqs, scenario: Scenario, rbw):
    """Detected, RBW-shaped spectrum at one lock angle, with its components.

    Returns ``(trace, columns)``, where ``columns`` maps each
    ``output_harmonics`` component name to its detected, shaped share
    ``eta * S_k``.  The vacuum column also carries the ``(1 - eta)``
    uncorrelated-vacuum offset, so the columns sum to ``trace.values``.
    All five columns are shaped by one pass over the kernel of
    ``quadrature_rule``, the one ``assemble_density_map`` uses; a column or
    sum that is not finite raises NoiseOverflowError.
    """
    out_freqs = np.asarray(out_freqs, dtype=float)
    nodes, weights = quadrature_rule(scenario, out_freqs, rbw)
    optical, delta = scenario.system.optical, scenario.system.drive.delta
    theta = lock_to_quadrature(theta_lock, optical, delta)
    eta = scenario.eta_tot
    names, rows = zip(*(
        (name, at_quadrature(pq, theta))
        for name, pq in output_harmonics(2 * np.pi * nodes, scenario)
    ))
    rows = np.array(rows)
    rows[1:] *= eta
    rows[0] = mix_vacuum(rows[0], eta)
    shaped = rbw_shape_rows(nodes, weights, rows, rbw, out_freqs)
    values = sum(shaped)
    if not np.all(np.isfinite(values)):
        raise NoiseOverflowError(nodes, weights, scenario)
    trace = SpectrumTrace(freqs=out_freqs, values=values, meta={"theta_lock_rad": float(theta_lock)})
    return trace, dict(zip(names, shaped))
