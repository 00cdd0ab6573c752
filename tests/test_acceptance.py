"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line per
criterion (a failing criterion shows up as the failed assertion instead).
"""

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from omsqueeze import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    InputCorrelationMatrix,
    LaserNoiseModel,
    MechanicalMode,
    OpticalMode,
    Scenario,
    SystemParams,
    assemble_density_map,
    bath_occupation,
    matrix_solve_spectrum,
    quasi_static_spectrum,
    spectrum_full,
)
from omsqueeze.estimate import (
    fit_thermometry,
    generate_lock_sweep,
    generate_thermometry_curve,
    infer_detuning,
)
from omsqueeze.core import at_quadrature
from omsqueeze.instrument import total_harmonics
from omsqueeze.noise import absorptive_harmonics, extra_mode_harmonics, mix_vacuum, phase_noise_harmonics
from omsqueeze.oracle import sde_time_domain_psd

from conftest import DELTA, ETA_KAPPA, G0, GAMMA_I, KAPPA, N_C, OMEGA_M0, TWO_PI

CHAIN = DetectionChain(eta_cp=0.90, eta_23=0.88, eta_3h=0.92, eta_hd=0.66)
BATH = BathModel(t_b0=16.0, c0=3.2e-4)
LUMP = ExtraModeNoise(omega_lump=TWO_PI * 50e6, q_lump=100.0, g0_lump=TWO_PI * 100e3)
LASER = LaserNoiseModel(s_omega_omega=6e3)
ABSORPTIVE = AbsorptiveNoiseModel(amp_coeff=1.5e-4)


def report(num, ok, text):
    print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def paper_system(n_c=N_C, delta=DELTA):
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=KAPPA, kappa_e=ETA_KAPPA * KAPPA)
    mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
    return SystemParams.build(optical, mech, delta=delta, n_c=n_c)


def test_criterion_01_occupancy_arithmetic():
    n = float(bath_occupation(TWO_PI * 28e6, 16.0))
    ok = abs(n - 1.2e4) <= 0.05 * 1.2e4
    report(1, ok, f"bath occupation at 28 MHz, 16 K = {n:.0f} (target 1.2e4 +- 5%)")


def test_criterion_02_coherence_ratio():
    ratio = 1.66e5 * hbar * TWO_PI * 28e6 / (k_B * 16.0)
    ok = abs(ratio - 13.0) <= 0.10 * 13.0
    report(2, ok, f"Q_m hbar omega_m / k_B T_b = {ratio:.2f} (target 13 +- 10%)")


def test_criterion_03_quasi_static_limits():
    p = paper_system(delta=0.0)
    ratio = p.drive.gamma_meas / p.mech.omega_m0
    s0 = quasi_static_spectrum(-np.pi / 4, p, 0.0)
    s1 = quasi_static_spectrum(-np.pi / 4, p, p.mech.q_m)
    ok = abs(s0 - (1 - 4 * ratio)) < 1e-12 and abs(s1 - 1.0) < 1e-12
    report(3, ok, f"quasi-static floor 1-4G/w = {s0:.6f}, exactly 1 at nbar=Q_m: {s1}")


def test_criterion_04_full_vs_quasi_static():
    kappa = 122 * OMEGA_M0
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=kappa, kappa_e=kappa)
    mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
    n_c = 1e-3 * OMEGA_M0 * kappa / 4 / G0**2  # gamma_meas/omega_m = 1e-3
    p = SystemParams.build(optical, mech, delta=0.0, n_c=n_c)
    worst = 0.0
    for theta in (-np.pi / 4, -np.pi / 8, 0.4, 1.0, 3 * np.pi / 8):
        for nbar in (0.0, 0.5 * mech.q_m):
            denom = np.sin(2 * theta) + nbar / mech.q_m * (1 - np.cos(2 * theta))
            if abs(denom) < 0.05:
                continue
            for w in (p.omega_m / 50, p.omega_m / 200):
                s_full, _, _ = spectrum_full(w, theta, p, nbar)
                s_qs = quasi_static_spectrum(theta, p, nbar)
                worst = max(worst, abs(s_full - s_qs) / abs(s_qs - 1.0))
    ok = worst <= 0.01
    report(4, ok, f"max relative deviation (full-1) vs (quasistatic-1) = {worst:.4f} (<= 1%)")


def detected_min(w, thetas, scenario):
    """Smallest detected PSD over the frequencies ``w`` and the quadratures ``thetas``."""
    a, b, c = total_harmonics(w, scenario)
    return min(
        mix_vacuum(a + b * np.cos(2 * th) + c * np.sin(2 * th), scenario.eta_tot).min() for th in thetas
    )


def test_criterion_05_squeezing_magnitude_power_sweep():
    ncs = 3153.0 * 10 ** (-0.2 * np.arange(7))[::-1]
    freqs = np.linspace(25e6, 31e6, 1201)
    w = TWO_PI * freqs
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 181)
    mins_full, mins_free = [], []
    for n_c in ncs:
        p = paper_system(n_c=n_c)
        full = Scenario(system=p, bath=BATH, lump=LUMP, laser=LASER,
                        absorptive=ABSORPTIVE, chain=CHAIN)
        free = Scenario(system=p, chain=CHAIN)  # back-action only, no thermal noise
        m_full = detected_min(w, thetas, full)
        m_free = detected_min(w, thetas, free)
        mins_full.append(m_full)
        mins_free.append(m_free)
    mins_full = np.array(mins_full)
    mins_free = np.array(mins_free)
    sat = int(np.argmin(mins_full))
    squeezing = 1.0 - mins_full[sat]
    ordering = bool(np.all(mins_free < mins_full))
    ok = 0.03 <= squeezing <= 0.06 and ordering
    report(
        5, ok,
        f"detected squeezing at saturation (n_c={ncs[sat]:.0f}) = {100*squeezing:.2f}% "
        f"(target [3%, 6%]); thermal-free model deeper at every power: {ordering}",
    )


def _fig3a_map():
    kappa = 122 * OMEGA_M0
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=kappa, kappa_e=kappa)
    mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
    p = SystemParams.build(optical, mech, delta=0.0, n_c=N_C)
    scenario = Scenario(system=p, bath=BathModel(t_b0=16.0), chain=CHAIN)
    f_m = p.omega_m / TWO_PI
    theta_locks = np.linspace(-np.pi / 2, np.pi / 2, 41)
    freqs = np.linspace(0.6 * f_m, 1.4 * f_m, 161)
    sqmap = assemble_density_map(theta_locks, freqs, scenario, rbw=100e3)
    return sqmap, scenario, f_m


def test_criterion_06_sign_flip_geometry():
    sqmap, _, f_m = _fig3a_map()
    sub = sqmap.values < 1.0 - 1e-6
    ii, jj = np.nonzero(sub)
    has_both = sub[:, sqmap.freqs < f_m].any() and sub[:, sqmap.freqs > f_m].any()
    opposite = bool(
        np.all(np.sign(sqmap.theta_locks[ii]) * np.sign(sqmap.freqs[jj] - f_m) > 0)
    )
    mid_row = int(np.argmin(np.abs(sqmap.theta_locks)))
    mid_col = int(np.argmin(np.abs(sqmap.freqs - f_m)))
    separated = bool(
        np.all(sqmap.values[mid_row] >= 1.0 - 1e-6)
        and np.all(sqmap.values[:, mid_col] >= 1.0 - 1e-6)
    )
    ok = has_both and opposite and separated
    report(
        6, ok,
        "density map: sub-unity regions below/above omega_m on opposite theta_lock "
        f"signs ({has_both}, {opposite}), separated by a unity band ({separated})",
    )


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        p = paper_system(
            n_c=N_C * 10 ** rng.uniform(-1.5, 1.5),
            delta=DELTA * 10 ** rng.uniform(-1.5, 1.5) * rng.choice((-1.0, 1.0)),
        )
        w = TWO_PI * 10 ** rng.uniform(5.5, 7.6)
        theta = rng.uniform(-np.pi, np.pi)
        nbar = float(bath_occupation(w, 16.0))
        s_ref, _, _ = spectrum_full(w, theta, p, nbar)
        s_orc = matrix_solve_spectrum(w, theta, p, InputCorrelationMatrix.vacuum_thermal(nbar))
        worst = max(worst, abs(s_orc - float(s_ref)) / abs(float(s_ref)))
    ok = worst <= 1e-9
    report(7, ok, f"closed form vs matrix solve over 1000 draws: max rel err = {worst:.2e}")


@pytest.mark.sde
def test_criterion_08_monte_carlo_equivalence():
    p = paper_system()
    f_m = p.omega_m / TWO_PI
    edges = np.unique(np.concatenate([
        np.linspace(0.82 * f_m, 0.94 * f_m, 11),
        np.linspace(1.06 * f_m, 1.18 * f_m, 11),
    ]))
    theta = -0.3
    trace = sde_time_domain_psd(
        p, nbar=0.0, theta=theta, duration=8e-3, dt=5e-11, seed=3,
        freq_bins=edges, segment_samples=1 << 16,
    )
    analytic = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ff = np.linspace(lo, hi, 301)
        s_p, _, _ = spectrum_full(TWO_PI * ff, theta, p, 0.0)
        s_m, _, _ = spectrum_full(-TWO_PI * ff, theta, p, 0.0)
        analytic.append(np.mean(0.5 * (s_p + s_m)))
    analytic = np.array(analytic)
    # the bin spanning the unresolved mechanical line (window leakage) is
    # reported but not scored; the 20 surrounding bins carry the physics
    scored = ~((trace.freqs > 0.95 * f_m) & (trace.freqs < 1.05 * f_m))
    z = np.abs(trace.values - analytic) / trace.stderr
    ok = bool(np.all(z[scored] <= 3.0)) and int(np.sum(scored)) == 20
    report(
        8, ok,
        f"stochastic simulation vs analytic on 20 bins around omega_m: "
        f"max |z| = {z[scored].max():.2f} (<= 3)",
    )


def test_criterion_09_fit_round_trips():
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=KAPPA, kappa_e=ETA_KAPPA * KAPPA)
    mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
    n_b = float(bath_occupation(OMEGA_M0, 16.0))
    deltas = np.linspace(0.02, 0.65, 13) * KAPPA
    trials = 200
    hits_g0 = hits_gi = 0
    for seed in range(trials):
        curve = generate_thermometry_curve(
            optical, mech, 50.0, deltas, n_b, noise_frac=0.01, rng=seed
        )
        r = fit_thermometry(curve, optical, 50.0)
        hits_g0 += abs(r.g0_hat - G0) / G0 < 0.02
        hits_gi += abs(r.gamma_i_hat - GAMMA_I) / GAMMA_I < 0.05
    p = paper_system()
    det_errs = []
    for seed in range(100):
        sweep = generate_lock_sweep(
            p, np.linspace(-1.2, 1.2, 41), n_b, noise_frac=0.01, rng=seed
        )
        delta_hat, _ = infer_detuning(sweep, optical, omega_probe=OMEGA_M0)
        det_errs.append(abs(delta_hat - DELTA))
    det_ok = bool(np.all(np.array(det_errs) <= 0.006 * KAPPA))
    ok = hits_g0 >= 0.95 * trials and hits_gi >= 0.95 * trials and det_ok
    report(
        9, ok,
        f"thermometry: g0 within 2% in {hits_g0}/{trials}, gamma_i within 5% in "
        f"{hits_gi}/{trials}; detuning within 0.006 kappa in all of 100 sweeps: {det_ok}",
    )


def detect(s_out, chain, eta_kappa):
    return mix_vacuum(s_out, chain.eta_tot(eta_kappa))


def test_criterion_10_loss_mixing_law():
    fixed = abs(detect(1.0, CHAIN, ETA_KAPPA) - 1.0)
    c1 = DetectionChain(eta_cp=0.9, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
    c2 = DetectionChain(eta_cp=0.7, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
    c12 = DetectionChain(eta_cp=0.63, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
    s = 0.87
    comp = abs(
        detect(detect(s, c1, 1.0), c2, 1.0)
        - detect(s, c12, 1.0)
    )
    sqmap, scenario, _ = _fig3a_map()
    floor_ok = bool(np.all(sqmap.values >= 1.0 - scenario.eta_tot - 1e-12))
    ok = fixed < 1e-12 and comp < 1e-12 and floor_ok
    report(
        10, ok,
        f"vacuum fixed point |d|={fixed:.1e}, composition law |d|={comp:.1e} (1e-12); "
        f"detected map floor >= 1 - eta_tot: {floor_ok}",
    )


def test_criterion_11_noise_power_laws():
    p = paper_system()
    freqs = np.logspace(6, 7, 50)
    w = TWO_PI * freqs
    nbar = bath_occupation(w, 16.0)
    tail = at_quadrature(extra_mode_harmonics(w, p, LUMP, nbar), np.pi / 2)
    slope_extra = np.polyfit(np.log(freqs), np.log(tail), 1)[0]
    absorp = at_quadrature(absorptive_harmonics(w, ABSORPTIVE, p.with_drive(n_c=3153.0)), 0.0)
    slope_abs = np.polyfit(np.log(freqs), np.log(absorp), 1)[0]
    w_flat = TWO_PI * np.linspace(1e6, 40e6, 200)
    flat = at_quadrature(phase_noise_harmonics(w_flat, p, LASER), 0.7)
    flatness = (flat.max() - flat.min()) / flat.mean()
    ok = (
        abs(slope_extra + 1.0) <= 0.05
        and abs(slope_abs + 0.5) <= 0.01
        and flatness <= 0.10
    )
    report(
        11, ok,
        f"extra-mode tail slope {slope_extra:.3f} (-1 +- 0.05); absorptive slope "
        f"{slope_abs:.3f} (-0.5 +- 0.01); phase-noise flatness {100*flatness:.2f}% (<= 10%)",
    )
