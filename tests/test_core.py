from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omsqueeze import (
    DriveCondition,
    MechanicalMode,
    OpticalMode,
    SystemParams,
    mech_susceptibility,
    quasi_static_spectrum,
    spectrum_full,
    spring_and_damping,
    squeezing_cross_term,
    transfer_coefficients,
)
from omsqueeze.config import load_config
from omsqueeze.core import (
    DriveOverflowError,
    instability,
    reflection_phase,
    spring_damping_rates,
    transduction_phasors,
    zero_transduction_angle,
)
from omsqueeze.estimate import model_zero_transduction_lock, thermometry_model

from conftest import DELTA, ETA_KAPPA, G0, GAMMA_I, KAPPA, N_C, OMEGA_M0, TWO_PI


class TestMechSusceptibility:
    def test_static_limit(self, paper_mech):
        chi = mech_susceptibility(0.0, paper_mech)
        assert chi == pytest.approx(1.0 / (1.0 - 1j / paper_mech.q_m))
        assert abs(chi - 1.0) < 1e-4

    def test_on_resonance_is_i_q(self):
        q_m = 1.66e5
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=OMEGA_M0 / q_m, g0=G0)
        chi = mech_susceptibility(OMEGA_M0, mech)
        assert chi == pytest.approx(1j * q_m, rel=1e-9)

    def test_twice_resonance(self, paper_mech):
        chi = mech_susceptibility(2 * OMEGA_M0, paper_mech)
        assert chi.real == pytest.approx(-1.0 / 3.0, rel=1e-6)

    def test_structural_damping_denominator_flat(self, paper_mech):
        # imaginary part of the denominator independent of omega
        for w in [0.1 * OMEGA_M0, OMEGA_M0, 3 * OMEGA_M0]:
            denom = paper_mech.omega_m0**2 / mech_susceptibility(w, paper_mech)
            assert denom.imag == pytest.approx(-GAMMA_I * OMEGA_M0, rel=1e-12)


class TestSpringAndDamping:
    def test_no_drive(self, paper_optical, paper_mech):
        p = SystemParams.build(paper_optical, paper_mech, delta=DELTA, n_c=0.0)
        d_omega, gamma_om = spring_and_damping(p)
        assert d_omega == 0.0 and gamma_om == 0.0

    def test_resonant_drive_no_damping(self, paper_optical, paper_mech):
        p = SystemParams.build(paper_optical, paper_mech, delta=0.0, n_c=N_C)
        _, gamma_om = spring_and_damping(p)
        assert abs(gamma_om) < 1e-9 * p.mech.gamma_i

    def test_red_detuned_damping_positive(self, paper_params):
        mpmath = pytest.importorskip("mpmath")
        d_omega, gamma_om = spring_and_damping(paper_params)
        assert gamma_om > 0
        # independent high-precision evaluation of the two-Lorentzian formula
        mpmath.mp.dps = 50
        g = mpmath.mpf(G0) * mpmath.sqrt(mpmath.mpf(N_C))
        delta, kap, wm = mpmath.mpf(DELTA), mpmath.mpf(KAPPA), mpmath.mpf(OMEGA_M0)
        bracket = 1 / (1j * (delta - wm) + kap / 2) - 1 / (-1j * (delta + wm) + kap / 2)
        assert gamma_om == pytest.approx(float(2 * g**2 * mpmath.re(bracket)), rel=1e-12)
        assert d_omega == pytest.approx(float(g**2 * mpmath.im(bracket)), rel=1e-12)


class TestInstability:
    def test_paper_operating_point_is_stable(self, paper_params):
        assert instability(paper_params) is None

    def test_spring_beyond_the_bare_frequency(self, paper_optical):
        # a finite coupling whose optical spring pulls omega_m below zero
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=TWO_PI * 1e150)
        p = SystemParams.build(paper_optical, mech, delta=DELTA, n_c=N_C)
        assert p.omega_m < 0 < p.gamma < np.inf
        assert "omega_m/2pi" in instability(p)

    @pytest.mark.parametrize("omega_m, gamma, name", [
        (0.0, 1.0, "omega_m"), (-1.0, 1.0, "omega_m"), (np.inf, 1.0, "omega_m"),
        (np.nan, 1.0, "omega_m"), (1.0, 0.0, "gamma"), (1.0, -1.0, "gamma"),
        (1.0, np.inf, "gamma"), (1.0, np.nan, "gamma"),
    ])
    def test_rejects_each_bad_rate(self, omega_m, gamma, name):
        problem = instability(SimpleNamespace(omega_m=omega_m, gamma=gamma))
        assert problem.startswith("unstable operating point") and f"{name}/2pi" in problem
        assert "\n" not in problem

    def test_batched_drive_names_its_first_unstable_element(self):
        cfg = load_config(Path(__file__).parents[1] / "configs" / "default.ini")
        p = cfg.system.with_drive(delta=np.array([1e9, -1e9]), n_c=np.array([790.0, 790.0]))
        assert instability(p) == (
            "unstable operating point at drive element 1: "
            "total mechanical damping gamma/2pi = -2940.51 Hz is not positive and finite"
        )
        # the same element as a scalar drive: the line without the index
        assert instability(cfg.system.with_drive(delta=-1e9, n_c=790.0)) == (
            "unstable operating point: total mechanical damping gamma/2pi = -2940.51 Hz is not positive and finite"
        )
        stable = cfg.system.with_drive(delta=np.array([[1e9], [2e9]]), n_c=np.array([10.0, 790.0]))
        assert stable.gamma.shape == (2, 2) and instability(stable) is None


class TestTransferCoefficients:
    def test_bare_cavity_full_reflection(self, paper_mech):
        kappa = 122 * OMEGA_M0
        optical = OpticalMode(omega_o=1.0e15, kappa=kappa, kappa_e=kappa)
        p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=0.0)
        c = transfer_coefficients(0.0, p)
        assert 1.0 + c.a1 == pytest.approx(-1.0, abs=1e-12)

    def test_no_drive_coefficients_vanish(self, paper_optical, paper_mech):
        p = SystemParams.build(paper_optical, paper_mech, delta=DELTA, n_c=0.0)
        c = transfer_coefficients(0.7 * OMEGA_M0, p)
        assert c.a2 == 0.0 and c.b1 == 0.0 and c.b2 == 0.0

    def test_rotating_wave_dominance_on_resonance(self, paper_params):
        c = transfer_coefficients(paper_params.omega_m, paper_params)
        assert abs(c.b1) > 1e3 * abs(c.b2)

    @given(
        log_w=st.floats(3.0, 10.0),
        sign=st.sampled_from([-1.0, 1.0]),
        log_nc=st.floats(-1.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_everywhere(self, log_w, sign, log_nc):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=ETA_KAPPA * KAPPA)
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
        p = SystemParams.build(optical, mech, delta=DELTA, n_c=10**log_nc)
        c = transfer_coefficients(sign * 10**log_w, p)
        for z in (c.a1, c.a2, c.b1, c.b2):
            assert np.isfinite(z)


class TestSpectrumFull:
    def test_shot_noise_floor_perfect_and_imperfect_coupling(self, paper_mech):
        for eta in (1.0, 0.55, 0.3):
            optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=eta * KAPPA)
            p = SystemParams.build(optical, paper_mech, delta=DELTA, n_c=0.0)
            w = TWO_PI * np.array([0.3e6, 5e6, 28e6, 39e6])
            for theta in (-0.7, 0.0, 0.4, 1.3):
                s, s_vac, s_th = spectrum_full(w, theta, p, 1.2e4)
                assert np.all(np.abs(s - 1.0) < 1e-12)
                assert np.all(s_th == 0.0)

    def test_thermal_part_spontaneous_only_at_zero_occupation(self, paper_params):
        w = paper_params.omega_m
        _, _, s_th = spectrum_full(w, 0.9, paper_params, 0.0)
        assert s_th > 0
        p0 = paper_params.with_drive(n_c=0.0)
        _, _, s_th0 = spectrum_full(w, 0.9, p0, 0.0)
        assert s_th0 == 0.0

    def test_total_is_vac_plus_thermal(self, paper_params):
        w = TWO_PI * np.linspace(1e6, 40e6, 101)
        nbar = 1.2e4 * 28e6 / (w / TWO_PI)
        s, s_vac, s_th = spectrum_full(w, -0.3, paper_params, nbar)
        assert np.allclose(s, s_vac + s_th, rtol=1e-14)

    def test_squeezing_region_near_mechanical_resonance(self, paper_params):
        # minimum over (theta, omega) dips below shot noise close to omega_m
        freqs = np.linspace(25e6, 31e6, 601)
        w = TWO_PI * freqs
        t_eff = 16.0 + 3.2e-4 * N_C
        nbar = 1.381e-23 * t_eff / (1.055e-34 * w)
        best, best_at = 1e9, None
        for theta in np.linspace(-np.pi / 2, np.pi / 2, 181):
            s, _, _ = spectrum_full(w, theta, paper_params, nbar)
            i = int(np.argmin(s))
            if s[i] < best:
                best, best_at = s[i], freqs[i]
        assert best < 1.0
        assert abs(best_at - 28e6) < 2e6

    @given(
        theta=st.floats(-np.pi, np.pi),
        log_f=st.floats(5.5, 7.6),
        log_nc=st.floats(-1.0, 3.8),
        delta_frac=st.floats(-0.15, 0.15),
        eta=st.floats(0.2, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_real_and_nonnegative(self, theta, log_f, log_nc, delta_frac, eta):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=eta * KAPPA)
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
        p = SystemParams.build(optical, mech, delta=delta_frac * KAPPA, n_c=10**log_nc)
        w = TWO_PI * 10**log_f
        nbar = 1.2e4 * 28e6 / 10**log_f
        s, s_vac, s_th = spectrum_full(w, theta, p, nbar)
        assert np.isfinite(s)
        assert s >= 0.0 and s_vac >= 0.0 and s_th >= 0.0

    @given(
        theta=st.floats(-np.pi, np.pi),
        log_f=st.floats(5.5, 7.6),
        log_nc=st.floats(-1.0, 3.8),
        delta_frac=st.floats(-0.15, 0.15),
        eta=st.floats(0.2, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_plus_minus_coefficients(self, theta, log_f, log_nc, delta_frac, eta):
        # reference: the six-term form with coefficients solved at +omega and -omega
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=eta * KAPPA)
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
        p = SystemParams.build(optical, mech, delta=delta_frac * KAPPA, n_c=10**log_nc)
        w = TWO_PI * 10**log_f
        nbar = 1.2e4 * 28e6 / 10**log_f
        c_p, c_m = transfer_coefficients(w, p), transfer_coefficients(-w, p)
        ph = np.exp(-2j * theta)
        ratio = optical.kappa_i / optical.kappa_e
        vac = (
            abs(c_m.a2) ** 2 + abs(1 + c_p.a1) ** 2 + 2 * np.real(ph * (1 + c_p.a1) * c_m.a2)
            + ratio * (abs(c_p.a1) ** 2 + abs(c_m.a2) ** 2 + 2 * np.real(ph * c_p.a1 * c_m.a2))
        )
        thermal = (
            abs(c_p.b1) ** 2 * (nbar + 1) + abs(c_m.b1) ** 2 * nbar
            + abs(c_m.b2) ** 2 * (nbar + 1) + abs(c_p.b2) ** 2 * nbar
            + 2 * np.real(ph * c_p.b1 * c_m.b2) * (nbar + 1)
            + 2 * np.real(ph * c_m.b1 * c_p.b2) * nbar
        )
        s, s_vac, s_th = spectrum_full(w, theta, p, nbar)
        scale = 1.0 + abs(c_p.b1) ** 2 * (nbar + 1)
        assert abs(s_vac - vac) <= 1e-12 * scale
        assert abs(s_th - thermal) <= 1e-12 * scale

    def test_sign_flip_across_resonance(self, resonant_bad_cavity):
        p = resonant_bad_cavity
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 721)
        signs = []
        for eps in (-0.05, 0.05):
            w = p.omega_m * (1 + eps)
            s, _, _ = spectrum_full(w, thetas, p, 0.0)
            signs.append(np.sign(thetas[int(np.argmin(s))]))
        assert signs[0] == -signs[1] and signs[0] != 0


class TestSharedFormulas:
    def test_spring_damping_rates_vectorize_system_values(self, paper_optical, paper_mech):
        deltas = np.linspace(-0.3, 0.3, 13) * KAPPA
        d_omega, gamma_om = spring_damping_rates(deltas, G0**2 * N_C, KAPPA, OMEGA_M0)
        for k, delta in enumerate(deltas):
            p = SystemParams.build(paper_optical, paper_mech, delta=delta, n_c=N_C)
            assert (d_omega[k], gamma_om[k]) == pytest.approx(spring_and_damping(p), rel=1e-14)
        f, lw, _ = thermometry_model(deltas, G0, GAMMA_I, 0.0, OMEGA_M0, paper_optical, N_C)
        p0 = SystemParams.build(paper_optical, paper_mech, delta=0.0, n_c=N_C)
        assert (f[6], lw[6]) == pytest.approx((p0.omega_m, p0.gamma), rel=1e-14)

    def test_zero_transduction_lock_uses_the_same_angle(self, paper_params):
        delta = paper_params.drive.delta
        optical = paper_params.optical
        u, v = transduction_phasors(delta, KAPPA, OMEGA_M0)
        theta = zero_transduction_angle(OMEGA_M0, optical, delta)
        assert theta == 0.5 * (np.angle(u) - np.angle(v))
        lock = model_zero_transduction_lock(delta, optical, OMEGA_M0)
        wrapped = theta - reflection_phase(optical, delta)
        assert lock == pytest.approx(wrapped - np.pi * np.round(wrapped / np.pi), abs=1e-15)


class TestQuasiStatic:
    def test_max_squeezing_floor(self, resonant_bad_cavity):
        p = resonant_bad_cavity
        ratio = p.drive.gamma_meas / p.mech.omega_m0
        s = quasi_static_spectrum(-np.pi / 4, p, 0.0)
        assert abs(s - (1.0 - 4.0 * ratio)) < 1e-12

    def test_squeezing_cancels_at_nbar_equals_q(self, resonant_bad_cavity):
        s = quasi_static_spectrum(-np.pi / 4, resonant_bad_cavity, resonant_bad_cavity.mech.q_m)
        assert abs(s - 1.0) < 1e-12

    def test_paper_arithmetic(self):
        # n_c = 790, Q_m = 1.66e5, nbar = 1.2e4 at theta = -pi/4 -> ~0.931
        q_m = 1.66e5
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=KAPPA)
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=OMEGA_M0 / q_m, g0=G0)
        p = SystemParams.build(optical, mech, delta=0.0, n_c=N_C)
        s = quasi_static_spectrum(-np.pi / 4, p, 1.2e4)
        assert s == pytest.approx(0.931, abs=1.5e-3)

    def test_consistency_with_full_model(self, paper_mech):
        # omega <= omega_m/50, Delta = 0, eta = 1, kappa >= 100 omega_m
        kappa = 150 * OMEGA_M0
        optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=kappa)
        g_target = 1e-3 * OMEGA_M0  # gamma_meas/omega_m = 1e-3
        n_c = g_target * kappa / 4 / G0**2
        p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=n_c)
        q_m = paper_mech.q_m
        for theta in (-np.pi / 4, -np.pi / 8, 0.4, 1.0, 3 * np.pi / 8):
            for nbar in (0.0, 0.5 * q_m):
                if abs(np.sin(2 * theta) + nbar / q_m * (1 - np.cos(2 * theta))) < 0.05:
                    continue
                for w in (p.omega_m / 50, p.omega_m / 120):
                    s_full, _, _ = spectrum_full(w, theta, p, nbar)
                    s_qs = quasi_static_spectrum(theta, p, nbar)
                    assert abs(s_full - s_qs) <= 0.01 * abs(s_qs - 1.0)


class TestSqueezingCrossTerm:
    def test_static_limit_matches_quasi_static_correlation(self, resonant_bad_cavity):
        p = resonant_bad_cavity
        theta = -0.6
        ct = squeezing_cross_term(p.mech.omega_m0 / 1e4, theta, p)
        expected = 4.0 * (p.drive.gamma_meas / p.mech.omega_m0) * np.sin(2 * theta)
        assert ct == pytest.approx(expected, rel=1e-4)

    def test_sign_above_resonance(self, resonant_bad_cavity):
        ct = squeezing_cross_term(1.3 * OMEGA_M0, 0.5, resonant_bad_cavity)
        assert ct < 0.0

    def test_zeros(self, resonant_bad_cavity):
        assert squeezing_cross_term(0.7 * OMEGA_M0, 0.0, resonant_bad_cavity) == 0.0
        for theta in (np.pi / 2, -np.pi / 2):
            ct = squeezing_cross_term(0.7 * OMEGA_M0, theta, resonant_bad_cavity)
            assert abs(ct) < 1e-15

    def test_cross_term_equivalence_small_angle(self, paper_mech):
        # full model ~ 1 + cross term to O((gamma_meas/omega_m)^2) away from
        # resonance and at small quadrature angles (see decisions ledger on
        # the scope of this expansion)
        kappa = 150 * OMEGA_M0
        optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=kappa)
        p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=N_C * (KAPPA / kappa))
        ratio = p.drive.gamma_meas / p.mech.omega_m0
        freqs = np.concatenate(
            [np.linspace(1e-3, 0.6, 40), np.linspace(1.4, 2.0, 40)]
        ) * p.mech.omega_m0
        for theta in (-0.2, 0.15):
            s_full, _, _ = spectrum_full(freqs, theta, p, 0.0)
            approx = 1.0 + squeezing_cross_term(freqs, theta, p)
            assert np.all(np.abs(s_full - approx) <= 2.0 * ratio**2)


class TestZeroTransductionAngle:
    def test_zero_at_zero_detuning(self, resonant_bad_cavity):
        p = resonant_bad_cavity
        assert zero_transduction_angle(OMEGA_M0, p.optical, p.drive.delta) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_quasi_static_limit(self, paper_params):
        ts = zero_transduction_angle(0.0, paper_params.optical, DELTA)
        assert ts == pytest.approx(-np.arctan(2 * DELTA / KAPPA), abs=1e-12)


class TestParamTypes:
    def test_optical_invariants(self):
        with pytest.raises(ValueError):
            OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=1.5e9)
        with pytest.raises(ValueError):
            OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.0)
        m = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.6e9)
        assert m.kappa_e + m.kappa_i == pytest.approx(m.kappa, rel=1e-15)
        assert 0 < m.eta_kappa <= 1

    def test_mechanical_invariants(self):
        with pytest.raises(ValueError):
            MechanicalMode(omega_m0=1e8, gamma_i=0.0, g0=1e5)
        m = MechanicalMode(omega_m0=1e8, gamma_i=1e3, g0=1e5)
        assert m.q_m == pytest.approx(1e5, rel=1e-9)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_cached_rates_are_python_floats(self, paper_optical, paper_mech, scalar):
        # a numpy scalar's repr is "np.float64(...)", which a config file rejects
        for delta in (DELTA, -DELTA, 0.0):
            p = SystemParams.build(paper_optical, paper_mech, delta=scalar(delta), n_c=scalar(N_C))
            assert type(p.omega_m) is float and type(p.gamma) is float

    def test_drive_relations(self, paper_params):
        d = paper_params.drive
        assert d.g == pytest.approx(G0 * np.sqrt(N_C), rel=1e-12)
        assert d.gamma_meas == pytest.approx(4 * d.g**2 / KAPPA, rel=1e-12)
        assert d.gamma_meas / TWO_PI == pytest.approx(519.7e3, rel=1e-3)

    def test_batched_drive_names_its_first_overflowing_element(self, paper_optical, paper_mech):
        n_c = np.array([N_C, 1e300, N_C, 1e301])
        with pytest.raises(DriveOverflowError, match="4 g\\^2/kappa overflows") as err:
            SystemParams.build(paper_optical, paper_mech, delta=DELTA, n_c=n_c)
        assert err.value.index == 1
        assert f"g = g0 sqrt(n_c) = {G0 * np.sqrt(1e300):.6g} rad/s" in str(err.value)

    def test_hand_made_drive_is_checked_against_the_modes(self, paper_optical, paper_mech, paper_params):
        batch = DriveCondition.from_photon_number(np.full(3, DELTA), np.full(3, N_C), paper_mech, paper_optical)
        SystemParams(paper_optical, paper_mech, batch)
        stronger = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=2 * G0)
        with pytest.raises(ValueError, match="g inconsistent"):
            SystemParams(paper_optical, stronger, paper_params.drive)
