import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from omsqueeze import noise
from omsqueeze.core import OpticalMode, SystemParams, at_quadrature
from omsqueeze.noise import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
    absorptive_harmonics,
    bath_occupation,
    effective_temperature,
    extra_mode_harmonics,
    extra_mode_psd,
    mix_vacuum,
    phase_noise_harmonics,
)

from conftest import DELTA, G0, KAPPA, N_C, OMEGA_M0, TWO_PI

CHAIN = dict(eta_cp=0.90, eta_23=0.88, eta_3h=0.92, eta_hd=0.66)


# each component at quadrature theta, as the commands evaluate it: its (P, Q) pair through at_quadrature
def phase_at(omega, theta, params, laser):
    return at_quadrature(phase_noise_harmonics(omega, params, laser), theta)


def absorptive_at(omega, theta, model, params):
    return at_quadrature(absorptive_harmonics(omega, model, params), theta)


def extra_at(omega, theta, params, lump, nbar):
    return at_quadrature(extra_mode_harmonics(omega, params, lump, nbar), theta)


def detect(s_out, chain, eta_kappa):
    """The detection law as the commands apply it: mix_vacuum at eta = chain.eta_tot(eta_kappa)."""
    return mix_vacuum(s_out, chain.eta_tot(eta_kappa))


class TestBathOccupation:
    def test_constants_are_exact_si_values(self):
        assert noise.hbar == hbar
        assert noise.k_B == k_B

    def test_paper_value_28mhz(self):
        n = bath_occupation(TWO_PI * 28e6, 16.0)
        assert n == pytest.approx(1.2e4, rel=0.05)

    def test_50mhz_scales_inversely(self):
        n28 = bath_occupation(TWO_PI * 28e6, 16.0)
        n50 = bath_occupation(TWO_PI * 50e6, 16.0)
        assert n50 == pytest.approx(n28 * 28.0 / 50.0, rel=1e-12)
        assert n50 == pytest.approx(k_B * 16.0 / (hbar * TWO_PI * 50e6), rel=1e-12)

    def test_linear_in_temperature(self):
        assert bath_occupation(TWO_PI * 1e7, 32.0) == pytest.approx(
            2 * bath_occupation(TWO_PI * 1e7, 16.0), rel=1e-14
        )

    def test_occupation_times_omega_constant(self):
        w = TWO_PI * np.logspace(5, 8, 31)
        prod = bath_occupation(w, 16.0) * w
        assert np.all(np.abs(prod / prod[0] - 1.0) < 1e-12)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            bath_occupation(0.0, 16.0)
        with pytest.raises(ValueError):
            bath_occupation(-1e6, 16.0)


class TestEffectiveTemperature:
    def test_no_photons(self):
        assert effective_temperature(BathModel(t_b0=16.0, c0=3.2e-4), 0.0) == 16.0

    def test_heating_beyond_30k_at_high_power(self):
        t = effective_temperature(BathModel(t_b0=16.0, c0=3.2e-4), 4.4e4)
        assert t > 30.0

    def test_zero_coefficient_identity(self):
        assert effective_temperature(BathModel(t_b0=16.0, c0=0.0), 1e5) == 16.0

    def test_affine(self):
        bath = BathModel(t_b0=16.0, c0=3.2e-4)
        t1 = effective_temperature(bath, 1000.0)
        t2 = effective_temperature(bath, 3000.0)
        tm = effective_temperature(bath, 2000.0)
        assert tm == pytest.approx(0.5 * (t1 + t2), rel=1e-14)


class TestPhaseNoise:
    def test_zero_spectral_density(self, paper_params):
        w = TWO_PI * np.linspace(1e6, 40e6, 50)
        out = phase_at(w, 0.7, paper_params, LaserNoiseModel(s_omega_omega=0.0))
        assert np.all(out == 0.0)

    def test_dispersionless_limit(self, paper_mech):
        # kappa_e -> 0 removes the cavity dispersion; contribution -> 0
        vals = []
        for frac in (1.0, 1e-9):
            optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=frac * KAPPA)
            p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=N_C)
            vals.append(phase_at(TWO_PI * 1e7, 0.7, p, LaserNoiseModel(6e3)))
        assert abs(vals[1]) < 1e-8 * abs(vals[0])

    def test_zero_at_intensity_quadrature_on_resonance(self, paper_mech):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=KAPPA)
        p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=N_C)
        out = phase_at(TWO_PI * 5e6, 0.0, p, LaserNoiseModel(6e3))
        assert abs(out) < 1e-25

    def test_bare_overcoupled_small_omega_form(self, paper_mech):
        # F = 8 |a_LO a_in| sin(theta) (omega/kappa) for the perfectly
        # coupled resonant cavity at omega << kappa
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=KAPPA)
        p = SystemParams.build(optical, paper_mech, delta=0.0, n_c=N_C)
        laser = LaserNoiseModel(6e3)
        w = TWO_PI * 2e6
        flux = N_C * (KAPPA / 2) ** 2 / KAPPA
        for theta in (0.3, -1.1):
            expected = 64 * flux * np.sin(theta) ** 2 * laser.s_omega_omega / KAPPA**2
            assert phase_at(w, theta, p, laser) == pytest.approx(expected, rel=2e-4)

    def test_flat_over_band(self, paper_params):
        w = TWO_PI * np.linspace(1e6, 40e6, 200)
        out = phase_at(w, 0.7, paper_params, LaserNoiseModel(6e3))
        assert (out.max() - out.min()) / out.mean() < 0.10


class TestAbsorptive:
    def test_zero_amplitude(self, paper_params):
        out = absorptive_at(TWO_PI * 1e6, 0.3, AbsorptiveNoiseModel(0.0), paper_params)
        assert out == 0.0

    def test_power_law(self, paper_params):
        m = AbsorptiveNoiseModel(1.5e-4)
        a = absorptive_at(TWO_PI * 2e6, 0.3, m, paper_params)
        b = absorptive_at(TWO_PI * 4e6, 0.3, m, paper_params)
        assert b == pytest.approx(a / np.sqrt(2.0), rel=1e-12)

    def test_loglog_slope(self, paper_params):
        w = TWO_PI * np.logspace(6, 7, 40)
        p = paper_params.with_drive(n_c=3153.0)
        out = absorptive_at(w, 0.0, AbsorptiveNoiseModel(1.5e-4), p)
        slope = np.polyfit(np.log(w), np.log(out), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_linear_in_photon_number(self, paper_params):
        # the weight is amp_coeff * n_c, with n_c read from the drive
        m = AbsorptiveNoiseModel(1.5e-4)
        lo = absorptive_harmonics(TWO_PI * 3e6, m, paper_params)
        hi = absorptive_harmonics(TWO_PI * 3e6, m, paper_params.with_drive(n_c=4 * N_C))
        assert hi[0] == pytest.approx(4 * lo[0], rel=1e-14)
        assert lo[0] == pytest.approx(0.5 * 1.5e-4 * N_C * np.sqrt(1e6 / 3e6), rel=1e-14)

    def test_quadrature_orthogonal_to_transduction(self, paper_params):
        from omsqueeze.core import zero_transduction_angle

        m = AbsorptiveNoiseModel(1.5e-4)
        ts = zero_transduction_angle(OMEGA_M0, paper_params.optical, paper_params.drive.delta)
        at_star = absorptive_at(TWO_PI * 1e6, ts, m, paper_params)
        at_perp = absorptive_at(TWO_PI * 1e6, ts + np.pi / 2, m, paper_params)
        assert at_star > 0 and abs(at_perp) < 1e-30 * at_star

    def test_rejects_nonpositive_omega(self, paper_params):
        with pytest.raises(ValueError):
            absorptive_harmonics(0.0, AbsorptiveNoiseModel(1e-4), paper_params)


class TestExtraMode:
    LUMP = ExtraModeNoise(omega_lump=TWO_PI * 50e6, q_lump=100.0, g0_lump=TWO_PI * 100e3)

    def test_zero_coupling(self, paper_params):
        lump = ExtraModeNoise(omega_lump=TWO_PI * 50e6, q_lump=100.0, g0_lump=0.0)
        out = extra_at(TWO_PI * 5e6, 0.8, paper_params, lump, 1e4)
        assert np.all(out == 0.0)

    def test_tail_doubles_when_halving_omega(self, paper_params):
        w = TWO_PI * 2e6
        nbar = bath_occupation(np.array([w, w / 2]), 16.0)
        hi = extra_at(w, np.pi / 2, paper_params, self.LUMP, nbar[0])
        lo = extra_at(w / 2, np.pi / 2, paper_params, self.LUMP, nbar[1])
        assert lo / hi == pytest.approx(2.0, rel=0.05)

    def test_tail_slope(self, paper_params):
        freqs = np.logspace(6, 7, 50)
        w = TWO_PI * freqs
        nbar = bath_occupation(w, 16.0)
        out = extra_at(w, np.pi / 2, paper_params, self.LUMP, nbar)
        slope = np.polyfit(np.log(freqs), np.log(out), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_nonzero_floor_below_40mhz(self, paper_params):
        w = TWO_PI * np.linspace(1e6, 40e6, 79)
        nbar = bath_occupation(w, 16.0)
        out = extra_at(w, np.pi / 2, paper_params, self.LUMP, nbar)
        assert np.all(out > 0.0)

    def test_single_angle_form_matches_pair(self, paper_params):
        # extra_mode_psd evaluates the same law through core.spectrum_full
        w = TWO_PI * np.linspace(1e6, 40e6, 79)
        nbar = bath_occupation(w, 16.0)
        for theta in (-1.1, 0.0, np.pi / 2):
            np.testing.assert_allclose(
                extra_mode_psd(w, theta, paper_params, self.LUMP, nbar),
                extra_at(w, theta, paper_params, self.LUMP, nbar), rtol=1e-12, atol=0,
            )


class TestDetectionChain:
    def test_setup_efficiency_product(self):
        chain = DetectionChain(**CHAIN)
        assert chain.eta_setup == pytest.approx(0.90 * 0.88 * 0.92 * 0.66, rel=1e-9)
        assert chain.eta_setup == pytest.approx(0.48, abs=0.005)
        assert chain.eta_setup * 0.55 == pytest.approx(0.26, abs=0.006)

    def test_fixed_point_at_vacuum(self):
        chain = DetectionChain(**CHAIN)
        assert abs(detect(1.0, chain, 0.55) - 1.0) < 1e-12
        assert abs(detect(1.0, chain, 1.0) - 1.0) < 1e-12

    def test_composition_law(self):
        c1 = DetectionChain(eta_cp=0.9, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
        c2 = DetectionChain(eta_cp=0.7, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
        c12 = DetectionChain(eta_cp=0.9 * 0.7, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
        s = 0.87
        once = detect(detect(s, c1, 1.0), c2, 1.0)
        both = detect(s, c12, 1.0)
        assert abs(once - both) < 1e-12

    def test_quasi_static_detected_squeezing(self):
        ideal = DetectionChain(eta_cp=1.0, eta_23=1.0, eta_3h=1.0, eta_hd=0.26)
        out = detect(0.931, ideal, 1.0)
        assert out == pytest.approx(0.982, abs=5e-4)

    def test_identity_chain(self):
        ideal = DetectionChain(eta_cp=1.0, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
        s = np.array([0.3, 1.0, 7.5])
        assert np.allclose(detect(s, ideal, 1.0), s, atol=1e-15)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            DetectionChain(eta_cp=1.2, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
