import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omsqueeze import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
    MechanicalMode,
    OpticalMode,
    Scenario,
    SystemParams,
    assemble_density_map,
    bath_occupation,
    detected_components,
    effective_temperature,
    lock_to_quadrature,
    quadrature_to_lock,
)
from omsqueeze.core import at_quadrature, reflection_coefficient, reflection_phase
from omsqueeze.instrument import output_harmonics, quadrature_rule, rbw_shape_rows, total_harmonics
from omsqueeze.noise import mix_vacuum

from conftest import DELTA, G0, GAMMA_I, KAPPA, N_C, OMEGA_M0, TWO_PI

CHAIN = DetectionChain(eta_cp=0.90, eta_23=0.88, eta_3h=0.92, eta_hd=0.66)


def components_at(omega, theta, scenario):
    """Each undetected component of ``output_harmonics`` at quadrature ``theta``."""
    return {name: at_quadrature(pq, theta) for name, pq in output_harmonics(omega, scenario)}


def spectrum_at(omega, theta, scenario, detected=True):
    """The summed spectrum at quadrature ``theta``, through the detection chain when ``detected``."""
    s = sum(components_at(omega, theta, scenario).values())
    return mix_vacuum(s, scenario.eta_tot) if detected else s


def full_scenario(params, chain=CHAIN):
    return Scenario(
        system=params,
        bath=BathModel(t_b0=16.0, c0=3.2e-4),
        lump=ExtraModeNoise(omega_lump=TWO_PI * 50e6, q_lump=100.0, g0_lump=TWO_PI * 100e3),
        laser=LaserNoiseModel(s_omega_omega=6e3),
        absorptive=AbsorptiveNoiseModel(amp_coeff=1.5e-4),
        chain=chain,
    )


class TestReflection:
    def test_critical_coupling_dip(self):
        optical = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.5e9)
        assert reflection_coefficient(0.0, optical, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_paper_coupling_phase(self):
        optical = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.54e9)
        r = reflection_coefficient(0.0, optical, 0.0)
        assert r == pytest.approx(-0.08, abs=1e-12)
        assert np.angle(r) == pytest.approx(np.pi, abs=1e-12)

    def test_far_detuned_mirror(self):
        optical = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.55e9)
        r = reflection_coefficient(0.0, optical, 30e9)
        assert abs(r - 1.0) < 0.02


class TestLockAngle:
    def test_resonant_overcoupled_offset_pi(self):
        optical = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=0.54e9)
        theta = lock_to_quadrature(0.37, optical, 0.0)
        assert theta == pytest.approx(0.37 + np.pi, abs=1e-12)

    def test_weak_coupling_no_phase(self):
        optical = OpticalMode(omega_o=1e15, kappa=1e9, kappa_e=1e-9 * 1e9)
        assert reflection_phase(optical, 0.0) == pytest.approx(0.0, abs=1e-8)
        assert lock_to_quadrature(0.37, optical, 0.0) == pytest.approx(0.37, abs=1e-8)

    def test_round_trip(self):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=0.55 * KAPPA)
        for theta_lock in np.linspace(-np.pi, np.pi, 17):
            theta = lock_to_quadrature(theta_lock, optical, DELTA)
            back = quadrature_to_lock(theta, optical, DELTA)
            assert back == pytest.approx(theta_lock, abs=1e-12)
            assert theta_lock == pytest.approx(theta - reflection_phase(optical, DELTA), abs=1e-12)

    def test_bijection_strictly_monotone(self):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=0.55 * KAPPA)
        locks = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
        thetas = [lock_to_quadrature(t, optical, DELTA) for t in locks]
        assert np.all(np.diff(thetas) > 0)


def trapezoid_shape(freqs, values, rbw, out_freqs):
    """RBW shaping of one trace sampled at ``freqs`` by ``rbw_shape_rows``,
    integrated with the trapezoid weights of the trace's own grid."""
    gaps = np.diff(freqs)
    weights = 0.5 * (np.append(gaps, 0.0) + np.insert(gaps, 0, 0.0))
    return rbw_shape_rows(freqs, weights, values[np.newaxis], rbw, out_freqs)[0]


class TestRbwResample:
    """``rbw_shape_rows`` on a sampled trace with trapezoid weights."""

    def test_white_is_fixed_point(self):
        freqs = np.linspace(1e3, 40e6, 50000)
        out_freqs = np.linspace(1e6, 39e6, 477)
        out = trapezoid_shape(freqs, np.ones_like(freqs), 300e3, out_freqs)
        assert np.all(np.abs(out - 1.0) < 1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        freqs = np.linspace(1e3, 40e6, 50000)
        x = 1.0 + rng.random(50000)
        y = 0.2 + rng.random(50000)
        out_freqs = np.linspace(1e6, 39e6, 401)

        def conv(v):
            return trapezoid_shape(freqs, v, 300e3, out_freqs)

        lhs = conv(2.0 * x + 0.3 * y)
        rhs = 2.0 * conv(x) + 0.3 * conv(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))

    def test_narrow_lorentzian_area_preserved_peak_set_by_kernel(self):
        # gamma_i/2pi = 172 Hz line under a 300 kHz analyzer bandwidth
        hwhm = 86.0
        df = 20.0
        freqs = 28e6 + np.arange(-90000, 90001) * df
        area = 5.0e4
        values = (area / np.pi) * hwhm / ((freqs - 28e6) ** 2 + hwhm**2)
        rbw = 300e3
        out_freqs = 28e6 + np.arange(-4000, 4001) * 250.0
        out = trapezoid_shape(freqs, values, rbw, out_freqs)
        sigma = rbw / (2 * np.sqrt(2 * np.log(2)))
        # delta-like feature: peak ~ area / (sqrt(2 pi) sigma)
        assert out.max() == pytest.approx(area / (np.sqrt(2 * np.pi) * sigma), rel=1e-3)
        out_area = np.trapezoid(out, out_freqs)
        assert out_area == pytest.approx(area, rel=1e-3)

    def test_broad_feature_power_preserved(self):
        freqs = np.linspace(1e3, 40e6, 60000)
        values = 1.0 + 3.0 * np.exp(-0.5 * ((freqs - 20e6) / 2e6) ** 2)
        out_freqs = np.linspace(5e6, 35e6, 1501)
        out = trapezoid_shape(freqs, values, 300e3, out_freqs)
        p_in = np.trapezoid(np.interp(out_freqs, freqs, values), out_freqs)
        p_out = np.trapezoid(out, out_freqs)
        assert p_out == pytest.approx(p_in, rel=1e-3)

    def test_matches_full_convolution(self):
        # reference: the uncut Gaussian over the whole trace with trapezoid
        # weights, normalized over the trace's span, one output bin at a time
        rng = np.random.default_rng(3)
        freqs = np.linspace(1e3, 40e6, 50000)
        values = 1.0 + rng.random(50000) + 50.0 * np.exp(-0.5 * ((freqs - 28e6) / 1e5) ** 2)
        out_freqs = np.concatenate([[freqs[0]], np.linspace(80e3, 39.9e6, 499), [freqs[-1]]])
        rbw = 300e3
        sigma = rbw / (2 * np.sqrt(2 * np.log(2)))
        weights = np.full_like(freqs, freqs[1] - freqs[0])
        weights[[0, -1]] /= 2
        ref = []
        for f in out_freqs:
            kernel = weights * np.exp(-0.5 * ((freqs - f) / sigma) ** 2)
            ref.append(kernel @ values / kernel.sum())
        out = trapezoid_shape(freqs, values, rbw, out_freqs)
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0)

    def test_lorentzian_matches_voigt_profile(self):
        # a Lorentzian seen through the Gaussian RBW is a Voigt profile, out
        # to the bins 5-9 sigma from the line that a kernel cut at 5 sigma misses
        from scipy.special import voigt_profile

        rbw, hwhm, f0 = 300e3, 10e3, 28e6
        sigma = rbw / (2 * np.sqrt(2 * np.log(2)))
        freqs = f0 + 200.0 * np.arange(-12500, 12501)
        values = hwhm / (np.pi * ((freqs - f0) ** 2 + hwhm**2))
        out_freqs = f0 + sigma * np.linspace(-9.0, 9.0, 73)
        out = trapezoid_shape(freqs, values, rbw, out_freqs)
        np.testing.assert_allclose(
            out, voigt_profile(out_freqs - f0, sigma, hwhm), rtol=1e-9, atol=0
        )

    def test_rejects_out_of_span(self):
        freqs = np.linspace(1e6, 30e6, 30000)
        with pytest.raises(ValueError):
            trapezoid_shape(freqs, np.ones_like(freqs), 300e3, np.array([0.5e6, 10e6]))

    def test_rejects_coarse_fine_grid(self):
        freqs = np.linspace(1e6, 30e6, 300)
        with pytest.raises(ValueError):
            trapezoid_shape(freqs, np.ones_like(freqs), 300e3, np.linspace(2e6, 29e6, 200))

    def test_squeezing_band_unaffected(self, paper_params):
        # analyzer smoothing must not disturb the broad sub-shot-noise bands
        scenario = full_scenario(paper_params)
        fine = np.linspace(1e4, 40e6, 50000)
        theta = lock_to_quadrature(0.0, paper_params.optical, DELTA) - 0.12
        s = spectrum_at(TWO_PI * fine, theta, scenario)
        out_freqs = np.linspace(2e6, 38e6, 451)
        out = trapezoid_shape(fine, s, 300e3, out_freqs)
        raw = np.interp(out_freqs, fine, s)
        band = raw < 1.0
        if np.any(band):
            assert np.max(np.abs(out[band] - raw[band])) < 2e-3


class TestDensityMap:
    def test_zero_coupling_map_is_unity(self, paper_optical):
        mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
        params = SystemParams.build(paper_optical, mech, delta=DELTA, n_c=0.0)
        scenario = Scenario(system=params, bath=BathModel(t_b0=16.0))
        sqmap = assemble_density_map(
            np.linspace(-1.0, 1.0, 5), np.linspace(20e6, 36e6, 41), scenario,
            rbw=300e3,
        )
        assert np.all(np.abs(sqmap.values - 1.0) < 1e-9)

    def test_paper_scenario_geometry(self, resonant_bad_cavity):
        # simplified-model map: sub-unity wedges on opposite lock-angle
        # signs below vs above the mechanical frequency, separated by an
        # unbroken at-or-above-shot-noise band through theta_lock = 0 and
        # omega = omega_m
        scenario = Scenario(system=resonant_bad_cavity, bath=BathModel(t_b0=16.0))
        f_m = resonant_bad_cavity.omega_m / TWO_PI
        theta_locks = np.linspace(-np.pi / 2, np.pi / 2, 41)
        freqs = np.linspace(0.6 * f_m, 1.4 * f_m, 161)
        sqmap = assemble_density_map(theta_locks, freqs, scenario, rbw=100e3)
        sub = sqmap.values < 1.0 - 1e-6
        assert sub.any()
        ii, jj = np.nonzero(sub)
        signs = np.sign(theta_locks[ii]) * np.sign(freqs[jj] - f_m)
        assert np.all(signs > 0)
        assert sub[:, freqs < f_m].any() and sub[:, freqs > f_m].any()
        # separating band: zero lock angle and the mechanical resonance
        mid_row = np.argmin(np.abs(theta_locks))
        mid_col = np.argmin(np.abs(freqs - f_m))
        assert np.all(sqmap.values[mid_row] >= 1.0 - 1e-6)
        assert np.all(sqmap.values[:, mid_col] >= 1.0 - 1e-6)

    def test_loss_mixing_affine_relation(self, paper_params):
        base = Scenario(system=paper_params, bath=BathModel(t_b0=16.0, c0=3.2e-4))
        chained = Scenario(system=paper_params, bath=base.bath, chain=CHAIN)
        theta_locks = np.linspace(-0.4, 0.4, 3)
        freqs = np.linspace(26e6, 30e6, 21)
        m0 = assemble_density_map(theta_locks, freqs, base, rbw=300e3)
        m1 = assemble_density_map(theta_locks, freqs, chained, rbw=300e3)
        eta = chained.eta_tot
        assert np.max(np.abs(m1.values - (eta * m0.values + 1 - eta))) < 1e-12

    def test_quadrature_periodicity_pi(self, resonant_bad_cavity):
        scenario = Scenario(system=resonant_bad_cavity, bath=BathModel(t_b0=16.0))
        freqs = np.linspace(20e6, 36e6, 31)
        locks = np.array([-0.7, 0.2, 1.1])
        m1 = assemble_density_map(locks, freqs, scenario, rbw=300e3)
        m2 = assemble_density_map(locks + np.pi, freqs, scenario, rbw=300e3)
        # equal up to roundoff relative to the map's largest value (the resolved
        # line at 28 MHz): rounding locks + pi perturbs 2 theta by about 1e-16
        assert np.max(np.abs(m1.values - m2.values)) / np.max(m1.values) < 5e-16

    def test_detected_floor(self, paper_params):
        scenario = full_scenario(paper_params)
        sqmap = assemble_density_map(
            np.linspace(-np.pi / 2, np.pi / 2, 21), np.linspace(24e6, 32e6, 41),
            scenario, rbw=300e3,
        )
        assert np.all(sqmap.values >= 1.0 - scenario.eta_tot - 1e-12)

    def test_map_matches_per_angle_rows(self, paper_params):
        # the harmonic map against rows built one quadrature at a time, with
        # every noise block present and with each block switched off in turn
        full = full_scenario(paper_params)
        locks = np.linspace(-1.5, 1.5, 7)
        freqs = np.linspace(2e6, 30e6, 57)
        for off in (None, "bath", "lump", "laser", "absorptive", "chain"):
            scenario = full if off is None else dataclasses.replace(full, **{off: None})
            sqmap = assemble_density_map(locks, freqs, scenario, rbw=300e3)
            nodes, weights = quadrature_rule(scenario, freqs, 300e3)
            for lock, row in zip(locks, sqmap.values):
                theta = lock_to_quadrature(lock, paper_params.optical, DELTA)
                s = spectrum_at(TWO_PI * nodes, theta, scenario)
                direct = rbw_shape_rows(nodes, weights, s[np.newaxis], 300e3, freqs)[0]
                np.testing.assert_allclose(row, direct, rtol=1e-12, atol=0, err_msg=str(off))


class TestScenarioComponents:
    def test_occupation_at_effective_temperature(self, paper_params):
        # one occupation law: |omega| at T_b0 + c0 n_c, zeros with no bath
        scenario = full_scenario(paper_params)
        w = TWO_PI * np.array([-39e6, 1e3, 28e6])
        t_eff = effective_temperature(scenario.bath, paper_params.drive.n_c)
        assert np.array_equal(scenario.occupation(w), bath_occupation(np.abs(w), t_eff))
        assert float(t_eff) == pytest.approx(16.0 + 3.2e-4 * N_C, rel=1e-15)
        bare = Scenario(system=paper_params)
        assert np.array_equal(bare.occupation(w), np.zeros(3))

    def test_detected_columns_match_per_column_shaping(self, paper_params):
        # one stacked RBW pass against shaping each detected column alone
        scenario = full_scenario(paper_params)
        freqs = np.linspace(2e6, 30e6, 57)
        trace, columns = detected_components(0.4, freqs, scenario, 300e3)
        nodes, weights = quadrature_rule(scenario, freqs, 300e3)
        theta = lock_to_quadrature(0.4, paper_params.optical, DELTA)
        comp = components_at(TWO_PI * nodes, theta, scenario)
        eta = scenario.eta_tot
        assert list(columns) == ["s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive"]
        for name, column in columns.items():
            detected = eta * comp[name] + (1 - eta if name == "s_vac" else 0.0)
            direct = rbw_shape_rows(nodes, weights, detected[np.newaxis], 300e3, freqs)[0]
            assert np.array_equal(column, direct), name
        assert np.array_equal(trace.values, sum(columns.values()))
        assert trace.meta == {"theta_lock_rad": 0.4}

    def test_components_sum_to_total(self, paper_params):
        # total_harmonics is the sum of the component pairs: A = sum P, B + iC = 2 sum Q
        scenario = full_scenario(paper_params)
        w = TWO_PI * np.linspace(1e6, 39e6, 101)
        pairs = dict(output_harmonics(w, scenario))
        assert list(pairs) == ["s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive"]
        a, b, c = total_harmonics(w, scenario)
        q = sum(q_k for _, q_k in pairs.values())
        assert np.allclose(a, sum(p_k for p_k, _ in pairs.values()), rtol=1e-13)
        assert np.allclose(b + 1j * c, 2 * q, rtol=1e-13, atol=1e-13 * np.max(a))

    def test_all_components_nonnegative(self, paper_params):
        scenario = full_scenario(paper_params)
        w = TWO_PI * np.linspace(1e6, 39e6, 101)
        for theta in (-1.2, -0.3, 0.0, 0.8):
            comp = components_at(w, theta, scenario)
            for key, vals in comp.items():
                assert np.all(vals >= 0.0), key


def random_scenario(n_c, delta_over_kappa, eta_kappa):
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=KAPPA, kappa_e=eta_kappa * KAPPA)
    mech = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)
    params = SystemParams.build(optical, mech, delta=delta_over_kappa * KAPPA, n_c=n_c)
    return full_scenario(params)


SCENARIOS = dict(
    n_c=st.floats(0.0, 3000.0),
    delta_over_kappa=st.floats(-0.3, 0.3),
    eta_kappa=st.floats(0.05, 1.0),
)
OMEGA = TWO_PI * np.linspace(0.2e6, 40e6, 199)


class TestHarmonicForm:
    @given(theta=st.floats(-np.pi, np.pi), **SCENARIOS)
    @settings(max_examples=60, deadline=None)
    def test_spectrum_is_harmonic_in_two_theta(self, theta, n_c, delta_over_kappa, eta_kappa):
        scenario = random_scenario(n_c, delta_over_kappa, eta_kappa)
        assume(scenario.system.gamma > 0)
        a, b, c = total_harmonics(OMEGA, scenario)
        s = spectrum_at(OMEGA, theta, scenario, detected=False)
        harmonic = a + b * np.cos(2 * theta) + c * np.sin(2 * theta)
        np.testing.assert_allclose(s, harmonic, rtol=1e-12, atol=1e-12 * np.max(a))
        eta = scenario.eta_tot
        detected = spectrum_at(OMEGA, theta, scenario)
        np.testing.assert_allclose(
            detected, eta * harmonic + 1 - eta, rtol=1e-12, atol=1e-12 * np.max(a)
        )

    @given(
        theta=st.floats(-np.pi, np.pi),
        delta_over_kappa=SCENARIOS["delta_over_kappa"],
        eta_kappa=SCENARIOS["eta_kappa"],
    )
    @settings(max_examples=40, deadline=None)
    def test_undriven_cavity_is_shot_noise(self, theta, delta_over_kappa, eta_kappa):
        scenario = random_scenario(0.0, delta_over_kappa, eta_kappa)
        for detected in (False, True):
            s = spectrum_at(OMEGA, theta, scenario, detected=detected)
            np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)

    @given(**SCENARIOS)
    @settings(max_examples=10, deadline=None)
    def test_floor_bounds_every_quadrature(self, n_c, delta_over_kappa, eta_kappa):
        scenario = random_scenario(n_c, delta_over_kappa, eta_kappa)
        assume(scenario.system.gamma > 0)
        omega = OMEGA[::4]
        a, b, c = total_harmonics(omega, scenario)
        s_min = a - np.hypot(b, c)
        assert np.all(s_min >= 0.0)
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 721)
        brute = np.min(
            [spectrum_at(omega, t, scenario, detected=False) for t in thetas], axis=0
        )
        assert np.all(brute >= s_min - 1e-12 * a)
