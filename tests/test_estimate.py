import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

from omsqueeze import (
    DetectionChain,
    EstimationError,
    MechanicalMode,
    OpticalMode,
    SystemParams,
    fit_thermometry,
    homodyne_efficiency_from_tone,
    infer_detuning,
)
from omsqueeze import estimate
from omsqueeze.core import spring_damping_rates, transduction_phasors
from omsqueeze.estimate import (
    ThermometryCurve,
    _cavity_photon_number,
    _panel_scale,
    _wrap_half_pi,
    generate_lock_sweep,
    generate_thermometry_curve,
    lock_sweep_area_model,
    model_zero_transduction_lock,
    thermometry_model,
)
from omsqueeze.noise import bath_occupation
from omsqueeze.instrument import (
    Scenario,
    lock_to_quadrature,
    output_spectrum,
    reflection_coefficient,
    reflection_phase,
)
from omsqueeze.noise import BathModel

from conftest import DELTA, G0, GAMMA_I, KAPPA, N_C, OMEGA_M0, TWO_PI

RED_DELTAS = np.linspace(0.02, 0.65, 13) * KAPPA
N_C_THERMO = 50.0


@pytest.fixture
def n_b():
    return float(bath_occupation(OMEGA_M0, 16.0))


def _reference_infer_detuning(mode_area_vs_lock, optical, omega_probe=0.0):
    """The scalar scan: one model call per grid point, then a loop over the
    grid for exact zeros and sign changes, each refined by brentq."""
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
    vals = np.array([mismatch(d) for d in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0 and abs(vals[i + 1] - vals[i]) < 1.0:
            roots.append(brentq(mismatch, grid[i], grid[i + 1], xtol=1e-9 * kappa))
    if not roots:
        raise EstimationError("no detuning reproduces the observed lock angle")
    delta_hat = min(roots, key=lambda d: (abs(mismatch(d)), abs(d)))
    return float(delta_hat), float(theta_star_lock)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EstimationError as exc:
        return ("EstimationError", str(exc))


def _reference_fit_thermometry(curve, optical, n_c):
    """The bounded least_squares fit of all four parameters, with its own
    2-point Jacobian for the error bars; returns (estimates, stderrs) in the
    order (g0, gamma_i, n_b, omega_m0)."""
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
    u, v = transduction_phasors(curve.detunings, optical.kappa, omega_m0_init)
    c2 = g0_init**2 * _cavity_photon_number(curve.detunings, n_c, optical.kappa) * (
        np.abs(u) + np.abs(v)
    ) ** 2
    pred = optical.kappa_e * gamma_i_init * c2 / curve.eff_linewidths
    nb_init = max(float(np.median(curve.areas / np.maximum(pred, 1e-300))) - 1.0, 1.0)

    def residuals(p):
        f, lw, area = thermometry_model(curve.detunings, *p, optical, n_c)
        return np.concatenate([
            (f - curve.eff_freqs) / scales[0],
            (lw - curve.eff_linewidths) / scales[1],
            (area - curve.areas) / scales[2],
        ])

    p0 = np.array([g0_init, gamma_i_init, nb_init, omega_m0_init])
    lb = np.array([1e-6 * g0_init, 1e-6 * gamma_i_init, 0.0, 0.5 * omega_m0_init])
    ub = np.array([1e6 * g0_init, 1e6 * gamma_i_init, np.inf, 1.5 * omega_m0_init])
    res = least_squares(
        residuals, p0, bounds=(lb, ub), x_scale=np.abs(p0),
        xtol=1e-10, ftol=1e-12, gtol=1e-14, max_nfev=200,
    )
    assert res.success
    s2 = float(res.fun @ res.fun) / (len(res.fun) - len(p0))
    err = np.sqrt(np.diag(np.linalg.inv(res.jac.T @ res.jac)) * s2)
    return res.x, err


class TestAreaModel:
    def test_matches_numerical_thermal_integral(self, paper_params, n_b):
        # the closed-form peak area against brute-force integration of the
        # thermal spectrum over the resonance
        from omsqueeze.core import spectrum_full

        p = paper_params
        theta_lock = 0.35
        theta = lock_to_quadrature(theta_lock, p.optical, DELTA).theta
        f_m = p.omega_m / TWO_PI
        span = 400 * p.gamma / TWO_PI  # Lorentzian tails: ~0.08% outside
        freqs = np.linspace(f_m - span, f_m + span, 400001)
        _, _, s_th = spectrum_full(TWO_PI * freqs, theta, p, n_b)
        numeric = np.trapezoid(s_th, freqs)
        model = float(lock_sweep_area_model(theta_lock, p, n_b))
        assert model == pytest.approx(numeric, rel=5e-3)


class TestFitThermometry:
    def test_noiseless_round_trip(self, paper_optical, paper_mech, n_b):
        curve = generate_thermometry_curve(
            paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b
        )
        r = fit_thermometry(curve, paper_optical, N_C_THERMO)
        assert r.g0_hat == pytest.approx(G0, rel=1e-6)
        assert r.gamma_i_hat == pytest.approx(GAMMA_I, rel=1e-6)
        assert r.nb_hat == pytest.approx(n_b, rel=1e-6)
        assert r.omega_m0_hat == pytest.approx(OMEGA_M0, rel=1e-9)
        assert r.residual_norm < 1e-6
        assert all(
            e >= 0 for e in (r.g0_err, r.gamma_i_err, r.nb_err, r.omega_m0_err)
        )

    def test_nb_matches_16k_occupancy(self, paper_optical, paper_mech, n_b):
        curve = generate_thermometry_curve(
            paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b
        )
        r = fit_thermometry(curve, paper_optical, N_C_THERMO)
        assert r.nb_hat == pytest.approx(1.2e4, rel=0.05)

    def test_noisy_recovery(self, paper_optical, paper_mech, n_b):
        hits_g0 = hits_gi = 0
        trials = 60
        for seed in range(trials):
            curve = generate_thermometry_curve(
                paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b,
                noise_frac=0.01, rng=seed,
            )
            r = fit_thermometry(curve, paper_optical, N_C_THERMO)
            hits_g0 += abs(r.g0_hat - G0) / G0 < 0.02
            hits_gi += abs(r.gamma_i_hat - GAMMA_I) / GAMMA_I < 0.05
        assert hits_g0 >= 0.95 * trials
        assert hits_gi >= 0.95 * trials

    def test_degenerate_curve_rejected(self, paper_optical):
        curve = ThermometryCurve(
            detunings=np.zeros(6),
            eff_freqs=np.full(6, OMEGA_M0),
            eff_linewidths=np.full(6, GAMMA_I),
            areas=np.ones(6),
        )
        with pytest.raises(EstimationError, match="degenerate"):
            fit_thermometry(curve, paper_optical, N_C_THERMO)

    def test_narrow_one_sided_span_rejected(self, paper_optical):
        deltas = np.linspace(0.01, 0.05, 6) * KAPPA
        curve = ThermometryCurve(
            detunings=deltas,
            eff_freqs=np.full(6, OMEGA_M0),
            eff_linewidths=np.full(6, GAMMA_I),
            areas=np.ones(6),
        )
        with pytest.raises(EstimationError, match="span"):
            fit_thermometry(curve, paper_optical, N_C_THERMO)

    def test_variance_shrinks_with_points(self, paper_optical, paper_mech, n_b):
        # estimator consistency: var(g0_hat) ~ 1/N under i.i.d. noise; the
        # 8-point design is tiled so the leverage distribution is fixed
        base = np.linspace(0.02, 0.65, 8) * KAPPA
        variances = []
        sizes = (8, 32, 128)
        for n in sizes:
            deltas = np.tile(base, n // 8)
            ests = []
            for seed in range(48):
                curve = generate_thermometry_curve(
                    paper_optical, paper_mech, N_C_THERMO, deltas, n_b,
                    noise_frac=0.01, rng=1000 * n + seed,
                )
                ests.append(fit_thermometry(curve, paper_optical, N_C_THERMO).g0_hat)
            variances.append(np.var(ests))
        slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestInferDetuning:
    def test_noiseless_recovery(self, paper_params, paper_optical, n_b):
        sweep = generate_lock_sweep(paper_params, np.linspace(-1.2, 1.2, 41), n_b)
        delta_hat, theta_star = infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
        assert abs(delta_hat - DELTA) <= 0.003 * KAPPA
        expected_lock = 0.5 * (
            np.angle(1 / (1j * (DELTA - OMEGA_M0) + KAPPA / 2))
            - np.angle(np.conj(1 / (1j * (DELTA + OMEGA_M0) + KAPPA / 2)))
        )
        assert theta_star == pytest.approx(
            expected_lock
            - np.angle(1 - 0.55 / (1j * DELTA / KAPPA + 0.5))
            + np.pi,
            abs=2e-3,
        )

    def test_zero_detuning_gives_zero_angle(self, paper_optical, paper_mech, n_b):
        p = SystemParams.build(paper_optical, paper_mech, delta=0.0, n_c=N_C)
        sweep = generate_lock_sweep(p, np.linspace(-1.2, 1.2, 41), n_b)
        delta_hat, theta_star = infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
        assert abs(theta_star) < 0.01
        assert abs(delta_hat) < 1e-3 * KAPPA

    def test_matched_noise_within_paper_scatter(self, paper_params, paper_optical, n_b):
        errs = []
        for seed in range(50):
            sweep = generate_lock_sweep(
                paper_params, np.linspace(-1.2, 1.2, 41), n_b, noise_frac=0.01, rng=seed
            )
            delta_hat, _ = infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
            errs.append(abs(delta_hat - DELTA))
        assert np.all(np.array(errs) <= 0.006 * KAPPA)

    def test_reflection_symmetry(self, paper_params, paper_optical, n_b):
        theta_locks = np.linspace(-1.2, 1.2, 41)
        sweep = generate_lock_sweep(paper_params, theta_locks, n_b)
        d1, t1 = infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
        mirrored = sweep.copy()
        mirrored[:, 0] = 2 * t1 - mirrored[:, 0]
        mirrored[:, 1] = np.interp(
            2 * t1 - mirrored[:, 0], sweep[:, 0], sweep[:, 1]
        )
        d2, t2 = infer_detuning(mirrored[np.argsort(mirrored[:, 0])], paper_optical, omega_probe=OMEGA_M0)
        assert abs(abs(d1) - abs(d2)) <= 1e-6 * KAPPA

    def test_insufficient_points(self, paper_optical):
        data = np.column_stack([np.linspace(-1, 1, 5), np.ones(5)])
        with pytest.raises(EstimationError):
            infer_detuning(data, paper_optical)

    def test_no_interior_minimum(self, paper_optical):
        th = np.linspace(0.1, 1.0, 9)
        data = np.column_stack([th, th])  # monotone, minimum at the edge
        with pytest.raises(EstimationError, match="coverage"):
            infer_detuning(data, paper_optical)


class TestInferDetuningArrayScan:
    OPTICAL = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=KAPPA, kappa_e=0.55 * KAPPA)
    MECH = MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)

    @given(
        delta_frac=st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True),
        probe_frac=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(delta_frac=0.044, probe_frac=1.0, seed=0)
    @example(delta_frac=0.0, probe_frac=1.0, seed=0)
    @example(delta_frac=0.2, probe_frac=0.0, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_scan(self, delta_frac, probe_frac, seed):
        p = SystemParams.build(self.OPTICAL, self.MECH, delta=delta_frac * KAPPA, n_c=N_C)
        n_b = float(bath_occupation(OMEGA_M0, 16.0))
        sweep = generate_lock_sweep(
            p, np.linspace(-1.2, 1.2, 41), n_b, noise_frac=0.01, rng=seed
        )
        omega_probe = probe_frac * OMEGA_M0
        got = _outcome(infer_detuning, sweep, self.OPTICAL, omega_probe=omega_probe)
        want = _outcome(_reference_infer_detuning, sweep, self.OPTICAL, omega_probe=omega_probe)
        if want[0] == "EstimationError" or got[0] == "EstimationError":
            assert got == want
            return
        # the lock angle is the same arithmetic; the root is refined by another
        # method, so it agrees within the reference's own brentq xtol
        assert got[1] == want[1]
        assert abs(got[0] - want[0]) <= 1e-9 * KAPPA

    def test_scan_without_roots_raises_like_reference(self, paper_optical):
        # the model's zero-transduction lock angle spans only about +-1.37 rad
        # on the +-kappa/4 grid, so a minimum at 1.5 rad has no solution
        th = np.linspace(1.0, 2.0, 21)
        sweep = np.column_stack([th, (th - 1.5) ** 2])
        with pytest.raises(EstimationError, match="no detuning") as err:
            infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
        with pytest.raises(EstimationError) as ref_err:
            _reference_infer_detuning(sweep, paper_optical, omega_probe=OMEGA_M0)
        assert str(err.value) == str(ref_err.value)


class TestReflectionPhase:
    def test_scalar_gives_float(self, paper_optical):
        for delta in (DELTA, np.float64(DELTA), 0.0, -0.3 * KAPPA):
            assert type(reflection_phase(paper_optical, delta)) is float

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.55, 0.999, 1.0])
    def test_array_matches_scalar_calls(self, eta):
        optical = OpticalMode(omega_o=1e15, kappa=KAPPA, kappa_e=eta * KAPPA)
        deltas = np.linspace(-2.0, 2.0, 801).reshape(3, 267) * KAPPA
        phi = reflection_phase(optical, deltas)
        assert isinstance(phi, np.ndarray) and phi.shape == deltas.shape
        scalar = np.vectorize(lambda d: reflection_phase(optical, float(d)))(deltas)
        # scalar calls divide in Python complex arithmetic, arrays in numpy's:
        # the two round differently in the last bit of r, so the phases agree
        # to a few ulp of |r| (the angle's conditioning is 1/|r|)
        r = np.abs(reflection_coefficient(0.0, optical, deltas))
        assert np.all(np.abs(phi - scalar) * r <= 4 * np.finfo(float).eps)


class TestOneFitPath:
    def test_recovers_parameters(self, paper_optical, paper_mech, n_b):
        curve = generate_thermometry_curve(
            paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b, noise_frac=0.01, rng=3
        )
        r = fit_thermometry(curve, paper_optical, N_C_THERMO)
        assert r.method == "joint"
        assert r.g0_hat == pytest.approx(G0, rel=0.05)
        assert r.gamma_i_hat == pytest.approx(GAMMA_I, rel=0.05)
        errs = (r.g0_err, r.gamma_i_err, r.nb_err, r.omega_m0_err)
        assert all(np.isfinite(e) for e in errs)

    def test_nb_clamped_at_zero(self, paper_optical, paper_mech):
        # areas below the n_b = 0 model: the projected n_b + 1 is clamped at 1
        curve = generate_thermometry_curve(paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, 0.0)
        curve = ThermometryCurve(
            curve.detunings, curve.eff_freqs, curve.eff_linewidths, 0.5 * curve.areas
        )
        r = fit_thermometry(curve, paper_optical, N_C_THERMO)
        assert r.nb_hat == 0.0

    def test_unconverged_fit_raises(self, monkeypatch, paper_optical, paper_mech, n_b):
        curve = generate_thermometry_curve(
            paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b, noise_frac=0.01, rng=3
        )
        monkeypatch.setattr(estimate, "MAX_NFEV", 1)
        with pytest.raises(EstimationError, match=r"did not converge.*residual_norm=\d"):
            fit_thermometry(curve, paper_optical, N_C_THERMO)

    @pytest.mark.parametrize("noise_frac, seed", [(0.0, 0), *((0.01, s) for s in range(8))])
    def test_matches_least_squares(self, paper_optical, paper_mech, n_b, noise_frac, seed):
        curve = generate_thermometry_curve(
            paper_optical, paper_mech, N_C_THERMO, RED_DELTAS, n_b,
            noise_frac=noise_frac, rng=seed,
        )
        r = fit_thermometry(curve, paper_optical, N_C_THERMO)
        got = np.array([r.g0_hat, r.gamma_i_hat, r.nb_hat, r.omega_m0_hat])
        got_err = np.array([r.g0_err, r.gamma_i_err, r.nb_err, r.omega_m0_err])
        want, want_err = _reference_fit_thermometry(curve, paper_optical, N_C_THERMO)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
        if noise_frac:
            np.testing.assert_allclose(got_err, want_err, rtol=1e-3, atol=0)
        else:
            # a noiseless fit leaves a rounding-level residual, so both error
            # bars are rounding noise: only their size is compared
            assert np.all(got_err <= 1e-9 * got) and np.all(want_err <= 1e-9 * want)


class TestHomodyneTone:
    CHAIN = DetectionChain(eta_cp=0.90, eta_12=0.85, eta_23=0.88, eta_3h=0.92, eta_hd=0.66)

    def test_ideal_detector(self):
        chain = DetectionChain(eta_cp=1.0, eta_12=1.0, eta_23=1.0, eta_3h=1.0, eta_hd=1.0)
        p_tone, p_lo = 1e-9, 3e-3
        detected = 2.0 * p_lo * p_tone
        assert homodyne_efficiency_from_tone(p_tone, detected, chain, p_lo) == pytest.approx(1.0)

    def test_linear_in_detected_power(self):
        p_tone, p_lo = 1e-9, 3e-3
        eta_up = 0.90 * 0.88 * 0.92
        detected = 2.0 * p_lo * eta_up * p_tone * 0.66
        e1 = homodyne_efficiency_from_tone(p_tone, detected, self.CHAIN, p_lo)
        e2 = homodyne_efficiency_from_tone(p_tone, detected / 2, self.CHAIN, p_lo)
        assert e2 == pytest.approx(e1 / 2, rel=1e-12)

    def test_paper_configuration(self):
        p_tone, p_lo = 2e-9, 3e-3
        eta_up = 0.90 * 0.88 * 0.92
        detected = 2.0 * p_lo * eta_up * p_tone * 0.66
        eta_hd = homodyne_efficiency_from_tone(p_tone, detected, self.CHAIN, p_lo)
        assert eta_hd == pytest.approx(0.66, rel=1e-12)

    def test_inconsistent_calibration_rejected(self):
        p_tone, p_lo = 1e-9, 3e-3
        with pytest.raises(EstimationError, match="calibration"):
            homodyne_efficiency_from_tone(p_tone, 10.0 * p_lo * p_tone, self.CHAIN, p_lo)


class TestForwardModelAgainstFullSpectrum:
    def test_linewidth_panel_matches_renormalized_width(self, paper_optical, paper_mech):
        # thermometry model linewidths equal gamma_i + gamma_OM of the core
        for delta in RED_DELTAS[::4]:
            p = SystemParams.build(paper_optical, paper_mech, delta=delta, n_c=N_C_THERMO)
            _, lw, _ = thermometry_model(
                np.atleast_1d(delta), G0, GAMMA_I,
                1e4, OMEGA_M0, paper_optical,
                N_C_THERMO / (1.0 / (1.0 + (delta / (KAPPA / 2)) ** 2)),
            )
            # n_c passed as resonance-referenced: undo the cavity Lorentzian
            assert lw[0] == pytest.approx(p.gamma, rel=1e-12)
