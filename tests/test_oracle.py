import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from omsqueeze import oracle
from omsqueeze import (
    InputCorrelationMatrix,
    MechanicalMode,
    OpticalMode,
    OracleError,
    SystemParams,
    matrix_solve_spectrum,
    spectrum_full,
)
from omsqueeze.oracle import solve_scalars
from omsqueeze.noise import bath_occupation
from omsqueeze.oracle import sde_time_domain_psd

from conftest import DELTA, G0, GAMMA_I, KAPPA, N_C, OMEGA_M0, TWO_PI


def small_adiabatic(q_m=50.0, g0_frac=1e-3, kappa_ratio=200.0, omega_m=TWO_PI * 1e6):
    kappa = kappa_ratio * omega_m
    optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=kappa)
    mech = MechanicalMode(omega_m0=omega_m, gamma_i=omega_m / q_m, g0=g0_frac * omega_m)
    return optical, mech


class TestMatrixSolve:
    def test_no_drive_returns_unity(self, paper_optical, paper_mech):
        p = SystemParams.build(paper_optical, paper_mech, delta=DELTA, n_c=0.0)
        corr = InputCorrelationMatrix.vacuum_thermal(1.2e4)
        for f in (0.5e6, 5e6, 28e6, 39e6):
            for theta in (-1.1, 0.0, 0.8):
                s = matrix_solve_spectrum(TWO_PI * f, theta, p, corr)
                assert s == pytest.approx(1.0, abs=1e-12)

    def test_agreement_with_closed_form(self, paper_optical, paper_mech):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            p = SystemParams.build(
                paper_optical,
                paper_mech,
                delta=DELTA * 10 ** rng.uniform(-1.5, 1.5) * rng.choice((-1, 1)),
                n_c=N_C * 10 ** rng.uniform(-1.5, 1.5),
            )
            w = TWO_PI * 10 ** rng.uniform(5.5, 7.6)
            theta = rng.uniform(-np.pi, np.pi)
            nbar = bath_occupation(w, 16.0)
            s_ref, _, _ = spectrum_full(w, theta, p, nbar)
            s_orc = matrix_solve_spectrum(w, theta, p, InputCorrelationMatrix.vacuum_thermal(nbar))
            worst = max(worst, abs(s_orc - float(s_ref)) / float(s_ref))
        assert worst <= 1e-9

    def test_symmetrized_psd_real_and_even(self, paper_params):
        corr = InputCorrelationMatrix.vacuum_thermal(1.2e4)
        w = TWO_PI * 26.5e6
        s_plus = matrix_solve_spectrum(w, -0.4, paper_params, corr)
        s_minus = matrix_solve_spectrum(-w, -0.4, paper_params, corr)
        sym = 0.5 * (s_plus + s_minus)
        # symmetrizing twice changes nothing, and the asymmetry itself is tiny
        assert sym == pytest.approx(0.5 * (s_plus + s_minus))
        assert abs(s_plus - s_minus) < 1e-4 * abs(sym)

    def test_correlation_matrix_validation(self):
        good = InputCorrelationMatrix.vacuum_thermal(3.0)
        good.validate()
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            InputCorrelationMatrix(matrix=bad).validate()
        with pytest.raises(ValueError):
            InputCorrelationMatrix(matrix=np.zeros((3, 3)))

    def test_stacked_solve_matches_scalar_calls(self, paper_optical, paper_mech):
        rng = np.random.default_rng(7)
        systems = [
            SystemParams.build(paper_optical, paper_mech, delta=DELTA * d, n_c=N_C * n)
            for d, n in zip(rng.uniform(-2, 2, 20), rng.uniform(0.1, 3, 20))
        ]
        w = TWO_PI * rng.uniform(1e6, 39e6, 20)
        theta = rng.uniform(-np.pi, np.pi, 20)
        nbar = bath_occupation(w, 16.0)
        corrs = [InputCorrelationMatrix.vacuum_thermal(n) for n in nbar]
        stacked = matrix_solve_spectrum(
            w, theta, np.array([solve_scalars(p) for p in systems]),
            np.array([c.matrix for c in corrs]),
        )
        one_by_one = [matrix_solve_spectrum(*args) for args in zip(w, theta, systems, corrs)]
        np.testing.assert_allclose(stacked, one_by_one, rtol=1e-12, atol=0)

    def test_singular_system_names_its_omega(self, paper_params):
        # an undamped mechanical mode probed exactly at its frequency
        rows = np.array([solve_scalars(paper_params)] * 2)
        rows[1, 6] = 0.0  # gamma
        w = np.array([TWO_PI * 3e6, rows[1, 5]])
        corr = np.array([InputCorrelationMatrix.vacuum_thermal(1.0).matrix] * 2)
        with pytest.raises(OracleError) as err:
            matrix_solve_spectrum(w, np.zeros(2), rows, corr)
        assert str(err.value).endswith(f"at omega={float(w[1])!r}")


@pytest.mark.sde
class TestSdePreconditions:
    def test_rejects_large_dt(self):
        optical, mech = small_adiabatic()
        p = SystemParams.build(optical, mech, delta=0.0, n_c=1.0)
        with pytest.raises(ValueError, match="step-size"):
            sde_time_domain_psd(p, 0.0, 0.3, duration=1.0, dt=1.0 / mech.omega_m0, seed=0)

    def test_rejects_short_duration(self):
        optical, mech = small_adiabatic()
        p = SystemParams.build(optical, mech, delta=0.0, n_c=1.0)
        with pytest.raises(ValueError, match="decay times"):
            sde_time_domain_psd(
                p, 0.0, 0.3, duration=1.0 / p.gamma, dt=0.005 / mech.omega_m0, seed=0
            )


@pytest.mark.sde
class TestSdeWhiteFloor:
    def test_no_drive_gives_shot_noise(self):
        optical, mech = small_adiabatic()
        p = SystemParams.build(optical, mech, delta=0.0, n_c=0.0)
        bins = np.linspace(0.2e6, 3e6, 21)
        hits = total = 0
        for seed in range(50):
            tr = sde_time_domain_psd(
                p, 0.0, 0.7, duration=1.1e-3, dt=0.01 / mech.omega_m0, seed=seed,
                freq_bins=bins, segment_samples=8192,
            )
            z = np.abs(tr.values - 1.0) / tr.stderr
            hits += int(np.sum(z <= 3.0))
            total += len(z)
        assert hits / total >= 0.99

    def test_seed_determinism(self):
        optical, mech = small_adiabatic()
        p = SystemParams.build(optical, mech, delta=0.0, n_c=5.0)
        kwargs = dict(
            nbar=2.0, theta=0.4, duration=1.1e-3, dt=0.01 / mech.omega_m0,
            seed=99, freq_bins=np.linspace(0.2e6, 3e6, 11), segment_samples=8192,
        )
        tr1 = sde_time_domain_psd(p, **kwargs)
        tr2 = sde_time_domain_psd(p, **kwargs)
        assert np.array_equal(tr1.values, tr2.values)
        assert np.array_equal(tr1.stderr, tr2.stderr)
        tr3 = sde_time_domain_psd(p, **{**kwargs, "seed": 100})
        assert not np.array_equal(tr1.values, tr3.values)

    def test_stderr_converges_as_inverse_sqrt_segments(self):
        optical, mech = small_adiabatic(q_m=5.0)
        p = SystemParams.build(optical, mech, delta=0.0, n_c=0.0)
        bins = np.linspace(0.2e6, 3e6, 11)
        seg = 8192
        dt = 0.01 / mech.omega_m0
        counts = (16, 64, 256)
        errs = []
        for n_seg in counts:
            tr = sde_time_domain_psd(
                p, 0.0, 0.7, duration=n_seg * seg * dt * 1.001, dt=dt, seed=7,
                freq_bins=bins, segment_samples=seg,
            )
            errs.append(np.mean(tr.stderr))
        slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


@pytest.mark.sde
class TestSdeThermalArea:
    def test_lorentzian_area_equipartition(self):
        # weak transduction of a hot mode: transduced peak area matches the
        # analytic thermal-part integral over the same window
        omega_m = TWO_PI * 2e6
        optical, mech = small_adiabatic(
            q_m=300.0, g0_frac=1.8e-2, kappa_ratio=200.0, omega_m=omega_m
        )
        nbar = 1000.0
        p = SystemParams.build(optical, mech, delta=0.0, n_c=1.0)
        assert p.drive.gamma_meas < 0.01 * mech.gamma_i  # back-action negligible
        f_m = p.omega_m / TWO_PI
        half = 8 * p.gamma / TWO_PI
        bins = np.linspace(f_m - half, f_m + half, 33)
        dt = 0.01 / omega_m
        tr = sde_time_domain_psd(
            p, nbar, np.pi / 2, duration=4.0e-2, dt=dt, seed=11,
            freq_bins=bins, segment_samples=1 << 21,
        )
        width = np.diff(bins)
        sim_area = float(np.sum((tr.values - 1.0) * width))
        ff = np.linspace(bins[0], bins[-1], 20001)
        _, _, s_th = spectrum_full(TWO_PI * ff, np.pi / 2, p, nbar)
        analytic_area = float(np.trapezoid(s_th, ff))
        assert sim_area == pytest.approx(analytic_area, rel=0.05)


@pytest.mark.sde
class TestSdeFullCavityBranch:
    def test_two_oscillator_integration_matches_analytic(self):
        # kappa = 10 omega_m: no adiabatic elimination
        omega_m = TWO_PI * 1e5
        kappa = 10 * omega_m
        optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=kappa)
        mech = MechanicalMode(omega_m0=omega_m, gamma_i=omega_m / 25, g0=3e-3 * omega_m)
        p = SystemParams.build(optical, mech, delta=0.2 * kappa, n_c=30.0)
        nbar = 20.0
        dt = 0.01 / kappa
        bins = np.linspace(0.4e5, 1.8e5, 8)
        tr = sde_time_domain_psd(
            p, nbar, 0.6, duration=4.3e-3, dt=dt, seed=5,
            freq_bins=bins, segment_samples=1 << 16,
        )
        vals = []
        for lo, hi in zip(bins[:-1], bins[1:]):
            ff = np.linspace(lo, hi, 400)
            s_p, _, _ = spectrum_full(TWO_PI * ff, 0.6, p, nbar)
            s_m, _, _ = spectrum_full(-TWO_PI * ff, 0.6, p, nbar)
            vals.append(np.mean(0.5 * (s_p + s_m)))
        z = np.abs(tr.values - np.array(vals)) / tr.stderr
        assert np.all(z <= 4.0)


# Whole-record reference: the integrators as they were before the record was
# streamed into the Welch estimate.  They hold every noise draw and the full
# homodyne record, then average the periodograms segment by segment.


def _ref_gaussian_chunks(rng, n_total, scale, chunk):
    done = 0
    while done < n_total:
        n = min(chunk, n_total - done)
        yield rng.standard_normal(2 * n).view(np.complex128) * (scale / np.sqrt(2.0))
        done += n


def _ref_adiabatic_record(p, nbar, theta, dt, n_total, rng, chunk):
    kappa, kappa_e, kappa_i = p.optical.kappa, p.optical.kappa_e, p.optical.kappa_i
    delta, g, omega_m, gamma = p.drive.delta, p.drive.g, p.omega_m, p.gamma
    d_c = 1j * (delta - omega_m) + kappa / 2
    d_cbar = -1j * (delta + omega_m) + kappa / 2
    refl_e = 1.0 - kappa_e / d_c
    refl_i = -np.sqrt(kappa_e * kappa_i) / d_c
    mech_out = -1j * g * np.sqrt(kappa_e) / d_c
    decay = 1.0 - gamma * dt / 2.0
    gen_a = _ref_gaussian_chunks(rng, n_total, np.sqrt(0.5 / dt), chunk)
    gen_i = _ref_gaussian_chunks(rng, n_total, np.sqrt(0.5 / dt), chunk)
    gen_b = _ref_gaussian_chunks(rng, n_total, np.sqrt((nbar + 0.5) / dt), chunk)
    out = np.empty(n_total)
    state, zi, done = 0.0j, np.zeros(1, dtype=complex), 0
    while done < n_total:
        za, zirr, zb = next(gen_a), next(gen_i), next(gen_b)
        n = len(za)
        rot = np.exp(1j * omega_m * (done + np.arange(n)) * dt)
        drive = (
            -np.sqrt(p.mech.gamma_i) * zb
            + 1j * g * (np.sqrt(kappa_e) * za + np.sqrt(kappa_i) * zirr) / d_c
            + 1j * g * (np.sqrt(kappa_e) * np.conj(za) + np.sqrt(kappa_i) * np.conj(zirr)) / d_cbar
        )
        y, zi = lfilter([dt], [1.0, -decay], rot * drive, zi=zi)
        env = np.concatenate(([state], y[:-1]))
        state = y[-1]
        x = 2.0 * np.real(env * np.conj(rot))
        a_out = refl_e * za + refl_i * zirr + mech_out * x
        out[done : done + n] = 2.0 * np.real(np.exp(-1j * theta) * a_out)
        done += n
    return out


def _ref_full_record(p, nbar, theta, dt, n_total, rng):
    kappa, kappa_e, kappa_i = p.optical.kappa, p.optical.kappa_e, p.optical.kappa_i
    delta, g, gamma_i = p.drive.delta, p.drive.g, p.mech.gamma_i
    se, si, sg = np.sqrt(kappa_e), np.sqrt(kappa_i), np.sqrt(gamma_i)
    s_vac, s_bath = np.sqrt(0.5 / dt), np.sqrt((nbar + 0.5) / dt)
    za = rng.standard_normal(2 * n_total).view(np.complex128) * (s_vac / np.sqrt(2.0))
    zirr = rng.standard_normal(2 * n_total).view(np.complex128) * (s_vac / np.sqrt(2.0))
    zb = rng.standard_normal(2 * n_total).view(np.complex128) * (s_bath / np.sqrt(2.0))
    cav_drift = -(1j * delta + kappa / 2)
    rot = np.exp(1j * p.mech.omega_m0 * dt)
    a = env = 0.0 + 0.0j
    phase = 1.0 + 0.0j
    phase_out = np.exp(-1j * theta)
    out = np.empty(n_total)
    for n in range(n_total):
        x = 2.0 * np.real(env * np.conj(phase))
        out[n] = 2.0 * np.real(phase_out * (za[n] + se * a))
        a_new = a + dt * (cav_drift * a - 1j * g * x - se * za[n] - si * zirr[n])
        env = env + dt * (-gamma_i / 2 * env + phase * (-1j * g * 2.0 * np.real(a) - sg * zb[n]))
        a = a_new
        phase *= rot
    return out


def _ref_psd(p, nbar, theta, duration, dt, seed, freq_bins, segment_samples, chunk):
    n_segments = int(duration / dt) // segment_samples
    n_total = n_segments * segment_samples
    rng = np.random.default_rng(seed)
    if p.optical.kappa > oracle.ADIABATIC_KAPPA_RATIO * p.omega_m:
        current = _ref_adiabatic_record(p, nbar, theta, dt, n_total, rng, chunk)
    else:
        current = _ref_full_record(p, nbar, theta, dt, n_total, rng)
    window = np.hanning(segment_samples)
    norm = dt / (segment_samples * np.mean(window**2))
    idx = np.digitize(np.fft.rfftfreq(segment_samples, dt), freq_bins) - 1
    n_bins = len(freq_bins) - 1
    sel = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[sel], minlength=n_bins)
    binned = []
    for k in range(n_segments):
        seg = current[k * segment_samples : (k + 1) * segment_samples]
        pxx = np.abs(np.fft.rfft(window * seg)) ** 2 * norm
        binned.append(np.bincount(idx[sel], weights=pxx[sel], minlength=n_bins) / counts)
    binned = np.array(binned)
    mean = binned.mean(axis=0)
    return mean, np.sqrt(np.maximum((binned**2).mean(axis=0) - mean**2, 0.0) / n_segments)


def streaming_adiabatic_case():
    omega_m = TWO_PI * 1e6
    kappa = 200 * omega_m
    optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=0.7 * kappa)
    mech = MechanicalMode(omega_m0=omega_m, gamma_i=omega_m / 5, g0=5e-3 * omega_m)
    p = SystemParams.build(optical, mech, delta=0.05 * kappa, n_c=30.0)
    return p, 0.01 / omega_m, np.linspace(0.2e6, 3e6, 9)


def streaming_full_case(delta_over_kappa=0.2):
    omega_m = TWO_PI * 1e5
    kappa = 4 * omega_m
    optical = OpticalMode(omega_o=1e15, kappa=kappa, kappa_e=0.8 * kappa)
    mech = MechanicalMode(omega_m0=omega_m, gamma_i=omega_m, g0=3e-3 * omega_m)
    p = SystemParams.build(optical, mech, delta=delta_over_kappa * kappa, n_c=30.0)
    return p, 0.01 / kappa, np.linspace(1e5, 1e6, 5)


@pytest.mark.sde
class TestSdeStreaming:
    # 3000-sample segments divide neither the 2**14-sample integration block
    # nor the patched RNG chunk, so segments straddle both boundaries
    SEG = 3000
    CHUNK = 1 << 16

    def test_adiabatic_matches_whole_record_reference(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", self.CHUNK)
        p, dt, bins = streaming_adiabatic_case()
        duration = 60.5 * self.SEG * dt  # 2.75 chunks, a partial last block
        tr = sde_time_domain_psd(p, 3.0, 0.4, duration, dt, seed=4, freq_bins=bins, segment_samples=self.SEG)
        mean, stderr = _ref_psd(p, 3.0, 0.4, duration, dt, 4, bins, self.SEG, self.CHUNK)
        assert tr.meta["segments"] == 60
        np.testing.assert_allclose(tr.values, mean, rtol=1e-12)
        np.testing.assert_allclose(tr.stderr, stderr, rtol=1e-12)

    # at zero detuning the Euler step is numerically defective (its eigenvector
    # basis has cond 7.5e9): the Schur modes must still match the loop
    @pytest.mark.parametrize("delta_over_kappa", [0.2, 0.0])
    def test_full_branch_matches_whole_record_reference(self, delta_over_kappa):
        p, dt, bins = streaming_full_case(delta_over_kappa)
        duration = 14.5 * self.SEG * dt  # 2.6 blocks of 2**14 samples
        tr = sde_time_domain_psd(p, 5.0, 0.6, duration, dt, seed=5, freq_bins=bins, segment_samples=self.SEG)
        mean, stderr = _ref_psd(p, 5.0, 0.6, duration, dt, 5, bins, self.SEG, None)
        assert tr.meta["segments"] == 14
        np.testing.assert_allclose(tr.values, mean, rtol=1e-12)
        np.testing.assert_allclose(tr.stderr, stderr, rtol=1e-12)

    def test_segment_spanning_several_chunks_matches_whole_record_reference(self, monkeypatch):
        # each 50000-sample segment is folded from pieces of two or three
        # 2**15-sample chunks, each piece integrated in one or two 2**14-sample blocks
        chunk, seg = 1 << 15, 50_000
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        p, dt, bins = streaming_adiabatic_case()
        duration = 8.5 * seg * dt
        tr = sde_time_domain_psd(p, 3.0, 0.4, duration, dt, seed=6, freq_bins=bins, segment_samples=seg)
        mean, stderr = _ref_psd(p, 3.0, 0.4, duration, dt, 6, bins, seg, chunk)
        assert tr.meta["segments"] == 8
        np.testing.assert_allclose(tr.values, mean, rtol=1e-12)
        np.testing.assert_allclose(tr.stderr, stderr, rtol=1e-12)

    def test_peak_memory_independent_of_chunk(self, monkeypatch):
        # each stream is folded segment by segment: no buffer grows with _CHUNK
        p, dt, bins = streaming_adiabatic_case()
        seg = 1 << 14
        peaks = []
        for chunk in (1 << 16, 1 << 18):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            tracemalloc.start()
            try:
                sde_time_domain_psd(p, 3.0, 0.4, 17.5 * seg * dt, dt, seed=1, freq_bins=bins, segment_samples=seg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.02)

    @pytest.mark.parametrize("case", [streaming_adiabatic_case, streaming_full_case], ids=["adiabatic", "full"])
    def test_peak_memory_independent_of_duration(self, monkeypatch, case):
        # the full branch draws each stream over the whole record, but block by block
        monkeypatch.setattr(oracle, "_CHUNK", 1 << 12)
        p, dt, bins = case()
        seg = 2048
        peaks = []
        for n_seg in (40, 160):
            tracemalloc.start()
            try:
                sde_time_domain_psd(
                    p, 3.0, 0.4, (n_seg + 0.5) * seg * dt, dt, seed=1,
                    freq_bins=bins[::2], segment_samples=seg,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.sde
class TestSdeChecksBeforeWork:
    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        def fail(*args):
            raise AssertionError("integrator ran")

        monkeypatch.setattr(oracle, "_integrate_adiabatic", fail)
        monkeypatch.setattr(oracle, "_integrate_full", fail)

    def test_too_fine_bins_raise_first(self):
        p, dt, _ = streaming_adiabatic_case()
        bins = np.linspace(0.9e6, 0.91e6, 11)  # 1 kHz bins, 20 kHz resolution
        with pytest.raises(ValueError, match="too fine"):
            sde_time_domain_psd(p, 0.0, 0.4, 8.5 * 50_000 * dt, dt, seed=0, freq_bins=bins,
                                segment_samples=50_000)

    def test_step_beyond_the_damping_raises_first(self):
        # gamma dt / 2 = 2.25: the Euler factor 1 - gamma dt/2 = -1.25 grows
        optical, mech = small_adiabatic(q_m=2e-3)
        p = SystemParams.build(optical, mech, delta=0.0, n_c=1.0)
        with pytest.raises(OracleError, match=r"\|1 - gamma dt/2\| = 1\.25"):
            sde_time_domain_psd(p, 0.0, 0.4, duration=1.0, dt=0.009 / p.omega_m, seed=0)

    def test_growing_full_branch_step_raises_first(self):
        # gamma > 0, but at delta = 12 kappa the cavity's Euler factor
        # |1 - dt (kappa/2 + i delta)| at dt = 0.01/kappa is 1.0022
        omega_m = TWO_PI * 1e5
        optical = OpticalMode(omega_o=1e15, kappa=20 * omega_m, kappa_e=16 * omega_m)
        mech = MechanicalMode(omega_m0=omega_m, gamma_i=omega_m, g0=3e-3 * omega_m)
        p = SystemParams.build(optical, mech, delta=12 * optical.kappa, n_c=30.0)
        assert p.gamma > 0
        with pytest.raises(OracleError, match=r"\|lambda\| = 1\.0022"):
            sde_time_domain_psd(p, 0.0, 0.4, duration=2e-4, dt=0.01 / optical.kappa, seed=0,
                                freq_bins=np.linspace(1e5, 1e6, 5))

    def test_anti_damped_operating_point_raises_first(self):
        optical, mech = small_adiabatic(g0_frac=3e-2)
        p = SystemParams.build(optical, mech, delta=-0.1 * optical.kappa, n_c=1e6)
        assert p.gamma <= 0
        with pytest.raises(OracleError, match="unstable operating point"):
            sde_time_domain_psd(p, 0.0, 0.4, duration=1.0, dt=0.01 / mech.omega_m0, seed=0)


def one_pole_loop(x, a, v0):
    v, out = v0, []
    for xn in x.tolist():
        v = a * v + xn
        out.append(v)
    return np.array(out)


class TestOnePole:
    @settings(max_examples=60, deadline=None)
    @given(
        radius=st.floats(0.5, 1 - 1e-6),
        angle=st.floats(-np.pi, np.pi),
        n=st.one_of(st.integers(1, 3 << 14), st.sampled_from([(1 << 14) - 1, (1 << 14) + 1, 3 << 14])),
        cuts=st.lists(st.integers(1, (3 << 14) - 1), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_python_loop(self, radius, angle, n, cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * n).view(np.complex128)
        a, v0 = radius * np.exp(1j * angle), complex(*rng.standard_normal(2))
        # 1-4 calls, the state carried from each to the next
        pieces, v = [], v0
        for part in np.split(x, sorted({c for c in cuts if c < n})):
            pieces.append(oracle._one_pole(part, a, v).copy())
            v = pieces[-1][-1]
        ref = one_pole_loop(x, a, v0)
        assert np.max(np.abs(np.concatenate(pieces) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a", [1.0, -1.0, 1j, 1.5 * np.exp(0.3j), np.nan])
    def test_unstable_pole_raises_before_any_work(self, a):
        # a 2**40-sample input that is never materialized: any per-sample work would show
        x = np.broadcast_to(np.complex128(1.0), (1 << 40,))
        with pytest.raises(OracleError, match="one-pole"):
            oracle._one_pole(x, a, 0j)
