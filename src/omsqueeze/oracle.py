"""Independent reference computations for the closed-form spectra.

Two cross-checks of different character:

* a per-frequency numerical solve of the frequency-domain equations of
  motion (no closed-form coefficient algebra), contracted with an input
  correlation matrix and the quadrature projector;
* a seeded time-domain integration of the linearized dynamics driven by
  Gaussian noise with the symmetrized input correlators, followed by
  segment-averaged periodogram estimation.

The semiclassical mapping (symmetrized correlators -> classical Gaussian
noise of variance nbar + 1/2, vacuum -> 1/2 per quadrature) reproduces
every symmetrized output spectrum of a linear system, including squeezed
(sub-unity normalized) ones, because the output PSD is linear in the
input correlation matrix.  Only symmetrized quantities are meaningful
here; sideband asymmetries are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, instability
from .instrument import SpectrumTrace


ADIABATIC_KAPPA_RATIO = 50.0
_CHUNK = 1 << 22  # samples each noise stream integrates in turn; fixes the noise stream
_BLOCK = 1 << 14  # samples integrated per cache-sized step


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class InputCorrelationMatrix:
    """Frequency-domain input correlators over (a_in, a_in^dag, b_in, b_in^dag).

    Entry [i, j] is the coefficient of delta(omega + omega') in
    <w_i(omega) w_j(omega')>.  Vacuum optical block: <a a^dag> = 1,
    <a^dag a> = 0; thermal block uses (nbar + 1, nbar).  ``matrix`` may
    stack one 4x4 matrix per system of a batched drive on its leading axes.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError("correlation matrix must be 4x4")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def vacuum_thermal(cls, nbar):
        """Vacuum optics and a bath of occupation ``nbar``, one matrix per element."""
        nbar = np.asarray(nbar, dtype=float)
        m = np.zeros(nbar.shape + (4, 4), dtype=complex)
        m[..., 0, 1] = 1.0
        m[..., 2, 3] = nbar + 1.0
        m[..., 3, 2] = nbar
        return cls(matrix=m)


def _output_quadrature_rows(omega, theta, params: SystemParams):
    """Coefficients of X_out(omega) on the six inputs
    (a_in, a_in^dag, b_in, b_in^dag, a_in_i, a_in_i^dag), obtained by one
    stacked numerical solve of the frequency-domain systems.  ``omega`` and
    ``theta`` broadcast against the (possibly batched) drive of ``params``,
    and the rows come back with that shape plus one axis."""
    optical, delta, g = params.optical, params.drive.delta, params.drive.g
    se, si, sg = np.sqrt(optical.kappa_e), np.sqrt(optical.kappa_i), np.sqrt(params.mech.gamma_i)

    d_c = 1j * (delta - omega) + optical.kappa / 2
    d_cbar = -1j * (delta + omega) + optical.kappa / 2
    d_m = 1j * (params.omega_m - omega) + params.gamma / 2
    d_mbar = -1j * (params.omega_m + omega) + params.gamma / 2
    # the system is upper triangular: singular exactly where its diagonal has a zero
    singular = (d_c == 0) | (d_cbar == 0) | (d_m == 0) | (d_mbar == 0)
    if singular.any():
        first = np.unravel_index(singular.argmax(), singular.shape)
        raise OracleError(f"singular frequency-domain system at omega={omega[first]}")

    m = np.zeros(d_c.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = d_c
    m[..., 0, 2] = m[..., 0, 3] = 1j * g
    m[..., 1, 1] = d_cbar
    m[..., 1, 2] = m[..., 1, 3] = -1j * g
    m[..., 2, 2] = d_m
    m[..., 3, 3] = d_mbar
    load = np.zeros(d_c.shape + (4, 6), dtype=complex)
    load[..., 0, 0] = load[..., 1, 1] = -se
    load[..., 0, 4] = load[..., 1, 5] = -si
    # mechanical rows: renormalized response driven directly by the inputs
    load[..., 2, 2] = load[..., 3, 3] = -sg
    load[..., 2, 0] = 1j * g * se / d_c
    load[..., 2, 1] = 1j * g * se / d_cbar
    load[..., 2, 4] = 1j * g * si / d_c
    load[..., 2, 5] = 1j * g * si / d_cbar
    load[..., 3, 0] = -1j * g * se / d_c
    load[..., 3, 1] = -1j * g * se / d_cbar
    load[..., 3, 4] = -1j * g * si / d_c
    load[..., 3, 5] = -1j * g * si / d_cbar
    trans = np.linalg.solve(m, load)
    a_out = se * trans[..., 0, :]
    a_out[..., 0] += 1.0
    a_out_dag = se * trans[..., 1, :]
    a_out_dag[..., 1] += 1.0
    theta = np.asarray(theta)[..., np.newaxis]
    return np.exp(-1j * theta) * a_out + np.exp(1j * theta) * a_out_dag


def matrix_solve_spectrum(omega, theta, params: SystemParams, corr: InputCorrelationMatrix):
    """Normalized homodyne PSD via numerical solve + correlator contraction.

    Solves the 4x4 frequency-domain system for (a, a^dag, b, b^dag) at
    +-omega, forms the output quadrature coefficients on all input
    channels (including the intrinsic-port vacuum), and contracts with
    ``corr``.  Must agree with the closed-form spectrum to near machine
    precision.  ``omega``, ``theta``, a batched drive of ``params`` and the
    stacked matrices of ``corr`` broadcast together: every system, at both
    signs of omega, is solved in one stacked call.  All-scalar inputs
    return a float, anything else an array of the broadcast shape.
    """
    batch = np.shape(params.omega_m)  # the batch shape of the drive
    shape = np.broadcast_shapes(np.shape(omega), np.shape(theta), batch, corr.matrix.shape[:-2])
    omega = np.broadcast_to(np.asarray(omega, dtype=float), shape)
    c_plus, c_minus = _output_quadrature_rows(np.stack([omega, -omega]), theta, params)
    full = np.zeros(c_plus.shape[:-1] + (6, 6), dtype=complex)
    full[..., :4, :4] = corr.matrix
    full[..., 4, 5] = 1.0  # intrinsic loss port is always vacuum
    s = np.einsum("...i,...i->...", np.einsum("...i,...ij->...j", c_plus, full), c_minus)
    if np.any(np.abs(s.imag) > 1e-9 * np.maximum(np.abs(s.real), 1.0)):
        raise OracleError("contracted PSD acquired a nonreal part")
    return float(s.real) if s.ndim == 0 else s.real


def _adiabatic(params: SystemParams):
    return params.optical.kappa > ADIABATIC_KAPPA_RATIO * params.omega_m


def plan_sde(params: SystemParams, duration, dt, freq_bins=None, segment_samples=None):
    """Check every precondition of ``sde_time_domain_psd`` before any noise is
    drawn and return its empty PSD accumulator.  Raises OracleError for an
    unstable operating point (``core.instability``) or a growing Euler step
    (|1 - gamma dt/2| or a full-branch Schur mode's |lambda| >= 1), and
    ValueError for a step, duration or bin grid out of range."""
    problem = instability(params)
    if problem:
        raise OracleError(problem)
    omega_m, gamma = params.omega_m, params.gamma
    adiabatic = _adiabatic(params)
    if not 0 < dt <= 0.01 / (omega_m if adiabatic else params.optical.kappa):
        raise ValueError(
            f"dt={dt:g} violates the step-size precondition 0 < dt <= 0.01/{'omega_m' if adiabatic else 'kappa'}"
        )
    if adiabatic:
        growth, label = abs(1.0 - gamma * dt / 2.0), "|1 - gamma dt/2|"
    else:
        growth, label = np.max(np.abs(np.diag(_full_modes(params, dt)[0]))), "the largest Euler mode |lambda|"
    if not growth < 1:
        raise OracleError(
            f"unstable integration: {label} = {growth:.6g} >= 1, the step is too long for this system"
        )
    if duration < 100.0 / gamma:
        raise ValueError("duration must cover at least 100 mechanical decay times")

    segment_samples = 1 << 14 if segment_samples is None else segment_samples
    n_segments = int(duration / dt) // segment_samples
    if n_segments < 8:
        raise ValueError("duration too short for at least 8 PSD segments")
    if freq_bins is None:
        f_m = omega_m / (2 * np.pi)
        span = 0.4 * f_m
        resolution = 1.0 / (segment_samples * dt)
        n_bins = int(min(20, max(4, span / (1.5 * resolution))))
        freq_bins = np.linspace(0.8 * f_m, 1.2 * f_m, n_bins + 1)
    return _Welch(dt, segment_samples, n_segments, np.asarray(freq_bins, dtype=float))


def sde_time_domain_psd(
    params: SystemParams, nbar, theta, duration, dt, seed, freq_bins=None, segment_samples=None
) -> SpectrumTrace:
    """Monte-Carlo homodyne spectrum from a seeded stochastic integration.

    Integrates the linearized dynamics with classical Gaussian drives
    whose (co)variances equal the symmetrized quantum correlators
    (vacuum: 1/2 per quadrature; bath: nbar + 1/2, flat across the
    mechanical line), synthesizes the quadrature record, and estimates
    the PSD by averaging Hann-windowed periodograms over non-overlapping
    segments.  The returned values are double-sided densities, already
    unity at the shot-noise floor; stderr holds the per-bin standard
    error from inter-segment variance.

    Both branches are explicit Euler in the lab frame, run by
    ``_scan_streams``.  The cavity is eliminated adiabatically when kappa >
    50 omega_m (one mode, the mechanical amplitude, pole (1 - gamma dt/2)
    e^{-i omega_m dt}, drive-port filters frozen at +-omega_m; dt <=
    0.01/omega_m); otherwise the four Schur modes of the two-oscillator step
    are integrated (dt <= 0.01/kappa).  ``plan_sde`` checks both.  The record
    is never held, so memory is bounded by the segments one ``_CHUNK`` spans,
    whatever the record length.  Once the checks and the branch's set-up have
    passed, one helper thread draws the normals ahead; they are those of
    ``np.random.default_rng(seed)``.  No thread and no table of pole powers
    outlives the call.
    """
    welch = plan_sde(params, duration, dt, freq_bins, segment_samples)
    build = _integrate_adiabatic if _adiabatic(params) else _integrate_full
    amp_bound = 1e6 * (1.0 + np.sqrt(nbar + params.drive.gamma_meas / params.gamma + 1.0))
    _scan_streams(*build(params, nbar, theta, dt), welch, np.random.default_rng(seed), amp_bound)
    return welch.result(params)


def _integrate_adiabatic(params, nbar, theta, dt):
    """``_scan_streams`` arguments of the adiabatic branch: one mode, the
    lab-frame mechanical amplitude."""
    kappa, kappa_e, kappa_i = params.optical.kappa, params.optical.kappa_e, params.optical.kappa_i
    delta, g, omega_m, gamma = params.drive.delta, params.drive.g, params.omega_m, params.gamma
    d_c = 1j * (delta - omega_m) + kappa / 2
    d_cbar = -1j * (delta + omega_m) + kappa / 2
    se, si, sg = np.sqrt(kappa_e), np.sqrt(kappa_i), np.sqrt(params.mech.gamma_i)
    c1, c2 = 1j * g / d_c, 1j * g / d_cbar
    # Euler step of the lab-frame mechanical amplitude, v_n = a v_{n-1} + x_n with
    # x = dt e^{-i omega_m dt} (c1 w + c2 conj(w) - sg z_b) and w = se z_a + si z_i;
    # homodyne current = Re(p_e z_a + p_i z_i) + q Re(v_{n-1})
    phase_out = 2.0 * np.exp(-1j * theta)
    p_e = phase_out * (1.0 - kappa_e / d_c)
    p_i = phase_out * -np.sqrt(kappa_e * kappa_i) / d_c
    q = 2.0 * np.real(phase_out * -1j * g * se / d_c)
    a = (1.0 - gamma * dt / 2.0) * np.exp(-1j * omega_m * dt)
    kick = dt * np.exp(-1j * omega_m * dt)
    s_vac, s_bath = np.sqrt(0.5 / dt) / np.sqrt(2.0), np.sqrt((nbar + 0.5) / dt) / np.sqrt(2.0)
    # a stream z enters x as kick (alpha z + beta conj(z)) and the current as Re(p z)
    streams = []
    for alpha, beta, p, scale in (
        (c1 * se, c2 * se, p_e, s_vac), (c1 * si, c2 * si, p_i, s_vac), (-sg, 0.0, 0.0, s_bath)
    ):
        x, direct = scale * np.array([[kick * (alpha + beta), p], [1j * kick * (alpha - beta), 1j * p]]).T
        streams.append(np.column_stack([x.real, x.imag, direct.real]))
    return np.array([[a]]), streams, np.array([q])


def _full_modes(params, dt):
    """Complex Schur form ``(t, q)`` of the full branch's Euler step: a real
    4x4 matrix on s = (Re a, Im a, Re b, Im b), with b the lab-frame
    mechanical amplitude, so the exact rotation of each step is in it.  Each
    deflation takes one eigenvector of the trailing block and completes it
    to a unitary basis by QR.  Unlike an eigenvector basis this stays well
    conditioned where the step is (nearly) defective, as at zero detuning."""
    kappa, delta, g, gamma_i = params.optical.kappa, params.drive.delta, params.drive.g, params.mech.gamma_i
    rot = np.exp(-1j * params.mech.omega_m0 * dt)
    def step(a, b):  # one noiseless Euler step of (a, b)
        a_next = a - dt * ((1j * delta + kappa / 2) * a + 2j * g * b.real)
        return a_next, rot * (b - dt * (gamma_i / 2 * b + 2j * g * a.real))
    t = np.array([np.array(step(*u)).view(float) for u in ((1, 0), (1j, 0), (0, 1), (0, 1j))], dtype=complex).T
    q = np.eye(4, dtype=complex)
    for k in range(3):
        vec = np.linalg.eig(t[k:, k:])[1][:, :1]
        h = np.linalg.qr(np.hstack([vec, np.eye(4 - k)]))[0]
        t[k:] = h.conj().T @ t[k:]
        t[:, k:] = t[:, k:] @ h
        q[:, k:] = q[:, k:] @ h
        t[k + 1 :, k] = 0.0
    return t, q


def _integrate_full(params, nbar, theta, dt):
    """``_scan_streams`` arguments of the full branch: the Euler step's four
    Schur modes."""
    se, si, sg = np.sqrt(params.optical.kappa_e), np.sqrt(params.optical.kappa_i), np.sqrt(params.mech.gamma_i)
    t, q = _full_modes(params, dt)
    # current 2 Re(e^{-i theta} (z_a + se a)); each Schur vector's phase is
    # turned so that the current reads the real part of its mode
    phase_out = np.exp(-1j * theta)
    row = 2.0 * se * np.array([phase_out.real, -phase_out.imag, 0.0, 0.0]) @ q
    turn = np.exp(-1j * np.angle(row))
    q, t = q * turn, t * turn / turn[:, np.newaxis]
    s_vac, s_bath = np.sqrt(0.5 / dt) / np.sqrt(2.0), np.sqrt((nbar + 0.5) / dt) / np.sqrt(2.0)
    # a stream z moves (a, b) by kick z, the modes by q^H of that, and the current by Re(p z)
    streams = []
    for kick, p, scale in (
        ([-dt * se, 0.0], 2.0 * phase_out, s_vac),
        ([-dt * si, 0.0], 0.0, s_vac),
        ([0.0, -dt * sg * np.exp(-1j * params.mech.omega_m0 * dt)], 0.0, s_bath),
    ):
        x = (scale * np.array([kick, 1j * np.array(kick)])).view(float) @ q.conj()
        streams.append(np.column_stack([x.view(float), scale * np.real([p, 1j * p])]))
    return t, streams, np.abs(row)


def _pieces(n_total, n_seg, n_streams):
    """The scan's pieces ``(stream, seg, offset, length)`` in draw order: per
    ``_CHUNK`` samples, each stream in turn, cut where segments end; a piece
    is ``length`` samples from ``offset`` into segment ``seg``."""
    for chunk_start in range(0, n_total, _CHUNK):
        chunk_end = min(chunk_start + _CHUNK, n_total)
        cuts = [chunk_start, *range((chunk_start // n_seg + 1) * n_seg, chunk_end, n_seg), chunk_end]
        for stream in range(n_streams):
            for start, end in zip(cuts, cuts[1:]):
                yield stream, start // n_seg, start % n_seg, end - start


def _scan_streams(tri, streams, out_row, welch, rng, amp_bound):
    """Integrate ``y_n = tri y_{n-1} + x_n``, ``tri`` upper triangular, and
    fold the current ``direct_n + out_row . Re(y_{n-1})`` into ``welch``.

    The current is linear in the noise streams, so each is integrated from
    its own state (zero at the start) as ``_pieces`` schedules it, block by
    block: each normal pair (n_re, n_im) of a stream z = scale (n_re + i n_im)
    is mapped by the stream's real matrix to the modes' inputs (Re, Im pairs)
    and the direct current, and the modes are scanned bottom-up by
    ``_one_pole``, each also driven by the modes below it one step late, with
    its pole's ``_pole_powers`` table, built once for the run.  The
    normals are those of one ``rng.standard_normal`` call for the whole run,
    drawn ahead by ``_normals_ahead``.  Each piece lands at its offset in one
    segment-long buffer, zero elsewhere, and is folded into its segment's band
    DFT (the streams' folds sum to the whole one); the last stream's piece
    that ends a segment closes it."""
    n_modes, n_total, n_seg = len(tri), welch.n_total, len(welch.window)
    states = np.zeros((len(streams), n_modes), dtype=complex)
    record = np.empty(n_seg)
    step = min(_BLOCK, n_seg)
    powers = [_pole_powers(tri[m, m], step) for m in range(n_modes)]  # this run's, dropped on return
    sizes = (min(step, length - k) for *_, length in _pieces(n_total, n_seg, len(streams))
             for k in range(0, length, step))
    draws = _normals_ahead(rng, sizes, step)
    try:
        for stream, seg, offset, length in _pieces(n_total, n_seg, len(streams)):
            if length < n_seg:
                record[:] = 0.0
            mapping, state, piece = streams[stream], states[stream], record[offset : offset + length]
            for k in range(0, length, step):
                block = piece[k : k + step]
                y = next(draws) @ mapping
                block[:] = y[:, -1]
                v = [None] * n_modes
                for m in reversed(range(n_modes)):
                    x = y[:, 2 * m : 2 * m + 2].view(np.complex128)[:, 0]
                    for j in range(m + 1, n_modes):  # the modes below, one step late
                        x = x + tri[m, j] * np.append(state[j], v[j][:-1])
                    v[m] = _one_pole(x, tri[m, m], state[m], powers[m])
                    block[0] += out_row[m] * state[m].real
                    block[1:] += out_row[m] * v[m].real[:-1]
                state[:] = [vm[-1] for vm in v]
                if not np.all(np.abs(state) <= amp_bound):
                    raise OracleError("unstable integration (energy growth beyond bound); "
                                      "the step-size precondition is too loose for this system")
            welch.fold(seg, record)
            if stream == len(streams) - 1 and offset + length == n_seg:
                welch.close(seg)
    finally:
        draws.close()


def _normals_ahead(rng, sizes, width):
    """For each ``n <= width`` of ``sizes``, the next ``2 n`` normals of ``rng``
    as an (n, 2) array, valid until the next is taken.  One helper thread
    draws them up to two blocks ahead into three buffers that take turns: it
    refills a buffer once the reader asks for the block after the one it held
    there.  ``Generator.standard_normal`` keeps no state between calls, so
    the bits are those of one call for all of ``sizes``; numpy draws without
    the GIL, so on two cores the draw overlaps the integration.  An error of
    the helper reaches the reader; closing the generator stops and joins it."""
    import queue  # loaded for the SDE only
    import threading

    buffers, free, drawn = np.empty((3, 2 * width)), queue.SimpleQueue(), queue.SimpleQueue()

    def draw():
        try:
            for k, n in enumerate(sizes):
                if not free.get():  # a buffer handed back, or False: stop
                    return
                drawn.put(rng.standard_normal(out=buffers[k % len(buffers), : 2 * n]))
            drawn.put(None)
        except BaseException as exc:  # any: the reader waits on ``drawn`` and raises it
            drawn.put(exc)

    for _ in buffers:
        free.put(True)
    helper = threading.Thread(target=draw, daemon=True)
    helper.start()
    try:
        while (normals := drawn.get()) is not None:
            if isinstance(normals, BaseException):
                raise normals
            yield normals.reshape(-1, 2)
            free.put(True)
    finally:
        free.put(False)
        helper.join()


def _pole_powers(a, n):
    """``a**j`` and ``a**-j`` for ``j < L``, the table ``_one_pole`` scans up to
    ``n`` samples of pole ``a`` with: ``L = 2**k`` is the longest sub-block with
    ``|a|**-L <= 2``, so that no term outgrows ``v`` by more than a factor 2,
    or the shortest that holds ``n`` samples.  Repeated products, as a sample
    loop forms them: ``a ** np.arange`` takes ``exp(j log a)``, whose phase
    error grows as ``j |arg a|`` ulp.  A shorter input reads a prefix, the
    same bits.  Raises OracleError for ``|a| >= 1`` before any work."""
    r = abs(a)
    if not r < 1:
        raise OracleError(f"unstable one-pole recurrence: |a| = {r:.6g} >= 1")
    span = math.log(0.5) / math.log(r) if r > 0 else 0.0  # |a|**-span = 2
    k = max(int(span).bit_length() - 1, 0)
    up = np.full(1 << min(k, (n - 1).bit_length()), a)
    up[0] = 1.0
    np.cumprod(up, out=up)
    return up, 1.0 / up


def _one_pole(x, a, v0, powers):
    """``v[n] = a v[n-1] + x[n]`` with ``v[-1] = v0``, for ``|a| < 1``.

    A prefix scan (Blelloch 1990): in sub-blocks of ``L`` samples, the length
    of the prefix of ``powers = _pole_powers(a, m)``, ``m >= len(x)``, that
    ``len(x)`` needs, ``v[j] = a**j (a c + sum_{i <= j} a**-i x[i])`` with
    ``c`` the value before the sub-block; the sub-blocks are chained by their
    end values.
    """
    n = len(x)
    up, down = (p[: 1 << (n - 1).bit_length()] for p in powers)
    if n % len(up):
        sums = np.zeros((-(-n // len(up)), len(up)), dtype=np.result_type(x, up))
        sums.reshape(-1)[:n] = x
        sums *= down
    else:
        sums = x.reshape(-1, len(up)) * down
    np.cumsum(sums, axis=1, out=sums)
    carry, a_l, c = np.empty(len(sums), dtype=sums.dtype), a * up[-1], v0
    for b, end in enumerate((sums[:, -1] * up[-1]).tolist()):
        carry[b] = c
        c = a_l * c + end
    sums += a * carry[:, np.newaxis]
    sums *= up
    return sums.reshape(-1)[:n]


class _Welch:
    """Welch (1967) estimate fed as samples arrive: Hann-windowed periodograms
    of consecutive non-overlapping segments, averaged into frequency bins,
    with the per-bin standard error from the inter-segment variance.

    Each open segment is held only as its windowed DFT on the contiguous band
    of FFT bins that ``freq_bins`` selects, so it may be folded in pieces,
    each zero outside its samples.  The band DFT is a pruned FFT (Sorensen &
    Burrus 1993): with ``N = M D`` and ``M`` the smallest divisor of ``N`` with
    ``M >= 2K`` for ``K`` band bins, an ``rfft`` of length ``M`` down the ``D``
    polyphase columns ``x[d::D]``, then one twiddle sum over ``d`` per bin."""

    def __init__(self, dt, segment_samples, n_segments, freq_bins):
        self.dt, self.n_segments, self.freq_bins = dt, n_segments, freq_bins
        self.n_total = n_segments * segment_samples
        self.window = np.hanning(segment_samples)
        self.norm = dt / (segment_samples * np.mean(self.window**2))
        idx = np.digitize(np.fft.rfftfreq(segment_samples, dt), freq_bins) - 1
        self.n_bins = n_bins = len(freq_bins) - 1
        band = np.flatnonzero((idx >= 0) & (idx < n_bins))
        self.idx = idx[band]
        self.counts = np.bincount(self.idx, minlength=n_bins)
        if np.any(self.counts == 0):
            raise ValueError("freq_bins too fine for the segment resolution")
        self.sums, self.sumsq = np.zeros((2, n_bins))

        n = segment_samples
        m = next((m for m in range(2 * len(band), n) if n % m == 0), n)
        self.polyphase_window = self.window.reshape(m, n // m)
        # bin k is row k mod m of the length-m rfft, or past its Nyquist row the
        # conjugate of row m - (k mod m): there conj(F) t = conj(F conj(t)), and
        # the bin is held conjugated, which |.|^2 does not see
        r = band % m
        flip = r > m // 2
        self.rows = np.where(flip, m - r, r)
        twiddle = np.exp(-2j * np.pi / n * np.outer(band, np.arange(n // m)))
        self.twiddle = np.where(flip[:, np.newaxis], twiddle.conj(), twiddle)
        self.open = {}  # segment index -> band DFT folded so far

    def fold(self, seg, samples):
        """Add the band DFT of ``samples``, one segment long, to segment ``seg``."""
        m = len(self.polyphase_window)
        spectrum = np.fft.rfft(samples.reshape(m, -1) * self.polyphase_window, axis=0)
        band = np.einsum("kd,kd->k", spectrum[self.rows], self.twiddle)
        self.open[seg] = self.open.get(seg, 0) + band

    def close(self, seg):
        """Fold segment ``seg``, complete, into the bin sums."""
        pxx = np.abs(self.open.pop(seg)) ** 2 * self.norm
        binned = np.bincount(self.idx, weights=pxx, minlength=self.n_bins) / self.counts
        self.sums += binned
        self.sumsq += binned**2

    def result(self, params) -> SpectrumTrace:
        n = self.n_segments
        mean = self.sums / n
        stderr = np.sqrt(np.maximum(self.sumsq / n - mean**2, 0.0) / n)
        resolution = 1.0 / (len(self.window) * self.dt)
        return SpectrumTrace(
            freqs=0.5 * (self.freq_bins[:-1] + self.freq_bins[1:]), values=mean, stderr=stderr,
            meta={"segments": int(n), "dt_s": float(self.dt), "resolution_hz": float(resolution),
                  "omega_m_rad_s": float(params.omega_m)},
        )
