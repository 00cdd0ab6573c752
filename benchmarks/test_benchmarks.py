"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import omsqueeze
import workloads
from omsqueeze import core, noise
from quantiles import percentile, quartiles, tail_percentile
from run import END_TO_END, LAYER_METRICS
from tracer import Tracer, public_functions, self_times

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_and_quartiles():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert quartiles(xs) == tuple(statistics.quantiles(xs, n=4))


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; other op: c [20, 21]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    tracer = Tracer()
    tracer.spans.extend(spans)
    assert tracer.op_self_time() == {0: 10.0, 1: 1.0}
    calls, own, incl = tracer.totals()
    assert calls["a"] == 1 and own["root"] == 3.0 and incl["root"] == 10.0


@pytest.mark.parametrize("workload", ["map-sweep", "calibrate", "oracle"])
def test_generators_deterministic_and_stable(workload):
    points = workloads.generate(workload, 7, n=6)
    assert points == workloads.generate(workload, 7, n=6)
    assert points != workloads.generate(workload, 8, n=6)
    for point in points:
        params = workloads.system_of(point)
        assert params.gamma > 0
        if workload == "calibrate":
            assert workloads.system_of(point, n_c=workloads.SYNTH_N_C).gamma > 0
        if workload == "oracle":
            run = point["config"]["run"]
            assert params.optical.kappa > 50 * params.omega_m
            assert run["sde_dt_s"] <= 0.01 / params.omega_m
            samples = int(run["sde_duration_s"] / run["sde_dt_s"])
            assert samples // workloads.SDE_SEGMENT_SAMPLES == workloads.SDE_SEGMENTS
            assert samples > 1 << 22  # at least two RNG chunks


def test_generator_redraws_unstable_points(monkeypatch):
    seen = []

    def flaky(point, n_c=None):
        seen.append(point)
        return len(seen) % 2 == 0  # every other draw is rejected

    monkeypatch.setattr(workloads, "is_stable", flaky)
    points = workloads.generate("map-sweep", 3, n=4)
    assert len(points) == 4 and points == seen[1::2]


def test_harmonic_check_separates_harmonic_from_other_maps():
    t = np.linspace(-np.pi / 2, np.pi / 2, 61)[:, None]
    a, b, c = np.linspace(1, 2, 5), np.linspace(-0.3, 0.3, 5), np.linspace(0.1, 0.2, 5)
    harmonic = a + b * np.cos(2 * t) + c * np.sin(2 * t)
    assert workloads.harmonic_residual(t[:, 0], harmonic) < 1e-12
    assert workloads.harmonic_residual(t[:, 0], harmonic + 1e-3 * np.cos(4 * t)) > 1e-4


def test_tracer_restores_every_binding():
    originals = {
        (mod, name): obj
        for mod in (omsqueeze, core, noise)
        for name, obj in vars(mod).items()
        if callable(obj)
    }
    build = vars(core.SystemParams)["build"]
    tracer = Tracer()
    tracer.install()
    try:
        assert core.spectrum_full is not originals[core, "spectrum_full"]
        assert noise.spectrum_full is core.spectrum_full  # bound by from-import
        assert vars(core.SystemParams)["build"] is not build
        optical = core.OpticalMode(omega_o=1e15, kappa=1e10, kappa_e=5e9)
        mech = core.MechanicalMode(omega_m0=1e8, gamma_i=1e3, g0=1e6)
        core.SystemParams.build(optical, mech, delta=1e9, n_c=100.0)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names[0] == "core.SystemParams.build" and "core.spring_and_damping" in names
    assert tracer.spans[names.index("core.spring_and_damping")][3] == 0
    for (mod, name), obj in originals.items():
        assert getattr(mod, name) is obj, f"{mod.__name__}.{name} not restored"
    assert vars(core.SystemParams)["build"] is build


def test_public_functions_exclude_imports_and_private_names():
    names = public_functions(noise)
    assert "extra_mode_psd" in names
    assert "spectrum_full" not in names  # defined in core
    assert not any(n.startswith("_") for n in names)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == ["map-sweep", "calibrate", "oracle"]
