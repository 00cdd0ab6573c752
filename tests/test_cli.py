import codecs
import configparser
import csv
import functools
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omsqueeze import SpectrumTrace, SqueezingMap
from omsqueeze import cli, instrument
from omsqueeze.cli import (
    main,
    read_locksweep_csv,
    read_thermometry_csv,
    write_map_csv,
    write_spectrum_csv,
)
from omsqueeze.config import (
    ConfigError,
    _parse_sections,
    default_config_text,
    load_config,
    load_config_text,
    serialize_config,
)

from conftest import KAPPA, TWO_PI


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "default.ini"
    p.write_text(default_config_text(), encoding="utf-8")
    return p


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def small_sde_config(tmp_path, duration, dt):
    """A small fast system so the stochastic trace is cheap."""
    text = default_config_text()
    text = text.replace("kappa_over_2pi_hz = 3.42e9", "kappa_over_2pi_hz = 2e8")
    text = text.replace("omega_m0_over_2pi_hz = 28e6", "omega_m0_over_2pi_hz = 1e6")
    text = text.replace("gamma_i_over_2pi_hz = 172", "gamma_i_over_2pi_hz = 2e4")
    text = text.replace("g0_over_2pi_hz = 750e3", "g0_over_2pi_hz = 1e3")
    text = text.replace("n_c = 790", "n_c = 10")
    text = text.replace(
        "theta_lock_rad = 0.0",
        f"theta_lock_rad = 0.4\nsde_duration_s = {duration!r}\nsde_dt_s = {dt!r}",
    )
    cfg = tmp_path / "small.ini"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def configparser_sections(text):
    """``{section: {key: value}}`` of ``text`` as ``configparser`` reads it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


INI_NAMES = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=12)
INI_BLANKS = st.sampled_from(["", " ", "\t", " \t  "])
INI_FILLER = st.lists(st.sampled_from(["", "   ", "\t", "# note", "; note", ";x = 1", "  # indented note"]), max_size=2)


@st.composite
def ini_texts(draw):
    """INI text in the config reader's grammar: sections and keys in any order,
    mixed-case keys, ``=`` or ``:`` with blanks or tabs around it, any one-line
    value, blank and comment lines, each line ended by LF or CRLF."""
    lines = draw(INI_FILLER)
    for section in draw(st.lists(INI_NAMES.filter(lambda s: s != "DEFAULT"), unique=True, max_size=4)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(INI_NAMES, unique_by=str.lower, max_size=5)):
            value = draw(st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\n"), max_size=12))
            lines.append(key + draw(INI_BLANKS) + draw(st.sampled_from("=:")) + draw(INI_BLANKS) + value)
            lines += draw(INI_FILLER)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


class TestConfig:
    def test_default_loads_table_values(self, config_path):
        cfg = load_config(config_path)
        sys = cfg.system
        assert sys.optical.kappa == pytest.approx(TWO_PI * 3.42e9, rel=1e-12)
        assert sys.optical.eta_kappa == pytest.approx(0.55, rel=1e-12)
        assert sys.mech.g0 == pytest.approx(TWO_PI * 750e3, rel=1e-12)
        assert sys.mech.gamma_i == pytest.approx(TWO_PI * 172, rel=1e-12)
        assert cfg.scenario.bath.t_b0 == 16.0
        assert cfg.scenario.laser.s_omega_omega == 6e3
        assert sys.drive.delta == pytest.approx(0.044 * sys.optical.kappa, rel=1e-12)
        assert sys.drive.n_c == 790.0
        assert cfg.scenario.chain.eta_setup == pytest.approx(0.48, abs=0.005)

    def test_invalid_coupling_names_invariant(self, config_path):
        text = config_path.read_text().replace("eta_kappa = 0.55", "eta_kappa = 1.3")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert any("kappa_e" in p for p in err.value.problems)

    def test_empty_file_reports_all_missing_keys(self):
        with pytest.raises(ConfigError) as err:
            load_config_text("")
        missing = [p for p in err.value.problems if p.startswith("missing")]
        assert len(missing) >= 10  # every required key, not just the first

    def test_unknown_key_rejected(self, config_path):
        text = config_path.read_text() + "\nmystery_key = 3\n"
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert any("unknown key" in p for p in err.value.problems)

    def test_removed_dark_ratio_key_rejected(self, config_path):
        text = config_path.read_text().replace("[grid]", "dark_ratio_db = 10.4\n\n[grid]")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert err.value.problems == ["unknown key detection.dark_ratio_db"]

    def test_removed_eta_12_key_rejected(self, config_path):
        # nothing read the input-side circulator pass: it left eta_setup out
        text = config_path.read_text().replace("eta_23 = 0.88", "eta_12 = 0.85\neta_23 = 0.88")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert err.value.problems == ["unknown key detection.eta_12"]

    def test_unknown_section_rejected(self, config_path):
        text = config_path.read_text() + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError):
            load_config_text(text)

    def test_round_trip_idempotent(self, config_path):
        cfg = load_config(config_path)
        canon = serialize_config(cfg)
        cfg2 = load_config_text(canon)
        assert serialize_config(cfg2) == canon

    def test_round_trip_keeps_every_float_digit(self, config_path):
        # a 17-digit value, as a drawn operating point has, reads back as the same float
        n_c = 263.08490342583247
        cfg = load_config(config_path, overrides={("system", "n_c"): n_c})
        again = load_config_text(serialize_config(cfg))
        assert again.raw == cfg.raw
        assert again.system.drive.n_c == n_c

    @pytest.mark.parametrize("key, old, value", [
        ("grid.n_theta_lock", "n_theta_lock = 61", "61.5"),
        ("run.seed", "seed = 12345", "1e3"),
    ])
    def test_non_integer_value_of_integer_key_rejected(self, config_path, key, old, value):
        text = config_path.read_text().replace(old, f"{key.split('.')[1]} = {value}")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert err.value.problems == [f"{key}: not an integer ({value!r})"]

    def test_non_integral_override_rejected(self, config_path):
        # int() would truncate the seed to 2
        with pytest.raises(ConfigError) as err:
            load_config(config_path, overrides={("run", "seed"): 2.5})
        assert err.value.problems == ["override run.seed: not an integer (2.5)"]
        assert load_config(config_path, overrides={("run", "seed"): 2}).seed == 2
        # an integer too large for a float is still an integer
        assert load_config(config_path, overrides={("run", "seed"): 10**400}).seed == 10**400

    def test_non_finite_values_rejected(self, config_path):
        text = config_path.read_text()
        for old, new in (("n_c = 790", "n_c = inf"), ("eta_hd = 0.66", "eta_hd = nan")):
            with pytest.raises(ConfigError) as err:
                load_config_text(text.replace(old, new))
            assert any("not a finite number" in p for p in err.value.problems)
        with pytest.raises(ConfigError):
            load_config_text(text, overrides={("system", "n_c"): float("nan")})

    @pytest.mark.parametrize("start", ["500", "1e3"])
    def test_output_grid_below_cutoff_rejected(self, config_path, start):
        # the first output bin must lie above the rule's 1 kHz cutoff
        text = config_path.read_text().replace("out_f_start_hz = 80e3", f"out_f_start_hz = {start}")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert any("grid.out_f_start_hz" in p for p in err.value.problems)

    def test_map_too_large_to_hold_rejected(self, config_path):
        # 61 x 1e8 cells over a 10 MHz span: the rule's node cap passes, the map would be 49 GB
        text = config_path.read_text().replace("out_n_points = 501", "out_n_points = 100000000")
        text = text.replace("out_f_step_hz = 80e3", "out_f_step_hz = 0.1")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert len(err.value.problems) == 1
        assert "grid.n_theta_lock" in err.value.problems[0] and "grid.out_n_points" in err.value.problems[0]
        default = load_config_text(config_path.read_text()).grid
        assert default.n_theta_lock * default.out_n_points == 30_561 <= instrument.MAX_MAP_CELLS

    @pytest.mark.parametrize("key, old", [
        ("out_n_points", "out_n_points = 501"), ("n_theta_lock", "n_theta_lock = 61"),
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_grid_rejected(self, config_path, key, old, value):
        text = config_path.read_text().replace(old, f"{key} = {value}")
        with pytest.raises(ConfigError) as err:
            load_config_text(text)
        assert err.value.problems == [f"grid.{key} must be at least 1 (got {value})"]

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_shipped_config_matches_defaults(self):
        shipped = Path(__file__).parents[1] / "configs" / "default.ini"
        assert shipped.read_text(encoding="utf-8") == default_config_text()
        load_config(shipped)  # validates

    @settings(max_examples=100, deadline=None)
    @given(text=ini_texts())
    def test_reader_matches_configparser(self, text):
        assert _parse_sections(text) == configparser_sections(text)


class TestCliCommands:
    def test_spectrum_zero_drive_all_ones(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "spectrum", "--config", str(config_path), "--out", str(out), "--n-c", "0",
        ])
        assert rc == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header[:2] == ["freq_hz", "s_norm"]
        s = np.array([float(r[1]) for r in rows])
        assert np.all(np.abs(s - 1.0) < 1e-9)

    def test_spectrum_components_sum(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "spectrum", "--config", str(config_path), "--out", str(out),
            "--theta-lock", "0.3",
        ])
        assert rc == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == [
            "freq_hz", "s_norm", "s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive",
        ]
        data = np.array([[float(x) for x in r] for r in rows])
        total = data[:, 2:].sum(axis=1)
        assert np.allclose(data[:, 1], total, rtol=1e-6)

    def test_densitymap_minimum_near_mechanical_frequency(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["densitymap", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "densitymap.csv")
        assert header == ["theta_lock_rad", "freq_hz", "s_norm"]
        data = np.array([[float(x) for x in r] for r in rows])
        i = int(np.argmin(data[:, 2]))
        assert data[i, 2] < 1.0
        assert abs(data[i, 1] - 28e6) < 3e6

    def test_quasistatic_curve(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "quasistatic", "--config", str(config_path), "--out", str(out),
            "--theta-lock", "-0.5",
        ])
        assert rc == 0
        header, rows = read_csv(out / "quasistatic.csv")
        assert header == ["freq_hz", "s_norm"]
        assert len(rows) == 501

    def test_synth_and_fit_round_trip(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "synth", "--config", str(config_path), "--out", str(out),
            "--seed", "7", "--n-c", "50",
        ])
        assert rc == 0
        curve = read_thermometry_csv(out / "thermometry.csv")
        assert len(curve.detunings) == 13
        rc = main([
            "thermometry-fit", "--config", str(config_path), "--out", str(out),
            "--n-c", "50", "--data", str(out / "thermometry.csv"),
        ])
        assert rc == 0
        header, rows = read_csv(out / "thermometry_fit.csv")
        assert header == ["param", "estimate", "stderr"]
        est = {r[0]: float(r[1]) for r in rows}
        assert est["g0_hz"] == pytest.approx(750e3, rel=0.02)
        assert est["gamma_i_hz"] == pytest.approx(172.0, rel=0.05)
        assert "residual_norm" in est

        sweep = read_locksweep_csv(out / "locksweep.csv")
        assert sweep.shape[1] == 2
        rc = main([
            "infer-detuning", "--config", str(config_path), "--out", str(out),
            "--data", str(out / "locksweep.csv"),
        ])
        assert rc == 0
        _, rows = read_csv(out / "detuning_fit.csv")
        est = {r[0]: float(r[1]) for r in rows}
        assert est["delta_over_kappa"] == pytest.approx(0.044, abs=0.006)

    def test_oracle_check(self, config_path, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "oracle-check", "--config", str(config_path), "--out", str(out), "--seed", "3",
        ])
        assert rc == 0
        _, rows = read_csv(out / "oracle_check.csv")
        assert rows[-1][0] == "max_rel_err"
        assert float(rows[-1][2]) <= 1e-9

    def test_rerun_from_resolved_config_is_identical(self, config_path, tmp_path):
        # resolved_config.ini holds every digit of the run's values
        text = config_path.read_text().replace("n_c = 790", "n_c = 263.08490342583247")
        text = text.replace("delta_over_kappa = 0.044", "delta_over_kappa = 0.041234567890123456")
        cfg = tmp_path / "drawn.ini"
        cfg.write_text(text, encoding="utf-8")
        assert main(["densitymap", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        resolved = tmp_path / "resolved.ini"
        resolved.write_bytes((tmp_path / "a" / "resolved_config.ini").read_bytes())
        assert main(["densitymap", "--config", str(resolved), "--out", str(tmp_path / "b")]) == 0
        first, second = ((tmp_path / d / "densitymap.csv").read_bytes() for d in "ab")
        assert first == second

    def test_reproducible_outputs(self, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main([
                "synth", "--config", str(config_path), "--out", str(out),
                "--seed", "42", "--n-c", "50",
            ])
            assert rc == 0
            outs.append((out / "thermometry.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_map_csv_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        sqmap = SqueezingMap(
            theta_locks=np.linspace(-1.5, 1.5, 4), freqs=np.linspace(8e4, 4e7, 5),
            values=rng.random((4, 5)) * 10.0 ** rng.integers(-8, 8, (4, 5)),
        )
        write_map_csv(tmp_path / "fast.csv", sqmap)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_lock_rad", "freq_hz", "s_norm"])
            w.writerows(
                ["%.9g" % t, "%.9g" % f, "%.9g" % sqmap.values[i, j]]
                for i, t in enumerate(sqmap.theta_locks)
                for j, f in enumerate(sqmap.freqs)
            )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("with_components", [False, True])
    @pytest.mark.parametrize("with_stderr", [False, True])
    def test_spectrum_csv_matches_csv_writer(self, tmp_path, with_components, with_stderr):
        rng = np.random.default_rng(2)
        n = 7
        scale = 10.0 ** rng.integers(-8, 8, n)
        trace = SpectrumTrace(
            freqs=np.linspace(8e4, 4e7, n), values=rng.random(n) * scale,
            stderr=np.append(rng.random(n - 1), np.nan) if with_stderr else None,
        )
        names = ("s_vac", "s_thermal", "s_phase", "s_extra", "s_absorptive")
        components = (
            {name: rng.standard_normal(n) * scale for name in names} if with_components else None
        )
        write_spectrum_csv(tmp_path / "fast.csv", trace, components=components)
        header = ["freq_hz", "s_norm"] + (list(names) if with_components else [])
        cols = [trace.freqs, trace.values] + (
            [components[name] for name in names] if with_components else []
        )
        if with_stderr:
            header.append("stderr")
            cols.append(trace.stderr)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(["%.9g" % c[i] for c in cols] for i in range(n))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_spectrum_reproducible(self, config_path, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
            blobs.append((out / "spectrum.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_oracle_check_emits_sde_trace_with_stderr(self, tmp_path):
        cfg = small_sde_config(tmp_path, duration=1.2e-3, dt=1.5e-9)
        out = tmp_path / "out"
        rc = main(["oracle-check", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        assert rc == 0
        header, rows = read_csv(out / "sde_trace.csv")
        assert header == ["freq_hz", "s_norm", "stderr"]
        assert all(float(r[2]) > 0 for r in rows)

    def test_console_entry_point(self, config_path, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "omsqueeze.cli", "quasistatic",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (out / "quasistatic.csv").exists()


def formatted(table):
    """The strings held by the columns of a ``cli._format_table`` table."""
    return [column.astype("<u8").tobytes().replace(b"\0", b"").decode() for column in table.T]


class CountingFormat(str):
    """``cli.FMT`` that counts the values formatted by ``%``."""

    calls = 0

    def __mod__(self, value):
        CountingFormat.calls += 1
        return str.__mod__(self, value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormatTable:
    EDGES = [
        0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
        2.2250738585072014e-308, 1e-4, 1e-5, 9.999999999999999e-5, 1.5e-5, -0.00012345,
        99999999.95, 123456789.5, 999999999.5, 0.9999999999999999, 1e-13, 1e8, 1e9,
        0.1, 0.5, 1.0, 2.5, 100.0, 12345.678, 1e-300, 1e300,
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
            st.floats(-2e9, 2e9),
            # ten significant digits ending in 5: next to a rounding tie of "%.9g"
            st.builds("{}5e{}".format, st.integers(10**8, 10**9 - 1), st.integers(-23, 0)).map(float),
        ),
        min_size=1, max_size=64,
    ))
    def test_matches_percent_format(self, values):
        assert formatted(cli._format_table(np.array(values))) == ["%.9g" % v for v in values]

    def test_edge_values(self):
        powers = 10.0 ** np.arange(-20, 20)
        values = np.concatenate([
            self.EDGES, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        ])
        assert formatted(cli._format_table(values)) == ["%.9g" % v for v in values.tolist()]

    def test_every_fixed_point_layout_without_fallback(self, monkeypatch):
        # each exponent of "%g"'s fixed-point form, each count of significant
        # digits, zeros inside and at the end of the digits, and both signs
        digits = ["2", "12", "103", "1234", "12005", "123456", "1000007", "12345678", "123456789", "100000001"]
        values = np.array([sign * float(d) * 10.0 ** (e + 1 - len(d))
                           for e in range(-4, 9) for d in digits for sign in (1, -1)])
        monkeypatch.setattr(cli, "FMT", CountingFormat(cli.FMT))
        CountingFormat.calls = 0
        table = cli._format_table(values)
        assert CountingFormat.calls == 0
        assert formatted(table) == ["%.9g" % v for v in values.tolist()]

    def test_ragged_map_csv_matches_csv_writer(self, tmp_path):
        # row blocks that do not divide the map; zero angles, signs, e-XX values,
        # values of 1e9 and more, and ties next to the rounding of "%.9g"
        rows, n_theta = cli.MAP_BLOCK // 3 - 7, 7  # blocks of 3, 3 and 1 map rows
        assert n_theta % (cli.MAP_BLOCK // rows) != 0
        rng = np.random.default_rng(3)
        values = rng.standard_normal((n_theta, rows)) * 10.0 ** rng.integers(-12, 12, (n_theta, rows))
        specials = [0.0, -0.0, 1.5e-7, -2.25e-8, 1e9, 3.5e12, -1e9, 123456789.5, 0.1234567895,
                    -9.999999995e-5, 99999999.95, 1e-13, 5e-324]
        values.flat[:: len(specials) + 1][: len(specials)] = specials
        sqmap = SqueezingMap(
            theta_locks=np.append(np.linspace(-1.0, 1.0, n_theta - 1), 0.0), freqs=np.linspace(0.0, 4e7, rows),
            values=values,
        )
        write_map_csv(tmp_path / "fast.csv", sqmap)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_lock_rad", "freq_hz", "s_norm"])
            w.writerows(
                ["%.9g" % t, "%.9g" % f, "%.9g" % sqmap.values[i, j]]
                for i, t in enumerate(sqmap.theta_locks)
                for j, f in enumerate(sqmap.freqs)
            )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_default_map_csv_matches_csv_writer(self, config_path, tmp_path):
        # 61 x 501 values: several row blocks of write_map_csv
        out = tmp_path / "o"
        assert main(["densitymap", "--config", str(config_path), "--out", str(out)]) == 0
        cfg = load_config(config_path)
        grid = cfg.grid
        sqmap = instrument.assemble_density_map(
            grid.theta_locks(), grid.out_freqs(), cfg.scenario, grid.rbw_hz
        )
        assert sqmap.values.size > 2 * cli.MAP_BLOCK
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_lock_rad", "freq_hz", "s_norm"])
            w.writerows(
                ["%.9g" % t, "%.9g" % f, "%.9g" % sqmap.values[i, j]]
                for i, t in enumerate(sqmap.theta_locks)
                for j, f in enumerate(sqmap.freqs)
            )
        assert (out / "densitymap.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fallback_is_rare_on_default_map(self, config_path, tmp_path, monkeypatch):
        # a broken fast path must not hide behind the exact "%" fallback
        monkeypatch.setattr(cli, "FMT", CountingFormat(cli.FMT))
        CountingFormat.calls = 0
        out = tmp_path / "o"
        assert main(["densitymap", "--config", str(config_path), "--out", str(out)]) == 0
        n_values = 61 * 501
        assert len((out / "densitymap.csv").read_bytes().splitlines()) == n_values + 1
        assert CountingFormat.calls < 0.01 * n_values


class TestCliExitCodes:
    def test_config_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[system]\nkappa_over_2pi_hz = 3.42e9\n", encoding="utf-8")
        rc = main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_missing_config_exit_1(self, tmp_path):
        rc = main(["spectrum", "--config", str(tmp_path / "x.ini"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_numerical_failure_exit_2(self, config_path, tmp_path):
        sweep = tmp_path / "sweep.csv"
        th = np.linspace(0.1, 1.0, 9)
        with open(sweep, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_lock_rad", "area_sn_hz"])
            w.writerows([[f"{t}", f"{t}"] for t in th])  # no interior minimum
        rc = main([
            "infer-detuning", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--data", str(sweep),
        ])
        assert rc == 2

    def test_io_error_exit_3(self, config_path, tmp_path):
        rc = main([
            "thermometry-fit", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--data", str(tmp_path / "missing.csv"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("command", ["spectrum", "densitymap", "quasistatic"])
    def test_unstable_operating_point_exit_2(self, config_path, tmp_path, command, capsys):
        # blue detuning at full power: the optomechanical anti-damping wins
        text = config_path.read_text().replace(
            "delta_over_kappa = 0.044", "delta_over_kappa = -0.044"
        )
        cfg = tmp_path / "blue.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "unstable" in err
        assert not (out / f"{command}.csv").exists()

    def test_nan_in_config_exit_1(self, config_path, tmp_path, capsys):
        bad = tmp_path / "nan.ini"
        bad.write_text(config_path.read_text().replace("n_c = 790", "n_c = nan"), encoding="utf-8")
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "system.n_c" in capsys.readouterr().err

    def test_non_utf8_config_exit_1(self, config_path, tmp_path, capsys):
        bad = tmp_path / "latin1.ini"
        bad.write_bytes(config_path.read_bytes().replace(b"[run]", b"# \xe9t\xe9\n[run]"))
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "utf-8" in err
        assert "Traceback" not in err

    def test_removed_fit_section_exit_1(self, config_path, tmp_path, capsys):
        # the fit commands read their CSV from --data only
        bad = tmp_path / "fit.ini"
        bad.write_text(config_path.read_text() + "\n[fit]\nthermometry_csv = t.csv\n", encoding="utf-8")
        assert main(["thermometry-fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown section [fit]" in capsys.readouterr().err

    def test_nan_override_exit_1(self, config_path, tmp_path, capsys):
        rc = main([
            "spectrum", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--theta-lock", "nan",
        ])
        assert rc == 1
        assert "run.theta_lock_rad" in capsys.readouterr().err

    def test_missing_csv_column_exit_3(self, config_path, tmp_path, capsys):
        data = tmp_path / "thermometry.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta_hz", "eff_freq_hz", "area_sn_hz"])
            w.writerows([[f"{d}", "28e6", "1e3"] for d in np.linspace(-1e8, 1e8, 7)])
        rc = main([
            "thermometry-fit", "--config", str(config_path), "--out", str(tmp_path / "o"),
            "--data", str(data),
        ])
        assert rc == 3
        assert "eff_linewidth_hz" in capsys.readouterr().err
        # a ragged row, a zero-byte file and bytes that are not UTF-8: one line, no traceback
        for command, content in [
            ("thermometry-fit", b"delta_hz,eff_freq_hz,eff_linewidth_hz,area_sn_hz\r\n1e8,28e6,1e3\r\n"),
            ("thermometry-fit", b""),
            ("infer-detuning", b"theta_lock_rad,area_sn_hz\r\n0.1,\xff1e3\r\n"),
        ]:
            data.write_bytes(content)
            rc = main([
                command, "--config", str(config_path), "--out", str(tmp_path / "o"),
                "--data", str(data),
            ])
            err = capsys.readouterr().err
            assert rc == 3 and len(err.strip().splitlines()) == 1, (content, err)
            assert "unreadable CSV" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "duration, dt, message",
        [(1.2e-3, 1e-8, "step-size"), (1e-5, 1.5e-9, "decay times")],
    )
    def test_bad_sde_settings_exit_1_before_draws(self, tmp_path, capsys, duration, dt, message):
        cfg = small_sde_config(tmp_path, duration=duration, dt=dt)
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines()[0] == "config invalid:"
        assert len(err.strip().splitlines()) == 2 and message in err
        assert "run.sde_duration_s, run.sde_dt_s" in err
        assert "Traceback" not in err
        assert not (out / "oracle_check.csv").exists()
        assert not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize(
        "duration, dt",
        [(1.2e-3, 0.0), (0.0, 1.5e-9), (1.2e-3, -1.5e-9), (-1.2e-3, 1.5e-9)],
    )
    def test_half_set_sde_settings_exit_1_before_draws(
        self, tmp_path, capsys, monkeypatch, duration, dt
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the oracle draws ran")

        monkeypatch.setattr(cli, "matrix_solve_spectrum", no_draws)
        cfg = small_sde_config(tmp_path, duration=duration, dt=dt)
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines()[0] == "config invalid:"
        assert len(err.strip().splitlines()) == 2
        assert "run.sde_duration_s, run.sde_dt_s" in err
        assert "Traceback" not in err
        assert not (out / "oracle_check.csv").exists()
        assert not (out / "sde_trace.csv").exists()
        assert not (out / "resolved_config.ini").exists()

    @pytest.mark.parametrize("override, old, new", [
        (["--n-c", "1e300"], "", ""),
        ([], "g0_over_2pi_hz = 750e3", "g0_over_2pi_hz = 1e200"),
    ])
    def test_overflowing_coupling_exit_1(self, config_path, tmp_path, capsys, override, old, new):
        # g^2 = g0^2 n_c overflows a float: a config problem, not a traceback
        cfg = tmp_path / "big.ini"
        cfg.write_text(config_path.read_text().replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), *override]) == 1
        err = capsys.readouterr().err
        assert "system: g = g0 sqrt(n_c)" in err and "overflows" in err
        assert not (out / "spectrum.csv").exists()

    def test_overflowing_measurement_rate_exit_1(self, config_path, tmp_path, capsys):
        # g^2 fits a float but gamma_meas = 4 g^2/kappa does not
        cfg = tmp_path / "big.ini"
        cfg.write_text(
            config_path.read_text().replace("g0_over_2pi_hz = 750e3", "g0_over_2pi_hz = 5e151"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "system: g = g0 sqrt(n_c)" in err and "4 g^2/kappa overflows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_oracle_draw_exit_2(self, config_path, tmp_path, capsys):
        # the configured coupling fits a float, but a draw at up to 10**1.5 n_c does not;
        # at zero detuning there is no optical spring, so the configured point is stable
        cfg = tmp_path / "big.ini"
        cfg.write_text(
            config_path.read_text()
            .replace("g0_over_2pi_hz = 750e3", "g0_over_2pi_hz = 2.5e151")
            .replace("delta_over_kappa = 0.044", "delta_over_kappa = 0"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "oracle draw" in err and "overflows" in err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.ini"]
        # replay the seeded draws: the message names the first whose gamma_meas overflows
        loaded = load_config(cfg)
        params, rng = loaded.system, np.random.default_rng(loaded.seed)
        for i in range(1000):
            rng.uniform(-1.5, 1.5), rng.choice((-1.0, 1.0))
            n_c = params.drive.n_c * 10 ** rng.uniform(-1.5, 1.5)
            rng.uniform(5.5, 7.6), rng.uniform(-np.pi, np.pi)
            g = params.mech.g0 * float(np.sqrt(n_c))
            if 4.0 * g * g / params.optical.kappa == np.inf:
                break
        assert f"oracle draw {i} (n_c = {n_c:.6g}):" in err

    def test_overflowing_lump_coupling_exit_1(self, config_path, tmp_path, capsys):
        # the lumped mode's coupling is rejected while the config loads, as the main one is
        cfg = tmp_path / "big.ini"
        cfg.write_text(
            config_path.read_text().replace("lump_g0_over_2pi_hz = 100e3", "lump_g0_over_2pi_hz = 1e300"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lump_lines = [line for line in err.splitlines() if "noise.lump:" in line]
        assert len(lump_lines) == 1 and "4 g^2/kappa overflows" in lump_lines[0]
        assert not out.exists()
        # a bad bath in the same file is reported beside it, not instead of it
        cfg.write_text(cfg.read_text(encoding="utf-8").replace("t_b0_k = 16", "t_b0_k = -1"), encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "noise.bath: t_b0 must be positive" in err and "noise.lump:" in err

    # kappa/2pi = 1e154 Hz: (kappa/2)**2 raised OverflowError in the phase-noise
    # flux and, without laser noise, in synth's photon-number law; 1e153 Hz: the
    # flux product went to inf and the phase-noise PSD to nan
    @pytest.mark.parametrize("kappa_hz, command, laser, problem", [
        ("1e154", "spectrum", True, "system: kappa = 6.28319e+154 rad/s is too large: its square overflows"),
        ("1e154", "synth", False, "system: kappa = 6.28319e+154 rad/s is too large: its square overflows"),
        ("1e153", "spectrum", True, "noise.laser: the phase-noise scale"),
    ])
    def test_overflowing_cavity_rates_exit_1(self, config_path, tmp_path, capsys, kappa_hz, command, laser, problem):
        text = config_path.read_text().replace("kappa_over_2pi_hz = 3.42e9", f"kappa_over_2pi_hz = {kappa_hz}")
        if not laser:
            text = text.replace("s_omega_omega_rad2_hz = 6e3", "s_omega_omega_rad2_hz = 0")
        cfg = tmp_path / "wide.ini"
        cfg.write_text(text.replace("rbw_hz = 300e3", "rbw_hz = 1e12"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        problems = [line for line in err.splitlines() if line.startswith("  - ")]
        assert len(problems) == 1 and problem in problems[0] and "overflows" in problems[0]
        assert not out.exists()

    def test_underflowing_cavity_rate_exit_1(self, config_path, tmp_path, capsys):
        # kappa/2pi = 5e-324 Hz with a coupling small enough for a finite gamma_meas:
        # the cavity half-width in Hz underflowed to zero, and the frequency rule's
        # np.arange raised "cannot compute length"
        cfg = tmp_path / "narrow.ini"
        cfg.write_text(
            config_path.read_text()
            .replace("kappa_over_2pi_hz = 3.42e9", "kappa_over_2pi_hz = 5e-324")
            .replace("g0_over_2pi_hz = 750e3", "g0_over_2pi_hz = 1e-154")
            .replace("lump_g0_over_2pi_hz = 100e3", "lump_g0_over_2pi_hz = 0"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["densitymap", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        problems = [line for line in err.splitlines() if line.startswith("  - ")]
        assert problems == ["  - system: kappa = 2.96439e-323 rad/s is too small: its square underflows to zero"]
        assert not out.exists()

    # a lumped line far narrower than its distance from the span's ends: the
    # arcsinh argument of the frequency rule overflowed to -inf, and its
    # np.arange raised "Maximum allowed size exceeded"
    @pytest.mark.parametrize("command", ["spectrum", "densitymap"])
    @pytest.mark.parametrize("old, new", [
        ("lump_q = 100", "lump_q = 1e308"),
        ("lump_omega_over_2pi_hz = 50e6", "lump_omega_over_2pi_hz = 1e-300"),
    ], ids=["lump_q", "lump_omega"])
    def test_unresolvable_line_exit_1(self, config_path, tmp_path, capsys, command, old, new):
        cfg = tmp_path / "line.ini"
        cfg.write_text(config_path.read_text().replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "config invalid:" and len(err.splitlines()) == 2
        assert err.splitlines()[1].startswith("  - grid.rbw_hz = 300000.0: the frequency rule would need inf nodes")
        assert not out.exists()

    # a noise coefficient so large that the model PSD overflows: each ended in a
    # ValueError traceback from SpectrumTrace, assemble_density_map or SqueezingMap.
    # The bath keys are named only when the output is finite at zero bath occupation:
    # gamma_i = 1e300 and omega_m0 = 5e-324 named them too, with a finite bath occupation
    @pytest.mark.parametrize("changes, command, problem", [
        ({"c0_k_per_photon = 3.2e-4": "c0_k_per_photon = 1e300"}, "spectrum",
         "noise.t_b0_k, noise.c0_k_per_photon: the s_thermal component"),
        ({"c0_k_per_photon = 3.2e-4": "c0_k_per_photon = 1e300"}, "densitymap",
         "noise.t_b0_k, noise.c0_k_per_photon: the s_thermal component"),
        ({"c0_k_per_photon = 3.2e-4": "c0_k_per_photon = 1e300"}, "quasistatic",
         "noise.t_b0_k, noise.c0_k_per_photon: the quasi-static thermal term overflows"),
        ({"lump_q = 100": "lump_q = 1e-300"}, "spectrum",
         "noise.lump: the damping omega_lump / q_lump overflows a float (q_lump = 1e-300)"),
        ({"absorptive_amp_per_photon = 1.5e-4": "absorptive_amp_per_photon = 1e300"}, "densitymap",
         "noise.absorptive_amp_per_photon: the s_absorptive component"),
        ({"gamma_i_over_2pi_hz = 172": "gamma_i_over_2pi_hz = 1e300"}, "spectrum",
         "[system]: the s_thermal component"),
        ({"gamma_i_over_2pi_hz = 172": "gamma_i_over_2pi_hz = 1e300"}, "densitymap",
         "[system]: the s_thermal component"),
        ({"omega_m0_over_2pi_hz = 28e6": "omega_m0_over_2pi_hz = 5e-324",
          "delta_over_kappa = 0.044": "delta_over_kappa = 5e-324"}, "quasistatic",
         "[system]: the quasi-static thermal term overflows"),
    ], ids=["c0-spectrum", "c0-densitymap", "c0-quasistatic", "lump_q-spectrum", "absorptive-densitymap",
            "gamma_i-spectrum", "gamma_i-densitymap", "omega_m0-quasistatic"])
    def test_overflowing_noise_exit_1(self, config_path, tmp_path, capsys, changes, command, problem):
        text = config_path.read_text()
        for old, new in changes.items():
            text = text.replace(old, new)
        cfg = tmp_path / "loud.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "config invalid:" and len(lines) == 2
        assert lines[1].startswith(f"  - {problem}")
        assert not (out / f"{command}.csv").exists()

    def test_negative_quasistatic_law_exit_1(self, config_path, tmp_path, capsys):
        # kappa/2pi = 1e-12 Hz is a stable point, but 4 gamma_meas/omega_m0 = 2.5e20
        # takes the first-order law 1 + 4 (gamma_meas/omega_m0) [...] far below zero,
        # and SpectrumTrace raised on the negative values
        cfg = tmp_path / "narrow.ini"
        cfg.write_text(
            config_path.read_text().replace("kappa_over_2pi_hz = 3.42e9", "kappa_over_2pi_hz = 1e-12"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["quasistatic", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        problems = [line for line in err.splitlines() if line.startswith("  - ")]
        assert problems == ["  - quasistatic: 4 gamma_meas/omega_m0 = 2.53929e+20: the quasi-static law goes negative"]
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.ini"]

    @pytest.mark.parametrize("command, sde", [
        ("spectrum", False), ("densitymap", False), ("quasistatic", False),
        ("oracle-check", True), ("oracle-check", False), ("synth", False),
    ], ids=["spectrum", "densitymap", "quasistatic", "oracle-check", "oracle-check-no-sde", "synth"])
    def test_negative_renormalized_frequency_exit_2(
        self, config_path, tmp_path, capsys, monkeypatch, command, sde
    ):
        # a finite coupling whose optical spring drives omega_m far below zero
        def no_draws(*args, **kwargs):
            raise AssertionError("the oracle draws ran")

        monkeypatch.setattr(cli, "matrix_solve_spectrum", no_draws)
        if sde:
            cfg = small_sde_config(tmp_path, duration=1.2e-3, dt=1.5e-9)
            old = "g0_over_2pi_hz = 1e3"
        else:
            cfg, old = config_path, "g0_over_2pi_hz = 750e3"
        cfg.write_text(cfg.read_text().replace(old, "g0_over_2pi_hz = 1e150"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "omega_m/2pi" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.ini"]

    @pytest.mark.parametrize("command", ["spectrum", "densitymap", "quasistatic"])
    def test_empty_grid_exit_1(self, config_path, tmp_path, capsys, command):
        text = config_path.read_text().replace("out_n_points = 501", "out_n_points = 0")
        cfg = tmp_path / "empty.ini"
        cfg.write_text(text.replace("n_theta_lock = 61", "n_theta_lock = 0"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid.out_n_points" in err and "grid.n_theta_lock" in err
        assert not (out / f"{command}.csv").exists()

    def test_too_narrow_rbw_exit_1(self, config_path, tmp_path, capsys):
        # 300 Hz over the default 40 MHz span asks for 6.3e5 quadrature nodes
        cfg = tmp_path / "narrow.ini"
        cfg.write_text(
            config_path.read_text().replace("rbw_hz = 300e3", "rbw_hz = 300"), encoding="utf-8"
        )
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        problems = [line for line in capsys.readouterr().err.splitlines() if "  - " in line]
        assert len(problems) == 1 and "grid.rbw_hz" in problems[0]
        assert not (out / "spectrum.csv").exists()

    def test_usage_error_exit_2_on_every_call(self, config_path, tmp_path, capsys):
        # the parser is built once per process and reused
        common = ["--config", str(config_path), "--out", str(tmp_path / "o")]
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["bogus", *common])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        assert main(["quasistatic", *common, "--theta-lock", "0.2"]) == 0
        assert cli._parser() is cli._parser()

    def test_fit_without_data_exit_1(self, config_path, tmp_path, capsys):
        for command in ("thermometry-fit", "infer-detuning"):
            rc = main([command, "--config", str(config_path), "--out", str(tmp_path / "o")])
            assert rc == 1
            assert capsys.readouterr().err.splitlines()[1] == f"  - {command} requires --data"

    # a step below the float spacing at 80 kHz makes all 501 output frequencies
    # one float: spectrum and quasistatic raised from SpectrumTrace, and
    # densitymap wrote a map whose columns all had one frequency
    @pytest.mark.parametrize("command", ["spectrum", "densitymap", "quasistatic"])
    @pytest.mark.parametrize("step", ["1e-154", "3e-308"])
    def test_degenerate_output_grid_exit_1(self, config_path, tmp_path, capsys, command, step):
        cfg = tmp_path / "flat.ini"
        cfg.write_text(
            config_path.read_text().replace("out_f_step_hz = 80e3", f"out_f_step_hz = {step}"), encoding="utf-8"
        )
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "config invalid:",
            f"  - grid.out_f_step_hz = {float(step)!r}: the output frequencies from 80000.0 Hz "
            "are not strictly increasing in float64",
        ]
        assert not out.exists()

    def test_nonfinite_oracle_draw_exit_2(self, config_path, tmp_path, capsys):
        # kappa_e gamma_i overflows in the closed form: every relative error was
        # nan, which passed the 1e-9 gate, and oracle_check.csv held 1001 nan cells
        cfg = tmp_path / "loud.ini"
        cfg.write_text(
            config_path.read_text().replace("gamma_i_over_2pi_hz = 172", "gamma_i_over_2pi_hz = 1e300"),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "numerical failure: oracle draw 0 (n_c = 6162.03): the closed form or the matrix solve is not finite"
        ]
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.ini"]

    # e^(2i theta) was nan: densitymap raised from SqueezingMap, and spectrum
    # exited 1 blaming the bath keys for the nan PSD
    @pytest.mark.parametrize("command, key, old", [
        ("densitymap", "grid.theta_lock_min_rad", "theta_lock_min_rad = -1.5707963267948966"),
        ("spectrum", "run.theta_lock_rad", "theta_lock_rad = 0.0"),
    ])
    def test_overflowing_lock_angle_exit_1(self, config_path, tmp_path, capsys, command, key, old):
        cfg = tmp_path / "turned.ini"
        cfg.write_text(config_path.read_text().replace(old, f"{old.split(' = ')[0]} = 1e308"), encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config invalid:", f"  - {key} = 1e+308: twice the angle overflows a float"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "oracle-check"])
    def test_negative_seed_exit_1(self, config_path, tmp_path, capsys, command):
        # numpy seeds only from non-negative integers: both raised from default_rng
        out = tmp_path / "o"
        assert main([command, "--config", str(config_path), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["config invalid:", "  - run.seed must be non-negative (got -1)"]
        assert not out.exists()

    @pytest.mark.parametrize("area, residual_norm", [("1e300", "inf"), ("-1e300", "1.001e+00")])
    def test_nonfinite_fit_exit_2(self, config_path, tmp_path, capsys, area, residual_norm):
        # one area of 1e300 among the synthetic ones: J^T J overflowed, and the
        # fit wrote nan error bars (and an inf residual norm) with exit 0
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        data = tmp_path / "loud.csv"
        lines = (out / "thermometry.csv").read_text().splitlines()
        first = lines[1].split(",")
        data.write_text("\n".join([lines[0], ",".join([*first[:3], area]), *lines[2:]]) + "\n", encoding="utf-8")
        assert main(["thermometry-fit", "--config", str(config_path), "--out", str(out), "--data", str(data)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: fit result is not finite (singular or overflowing J^T J or residual): "
            f"residual_norm={residual_norm}"
        ]
        assert not (out / "thermometry_fit.csv").exists()

    # numpy warned four times (overflow, invalid) on the squares of the three angles
    # around the area minimum before the one-line error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lock_angles_exit_2_one_line(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "locksweep.csv")
        k = int(np.argmin([float(area) for _, area in rows]))
        for row, theta in zip(rows[k - 1 : k + 2], ("1e154", "2e154", "3e154")):
            row[0] = theta
        rows.append(["4e154", rows[0][1]])  # keeps the minimum interior
        data = tmp_path / "far.csv"
        data.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["infer-detuning", "--config", str(config_path), "--out", str(out), "--data", str(data)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (out / "detuning_fit.csv").exists()

    # each wrote inf in every area_sn_hz cell of thermometry.csv and locksweep.csv, and exited 0
    @pytest.mark.parametrize("changes, problem", [
        ({"c0_k_per_photon = 3.2e-4": "c0_k_per_photon = 1e300"},
         "noise.t_b0_k, noise.c0_k_per_photon: the synthetic data overflow a float (n_b = 5.8789e+305)"),
        ({"gamma_i_over_2pi_hz = 172": "gamma_i_over_2pi_hz = 1e300"},
         "[system]: the synthetic data overflow a float (n_b = 12094.8)"),
        ({"omega_m0_over_2pi_hz = 28e6": "omega_m0_over_2pi_hz = 5e-324",
          "delta_over_kappa = 0.044": "delta_over_kappa = 5e-324"},
         "noise.t_b0_k, noise.c0_k_per_photon: the bath occupation at omega_m0 overflows a float"),
    ], ids=["c0", "gamma_i", "omega_m0"])
    def test_overflowing_synthetic_data_exit_1(self, config_path, tmp_path, capsys, changes, problem):
        text = config_path.read_text()
        for old, new in changes.items():
            text = text.replace(old, new)
        cfg = tmp_path / "loud.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["config invalid:", f"  - {problem}"]
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.ini"]

    @pytest.mark.parametrize("old, new, problem", [
        ("n_c = 790", "n_c 790", "line 9: 'n_c 790' is neither '[section]' nor 'key = value'"),
        ("n_c = 790", "= 790", "line 9: empty key in '= 790'"),
        ("[system]", "seed = 1\n[system]", "line 1: key 'seed' before any [section]"),
        ("[run]", "[grid]\n[run]", "line 35: duplicate section [grid]"),
        ("n_c = 790", "n_c = 790\nN_C: 791", "line 10: duplicate key system.n_c"),
    ], ids=["no-delimiter", "empty-key", "key-before-section", "duplicate-section", "duplicate-key"])
    def test_malformed_config_line_exit_1(self, tmp_path, capsys, old, new, problem):
        bad = tmp_path / "bad.ini"
        bad.write_text(default_config_text().replace(old, new, 1), encoding="utf-8")
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == ["config invalid:", f"  - parse error: {problem}"]

    @pytest.mark.parametrize("old, new, problem", [
        ("[run]", "[run] ; acquisition", "parse error: line 35: '[run] ; acquisition' is not a [section] header"),
        ("[run]", "[DEFAULT]\n[run]", "unknown section [DEFAULT]"),
        ("n_c = 790", "n_c = 7\n  90", "parse error: line 10: indented line '90': "
                                          "every key starts its line and every value fits on it"),
        ("seed = 12345", "  seed = 12345", "parse error: line 36: indented line 'seed = 12345': "
                                             "every key starts its line and every value fits on it"),
    ], ids=["text-after-header", "default-section", "continuation-line", "indented-key"])
    def test_narrowed_config_grammar_exit_1(self, tmp_path, capsys, old, new, problem):
        """Lines that configparser read but the config reader does not accept."""
        text = default_config_text().replace(old, new, 1)
        configparser_sections(text)  # no error
        bad = tmp_path / "narrowed.ini"
        bad.write_text(text, encoding="utf-8")
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == ["config invalid:", f"  - {problem}"]

    FITS = ("thermometry-fit", "infer-detuning")
    CSV_CORPUS = {  # name: (the file from the good file's lines, exit code of each of FITS)
        "header only": (lambda lines: lines[0] + "\n", 3, 2),
        "zero bytes": (lambda lines: "", 3, 3),
        "ragged short row": (lambda lines: "\n".join([*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]]), 3, 3),
        "ragged long row": (lambda lines: "\n".join([*lines[:2], lines[2] + ",1", *lines[3:]]), 3, 3),
        "text cell": (lambda lines: "\n".join([*lines[:2], "x" + lines[2][lines[2].index(","):], *lines[3:]]), 3, 3),
        "empty cell": (lambda lines: "\n".join([*lines[:2], lines[2][lines[2].index(","):], *lines[3:]]), 3, 3),
        "nan cell": (lambda lines: "\n".join([*lines[:2], "nan" + lines[2][lines[2].index(","):], *lines[3:]]), 3, 3),
        "quoted header": (lambda lines: "\n".join([",".join(f'"{n}"' for n in lines[0].split(",")), *lines[1:]]), 0, 0),
        "CRLF": (lambda lines: "\r\n".join(lines) + "\r\n", 0, 0),
        "trailing blank lines": (lambda lines: "\n".join(lines) + "\n\n  \n\n", 0, 0),
        "# line": (lambda lines: "\n".join([*lines[:2], "# a note", *lines[2:]]), 0, 0),
        "# header": (lambda lines: "\n".join(["# " + lines[0], *lines[1:]]), 0, 0),
        "leading blank line": (lambda lines: "\n" + "\n".join(lines), 0, 0),
        "reordered columns": (lambda lines: "\n".join(",".join(line.split(",")[::-1]) for line in lines), 0, 0),
        "extra columns": (lambda lines: "\n".join(line + (",extra" if i == 0 else ",7") for i, line in enumerate(lines)), 0, 0),
    }

    @pytest.mark.parametrize("command", FITS)
    @pytest.mark.parametrize("case", sorted(CSV_CORPUS))
    def test_data_csv_corpus(self, tmp_path, capsys, command, case):
        """Each file exits as it did under numpy's genfromtxt; a failure prints one line that
        names the file once (exit 3) or not at all (exit 2), and an exit 0 writes what the
        plain file gives."""
        make, *codes = self.CSV_CORPUS[case]
        code = codes[self.FITS.index(command)]
        cfg = tmp_path / "default.ini"
        cfg.write_text(default_config_text(), encoding="utf-8")
        lines = [",".join(row) for row in [DATA_COLUMNS[command], *synthetic_rows()[command]]]
        outputs = []
        for name, text in (("plain.csv", "\n".join(lines) + "\n"), ("case.csv", make(lines))):
            data = tmp_path / name
            data.write_bytes(text.encode())
            out = tmp_path / name.removesuffix(".csv")
            rc = main([command, "--config", str(cfg), "--out", str(out), "--data", str(data)])
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        err = capsys.readouterr().err
        assert rc == code, err
        if code:
            assert len(err.splitlines()) == 1 and err.count(str(data)) == (code == 3), err
            assert "TextIOWrapper" not in err
        else:
            assert err == "" and outputs[0] == outputs[1]

    def test_byte_order_mark_is_skipped(self, config_path, tmp_path):
        """A config and a data CSV that start with a UTF-8 byte-order mark give the
        bytes that the same files without one give."""
        bom_cfg = tmp_path / "bom.ini"
        bom_cfg.write_bytes(codecs.BOM_UTF8 + config_path.read_bytes())
        runs = {}
        for label, cfg in (("plain", config_path), ("bom", bom_cfg)):
            out = tmp_path / label
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
            for command, name in TestColdStart.FIT_DATA.items():
                data = out / name
                if label == "bom":
                    data = tmp_path / f"bom-{name}"
                    data.write_bytes(codecs.BOM_UTF8 + (out / name).read_bytes())
                assert main([command, "--config", str(cfg), "--out", str(out), "--data", str(data)]) == 0
            runs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(runs["bom"]) == sorted(runs["plain"]) and runs["bom"] == runs["plain"]


EXTREMES = ["1e-300", "5e-324", "1e-154", "1e154", "1e300", "1e308", "-1e300", "0", "-1"]


def shipped_config():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config_text())
    return parser


NUMERIC_KEYS = [(section, key) for section, values in shipped_config().items() for key in values]  # all are numbers
CONFIG_COMMANDS = ["spectrum", "densitymap", "quasistatic", "synth", "oracle-check"]
DATA_COLUMNS = {
    "thermometry-fit": ("delta_hz", "eff_freq_hz", "eff_linewidth_hz", "area_sn_hz"),
    "infer-detuning": ("theta_lock_rad", "area_sn_hz"),
}


def nonfinite_cells(out):
    """``(file, row, column)`` of every written CSV cell that reads as inf or nan."""
    bad = []
    for path in sorted(out.glob("*.csv")):
        for r, row in enumerate(read_csv(path)[1]):
            bad += [(path.name, r, c) for c, cell in enumerate(row) if cell in ("inf", "-inf", "nan")]
    return bad


def run_extreme_config(command, changes):
    """Run ``command`` on the shipped config with ``changes`` ({(section, key): text})
    set; the exit code must be 0-3, and an exit 0 must leave every cell finite."""
    parser = shipped_config()
    for (section, key), value in changes.items():
        parser[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "extreme.ini", Path(tmp) / "o"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        if rc == 0:
            assert nonfinite_cells(out) == []


@functools.cache
def synthetic_rows():
    """The rows of the ``synth`` CSVs of the shipped config, by fit command, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "default.ini", Path(tmp) / "o"
        cfg.write_text(default_config_text(), encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        return {
            "thermometry-fit": read_csv(out / "thermometry.csv")[1],
            "infer-detuning": read_csv(out / "locksweep.csv")[1],
        }


def run_extreme_data(command, keep, repeat, edits):
    """Run a fit command on the first ``keep`` synthetic rows, the first ``repeat``
    of them appended again, with ``edits`` ([(row, column, text)]) applied
    modulo the table's size; the exit code must be 0-3, and an exit 0 must
    leave every cell finite."""
    rows = [list(r) for r in synthetic_rows()[command][:keep]]
    rows += [list(r) for r in rows[:repeat]]
    for r, c, text in edits if rows else ():
        rows[r % len(rows)][c % len(rows[0])] = text
    with tempfile.TemporaryDirectory() as tmp:
        cfg, data = Path(tmp) / "default.ini", Path(tmp) / "data.csv"
        cfg.write_text(default_config_text(), encoding="utf-8")
        data.write_text("\n".join(",".join(r) for r in [DATA_COLUMNS[command], *rows]) + "\n", encoding="utf-8")
        rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o"), "--data", str(data)])
        assert rc in (0, 1, 2, 3)
        if rc == 0:
            assert nonfinite_cells(Path(tmp) / "o") == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNoTraceback:
    """Extreme numbers in the config or in the fits' data end in a clean exit 0-3 with
    no numpy warning, and what an exit 0 writes is finite."""

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(CONFIG_COMMANDS),
        changes=st.dictionaries(st.sampled_from(NUMERIC_KEYS), st.sampled_from(EXTREMES), min_size=1, max_size=3),
    )
    @example(command="spectrum", changes={("grid", "out_f_step_hz"): "1e-154"})
    @example(command="densitymap", changes={("grid", "out_f_step_hz"): "3e-308"})
    @example(command="quasistatic", changes={("grid", "out_f_step_hz"): "1e-154"})
    @example(command="synth", changes={("noise", "c0_k_per_photon"): "1e300"})
    @example(command="synth", changes={("system", "gamma_i_over_2pi_hz"): "1e300"})
    @example(command="synth", changes={
        ("system", "omega_m0_over_2pi_hz"): "5e-324", ("system", "delta_over_kappa"): "5e-324",
    })
    # the phase-noise scale n_c (delta^2 + kappa^2/4) / kappa_e overflows as a Python
    # float: exit 1 under noise.laser
    @example(command="spectrum", changes={
        ("system", "kappa_over_2pi_hz"): "1e149", ("system", "delta_over_kappa"): "1e10",
    })
    def test_extreme_config_values(self, command, changes):
        run_extreme_config(command, changes)

    @settings(max_examples=40, deadline=None)
    @given(
        command=st.sampled_from(sorted(DATA_COLUMNS)),
        keep=st.integers(0, 41),
        repeat=st.integers(0, 3),
        edits=st.lists(st.tuples(
            st.integers(0, 40), st.integers(0, 3),
            st.sampled_from([*EXTREMES, "inf", "-inf", "nan", "", "x"]),
        ), max_size=3),
    )
    @example(command="thermometry-fit", keep=13, repeat=0, edits=[(0, 3, "1e300")])
    def test_extreme_data(self, command, keep, repeat, edits):
        run_extreme_data(command, keep, repeat, edits)


class TestColdStart:
    """No module of the package imports scipy or configparser, so no command
    loads either, an oracle-check that writes an SDE trace included."""

    SCRIPT = (
        "import json, sys\n"
        "import omsqueeze, omsqueeze.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert omsqueeze.cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('scipy', 'configparser')))))\n"
    )

    @classmethod
    def unwanted_modules_after(cls, *calls):
        """The ``scipy*`` and ``configparser`` modules loaded by a fresh interpreter
        that imports omsqueeze and runs each of ``calls`` through ``cli.main``."""
        import json
        import os
        import subprocess
        import sys

        import omsqueeze

        src = str(Path(omsqueeze.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT, json.dumps([list(c) for c in calls])],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_import_loads_no_scipy(self):
        assert self.unwanted_modules_after() == set()

    FIT_DATA = {"thermometry-fit": "thermometry.csv", "infer-detuning": "locksweep.csv"}

    @pytest.mark.parametrize("command", [
        "spectrum", "densitymap", "quasistatic", "synth", "oracle-check",
        "thermometry-fit", "infer-detuning",
    ])
    def test_numpy_only_commands_load_no_scipy(self, command, config_path, tmp_path):
        out = tmp_path / "o"
        common = ["--config", str(config_path), "--out", str(out)]
        argv = [command, *common]
        if command in self.FIT_DATA:
            assert main(["synth", *common, "--n-c", "50"]) == 0
            argv += ["--n-c", "50", "--data", str(out / self.FIT_DATA[command])]
        assert self.unwanted_modules_after(argv) == set()

    def test_sde_trace_loads_no_scipy(self, tmp_path):
        cfg = small_sde_config(tmp_path, duration=1.2e-3, dt=1.5e-9)
        out = tmp_path / "o"
        assert self.unwanted_modules_after(["oracle-check", "--config", str(cfg), "--out", str(out)]) == set()
        assert (out / "sde_trace.csv").exists()


class TestBenchmarkContract:
    """The benchmark's tracer (``benchmarks/tracer.py``) wraps every public
    function from outside and its hooks read names of the package:
    ``FitResult.method``, the ``SystemParams.build`` classmethod and the SDE
    trace's ``meta``.  Every command must still run under it."""

    @staticmethod
    def tracer():
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.Tracer()

    def test_every_command_exits_0_traced(self, config_path, tmp_path):
        out = tmp_path / "o"
        common = ["--config", str(config_path), "--out", str(out)]
        sde = small_sde_config(tmp_path, duration=1.2e-3, dt=1.5e-9)
        calls = [
            ["synth", *common],
            ["thermometry-fit", *common, "--data", str(out / "thermometry.csv")],
            ["infer-detuning", *common, "--data", str(out / "locksweep.csv")],
            ["spectrum", *common],
            ["densitymap", *common],
            ["quasistatic", *common],
            ["oracle-check", "--config", str(sde), "--out", str(tmp_path / "sde")],
        ]
        tracer = self.tracer()
        tracer.install()
        try:
            codes = {argv[0]: main(argv) for argv in calls}
        finally:
            tracer.remove()
        assert codes == {argv[0]: 0 for argv in calls}
        calls_by_name = tracer.totals()[0]
        assert calls_by_name["estimate.fit_thermometry"] == 1
        assert calls_by_name["core.SystemParams.build"] > 0
        assert tracer.counters["oracle.sde_time_domain_psd.samples"] > 0


def config_variant(tmp_path, n_c, delta_over_kappa):
    text = default_config_text().replace("n_c = 790", f"n_c = {n_c}").replace(
        "delta_over_kappa = 0.044", f"delta_over_kappa = {delta_over_kappa}"
    )
    path = tmp_path / f"cfg-{n_c}-{delta_over_kappa}.ini"
    path.write_text(text, encoding="utf-8")
    return path


def written_values(out, command):
    """The numbers of a written spectrum.csv or densitymap.csv, as an array."""
    return np.loadtxt(out / f"{command}.csv", delimiter=",", skiprows=1)


class TestFrequencyRule:
    """The quadrature rule behind ``spectrum`` and ``densitymap``, end to end."""

    @pytest.mark.parametrize(
        "n_c, delta_over_kappa", [(790, 0.044), (300, 0.02), (1500, 0.08)]
    )
    def test_node_count_is_exact(self, tmp_path, n_c, delta_over_kappa):
        # the count the config caps is the rule's own: n intervals, n + 1 nodes
        cfg = load_config(config_variant(tmp_path, n_c, delta_over_kappa))
        grid, scenario = cfg.grid, cfg.scenario
        out_freqs = grid.out_freqs()
        nodes, _ = instrument.quadrature_rule(scenario, out_freqs, grid.rbw_hz)
        count = instrument.rule_node_count(scenario, out_freqs.max(), grid.rbw_hz)
        assert count == len(nodes) - 1

    @pytest.mark.parametrize(
        "n_c, delta_over_kappa", [(790, 0.044), (300, 0.02), (300, 0.08), (1500, 0.02), (1500, 0.08)]
    )
    def test_written_bins_converged(self, tmp_path, monkeypatch, n_c, delta_over_kappa):
        # every written bin, the 80 kHz one included, against the same rule with
        # every point density four times higher
        cfg = config_variant(tmp_path, n_c, delta_over_kappa)
        outs = []
        for refine in (1, 4):
            for name in ("H_COARSE", "H_LINE", "H_LOG"):
                monkeypatch.setattr(instrument, name, getattr(instrument, name) / refine)
            out = tmp_path / f"refine-{refine}"
            for command in ("spectrum", "densitymap"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
            monkeypatch.undo()
        for command in ("spectrum", "densitymap"):
            coarse, fine = (written_values(out, command) for out in outs)
            np.testing.assert_allclose(coarse, fine, rtol=1e-7, atol=0, err_msg=command)

    def test_map_matches_uniform_reference(self, config_path, tmp_path):
        # an independent reference: the model on a uniform 50 Hz grid (827k
        # points), shaped by a +-10 sigma Gaussian, for every bin whose kernel
        # stays above f_min
        out = tmp_path / "o"
        assert main(["densitymap", "--config", str(config_path), "--out", str(out)]) == 0
        cfg = load_config(config_path)
        grid, scenario = cfg.grid, cfg.scenario
        sigma = grid.rbw_hz * instrument.FWHM_TO_SIGMA
        out_freqs = grid.out_freqs()
        step = 50.0
        freqs = step * np.arange(1, int((out_freqs[-1] + 10 * sigma) / step) + 2)
        abc = np.concatenate(
            [np.array(instrument.total_harmonics(TWO_PI * f, scenario))
             for f in np.array_split(freqs, 8)],
            axis=1,
        )
        half = int(np.ceil(10 * sigma / step))
        kernel = np.exp(-0.5 * (step * np.arange(-half, half + 1) / sigma) ** 2)
        kernel /= kernel.sum()
        keep = out_freqs >= instrument.F_MIN_HZ + 10 * sigma
        centre = np.rint(out_freqs[keep] / step).astype(int) - 1
        assert np.array_equal(freqs[centre], out_freqs[keep])
        shaped = np.array([abc[:, c - half : c + half + 1] @ kernel for c in centre]).T
        optical, delta = scenario.system.optical, scenario.system.drive.delta
        theta = instrument.lock_to_quadrature(grid.theta_locks(), optical, delta)
        two_theta = 2 * theta[:, np.newaxis]
        eta = scenario.eta_tot
        ref = eta * (shaped[0] + np.cos(two_theta) * shaped[1] + np.sin(two_theta) * shaped[2]) + 1 - eta
        written = written_values(out, "densitymap")[:, 2].reshape(len(theta), -1)[:, keep]
        np.testing.assert_allclose(written, ref, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("row", [0, 30, 47])
    def test_map_row_equals_spectrum(self, config_path, tmp_path, row):
        # the densitymap row at a lock angle is the spectrum taken at that angle,
        # within one unit in the 9th significant digit
        out = tmp_path / "o"
        assert main(["densitymap", "--config", str(config_path), "--out", str(out)]) == 0
        theta = load_config(config_path).grid.theta_locks()[row]
        assert main([
            "spectrum", "--config", str(config_path), "--out", str(out),
            "--theta-lock", repr(float(theta)),
        ]) == 0
        values = written_values(out, "densitymap")[:, 2].reshape(-1, 501)[row]
        s_norm = written_values(out, "spectrum")[:, 1]
        np.testing.assert_allclose(values, s_norm, rtol=2e-8, atol=0)
