"""Sectioned key-value configuration for reproducible runs.

Keys carry explicit units in their names (``*_over_2pi_hz`` for rates
given as ordinary frequencies, ``*_rad`` for angles); internally
everything is converted to angular frequencies.  Loading validates every
block against the domain invariants and reports *all* violations, not
just the first.  ``serialize_config`` produces a canonical form whose
load/serialize round trip is idempotent.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import MechanicalMode, OpticalMode, SystemParams, instability
from .instrument import F_MIN_HZ, MAX_MAP_CELLS, MAX_RULE_NODES, Scenario, rule_node_count
from .noise import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
)
from .oracle import plan_sde

__all__ = ["ConfigError", "GridSpec", "ScenarioConfig", "load_config", "serialize_config", "default_config_text"]

TWO_PI = 2 * math.pi

# section -> {key: (required, default)}
_SCHEMA = {
    "system": {
        "omega_o_over_2pi_hz": (False, 194.67e12),
        "kappa_over_2pi_hz": (True, None),
        "eta_kappa": (True, None),
        "omega_m0_over_2pi_hz": (True, None),
        "gamma_i_over_2pi_hz": (True, None),
        "g0_over_2pi_hz": (True, None),
        "delta_over_kappa": (True, None),
        "n_c": (True, None),
    },
    "noise": {
        "t_b0_k": (True, None),
        "c0_k_per_photon": (False, 0.0),
        "lump_omega_over_2pi_hz": (False, 0.0),
        "lump_q": (False, 100.0),
        "lump_g0_over_2pi_hz": (False, 0.0),
        "s_omega_omega_rad2_hz": (False, 0.0),
        "absorptive_amp_per_photon": (False, 0.0),
    },
    "detection": {
        "eta_cp": (True, None),
        "eta_23": (True, None),
        "eta_3h": (True, None),
        "eta_hd": (True, None),
    },
    "grid": {
        "out_f_start_hz": (False, 80e3),
        "out_f_step_hz": (False, 80e3),
        "out_n_points": (False, 501),
        "rbw_hz": (False, 300e3),
        "theta_lock_min_rad": (False, -math.pi / 2),
        "theta_lock_max_rad": (False, math.pi / 2),
        "n_theta_lock": (False, 61),
    },
    "run": {
        "seed": (False, 12345),
        "theta_lock_rad": (False, 0.0),
        "sde_duration_s": (False, 0.0),
        "sde_dt_s": (False, 0.0),
    },
}

_INT_KEYS = {"out_n_points", "n_theta_lock", "seed"}


class ConfigError(ValueError):
    """Carries the full list of violations found while loading."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("config invalid:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class GridSpec:
    out_f_start_hz: float
    out_f_step_hz: float
    out_n_points: int
    rbw_hz: float
    theta_lock_min_rad: float
    theta_lock_max_rad: float
    n_theta_lock: int

    def out_freqs(self):
        return self.out_f_start_hz + self.out_f_step_hz * np.arange(self.out_n_points)

    def theta_locks(self):
        return np.linspace(self.theta_lock_min_rad, self.theta_lock_max_rad, self.n_theta_lock)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    grid: GridSpec
    seed: int
    theta_lock_rad: float
    sde_duration_s: float
    sde_dt_s: float
    raw: dict

    @property
    def system(self) -> SystemParams:
        return self.scenario.system


def _parse_sections(text):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _number(key, raw):
    """``raw`` as the key's int or float.  NaN and infinities are rejected, and
    so is any value of an integer key but an integer (``61.5``, ``1e3``, 2.5)."""
    integer = key in _INT_KEYS
    try:
        if integer:
            return int(str(raw))  # int(2.5) would truncate
        value = float(raw)
    except ValueError:
        raise ValueError("not an integer" if integer else "not a finite number") from None
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _collect_values(sections):
    problems = []
    values = {}
    for section in sections:
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
    for section, schema in _SCHEMA.items():
        got = sections.get(section, {})
        for key in got:
            if key not in schema:
                problems.append(f"unknown key {section}.{key}")
        out = {}
        for key, (required, default) in schema.items():
            if key in got:
                try:
                    out[key] = _number(key, got[key])
                except ValueError as exc:
                    problems.append(f"{section}.{key}: {exc} ({got[key]!r})")
            elif required:
                problems.append(f"missing required key {section}.{key}")
            else:
                out[key] = default
        values[section] = out
    return values, problems


def _build(values, problems):
    if problems:  # a missing or malformed key: nothing to build from
        raise ConfigError(problems)
    sys_v, noise_v, det_v, grid_v, run_v = (
        values["system"], values["noise"], values["detection"], values["grid"], values["run"]
    )
    system = None
    try:
        kappa = TWO_PI * sys_v["kappa_over_2pi_hz"]
        optical = OpticalMode(
            omega_o=TWO_PI * sys_v["omega_o_over_2pi_hz"],
            kappa=kappa,
            kappa_e=sys_v["eta_kappa"] * kappa,
        )
        mech = MechanicalMode(
            omega_m0=TWO_PI * sys_v["omega_m0_over_2pi_hz"],
            gamma_i=TWO_PI * sys_v["gamma_i_over_2pi_hz"],
            g0=TWO_PI * sys_v["g0_over_2pi_hz"],
        )
        system = SystemParams.build(
            optical, mech, delta=sys_v["delta_over_kappa"] * kappa, n_c=sys_v["n_c"]
        )
    except ValueError as exc:
        problems.append(f"system: {exc}")
    bath = lump = laser = absorptive = chain = None
    try:
        bath = BathModel(t_b0=noise_v["t_b0_k"], c0=noise_v["c0_k_per_photon"])
    except ValueError as exc:
        problems.append(f"noise.bath: {exc}")
    if noise_v["lump_g0_over_2pi_hz"] > 0:
        try:
            lump = ExtraModeNoise(
                omega_lump=TWO_PI * noise_v["lump_omega_over_2pi_hz"],
                q_lump=noise_v["lump_q"],
                g0_lump=TWO_PI * noise_v["lump_g0_over_2pi_hz"],
            )
            if system is not None:  # the lumped coupling must not overflow either
                lump.system(system)
        except ValueError as exc:
            problems.append(f"noise.lump: {exc}")
    if noise_v["s_omega_omega_rad2_hz"] > 0:
        laser = LaserNoiseModel(s_omega_omega=noise_v["s_omega_omega_rad2_hz"])
        try:
            if system is not None:  # the phase-noise scale must not overflow either
                laser.scale(system)
        except ValueError as exc:
            problems.append(f"noise.laser: {exc}")
    if noise_v["absorptive_amp_per_photon"] > 0:
        absorptive = AbsorptiveNoiseModel(amp_coeff=noise_v["absorptive_amp_per_photon"])
    try:
        chain = DetectionChain(**det_v)
    except ValueError as exc:
        problems.append(f"detection: {exc}")
    try:
        grid = GridSpec(**grid_v)
        if grid.out_f_start_hz <= 0 or grid.out_f_step_hz <= 0 or grid.rbw_hz <= 0:
            problems.append("grid: output grid and rbw must be positive")
        elif grid.out_f_start_hz <= F_MIN_HZ:
            problems.append(
                f"grid.out_f_start_hz must exceed the {F_MIN_HZ:g} Hz cutoff of the "
                f"frequency rule (got {grid.out_f_start_hz!r})"
            )
        else:
            out_max = grid.out_f_start_hz + grid.out_f_step_hz * max(grid.out_n_points - 1, 0)
            # a step below the float spacing at the start repeats frequencies; a
            # grid too long to hold is reported with the map's cells below
            if grid.out_n_points <= MAX_MAP_CELLS and not np.all(np.diff(grid.out_freqs()) > 0):
                problems.append(
                    f"grid.out_f_step_hz = {grid.out_f_step_hz!r}: the output frequencies from "
                    f"{grid.out_f_start_hz!r} Hz are not strictly increasing in float64"
                )
            # the rule is sized on a stable system: an unstable one is refused with exit 2
            if system is not None and not instability(system):
                nodes = rule_node_count(Scenario(system=system, lump=lump), out_max, grid.rbw_hz)
                if not nodes <= MAX_RULE_NODES:
                    problems.append(
                        f"grid.rbw_hz = {grid.rbw_hz!r}: the frequency rule would need {nodes:.3g} nodes "
                        f"(at most {MAX_RULE_NODES}) for the output span at this RBW and the lines it "
                        "resolves; widen the RBW, shorten the grid, or broaden a line too narrow to resolve"
                    )
        for key in ("out_n_points", "n_theta_lock"):
            if getattr(grid, key) < 1:
                problems.append(f"grid.{key} must be at least 1 (got {getattr(grid, key)!r})")
        if not grid.n_theta_lock * grid.out_n_points <= MAX_MAP_CELLS:
            problems.append(
                f"grid.n_theta_lock * grid.out_n_points = {grid.n_theta_lock * grid.out_n_points} map "
                f"cells is too many to hold (at most {MAX_MAP_CELLS}); shorten either"
            )
    except (TypeError, ValueError) as exc:
        problems.append(f"grid: {exc}")
    if run_v["seed"] < 0:  # numpy seeds only from non-negative integers
        problems.append(f"run.seed must be non-negative (got {run_v['seed']!r})")
    for name, angle in (("grid.theta_lock_min_rad", grid_v["theta_lock_min_rad"]),
                        ("grid.theta_lock_max_rad", grid_v["theta_lock_max_rad"]),
                        ("run.theta_lock_rad", run_v["theta_lock_rad"])):
        if not math.isfinite(2 * angle):  # every spectrum reads e^(2i theta)
            problems.append(f"{name} = {angle!r}: twice the angle overflows a float")
    sde = (run_v["sde_duration_s"], run_v["sde_dt_s"])  # both <= 0: no SDE trace
    try:  # a growing Euler step raises OracleError: exit 2, as an unstable system does
        if max(sde) > 0 and system is not None and not instability(system):
            plan_sde(system, *sde)
    except ValueError as exc:
        problems.append(f"run.sde_duration_s, run.sde_dt_s: {exc}")
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        scenario=Scenario(
            system=system, bath=bath, lump=lump, laser=laser, absorptive=absorptive, chain=chain,
        ),
        grid=grid,
        seed=run_v["seed"],
        theta_lock_rad=run_v["theta_lock_rad"],
        sde_duration_s=run_v["sde_duration_s"],
        sde_dt_s=run_v["sde_dt_s"],
        raw=values,
    )


def load_config_text(text, overrides=None) -> ScenarioConfig:
    sections = _parse_sections(text)
    values, problems = _collect_values(sections)
    for (section, key), val in (overrides or {}).items():
        if section in values and key in _SCHEMA.get(section, {}):
            try:
                values[section][key] = _number(key, val)
            except ValueError as exc:
                problems.append(f"override {section}.{key}: {exc} ({val!r})")
        else:
            problems.append(f"unknown override {section}.{key}")
    return _build(values, problems)


def load_config(path, overrides=None) -> ScenarioConfig:
    """Load and fully validate a config file; raises ConfigError listing every missing
    key, unknown key, and invariant violation found (OracleError: a growing SDE step)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    return load_config_text(text, overrides=overrides)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form: schema order, one key per line, each float as its
    shortest ``repr``, which reads back as the same float: loading the text
    reproduces the run."""
    buf = io.StringIO()
    for section, schema in _SCHEMA.items():
        buf.write(f"[{section}]\n")
        for key in schema:
            val = cfg.raw[section][key]
            buf.write(f"{key} = {int(val) if key in _INT_KEYS else repr(float(val))}\n")
        buf.write("\n")
    return buf.getvalue()


def default_config_text() -> str:
    """Shipped defaults: the device and acquisition settings of record."""
    return """\
[system]
omega_o_over_2pi_hz = 194.67e12
kappa_over_2pi_hz = 3.42e9
eta_kappa = 0.55
omega_m0_over_2pi_hz = 28e6
gamma_i_over_2pi_hz = 172
g0_over_2pi_hz = 750e3
delta_over_kappa = 0.044
n_c = 790

[noise]
t_b0_k = 16
c0_k_per_photon = 3.2e-4
lump_omega_over_2pi_hz = 50e6
lump_q = 100
lump_g0_over_2pi_hz = 100e3
s_omega_omega_rad2_hz = 6e3
absorptive_amp_per_photon = 1.5e-4

[detection]
eta_cp = 0.90
eta_23 = 0.88
eta_3h = 0.92
eta_hd = 0.66

[grid]
out_f_start_hz = 80e3
out_f_step_hz = 80e3
out_n_points = 501
rbw_hz = 300e3
theta_lock_min_rad = -1.5707963267948966
theta_lock_max_rad = 1.5707963267948966
n_theta_lock = 61

[run]
seed = 12345
theta_lock_rad = 0.0
"""
