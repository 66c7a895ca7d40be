"""Section-structured run configuration.

Plain INI text with a fixed schema: unknown sections or keys are rejected
with the offending name, every value is typed, and a fully resolved copy
(every key explicit, defaults filled in) is written next to each run's
outputs so any result can be regenerated from its directory alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .em import TrainConfig, ramp_fraction
from .errors import ConfigError
from .net import NetArch, StageSpec
from .projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall)
from .sgld import SgldParams
from .testbed import NoiseSpec

__all__ = [
    "SCHEMA",
    "RunConfig",
    "load_config",
    "write_resolved",
    "apply_seed_override",
    "build_arch",
    "build_stack",
    "build_stack_schedule",
    "build_noise_spec",
    "build_train_config",
    "parse_probes",
]


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | float_or_auto | float_or_none | int_or_auto | choice:a|b
    default: object


SCHEMA = {
    "testbed": {
        "rows": Field("int", 64),
        "cols": Field("int", 64),
        "experiments": Field("int", 64),
        "sampling_fraction": Field("float", 0.25),
        "kernel_size": Field("int", 5),
        "kernel_sigma": Field("float", 1.0),
        "target_snr_db": Field("float", -11.37),
        "gamma": Field("float_or_auto", None),
        "coherent_fraction": Field("float", 0.3),
        "truth_seed": Field("int", 11),
        "mask_seed": Field("int", 13),
        "noise_seed": Field("int", 17),
    },
    "constraints": {
        "sets": Field("str", "box,l1"),
        "box_lo": Field("float", -1.0),
        "box_hi": Field("float", 1.0),
        "l1_radius": Field("float", 2100.0),
        "l2_radius": Field("float", 40.0),
        "tv_radius": Field("float", 400.0),
        "box_lo_final": Field("float_or_none", None),
        "box_hi_final": Field("float_or_none", None),
        "l1_radius_final": Field("float_or_none", None),
        "l2_radius_final": Field("float_or_none", None),
        "tv_radius_final": Field("float_or_none", None),
        "dykstra_tol": Field("float", 1e-8),
        "tv_max_iters": Field("int", 2000),
        "tv_tol": Field("float", 1e-6),
    },
    "net": {
        "latent_dim": Field("int", 64),
        "base_rows": Field("int", 4),
        "base_cols": Field("int", 4),
        "base_channels": Field("int", 8),
        "stages": Field("int", 4),
        "stage_channels": Field("int", 8),
        "kernel_size": Field("int", 3),
        "leaky_slope": Field("float", 0.2),
        "init_scale": Field("float", 1.0),
        "init_seed": Field("int", 23),
    },
    "bregman": {
        "iterations": Field("int", 350),
        "t_max": Field("float", 10.0),
        "draw_seed": Field("int", 29),
    },
    "sgld": {
        "epsilon": Field("float", 0.01),
        "steps": Field("int", 20),
        "z_prior_weight": Field("choice:1.0|0.5", "1.0"),
        "noise_seed": Field("int", 31),
    },
    "em": {
        "tuples": Field("int", 8),
        "rounds": Field("int", 50),
        "bregman_steps_per_round": Field("int", 8),
        "eta": Field("float", 3e-5),
        "lam_init": Field("float", 0.0),
        "lam_final": Field("float", 1.0),
        "lam_ramp_rounds": Field("int_or_auto", None),
        "m_steps_per_round": Field("int", 1),
        "z_seed": Field("int", 37),
        "draw_seed": Field("int", 41),
    },
    "stats": {
        "samples": Field("int", 3200),
        "sample_seed": Field("int", 43),
        "bins": Field("int", 50),
        "probes": Field("str", "auto"),
        "std_mode": Field("choice:population|sample", "population"),
        "sample_count": Field("int", 4),
    },
}

_SEED_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key in keys if key.endswith("_seed")]


class RunConfig:
    """Typed section/key values; immutable by convention."""

    def __init__(self, values: dict):
        self._values = values

    def get(self, section: str, key: str):
        return self._values[section][key]

    def replace(self, section: str, key: str, value) -> "RunConfig":
        values = {s: dict(kv) for s, kv in self._values.items()}
        values[section][key] = value
        return RunConfig(values)


def _parse_value(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "float_or_auto":
            return None if raw.lower() == "auto" else float(raw)
        if kind == "int_or_auto":
            return None if raw.lower() == "auto" else int(raw)
        if kind == "float_or_none":
            return None if raw.lower() == "none" else float(raw)
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split("|")
            if raw not in allowed:
                raise ValueError(f"must be one of {allowed}")
            return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}", key=f"{section}.{key}") from exc
    raise ConfigError(f"[{section}] {key}: unhandled kind {kind}", key=f"{section}.{key}")


def _format_value(kind: str, value) -> str:
    if value is None:
        return "auto" if kind in ("float_or_auto", "int_or_auto") else "none"
    if kind == "float" or kind == "float_or_none" or kind == "float_or_auto":
        return repr(float(value))
    return str(value)


def load_config(path=None) -> RunConfig:
    """Parse an INI file against the schema; `path=None` yields defaults."""
    values = {s: {k: f.default for k, f in keys.items()} for s, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as f:
                parser.read_file(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]", key=section)
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]",
                                      key=f"{section}.{key}")
                values[section][key] = _parse_value(section, key,
                                                    SCHEMA[section][key].kind, raw)
    return RunConfig(values)


def write_resolved(config: RunConfig, path) -> None:
    """Emit every section and key with its resolved value."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, fld in keys.items():
            lines.append(f"{key} = {_format_value(fld.kind, config.get(section, key))}")
        lines.append("")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines))


def apply_seed_override(config: RunConfig, master: int) -> RunConfig:
    """Derive every seed key from one master seed (index-offset rule)."""
    for i, (section, key) in enumerate(_SEED_KEYS):
        config = config.replace(section, key, int(master) * 100 + i)
    return config


def build_arch(config: RunConfig) -> NetArch:
    n = lambda key: config.get("net", key)
    stages = tuple(StageSpec(channels=n("stage_channels"),
                             kernel_size=n("kernel_size"))
                   for _ in range(n("stages")))
    try:
        return NetArch(latent_dim=n("latent_dim"), base_rows=n("base_rows"),
                       base_cols=n("base_cols"), base_channels=n("base_channels"),
                       stages=stages, final_kernel_size=n("kernel_size"),
                       leaky_slope=n("leaky_slope"))
    except ValueError as exc:
        raise ConfigError(f"[net] {exc}") from exc


def _stack_from_values(config: RunConfig, overrides: dict) -> ConstraintStack:
    c = lambda key: overrides.get(key, config.get("constraints", key))
    sets = []
    for name in [s.strip() for s in config.get("constraints", "sets").split(",") if s.strip()]:
        if name == "box":
            sets.append(Box(c("box_lo"), c("box_hi")))
        elif name == "l1":
            sets.append(L1Ball(c("l1_radius")))
        elif name == "l2":
            sets.append(L2Ball(c("l2_radius")))
        elif name == "tv":
            sets.append(TVBall(c("tv_radius")))
        else:
            raise ConfigError(f"unknown constraint set {name!r} in [constraints] sets",
                              key="constraints.sets")
    if not sets:
        raise ConfigError("[constraints] sets must name at least one set",
                          key="constraints.sets")
    try:
        return ConstraintStack(tuple(sets),
                               dykstra_tol=config.get("constraints", "dykstra_tol"),
                               tv_max_iters=config.get("constraints", "tv_max_iters"),
                               tv_tol=config.get("constraints", "tv_tol"))
    except ValueError as exc:
        raise ConfigError(f"[constraints] {exc}") from exc


def build_stack(config: RunConfig) -> ConstraintStack:
    return _stack_from_values(config, {})


def build_stack_schedule(config: RunConfig):
    """Per-round constraint relaxation: any `*_final` key interpolates from
    its initial value over the same ramp window as the trade-off parameter.
    Returns None when no final value is configured."""
    c = lambda key: config.get("constraints", key)
    finals = {key.removesuffix("_final"): c(key) for key in SCHEMA["constraints"]
              if key.endswith("_final") and c(key) is not None}
    if not finals:
        return None

    def schedule(round_idx: int) -> ConstraintStack:
        frac = ramp_fraction(config.get("em", "rounds"),
                             config.get("em", "lam_ramp_rounds"), round_idx)
        overrides = {k: c(k) + frac * (v - c(k)) for k, v in finals.items()}
        return _stack_from_values(config, overrides)

    return schedule


def build_noise_spec(config: RunConfig) -> NoiseSpec:
    try:
        return NoiseSpec(target_snr_db=config.get("testbed", "target_snr_db"),
                         gamma=config.get("testbed", "gamma"),
                         coherent_fraction=config.get("testbed", "coherent_fraction"))
    except ValueError as exc:
        raise ConfigError(f"[testbed] {exc}") from exc


def build_train_config(config: RunConfig) -> TrainConfig:
    try:
        sgld = SgldParams(epsilon=config.get("sgld", "epsilon"),
                          steps=config.get("sgld", "steps"),
                          z_prior_weight=float(config.get("sgld", "z_prior_weight")))
    except ValueError as exc:
        raise ConfigError(f"[sgld] {exc}") from exc
    e = lambda key: config.get("em", key)
    try:
        return TrainConfig(
            n_tuples=e("tuples"), rounds=e("rounds"),
            bregman_steps_per_round=e("bregman_steps_per_round"), sgld=sgld,
            lam_init=e("lam_init"), lam_final=e("lam_final"),
            lam_ramp_rounds=e("lam_ramp_rounds"),
            eta=e("eta"), m_steps_per_round=e("m_steps_per_round"),
            t_max=config.get("bregman", "t_max"),
            init_seed=config.get("net", "init_seed"),
            init_scale=config.get("net", "init_scale"),
            z_seed=e("z_seed"), draw_seed=e("draw_seed"),
            noise_seed=config.get("sgld", "noise_seed"))
    except ValueError as exc:
        raise ConfigError(f"[em] {exc}") from exc


def parse_probes(raw: str, std_grid: np.ndarray):
    """Probe pixels: "auto" picks the max-std and median-std pixels of the
    posterior std grid; otherwise "r,c;r,c" literal coordinates."""
    if raw.strip() == "auto":
        order = np.argsort(std_grid.ravel(), kind="stable")
        flat_max = int(order[-1])
        flat_med = int(order[order.size // 2])
        cols = std_grid.shape[1]
        return [(flat_max // cols, flat_max % cols), (flat_med // cols, flat_med % cols)]
    probes = []
    try:
        for part in raw.split(";"):
            r, c = part.split(",")
            probes.append((int(r.strip()), int(c.strip())))
    except ValueError as exc:
        raise ConfigError(f"[stats] probes: expected 'auto' or 'r,c;r,c', got {raw!r}",
                          key="stats.probes") from exc
    return probes
