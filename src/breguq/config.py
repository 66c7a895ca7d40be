"""Section-structured run configuration, validated whole at load.

Plain INI text with a fixed schema: unknown sections or keys are rejected
with the offending name. A schema `Field` is a Python type plus a default,
read from the library type that declares it where one does. `load_config`
does the whole job once, whatever the command: it parses the file, applies
the master seed, bounds seeds, `[bregman] t_max` and `iterations`, and
builds every section's library object inside one error boundary,
`in_section`. So a config that one command rejects fails in every command,
before any output exists. The command line writes the fully resolved
config (every key explicit) next to each run's outputs, so any result can
be regenerated from its directory.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .em import TrainConfig
from .errors import ConfigError
from .net import NetArch, StageSpec
from .projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall)
from .sgld import SgldParams
from .testbed import NoiseSpec, _check_grid, _check_layout, gaussian_kernel

__all__ = [
    "SCHEMA",
    "RunConfig",
    "load_config",
    "write_resolved",
    "in_section",
    "build_arch",
    "build_stack",
]


@dataclass(frozen=True)
class Field:
    """A key's type and default; `none` is the word that spells None."""

    type: type
    default: object
    none: str | None = None

    def parse(self, section: str, key: str, raw: str):
        raw = raw.strip()
        if self.none is not None and raw.lower() == self.none:
            return None
        try:
            return self.type(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def format(self, value) -> str:
        if value is None:
            return self.none
        return repr(float(value)) if self.type is float else str(value)


SCHEMA = {
    "testbed": {
        "rows": Field(int, 64),
        "cols": Field(int, 64),
        "experiments": Field(int, 64),
        "sampling_fraction": Field(float, 0.25),
        "kernel_size": Field(int, 5),
        "kernel_sigma": Field(float, 1.0),
        "target_snr_db": Field(float, -11.37),
        "coherent_fraction": Field(float, NoiseSpec.coherent_fraction),
        "truth_seed": Field(int, 11),
        "mask_seed": Field(int, 13),
        "noise_seed": Field(int, 17),
    },
    "constraints": {
        "sets": Field(str, "box,l1"),
        "box_lo": Field(float, -1.0),
        "box_hi": Field(float, 1.0),
        "l1_radius": Field(float, 2100.0),
        "l2_radius": Field(float, 40.0),
        "tv_radius": Field(float, 400.0),
        "box_lo_final": Field(float, None, none="none"),
        "box_hi_final": Field(float, None, none="none"),
        "l1_radius_final": Field(float, None, none="none"),
        "l2_radius_final": Field(float, None, none="none"),
        "tv_radius_final": Field(float, None, none="none"),
        "dykstra_tol": Field(float, ConstraintStack.dykstra_tol),
        "tv_max_iters": Field(int, ConstraintStack.tv_max_iters),
        "tv_tol": Field(float, ConstraintStack.tv_tol),
    },
    "net": {
        "latent_dim": Field(int, 64),
        "base_rows": Field(int, 4),
        "base_cols": Field(int, 4),
        "base_channels": Field(int, 8),
        "stages": Field(int, 4),
        "stage_channels": Field(int, 8),
        "kernel_size": Field(int, StageSpec.kernel_size),
        "leaky_slope": Field(float, NetArch.leaky_slope),
        "init_scale": Field(float, TrainConfig.init_scale),
        "init_seed": Field(int, TrainConfig.init_seed),
    },
    "bregman": {
        "iterations": Field(int, 350),
        "t_max": Field(float, TrainConfig.t_max),
        "draw_seed": Field(int, 29),
    },
    "sgld": {
        "epsilon": Field(float, SgldParams.epsilon),
        "steps": Field(int, SgldParams.steps),
        "z_prior_weight": Field(float, SgldParams.z_prior_weight),
        "noise_seed": Field(int, TrainConfig.noise_seed),
    },
    "em": {
        "tuples": Field(int, TrainConfig.n_tuples),
        "rounds": Field(int, TrainConfig.rounds),
        "bregman_steps_per_round": Field(int, TrainConfig.bregman_steps_per_round),
        "eta": Field(float, TrainConfig.eta),
        "lam_init": Field(float, TrainConfig.lam_init),
        "lam_final": Field(float, TrainConfig.lam_final),
        "lam_ramp_rounds": Field(int, TrainConfig.lam_ramp_rounds, none="auto"),
        "m_steps_per_round": Field(int, TrainConfig.m_steps_per_round),
        "z_seed": Field(int, TrainConfig.z_seed),
        "draw_seed": Field(int, TrainConfig.draw_seed),
    },
    "stats": {
        "samples": Field(int, 3200),
        "sample_seed": Field(int, 43),
        "bins": Field(int, 50),
        "probes": Field(str, "auto"),
        "sample_count": Field(int, 4),
    },
}

_SEED_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key in keys if key.endswith("_seed")]

# checked at load: numpy seeds reject negative entropy, and a steplength
# cap t_max <= 0 never descends
_BOUNDS = {**dict.fromkeys(_SEED_KEYS + [("bregman", "iterations")], "non-negative"),
           ("bregman", "t_max"): "positive"}


class RunConfig:
    """Typed section/key values and the library objects built from them:
    `noise` and `kernel` ([testbed], bank layout checked too), `stack` and
    `stack_final` ([constraints]: the stack the `*_final` keys relax
    `stack` to, `stack` itself when none is set), `arch` ([net]), `train`
    ([sgld], [em]) and `probes` ([stats]: the literal pixels, None for
    "auto"). Built by `load_config`; immutable by convention."""

    def __init__(self, values: dict):
        self._values = values
        t = values["testbed"]
        with in_section("testbed"):
            self.noise = NoiseSpec(t["target_snr_db"], t["coherent_fraction"])
            _check_grid(t["rows"], t["cols"])
            self.kernel = gaussian_kernel(t["kernel_size"], t["kernel_sigma"])
            _check_layout(t["experiments"], t["sampling_fraction"])
        self.stack, final = build_stack(self), build_stack(self, final=True)
        self.stack_final = self.stack if final == self.stack else final
        self.arch = build_arch(self)
        self.train = _train_config(self)
        self.probes = _stats_probes(self)

    def get(self, section: str, key: str):
        return self._values[section][key]


def load_config(path=None, seed=None, count=None) -> RunConfig:
    """Parse an INI file against the schema (`path=None` yields defaults),
    check the load-time bounds, derive every seed key from the master
    `seed` when one is given (index-offset rule), let `count` (the `sample`
    command's `--count`) stand in for `[stats] sample_count` when given, and
    build every section's objects."""
    values = {s: {k: f.default for k, f in keys.items()} for s, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as f:
                parser.read_file(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"unreadable config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = SCHEMA[section][key].parse(section, key, raw)
    for (section, key), bound in _BOUNDS.items():
        value = values[section][key]
        if value < 0 or bound == "positive" and not value > 0:
            raise ConfigError(f"[{section}] {key}: must be {bound}, got {value}")
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed: must be non-negative, got {seed}")
        for i, (section, key) in enumerate(_SEED_KEYS):
            values[section][key] = int(seed) * 100 + i
    config = RunConfig(values)
    if count is not None:  # after the build, which checks the file's own value
        if count < 1:
            raise ConfigError(f"--count must be at least 1, got {count}")
        values["stats"]["sample_count"] = count
    return config


def write_resolved(config: RunConfig, path) -> None:
    """Emit every section and key with its resolved value."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, fld in keys.items():
            lines.append(f"{key} = {fld.format(config.get(section, key))}")
        lines.append("")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines))


@contextmanager
def in_section(name: str):
    """The builders' one error boundary: a `ValueError` raised inside it
    becomes `ConfigError("[name] ...")`; a `ConfigError` passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def build_arch(config: RunConfig) -> NetArch:
    n = lambda key: config.get("net", key)
    with in_section("net"):
        if not 0 < n("init_scale") < math.inf:  # net_init's rule, checked before any output
            raise ValueError(f"init scale must be positive and finite, got {n('init_scale')}")
        stage = StageSpec(channels=n("stage_channels"), kernel_size=n("kernel_size"))
        return NetArch(latent_dim=n("latent_dim"), base_rows=n("base_rows"),
                       base_cols=n("base_cols"), base_channels=n("base_channels"),
                       stages=(stage,) * n("stages"), final_kernel_size=n("kernel_size"),
                       leaky_slope=n("leaky_slope"))


_SETS = {"box": lambda c: Box(c("box_lo"), c("box_hi")),
         "l1": lambda c: L1Ball(c("l1_radius")),
         "l2": lambda c: L2Ball(c("l2_radius")),
         "tv": lambda c: TVBall(c("tv_radius"))}


def build_stack(config: RunConfig, final: bool = False) -> ConstraintStack:
    """The `[constraints]` stack; with `final`, each `*_final` value that is
    set stands in for its initial one. Every stack between two valid ends
    is valid (boxes keep lo <= hi, radii stay positive)."""
    values = {key: config.get("constraints", key) for key in SCHEMA["constraints"]}
    if final:
        values.update({key.removesuffix("_final"): v for key, v in values.items()
                       if key.endswith("_final") and v is not None})
    c = values.get
    with in_section("constraints"):
        sets = []
        for name in [s.strip() for s in c("sets").split(",") if s.strip()]:
            if name not in _SETS:
                raise ConfigError(f"unknown constraint set {name!r} in [constraints] sets")
            sets.append(_SETS[name](c))
        if not sets:
            raise ConfigError("[constraints] sets must name at least one set")
        return ConstraintStack(tuple(sets), dykstra_tol=c("dykstra_tol"),
                               tv_max_iters=c("tv_max_iters"), tv_tol=c("tv_tol"))


def _train_config(config: RunConfig) -> TrainConfig:
    with in_section("sgld"):
        sgld = SgldParams(epsilon=config.get("sgld", "epsilon"),
                          steps=config.get("sgld", "steps"),
                          z_prior_weight=config.get("sgld", "z_prior_weight"))
    e = lambda key: config.get("em", key)
    with in_section("em"):
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


def _stats_probes(config: RunConfig):
    """Checks `[stats]`; returns the literal probe pixels, None for "auto"."""
    s = lambda key: config.get("stats", key)
    with in_section("stats"):
        if s("samples") < 2:
            raise ValueError("samples: pointwise standard deviation needs "
                             "at least 2 realizations")
        if s("bins") < 1:
            raise ValueError(f"bins: need at least one bin, got {s('bins')}")
        if s("sample_count") < 1:
            raise ValueError("sample_count must be at least 1")
    if s("probes").strip() == "auto":
        return None
    try:
        probes = [(int(r), int(c)) for r, c in (part.split(",")
                                                 for part in s("probes").split(";"))]
    except ValueError as exc:
        raise ConfigError(f"[stats] probes: expected 'auto' or 'r,c;r,c', "
                          f"got {s('probes')!r}") from exc
    rows, cols = config.arch.out_shape
    for r, c in probes:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ConfigError(f"[stats] probes: pixel ({r}, {c}) out of range "
                              f"for the {rows}x{cols} output grid")
    return probes
