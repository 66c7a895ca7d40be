import configparser
import pathlib
import re

import numpy as np
import pytest

from breguq.config import (SCHEMA, build_arch, build_stack, in_section, load_config,
                           write_resolved)
from breguq.em import round_schedule
from breguq.errors import ConfigError
from breguq.projections import Box, L1Ball
from breguq.stats import auto_probes


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.get("testbed", "rows") == 64
    assert cfg.get("testbed", "target_snr_db") == -11.37
    assert cfg.get("bregman", "iterations") == 350
    assert cfg.get("stats", "samples") == 3200


def test_file_overrides_defaults(tmp_path):
    path = write(tmp_path, "[testbed]\nrows = 32\ncoherent_fraction = 0.5\n")
    cfg = load_config(path)
    assert cfg.get("testbed", "rows") == 32
    assert cfg.get("testbed", "coherent_fraction") == 0.5
    assert cfg.get("testbed", "cols") == 64  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[testbed]\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[nope]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "nope" in str(err.value)


def test_bad_value_rejected_with_key(tmp_path):
    path = write(tmp_path, "[testbed]\nrows = many\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith("[testbed] rows: ")


@pytest.mark.parametrize("text, key", [
    ("[bregman]\ndraw_seed = -4\n", "bregman.draw_seed"),
    ("[testbed]\ntruth_seed = -1\n", "testbed.truth_seed"),
    ("[bregman]\nt_max = 0\n", "bregman.t_max"),
    ("[bregman]\nt_max = nan\n", "bregman.t_max"),
    ("[bregman]\niterations = -3\n", "bregman.iterations"),
], ids=["draw_seed", "truth_seed", "t_max-zero", "t_max-nan", "iterations"])
def test_lower_bounds_checked_at_load_with_key(tmp_path, text, key):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    section, name = key.split(".")
    assert str(err.value).startswith(f"[{section}] {name}: must be ")


def test_negative_master_seed_rejected():
    with pytest.raises(ConfigError, match="--seed"):
        load_config(None, seed=-1)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_resolved_roundtrip_and_determinism(tmp_path):
    cfg = load_config(write(tmp_path, "[em]\nrounds = 7\n[sgld]\nepsilon = 0.05\n"))
    out1 = tmp_path / "resolved1.cfg"
    out2 = tmp_path / "resolved2.cfg"
    write_resolved(cfg, out1)
    write_resolved(cfg, out2)
    assert out1.read_bytes() == out2.read_bytes()
    back = load_config(out1)
    for section, keys in SCHEMA.items():
        for key in keys:
            assert back.get(section, key) == cfg.get(section, key), (section, key)


def test_seed_override_touches_every_seed_key():
    cfg = load_config(None, seed=9)
    seeds = [cfg.get(s, k) for s, keys in SCHEMA.items() for k in keys
             if k.endswith("_seed")]
    assert seeds == [900 + i for i in range(len(seeds))]


def test_build_arch_shape():
    arch = build_arch(load_config(None))
    assert arch.out_shape == (64, 64)
    assert arch.latent_dim == 64
    assert len(arch.stages) == 4


def test_build_stack_order_and_sets(tmp_path):
    cfg = load_config(write(tmp_path, "[constraints]\nsets = l1,box\nl1_radius = 5.0\n"))
    stack = build_stack(cfg)
    assert isinstance(stack.sets[0], L1Ball) and stack.sets[0].radius == 5.0
    assert isinstance(stack.sets[1], Box)


def test_build_stack_unknown_set(tmp_path):
    with pytest.raises(ConfigError, match="unknown constraint set 'nuclear'"):
        load_config(write(tmp_path, "[constraints]\nsets = box,nuclear\n"))


def test_stack_schedule_interpolates(tmp_path):
    # the final stack is data; em's ramp moves each relaxed value by
    # c + frac * (v - c), bit for bit
    cfg = load_config(write(
        tmp_path,
        "[constraints]\nsets = box,l1\nl1_radius = 160.0\nl1_radius_final = 100.0\n"
        "box_hi_final = 1.5\n[em]\nrounds = 8\nlam_ramp_rounds = 3\n"))
    assert cfg.stack_final.sets == (Box(-1.0, 1.5), L1Ball(100.0))
    radius = lambda r: round_schedule(cfg.train, cfg.stack, cfg.stack_final, r)[1].sets[1].radius
    assert [radius(r) for r in range(5)] == [160.0 + f * (100.0 - 160.0)
                                             for f in (0.0, 1 / 3, 2 / 3, 1.0, 1.0)]


def test_stack_schedule_none_when_no_finals(tmp_path):
    # no relaxation: the final stack is the stack itself, also when the
    # only final key names a set the stack does not hold
    cfg = load_config(None)
    assert cfg.stack_final is cfg.stack
    other = load_config(write(tmp_path, "[constraints]\ntv_radius_final = 5.0\n"))
    assert other.stack_final == other.stack


def test_build_train_config_wires_sections(tmp_path):
    cfg = load_config(write(
        tmp_path,
        "[em]\ntuples = 3\nrounds = 9\neta = 0.01\n"
        "[sgld]\nepsilon = 0.2\nsteps = 4\n[bregman]\nt_max = 5.0\n"))
    tc = cfg.train
    assert tc.n_tuples == 3 and tc.rounds == 9 and tc.eta == 0.01
    assert tc.sgld.epsilon == 0.2 and tc.sgld.steps == 4
    assert tc.t_max == 5.0


def test_z_prior_weight_is_a_float_key_checked_by_sgld_params(tmp_path):
    assert load_config(write(tmp_path, "[sgld]\nz_prior_weight = 0.5\n")).get(
        "sgld", "z_prior_weight") == 0.5
    with pytest.raises(ConfigError, match=r"^\[sgld\] z prior weight must be"):
        load_config(write(tmp_path, "[sgld]\nz_prior_weight = 0.7\n"))


def test_section_boundary_wraps_once():
    with pytest.raises(ConfigError, match=r"^\[net\] bad value$"):
        with in_section("net"):
            raise ValueError("bad value")
    with pytest.raises(ConfigError, match=r"^\[sgld\] inner$"):
        with in_section("em"):
            raise ConfigError("[sgld] inner")


@pytest.mark.parametrize("text, message", [
    ("[constraints]\nbox_lo = 2.0\n", "[constraints] box lower bound 2.0 exceeds"),
    ("[constraints]\nsets = l1\nl1_radius = 0\n", "[constraints] l1 ball radius"),
], ids=["box", "l1"])
def test_build_stack_names_the_section_of_a_rejected_set(tmp_path, text, message):
    with pytest.raises(ConfigError) as err:
        build_stack(load_config(write(tmp_path, text)))
    assert str(err.value).startswith(message)


def test_build_arch_rejects_init_scale_and_stage_under_net(tmp_path):
    for text, message in [("[net]\ninit_scale = -1\n", "[net] init scale must be positive"),
                          ("[net]\nstage_channels = 0\n", "[net] stage channels")]:
        with pytest.raises(ConfigError) as err:
            build_arch(load_config(write(tmp_path, text)))
        assert str(err.value).startswith(message)


def test_build_train_config_names_the_sgld_section(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[sgld]\nepsilon = 5.0\n"))
    assert str(err.value).startswith("[sgld] epsilon")


def test_readme_configuration_block_loads_as_the_defaults(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## Configuration\n.*?```ini\n(.*?)```", readme.read_text(),
                      re.S).group(1)
    path = write(tmp_path, block)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    cfg = load_config(path)
    for section, keys in SCHEMA.items():
        for key, field in keys.items():
            assert parser.has_option(section, key), (section, key)
            assert cfg.get(section, key) == field.default, (section, key)


def test_parse_probes_auto_and_literal(tmp_path):
    std = np.array([[0.1, 0.9], [0.4, 0.2]])
    probes = auto_probes(std)
    assert probes[0] == (0, 1)  # max-std pixel
    assert len(probes) == 2
    assert load_config(None).probes is None  # "auto"
    assert load_config(write(tmp_path, "[stats]\nprobes = 1,0; 0 ,1\n")).probes == [
        (1, 0), (0, 1)]
    for raw in ["1;2;3", "1,2,3", "a,b"]:
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, f"[stats]\nprobes = {raw}\n"))
        assert str(err.value).startswith("[stats] probes: ")
