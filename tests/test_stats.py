import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breguq.errors import GridFormatError, NumericalAbortError
from breguq.net import net_forward, net_init
from breguq.stats import (SampleSet, calibration, draw_latents, model_quality,
                          read_portable_grid, read_table, summarize, write_histograms_csv,
                          write_portable_grid, write_table)

from conftest import small_arch


class ListSamples:
    """Duck-typed sample set over explicit grids (for oracle comparisons)."""

    def __init__(self, grids):
        self.grids = [np.asarray(g, dtype=np.float64) for g in grids]
        self.count = len(grids)

    def realizations(self):
        yield from self.grids

    def probe_values(self, pixels):
        rows, cols = np.asarray(pixels).T
        return np.stack(self.grids)[:, rows, cols]


# --- generator sampling ---

def test_sample_set_single_realization():
    arch = small_arch()
    w = net_init(arch, seed=1)
    s = SampleSet(arch, w.tolist(), draw_latents(arch.latent_dim, 1, 5))
    assert s.weights.dtype == np.float64
    assert s.realization(0).shape == arch.out_shape
    (only,) = list(s.realizations())
    np.testing.assert_array_equal(only, s.realization(0))


def test_zero_weights_give_zero_realizations():
    arch = small_arch()
    s = SampleSet(arch, np.zeros(arch.n_params), draw_latents(arch.latent_dim, 3, 6))
    for x in s.realizations():
        np.testing.assert_array_equal(x, np.zeros(arch.out_shape))


def test_latents_depend_only_on_seed_and_index():
    arch = small_arch()
    a = SampleSet(arch, net_init(arch, seed=2), draw_latents(arch.latent_dim, 4, 7))
    b = SampleSet(arch, net_init(arch, seed=3), draw_latents(arch.latent_dim, 4, 7))
    for j in range(4):
        np.testing.assert_array_equal(a.latents[j], b.latents[j])
    assert not np.array_equal(a.realization(0), b.realization(0))


def test_sampling_deterministic():
    arch = small_arch()
    w = net_init(arch, seed=4)
    a = SampleSet(arch, w, draw_latents(arch.latent_dim, 5, 8))
    b = SampleSet(arch, w, draw_latents(arch.latent_dim, 5, 8))
    for x, y in zip(a.realizations(), b.realizations()):
        np.testing.assert_array_equal(x, y)


def test_drawn_latents_are_the_per_index_streams():
    arch = small_arch()
    w = net_init(arch, seed=11)
    latents = draw_latents(arch.latent_dim, 5, 12)
    assert latents.shape == (5, arch.latent_dim)
    np.testing.assert_array_equal(draw_latents(arch.latent_dim, 3, 12), latents[:3])
    s = SampleSet(arch, w, latents)
    for j in range(5):
        z = np.random.default_rng(np.random.SeedSequence([12, j])).standard_normal(
            arch.latent_dim)
        np.testing.assert_array_equal(s.latents[j], z)
        np.testing.assert_array_equal(s.realization(j), net_forward(arch, w, z))


def test_sample_set_rejects_latents_of_another_shape():
    arch = small_arch()
    for bad in (np.zeros(arch.latent_dim), np.zeros((2, arch.latent_dim + 1))):
        with pytest.raises(ValueError, match="latents must be"):
            SampleSet(arch, np.zeros(arch.n_params), bad)


def test_sample_count_validation():
    arch = small_arch()
    with pytest.raises(ValueError):
        SampleSet(arch, np.zeros(arch.n_params), draw_latents(arch.latent_dim, 0, 0))


# --- moments ---

def test_mean_symmetry():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    np.testing.assert_array_equal(summarize(ListSamples([a, -a])).mean,
                                  np.zeros((2, 2)))


def test_std_identical_realizations_zero():
    a = np.ones((3, 3))
    np.testing.assert_array_equal(summarize(ListSamples([a, a, a])).std,
                                  np.zeros((3, 3)))


def test_std_two_realizations_half_gap():
    a = np.array([[0.0, 2.0]])
    b = np.array([[1.0, -2.0]])
    np.testing.assert_allclose(summarize(ListSamples([a, b])).std,
                               np.abs(a - b) / 2.0, rtol=1e-15)


def test_std_requires_two(rng):
    with pytest.raises(ValueError):
        summarize(ListSamples([rng.standard_normal((2, 2))]))


@pytest.mark.parametrize("value, pixel", [(np.inf, (1, 2)), (np.nan, (0, 1)),
                                          (1e200, (0, 0))], ids=["inf", "nan", "overflow"])
def test_non_finite_sums_abort_naming_the_first_pixel(value, pixel):
    # 1e200 is finite, but the squares of its deviations overflow
    a, b = np.zeros((2, 3)), np.zeros((2, 3))
    b[pixel] = value
    if value == 1e200:
        a[:] = -1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalAbortError, match="non-finite realization sums") as info:
        summarize(ListSamples([a, b, a]))
    assert info.value.diagnostics["pixel"] == pixel


def test_moments_match_two_pass_oracle(rng):
    grids = [rng.standard_normal((4, 5)) for _ in range(25)]
    stacked = np.stack(grids)
    samples = ListSamples(grids)
    summary = summarize(samples)
    np.testing.assert_allclose(summary.mean, stacked.mean(axis=0),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(summary.std, stacked.std(axis=0, ddof=0),
                               rtol=0, atol=1e-12)


def test_summarize_matches_componentwise(rng):
    arch = small_arch()
    w = net_init(arch, seed=9)
    samples = SampleSet(arch, w, draw_latents(arch.latent_dim, 40, 10))
    summary = summarize(samples)
    stacked = np.stack([samples.realization(j) for j in range(40)])
    np.testing.assert_allclose(summary.mean, stacked.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(summary.std, stacked.std(axis=0), rtol=0, atol=1e-12)
    values = samples.probe_values([(2, 3), (0, 0), (2, 3)])
    assert values.shape == (40, 3)
    np.testing.assert_allclose(values, stacked[:, [2, 0, 2], [3, 0, 3]], rtol=0,
                               atol=1e-14 * np.abs(stacked).max())


# --- histograms ---

HIST_COLUMNS = {"pixel_row": int, "pixel_col": int, "bin_lo": float,
                "bin_hi": float, "count": int}


def probe_histogram(tmp_path, samples, pixel, bins):
    """What `breguq stats` does: read the probe values, write the histogram
    CSV; read back as (pixels, edges, counts)."""
    path = tmp_path / "hist.csv"
    write_histograms_csv({pixel: samples.probe_values([pixel])[:, 0]}, bins, path)
    rows = read_table(path, HIST_COLUMNS)
    assert len(rows) == bins
    pixels, lo, hi, counts = zip(*[((r, c), lo, hi, n) for r, c, lo, hi, n in rows])
    np.testing.assert_array_equal(lo[1:], hi[:-1])
    return set(pixels), np.array(lo + hi[-1:]), np.array(counts)


def test_histogram_constant_pixel_single_bin(tmp_path):
    pixels, _, counts = probe_histogram(
        tmp_path, ListSamples([np.full((2, 2), 0.3)] * 5), (0, 1), bins=4)
    assert pixels == {(0, 1)}
    assert counts.sum() == 5
    assert np.count_nonzero(counts) == 1


def test_histogram_conservation(tmp_path, rng):
    samples = ListSamples([rng.standard_normal((3, 3)) for _ in range(17)])
    for bins in (1, 2, 7):
        assert probe_histogram(tmp_path, samples, (1, 2), bins)[2].sum() == 17


def test_histogram_edge_convention(tmp_path):
    samples = ListSamples([np.full((1, 1), v) for v in [0.0, 1.0, 2.0, 3.0]])
    _, edges, counts = probe_histogram(tmp_path, samples, (0, 0), bins=2)
    np.testing.assert_array_equal(counts, [2, 2])
    np.testing.assert_allclose(edges, [0.0, 1.5, 3.0])


def test_histogram_rejects_bad_pixel_and_bins(rng):
    # bins < 1 is a config error in `breguq stats` (tests/test_cli.py)
    arch = small_arch()
    samples = SampleSet(arch, net_init(arch, seed=1), draw_latents(arch.latent_dim, 3, 2))
    for pixel in [(4, 0), (0, -1)]:
        with pytest.raises(ValueError, match="out of range for 4x4 grid"):
            samples.probe_values([(0, 0), pixel])


# --- quality metrics ---

def test_quality_exact_match_inf_sentinel():
    truth = np.array([[1.0, 2.0]])
    q = model_quality(truth, truth)
    assert q["relative_l2"] == 0.0 and q["snr_db"] == np.inf


def test_quality_zero_estimate():
    truth = np.array([[3.0, 4.0]])
    q = model_quality(np.zeros((1, 2)), truth)
    assert q["relative_l2"] == pytest.approx(1.0)
    assert q["snr_db"] == pytest.approx(0.0)


def test_quality_ten_percent_off():
    truth = np.array([[3.0, -4.0], [1.0, 2.0]])
    q = model_quality(1.1 * truth, truth)
    assert q["relative_l2"] == pytest.approx(0.1)
    assert q["snr_db"] == pytest.approx(20.0)


def test_quality_rejects_zero_truth():
    with pytest.raises(ValueError):
        model_quality(np.ones((2, 2)), np.zeros((2, 2)))


def test_calibration_coverage_and_error_std_correlation(rng):
    truth = rng.standard_normal((6, 7))
    mean = truth + rng.standard_normal((6, 7))
    std = rng.uniform(0.1, 2.0, (6, 7))
    c = calibration(mean, std, truth)
    err = np.abs(truth - mean)
    assert c["coverage_95"] == np.count_nonzero(err <= 1.96 * std) / 42
    assert c["error_std_corr"] == pytest.approx(np.corrcoef(err.ravel(), std.ravel())[0, 1],
                                                abs=1e-14)
    # a pixel exactly on the band counts as covered
    edge = calibration(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]),
                       np.array([[1.96, 5.0]]))
    assert edge["coverage_95"] == 0.5 and edge["error_std_corr"] == pytest.approx(1.0)


def test_calibration_correlation_undefined_for_a_constant_grid(tmp_path, rng):
    truth, mean = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    # a constant std, then a constant error (a mean equal to the truth)
    for m, std in [(mean, np.full((3, 3), 0.1)), (truth, rng.uniform(1, 2, (3, 3)))]:
        c = calibration(m, std, truth)
        assert c["error_std_corr"] is None
    # written as an empty cell, as `breguq stats` writes quality.csv
    path = tmp_path / "q.csv"
    write_table(path, ["metric", "value"], c.items())
    assert path.read_text().splitlines()[2] == "error_std_corr,"


# --- portable grid files ---

def test_grid_roundtrip_bit_exact(tmp_path, rng):
    g = rng.standard_normal((5, 7))
    path = tmp_path / "g.pgrd"
    write_portable_grid(g, path)
    np.testing.assert_array_equal(read_portable_grid(path), g)


@given(hnp.arrays(np.float64, (3, 2),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     width=64)))
@settings(max_examples=30, deadline=None)
def test_grid_roundtrip_property(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("grids") / "g.pgrd"
    write_portable_grid(g, path)
    got = read_portable_grid(path)
    assert got.tobytes() == np.ascontiguousarray(g).tobytes()


def test_grid_file_size(tmp_path):
    path = tmp_path / "g.pgrd"
    write_portable_grid(np.zeros((2, 2)), path)
    assert path.stat().st_size == 16 + 32


def test_grid_truncation_reports_offset(tmp_path, rng):
    path = tmp_path / "g.pgrd"
    write_portable_grid(rng.standard_normal((3, 3)), path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.pgrd"
    cut.write_bytes(raw[:40])
    with pytest.raises(GridFormatError, match="truncated at byte 40: "):
        read_portable_grid(cut)
    head = tmp_path / "head.pgrd"
    head.write_bytes(raw[:10])
    with pytest.raises(GridFormatError, match="truncated at byte 10: "):
        read_portable_grid(head)


def test_grid_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "g.pgrd"
    write_portable_grid(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.pgrd"
    bad.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="at byte 0$"):
        read_portable_grid(bad)


def test_grid_nonfinite_payload_names_its_byte(tmp_path):
    path = tmp_path / "g.pgrd"
    write_portable_grid(np.zeros((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[16 + 8 * 2:16 + 8 * 3] = struct.pack("<d", np.nan)
    bad = tmp_path / "bad.pgrd"
    bad.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="non-finite value at byte 32$"):
        read_portable_grid(bad)


def test_grid_write_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        write_portable_grid(np.array([[np.inf, 0.0]]), tmp_path / "x.pgrd")
    with pytest.raises(ValueError):
        write_portable_grid(np.zeros(3), tmp_path / "x.pgrd")
