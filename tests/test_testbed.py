import json
import math

import numpy as np
import pytest

from breguq.linops import ConvKernel, ConvOp, dot_test
from breguq.testbed import (ExperimentBank, NoiseSpec, add_noise_to_snr, gaussian_kernel,
                            load_bank, make_bank, make_ground_truth, save_bank, snr_db)

from conftest import (eval_lsq_objective, identity_bank, linearization_error,
                      linearization_error_direct)

ONE_TAP = ConvKernel(np.array([[1.0]]))  # the identity stencil


def test_truth_deterministic_and_bounded():
    a = make_ground_truth((24, 24), seed=3)
    b = make_ground_truth((24, 24), seed=3)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0
    assert a.shape == (24, 24)


def test_truth_layer_count_audit():
    for seed in range(100):
        truth = make_ground_truth((16, 16), seed=seed)
        n_layers = np.unique(truth).size
        assert 3 <= n_layers <= 6, seed


def test_truth_rejects_small_grid():
    with pytest.raises(ValueError):
        make_ground_truth((8, 32), seed=0)


def test_gaussian_kernel_normalized():
    k = gaussian_kernel(5, 1.0)
    assert k.taps.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(k.taps, k.taps[::-1, ::-1])


@pytest.mark.parametrize("size", [4, 0, -3])
def test_gaussian_kernel_rejects_even_or_nonpositive_size(size):
    # an even size used to build the next odd stencil without saying so
    with pytest.raises(ValueError, match=f"kernel size must be odd and positive, got {size}"):
        gaussian_kernel(size, 1.0)


def test_full_sampling_identity_kernel_observes_truth():
    truth = make_ground_truth((16, 16), seed=1)
    bank = make_bank(truth, 2, ONE_TAP, 1.0, seed=2)
    for exp in bank.experiments:
        np.testing.assert_array_equal(exp.y, truth.ravel())


def test_noiseless_bank_consistent_and_adjoint_clean():
    truth = make_ground_truth((16, 16), seed=4)
    bank = make_bank(truth, 5, gaussian_kernel(3, 0.7), 0.4, seed=5)
    assert eval_lsq_objective(bank, truth) == 0.0
    assert max(dot_test(e.op, seed=9, trials=20) for e in bank.experiments) <= 1e-10


def test_bank_data_is_each_operator_applied_to_truth():
    # the truth is blurred once and restricted per experiment
    truth = make_ground_truth((20, 24), seed=30)
    bank = make_bank(truth, 6, gaussian_kernel(5, 1.3), 0.35, seed=31)
    for exp in bank.experiments:
        assert exp.y.tobytes() == exp.op.apply(truth).tobytes()


def test_bank_rejects_bad_inputs():
    truth = make_ground_truth((16, 16), seed=6)
    with pytest.raises(ValueError):
        make_bank(truth, 0, ONE_TAP, 0.5, seed=0)
    with pytest.raises(ValueError):
        make_bank(truth, 2, ONE_TAP, 0.0, seed=0)


def test_linearization_error_zero_cases():
    truth = make_ground_truth((16, 16), seed=7)
    bank = make_bank(truth, 3, gaussian_kernel(3, 0.8), 0.5, seed=8)
    C = ConvOp(gaussian_kernel(3, 0.8), truth.shape)
    for e in linearization_error(truth, C, 0.0, bank):
        assert not e.any()
    for e in linearization_error(np.zeros_like(truth), C, 2.5, bank):
        assert not e.any()


def test_linearization_closed_form_matches_three_term_definition():
    truth = make_ground_truth((20, 20), seed=9)
    bank = make_bank(truth, 4, gaussian_kernel(5, 1.2), 0.3, seed=10)
    C = ConvOp(gaussian_kernel(5, 1.2), truth.shape)
    gamma = 0.37
    # the error does not depend on the background the forward is expanded around
    background = np.random.default_rng(90).uniform(-2.0, 2.0, truth.shape)
    closed = linearization_error(truth, C, gamma, bank)
    direct = linearization_error_direct(truth, background, C, gamma, bank)
    scale = max(1.0, max(float(np.max(np.abs(d))) for d in direct))
    for c, d in zip(closed, direct):
        assert np.max(np.abs(c - d)) / scale <= 1e-12


def test_snr_db_values():
    assert snr_db(100.0, 1.0) == pytest.approx(20.0)
    assert snr_db(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        snr_db(0.0, 1.0)
    with pytest.raises(ValueError):
        snr_db(1.0, -2.0)


def test_energy_ratio_implied_by_target_level():
    # closed-form arithmetic: -11.37 dB means signal/perturbation ~ 0.0729
    ratio = 10.0 ** (-11.37 / 10.0)
    assert ratio == pytest.approx(0.0729, abs=5e-5)
    assert snr_db(ratio, 1.0) == pytest.approx(-11.37, abs=1e-12)


def test_add_noise_hits_target_energy_exactly(rng):
    y = rng.standard_normal((4, 4))
    y *= 10.0 / np.linalg.norm(y)  # signal energy exactly 100
    bank = identity_bank([y])
    noisy, report = add_noise_to_snr(bank, None, NoiseSpec(20.0, coherent_fraction=0.0),
                                     seed=3)
    pert = noisy.experiments[0].y - y
    assert float(np.sum(pert * pert)) == pytest.approx(1.0, abs=1e-9)
    assert report["measured_snr_db"] == pytest.approx(20.0, abs=1e-9)


def test_add_noise_calibrates_gamma_for_coherent_share():
    truth = make_ground_truth((16, 16), seed=11)
    bank = make_bank(truth, 4, gaussian_kernel(3, 0.9), 0.5, seed=12)
    spec = NoiseSpec(-11.37, coherent_fraction=0.3)
    noisy, report = add_noise_to_snr(bank, truth, spec, seed=13)
    assert report["measured_snr_db"] == pytest.approx(-11.37, abs=1e-9)
    assert report["coherent_energy"] == pytest.approx(
        0.3 * report["perturbation_energy"], rel=1e-9)
    assert report["gamma"] > 0


def test_add_noise_noise_free_sentinel():
    truth = make_ground_truth((16, 16), seed=14)
    bank = make_bank(truth, 2, gaussian_kernel(3, 0.9), 0.5, seed=15)
    noisy, report = add_noise_to_snr(bank, truth, NoiseSpec(math.inf), seed=16)
    assert report["measured_snr_db"] == math.inf
    for a, b in zip(noisy.experiments, bank.experiments):
        np.testing.assert_array_equal(a.y, b.y)


def test_add_noise_rejects_zero_signal():
    bank = identity_bank([np.zeros((3, 3))])
    with pytest.raises(ValueError):
        add_noise_to_snr(bank, None, NoiseSpec(0.0, coherent_fraction=0.0), seed=0)


def test_add_noise_rejects_oversized_coherent_error():
    # a coherent share just below 1 that rounding carries past the budget
    truth = make_ground_truth((16, 16), seed=14)
    bank = make_bank(truth, 4, gaussian_kernel(3, 1.0), 0.5, seed=114)
    spec = NoiseSpec(4.0, coherent_fraction=np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError, match="exceeds the perturbation budget"):
        add_noise_to_snr(bank, truth, spec, seed=14)


def test_bank_save_load_roundtrip(tmp_path, rng):
    truth = make_ground_truth((16, 16), seed=20)
    bank = make_bank(truth, 3, gaussian_kernel(3, 1.1), 0.4, seed=21)
    noisy, report = add_noise_to_snr(bank, truth, NoiseSpec(-5.0), seed=22)
    save_bank(tmp_path / "bank", noisy, manifest_extra={"snr_report": report})
    loaded, manifest = load_bank(tmp_path / "bank")
    assert loaded.n == noisy.n and loaded.shape == noisy.shape
    probe = rng.standard_normal((16, 16))
    for a, b in zip(loaded.experiments, noisy.experiments):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.op.apply(probe), b.op.apply(probe))
    assert manifest["snr_report"]["measured_snr_db"] == pytest.approx(-5.0)


def test_bank_save_deterministic_bytes(tmp_path):
    truth = make_ground_truth((16, 16), seed=23)
    bank = make_bank(truth, 2, gaussian_kernel(3, 1.0), 0.3, seed=24)
    save_bank(tmp_path / "a", bank)
    save_bank(tmp_path / "b", bank)
    for name in ["manifest.json", "y_0000.pgrd", "y_0001.pgrd"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bank_indented_manifest_loads_the_same(tmp_path):
    # banks written before the manifest went to one line are indented
    truth = make_ground_truth((16, 16), seed=25)
    bank = make_bank(truth, 3, gaussian_kernel(3, 0.9), 0.4, seed=26)
    noisy, report = add_noise_to_snr(bank, truth, NoiseSpec(-3.0), seed=27)
    save_bank(tmp_path / "bank", noisy, manifest_extra={"snr_report": report})
    path = tmp_path / "bank" / "manifest.json"
    assert path.read_text().count("\n") == 1
    compact, compact_manifest = load_bank(tmp_path / "bank")
    with open(path, "w") as f:
        json.dump(compact_manifest, f, indent=2, sort_keys=True)
    indented, indented_manifest = load_bank(tmp_path / "bank")
    assert indented_manifest == compact_manifest
    assert indented.n == compact.n and indented.shape == compact.shape
    for a, b in zip(indented.experiments, compact.experiments):
        np.testing.assert_array_equal(a.op.outer.mask.indices, b.op.outer.mask.indices)
        np.testing.assert_array_equal(a.op.inner.kernel.taps, b.op.inner.kernel.taps)
        assert a.y.tobytes() == b.y.tobytes()
