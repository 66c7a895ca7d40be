import tracemalloc

import numpy as np
import pytest

from breguq.errors import CheckpointFormatError
from breguq.net import (NetArch, StageSpec, _final_backward, _final_forward,
                        _final_plan, _fold, _stack_inverse, _stack_table,
                        _stage_backward, _stage_forward, _stage_plan,
                        net_eval_and_backward, net_forward, net_init, net_pixels)
from breguq.stats import load_weights, save_weights

SMALL = NetArch(latent_dim=8, base_rows=2, base_cols=2, base_channels=4,
                stages=(StageSpec(4),))
DEFAULT16 = NetArch(latent_dim=64, base_rows=4, base_cols=4, base_channels=8,
                    stages=(StageSpec(8), StageSpec(8)))
# the generator of the desk-scale acceptance run (64x64 output)
DESK_SHAPED = NetArch(latent_dim=64, base_rows=4, base_cols=4, base_channels=8,
                      stages=tuple(StageSpec(8) for _ in range(4)))

# frozen forward output of the first gradient-verified build
GOLDEN_SMALL = np.array([
    0.8148062634801734, 0.19244726390032527, -0.19200291114399654,
    0.17480514288505716, 0.8093385119375707, 0.7684362770529964,
    -0.07832157512372367, -0.19971362927453312, 0.11197417408385013,
    0.2378510787612326, 0.5666253742636823, 0.29725968788789253,
    0.38293617197919494, 0.05062136706180084, 0.1707998825666212,
    0.6880702060101623])


def finite_diff(fun, x0, h=1e-5):
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_init_deterministic():
    np.testing.assert_array_equal(net_init(SMALL, seed=3), net_init(SMALL, seed=3))
    assert not np.array_equal(net_init(SMALL, seed=3), net_init(SMALL, seed=4))


def test_init_scale_limit_gives_zero_output():
    w = net_init(SMALL, seed=3, scale=1e-300)
    out = net_forward(SMALL, w, np.ones(8))
    assert np.max(np.abs(out)) < 1e-250


def test_init_per_layer_std():
    arch = NetArch(latent_dim=128, base_rows=4, base_cols=4, base_channels=8,
                   stages=(StageSpec(16),))
    w = net_init(arch, seed=5, scale=1.3)
    for p in arch.param_layout():
        if p.fan_in < 64 or p.size < 200:
            continue
        block = w[p.offset:p.offset + p.size]
        expected = 1.3 / np.sqrt(p.fan_in)
        assert abs(block.std() - expected) / expected < 0.10, p.name


def test_zero_weights_zero_output():
    out = net_forward(SMALL, np.zeros(SMALL.n_params), np.ones(8))
    np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_final_layer_linearity():
    rng = np.random.default_rng(6)
    w = net_init(SMALL, seed=7)
    layout = {p.name: p for p in SMALL.param_layout()}
    b = layout["final.b"]
    w[b.offset:b.offset + b.size] = 0.0
    z = rng.standard_normal(8)
    base = net_forward(SMALL, w, z)
    w2 = w.copy()
    fw = layout["final.W"]
    w2[fw.offset:fw.offset + fw.size] *= 2.0
    np.testing.assert_allclose(net_forward(SMALL, w2, z), 2.0 * base, rtol=1e-14)


def test_forward_regression_vector():
    w = net_init(SMALL, seed=2024, scale=1.0)
    z = np.random.default_rng(512).standard_normal(8)
    np.testing.assert_allclose(net_forward(SMALL, w, z).ravel(), GOLDEN_SMALL,
                               rtol=0, atol=1e-15)


def test_backward_zero_upstream():
    w = net_init(SMALL, seed=8)
    _, gz, gw = net_eval_and_backward(SMALL, w, np.ones(8), lambda _: np.zeros((4, 4)))
    assert not gz.any() and not gw.any()


def test_backward_dense_block_is_outer_product():
    # stages-free net with a pass-through final conv: dense weights see
    # exactly upstream (x) z
    arch = NetArch(latent_dim=5, base_rows=3, base_cols=2, base_channels=1,
                   stages=(), final_kernel_size=1)
    layout = {p.name: p for p in arch.param_layout()}
    w = np.zeros(arch.n_params)
    w[layout["dense.W"].offset:layout["dense.W"].offset + layout["dense.W"].size] = \
        np.random.default_rng(9).standard_normal(layout["dense.W"].size)
    w[layout["final.W"].offset] = 1.0
    z = np.random.default_rng(10).standard_normal(5)
    upstream = np.random.default_rng(11).standard_normal((3, 2))
    _, gz, gw = net_eval_and_backward(arch, w, z, lambda _: upstream)
    dW = layout["dense.W"]
    got = gw[dW.offset:dW.offset + dW.size].reshape(dW.shape)
    np.testing.assert_allclose(got, np.outer(upstream.ravel(), z), rtol=1e-14)
    W = w[dW.offset:dW.offset + dW.size].reshape(dW.shape)
    np.testing.assert_allclose(gz, W.T @ upstream.ravel(), rtol=1e-14)


def test_backward_matches_finite_differences_default_arch():
    rng = np.random.default_rng(12)
    arch = DEFAULT16
    w = net_init(arch, seed=13)
    z = rng.standard_normal(arch.latent_dim)
    upstream = rng.standard_normal(arch.out_shape)
    _, gz, gw = net_eval_and_backward(arch, w, z, lambda _: upstream)

    def f_z(zz):
        return float(np.sum(upstream * net_forward(arch, w, zz)))

    fd_z = finite_diff(f_z, z)
    for i in range(arch.latent_dim):
        assert rel_err(fd_z[i], gz[i]) <= 1e-5

    for i in rng.choice(arch.n_params, size=50, replace=False):
        wp = w.copy()
        wp[i] += 1e-5
        wm = w.copy()
        wm[i] -= 1e-5
        fd = (float(np.sum(upstream * net_forward(arch, wp, z)))
              - float(np.sum(upstream * net_forward(arch, wm, z)))) / 2e-5
        assert rel_err(fd, gw[i]) <= 1e-5


def test_backward_linear_activation_stage():
    # a leaky slope of 1 makes the stage linear
    arch = NetArch(latent_dim=6, base_rows=2, base_cols=2, base_channels=2,
                   stages=(StageSpec(3),), leaky_slope=1.0)
    rng = np.random.default_rng(14)
    w = net_init(arch, seed=15)
    z = rng.standard_normal(6)
    upstream = rng.standard_normal(arch.out_shape)
    _, gz, gw = net_eval_and_backward(arch, w, z, lambda _: upstream)
    fd_z = finite_diff(lambda zz: float(np.sum(upstream * net_forward(arch, w, zz))), z)
    np.testing.assert_allclose(gz, fd_z, rtol=1e-6, atol=1e-9)
    for i in rng.choice(arch.n_params, size=25, replace=False):
        wp = w.copy()
        wp[i] += 1e-5
        wm = w.copy()
        wm[i] -= 1e-5
        fd = (float(np.sum(upstream * net_forward(arch, wp, z)))
              - float(np.sum(upstream * net_forward(arch, wm, z)))) / 2e-5
        assert rel_err(fd, gw[i]) <= 1e-5


def test_forward_backward_pure():
    rng = np.random.default_rng(16)
    w = net_init(SMALL, seed=17)
    z = rng.standard_normal(8)
    up = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(net_forward(SMALL, w, z), net_forward(SMALL, w, z))
    _, gz1, gw1 = net_eval_and_backward(SMALL, w, z, lambda _: up)
    _, gz2, gw2 = net_eval_and_backward(SMALL, w, z, lambda _: up)
    np.testing.assert_array_equal(gz1, gz2)
    np.testing.assert_array_equal(gw1, gw2)


def test_checkpoint_roundtrip(tmp_path):
    w = net_init(SMALL, seed=24)
    path = tmp_path / "w.dpnw"
    save_weights(path, SMALL, w)
    np.testing.assert_array_equal(load_weights(path, SMALL), w)
    assert path.stat().st_size == 24 + 8 * SMALL.n_params


def test_checkpoint_header_errors(tmp_path):
    w = net_init(SMALL, seed=25)
    path = tmp_path / "w.dpnw"
    save_weights(path, SMALL, w)
    raw = path.read_bytes()

    bad = tmp_path / "bad.dpnw"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointFormatError, match="at byte 0$"):
        load_weights(bad, SMALL)

    short = tmp_path / "short.dpnw"
    short.write_bytes(raw[:40])
    with pytest.raises(CheckpointFormatError, match="truncated at byte 40: "):
        load_weights(short, SMALL)

    # architecture mismatch caught by header
    with pytest.raises(CheckpointFormatError, match="at byte 8 does not match"):
        load_weights(path, DEFAULT16)

    # an over-long file fails at its first surplus byte, as a grid file does
    long = tmp_path / "long.dpnw"
    long.write_bytes(raw + bytes(16))
    with pytest.raises(CheckpointFormatError, match=f"overlong at byte {len(raw)}: "):
        load_weights(long, SMALL)


def test_forward_rejects_bad_latent_and_upstream():
    w = net_init(SMALL, seed=26)
    with pytest.raises(ValueError):
        net_forward(SMALL, w, np.ones(9))
    with pytest.raises(ValueError):
        net_eval_and_backward(SMALL, w, np.ones(8), lambda _: np.ones((5, 5)))
    with pytest.raises(ValueError):
        net_forward(SMALL, w[:-1], np.ones(8))


# --- kernels against dense reference matrices ---

def circular_conv_matrix(W, rows, cols):
    """Dense matrix of out[o, Y, X] = sum W[o, a, u, v] x[a, Y - u + k//2,
    X - v + k//2], indices taken modulo (rows, cols)."""
    co, ci, k, _ = W.shape
    A = np.zeros((co, rows, cols, ci, rows, cols))
    for Y in range(rows):
        for X in range(cols):
            for u in range(k):
                for v in range(k):
                    A[:, Y, X, :, (Y - u + k // 2) % rows,
                      (X - v + k // 2) % cols] += W[:, :, u, v]
    return A.reshape(co * rows * cols, ci * rows * cols)


def upsample_matrix(ci, rows, cols):
    """Dense nearest-neighbor x2 upsampling of a (ci, rows, cols) map."""
    U = np.zeros((ci, 2 * rows, 2 * cols, ci, rows, cols))
    for a in range(ci):
        for Y in range(2 * rows):
            for X in range(2 * cols):
                U[a, Y, X, a, Y // 2, X // 2] = 1.0
    return U.reshape(ci * 4 * rows * cols, ci * rows * cols)


def reference_weight_grad(x, g, k):
    """d<g, conv(W, x)>/dW by direct circular shifts of the input x."""
    h = k // 2
    gW = np.empty((g.shape[0], x.shape[0], k, k))
    for u in range(k):
        for v in range(k):
            gW[:, :, u, v] = np.einsum("oyx,ayx->oa", g,
                                       np.roll(x, (u - h, v - h), axis=(1, 2)))
    return gW


GRIDS = [(1, 1), (2, 2), (3, 5)]
KERNELS = [1, 3, 5, 7, 9]


def layout_perm(rows, cols, phased, offset=0):
    """Raster index of the pixel at each position (P, n) of the generator's map
    layout: natural, or phase-major with phase offset r, position
    (2p + q, y*cols/2 + x) holding pixel (2(y + r(1 - p)) + p,
    2(x + r(1 - q)) + q) modulo (rows, cols)."""
    if not phased:
        return np.arange(rows * cols)[None]
    return np.array([[(2 * ((y + offset * (1 - p)) % (rows // 2)) + p) * cols
                      + 2 * ((x + offset * (1 - q)) % (cols // 2)) + q
                      for y in range(rows // 2) for x in range(cols // 2)]
                     for p in range(2) for q in range(2)])


def to_layout(x, phased, offset=0):
    """Natural (c, rows, cols) map -> (P, c, n) in the given layout."""
    perm = layout_perm(*x.shape[1:], phased, offset)
    return np.ascontiguousarray(x.reshape(len(x), -1)[:, perm].transpose(1, 0, 2))


def to_natural(h, rows, cols, offset=0):
    """(P, c, n) map in its layout -> natural (c, rows, cols)."""
    out = np.empty((h.shape[1], rows * cols))
    out[:, layout_perm(rows, cols, len(h) == 4, offset)] = h.transpose(1, 0, 2)
    return out.reshape(-1, rows, cols)


def check_stage_kernel(k, rows, cols, phased, seed, offset=0):
    rng = np.random.default_rng(seed)
    co, ci = 3, 2
    W = rng.standard_normal((co, ci, k, k))
    b = rng.standard_normal(co)
    x = rng.standard_normal((ci, rows, cols))
    U = upsample_matrix(ci, rows, cols)
    A = circular_conv_matrix(W, 2 * rows, 2 * cols) @ U
    plan = _stage_plan(k, ci, (rows, cols), phased, offset)
    out, stack, weff = _stage_forward(W, b, to_layout(x, phased, offset), plan, 1)
    assert out.shape == (4, co, rows * cols)
    out_offset = (k // 2) % 2
    ref = (A @ x.ravel()).reshape(co, 2 * rows, 2 * cols) + b[:, None, None]
    np.testing.assert_allclose(to_natural(out, 2 * rows, 2 * cols, out_offset), ref,
                               rtol=0, atol=1e-13)

    g = rng.standard_normal((co, 2 * rows, 2 * cols))
    gW, gb, gx = _stage_backward(W, stack, weff, to_layout(g, True, out_offset), plan)
    np.testing.assert_allclose(to_natural(gx, rows, cols, offset).ravel(),
                               A.T @ g.ravel(), rtol=0, atol=1e-13)
    # the gather-sum adds each map entry's reads in a scatter-add's order
    gS = weff.T @ to_layout(g, True, out_offset).reshape(4 * co, -1)
    np.testing.assert_array_equal(gx.ravel(),
                                  np.bincount(plan.table.ravel(), weights=gS.ravel()))
    up = (U @ x.ravel()).reshape(ci, 2 * rows, 2 * cols)
    np.testing.assert_allclose(gW, reference_weight_grad(up, g, k), rtol=0, atol=1e-13)
    np.testing.assert_allclose(gb, g.sum(axis=(1, 2)), rtol=0, atol=1e-13)


def check_final_kernel(k, rows, cols, phased, seed, offset=0):
    rng = np.random.default_rng(seed)
    ci = 3
    W = rng.standard_normal((1, ci, k, k))
    b = rng.standard_normal(1)
    x = rng.standard_normal((ci, rows, cols))
    A = circular_conv_matrix(W, rows, cols)
    h = to_layout(x, phased, offset)
    plan = _final_plan(k, 1, rows, cols, phased, offset)
    out, weff = _final_forward(W, b, h, plan, 1)
    assert out.shape == (1, rows, cols)
    np.testing.assert_allclose(out.ravel(), A @ x.ravel() + b[0], rtol=0, atol=1e-13)

    g = rng.standard_normal((1, rows, cols))
    gW, gb, gx = _final_backward(W, weff, h, g, plan)
    np.testing.assert_allclose(to_natural(gx, rows, cols, offset).ravel(),
                               A.T @ g.ravel(), rtol=0, atol=1e-13)
    np.testing.assert_allclose(gW, reference_weight_grad(x, g, k), rtol=0, atol=1e-13)
    np.testing.assert_allclose(gb, g.sum(axis=(1, 2)), rtol=0, atol=1e-13)


# The first stage reads the dense layer's natural map; every later stage, and
# the final layer of a net with stages, reads a phase-major map, whose grid
# is even, with the phase offset (k//2) % 2 of the stage that wrote it.
@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("rows,cols", GRIDS)
def test_stage_kernel_matches_dense_upsample_conv(k, rows, cols):
    check_stage_kernel(k, rows, cols, False, 100 + 10 * k + rows)


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("rows,cols", GRIDS)
def test_stage_kernel_reads_phase_major_map(k, rows, cols):
    for offset in (0, 1):
        check_stage_kernel(k, 2 * rows, 2 * cols, True, 300 + 200 * offset + 10 * k + rows,
                           offset)


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("rows,cols", GRIDS)
def test_final_kernel_matches_dense_conv(k, rows, cols):
    check_final_kernel(k, rows, cols, False, 200 + 10 * k + rows)


@pytest.mark.parametrize("k", KERNELS)
@pytest.mark.parametrize("rows,cols", GRIDS)
def test_final_kernel_reads_phase_major_map(k, rows, cols):
    for offset in (0, 1):
        check_final_kernel(k, 2 * rows, 2 * cols, True, 400 + 200 * offset + 10 * k + rows,
                           offset)


@pytest.mark.parametrize("k", KERNELS)
def test_fold_reads_only_its_window(k):
    M, w, r = _fold(k)
    assert (w, r) == (k // 2 + 1, (k // 2) % 2)
    assert M.shape == (k * k, 4 * w * w)
    # no structural zeros: every column is read by some tap
    assert (M.sum(axis=0) >= 1).all()
    # each tap lands in exactly one column of each phase
    np.testing.assert_array_equal(M.reshape(k * k, 4, w * w).sum(axis=2), 1.0)


@pytest.mark.parametrize("k", KERNELS)
def test_final_fold_puts_each_tap_in_one_group(k):
    for phased, offset in [(False, 0), (True, 0), (True, 1)]:
        plan = _final_plan(k, 1, 4, 6, phased, offset)
        Q = 4 if phased else 1
        G = (k // 2 + 1) ** 2 if phased else k * k
        M = plan.M.reshape(k * k, Q, G, Q)  # (tap, output phase, group, input phase)
        # every tap falls in exactly one (group, input phase) slot of each output phase
        np.testing.assert_array_equal(M.sum(axis=(2, 3)), 1.0)
        # no slot gathers two taps, and no group is empty
        assert M.sum(axis=0).max() == 1.0
        assert (M.sum(axis=(0, 3)) >= 1).all()
        if not phased:  # natural input: one group per tap
            np.testing.assert_array_equal(M.sum(axis=(0, 1, 3)), 1.0)
        # each output pixel reads G plane entries, and each entry feeds one pixel
        assert plan.inv.shape == (G, 1, 4, 6)
        np.testing.assert_array_equal(np.sort(plan.inv.ravel()), np.arange(plan.inv.size))
        np.testing.assert_array_equal(plan.table.ravel()[plan.inv.reshape(G, -1)],
                                      np.broadcast_to(np.arange(24), (G, 24)))


def test_index_tables_are_cached_and_read_only():
    tables = [_stack_table(2, 2, 4, 6, False, 0), _stack_table(2, 2, 4, 6, True, 1),
              *_final_plan(3, 1, 4, 6, False, 0)[:3], *_final_plan(3, 1, 4, 6, True, 1)[:3],
              _fold(3)[0], _stack_inverse(2, 2, 4, 6, True, 1)]
    assert _stack_table(2, 2, 4, 6, True, 1) is tables[1]
    assert _final_plan(3, 1, 4, 6, True, 1).inv is tables[7]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_arch_plans_are_shared_by_equal_archs():
    a, b = (NetArch(latent_dim=64, base_rows=4, base_cols=4, base_channels=8,
                    stages=tuple(StageSpec(8) for _ in range(4))) for _ in range(2))
    assert a is not b and a == b
    (_, stages_a, final_a), (_, stages_b, final_b) = a._plan, b._plan
    assert final_a.inv is final_b.inv and final_a.table is final_b.table
    assert all(p.table is q.table and p.inv is q.inv and p.M is q.M
               for p, q in zip(stages_a, stages_b))
    for table in (a._plan.base, final_a.inv, final_a.table, final_a.M,
                  *(p.table for p in stages_a), *(p.inv for p in stages_a)):
        assert not table.flags.writeable
    assert a._plan is a._plan  # resolved once per instance


def test_latent_only_backward_gives_identical_grad_z():
    arch = DESK_SHAPED
    w = net_init(arch, seed=31, scale=1.3)
    z = np.random.default_rng(32).standard_normal(arch.latent_dim)
    upstream = np.random.default_rng(33).standard_normal(arch.out_shape)
    out, gz, gw = net_eval_and_backward(arch, w, z, lambda o: upstream)
    out2, gz2, gw2 = net_eval_and_backward(arch, w, z, lambda o: upstream, weights=False)
    assert gw.shape == (arch.n_params,) and gw2 is None
    np.testing.assert_array_equal(out2, out)
    np.testing.assert_array_equal(gz2, gz)


def test_backward_matches_finite_differences_k5_on_1x1_base():
    # 5x5 kernels on 1x1 and 2x2 coarse grids: every shift wraps more than once
    arch = NetArch(latent_dim=4, base_rows=1, base_cols=1, base_channels=3,
                   stages=(StageSpec(3, kernel_size=5), StageSpec(2, kernel_size=5)),
                   final_kernel_size=5)
    rng = np.random.default_rng(27)
    w = net_init(arch, seed=28)
    z = rng.standard_normal(arch.latent_dim)
    upstream = rng.standard_normal(arch.out_shape)
    _, gz, gw = net_eval_and_backward(arch, w, z, lambda _: upstream)

    fd_z = finite_diff(lambda zz: float(np.sum(upstream * net_forward(arch, w, zz))), z)
    for i in range(arch.latent_dim):
        assert rel_err(fd_z[i], gz[i]) <= 1e-5
    fd_w = finite_diff(lambda ww: float(np.sum(upstream * net_forward(arch, ww, z))), w)
    for i in range(arch.n_params):
        assert rel_err(fd_w[i], gw[i]) <= 1e-5, i


def dense_reference(arch, w, z):
    """Forward output and latent Jacobian of the generator from dense
    natural-layout matrices: upsampling, circular convolutions and the
    leaky-ReLU slopes."""
    P = {p.name: w[p.offset:p.offset + p.size].reshape(p.shape)
         for p in arch.param_layout()}
    h = (P["dense.W"] @ z + P["dense.b"]).reshape(
        arch.base_channels, arch.base_rows, arch.base_cols)
    J = P["dense.W"]
    for i in range(len(arch.stages)):
        ci, rows, cols = h.shape
        A = circular_conv_matrix(P[f"stage{i}.W"], 2 * rows, 2 * cols) \
            @ upsample_matrix(ci, rows, cols)
        pre = (A @ h.ravel()).reshape(-1, 2 * rows, 2 * cols) \
            + P[f"stage{i}.b"][:, None, None]
        slope = np.where(pre >= 0.0, 1.0, arch.leaky_slope)
        h = slope * pre
        J = slope.reshape(-1, 1) * (A @ J)
    A = circular_conv_matrix(P["final.W"], *arch.out_shape)
    return (A @ h.ravel()).reshape(arch.out_shape) + P["final.b"][0], A @ J


def test_mixed_kernel_net_matches_dense_reference():
    # stage kernels 3, 5, 7 leave phase offsets 1, 0, 1: the second stage,
    # the third and the final layer each read a map of another offset
    arch = NetArch(latent_dim=5, base_rows=1, base_cols=2, base_channels=2,
                   stages=(StageSpec(3, kernel_size=3), StageSpec(2, kernel_size=5),
                           StageSpec(2, kernel_size=7)))
    rng = np.random.default_rng(34)
    w = net_init(arch, seed=35)
    z = rng.standard_normal(arch.latent_dim)
    upstream = rng.standard_normal(arch.out_shape)
    out, gz, gw = net_eval_and_backward(arch, w, z, lambda _: upstream)
    ref, J = dense_reference(arch, w, z)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(gz, J.T @ upstream.ravel(), rtol=0, atol=1e-13)

    fd_w = finite_diff(lambda ww: float(np.sum(upstream * net_forward(arch, ww, z))), w)
    for i in range(arch.n_params):
        assert rel_err(fd_w[i], gw[i]) <= 1e-5, i


def traced_peak_bytes(fun):
    fun()  # warm the layout and fold caches
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_desk_forward_and_backward_memory_peaks():
    # the im2col kernel peaked at 6.14 MB (forward) and 8.89 MB (forward +
    # backward) on these shapes; the bounds keep 9x fine-grid stacks out
    arch = DESK_SHAPED
    w = net_init(arch, seed=23, scale=1.3)
    z = np.random.default_rng(29).standard_normal(arch.latent_dim)
    upstream = np.random.default_rng(30).standard_normal(arch.out_shape)
    assert traced_peak_bytes(lambda: net_forward(arch, w, z)) <= 2.0e6
    assert traced_peak_bytes(
        lambda: net_eval_and_backward(arch, w, z, lambda out: upstream)) <= 4.0e6
    # pixel cones run in batches: one batch of 2000 latents peaked at 12 MB
    latents = np.random.default_rng(31).standard_normal((2000, arch.latent_dim))
    assert traced_peak_bytes(lambda: net_pixels(arch, w, latents, [(5, 7), (40, 22)])) <= 2.0e6


# Pixel plans: the desk generator, stage kernels 3/5/7 (phase offsets 1, 0,
# 1), a net without stages (natural final input) and odd base shapes with
# kernels 5/1 and a final 9 (cones that wrap around the grid).
PIXEL_ARCHS = {
    "desk": DESK_SHAPED,
    "mixed": NetArch(latent_dim=5, base_rows=1, base_cols=2, base_channels=2,
                     stages=(StageSpec(3, kernel_size=3), StageSpec(2, kernel_size=5),
                             StageSpec(2, kernel_size=7))),
    "stage-free": NetArch(latent_dim=6, base_rows=5, base_cols=7, base_channels=3,
                          stages=(), final_kernel_size=5),
    "odd-base": NetArch(latent_dim=6, base_rows=3, base_cols=5, base_channels=3,
                        stages=(StageSpec(4, kernel_size=5), StageSpec(3, kernel_size=1)),
                        final_kernel_size=9),
}


@pytest.mark.parametrize("name", PIXEL_ARCHS)
def test_every_pixel_of_one_latent_is_the_forward_bit_for_bit(name):
    arch = PIXEL_ARCHS[name]
    w = net_init(arch, seed=41, scale=1.3)
    rows, cols = arch.out_shape
    every = [(r, c) for r in range(rows) for c in range(cols)]
    for z in np.random.default_rng(42).standard_normal((3, arch.latent_dim)):
        values = net_pixels(arch, w, z[None], every)
        assert values.shape == (1, rows * cols)
        np.testing.assert_array_equal(values[0], net_forward(arch, w, z).ravel())


@pytest.mark.parametrize("count", [1, 7, 200])
@pytest.mark.parametrize("name", PIXEL_ARCHS)
def test_pixel_cones_agree_with_the_forward(name, count):
    arch = PIXEL_ARCHS[name]
    rng = np.random.default_rng(43 + count)
    w = net_init(arch, seed=44, scale=1.3)
    latents = rng.standard_normal((count, arch.latent_dim))
    full = np.stack([net_forward(arch, w, z) for z in latents])
    rows, cols = arch.out_shape
    corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    pairs = [[tuple(p) for p in rng.integers(0, (rows, cols), (2, 2))] for _ in range(3)]
    for pixels in [*pairs, corners, [corners[3], (1, 1), corners[3], (1, 1)]]:
        r, c = np.array(pixels).T
        np.testing.assert_allclose(net_pixels(arch, w, latents, pixels), full[:, r, c],
                                   rtol=0, atol=1e-14 * np.abs(full).max())
