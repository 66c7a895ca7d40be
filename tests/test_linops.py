import numpy as np
import pytest

from breguq.linops import ComposeOp, ConvOp, RestrictOp, dot_test

from conftest import ScaledIdentity

ONE_TAP = np.array([[1.0]])  # the identity stencil


def conv_reference(taps, x):
    """Direct quadruple-loop circular convolution; the independent oracle."""
    k = taps.shape[0]
    h = k // 2
    rows, cols = x.shape
    out = np.zeros_like(x)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for u in range(k):
                for v in range(k):
                    acc += taps[u, v] * x[(r - u + h) % rows, (c - v + h) % cols]
            out[r, c] = acc
    return out


def test_identity_kernel_is_identity():
    x = np.random.default_rng(0).standard_normal((5, 7))
    k = np.array([[0.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(ConvOp(k, x.shape).apply(x), x)


def test_centered_tap_scales():
    x = np.random.default_rng(1).standard_normal((4, 4))
    k = np.array([[2.0]])
    np.testing.assert_array_equal(ConvOp(k, x.shape).apply(x), 2.0 * x)


def test_offcenter_tap_is_circular_shift_and_matches_reference():
    x = np.arange(16.0).reshape(4, 4)
    taps = np.zeros((3, 3))
    taps[0, 1] = 1.0  # displacement (-1, 0): pulls from the row below
    got = ConvOp(taps, x.shape).apply(x)
    np.testing.assert_array_equal(got, np.roll(x, -1, axis=0))
    np.testing.assert_allclose(got, conv_reference(taps, x), rtol=0, atol=0)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9], ids="k{}".format)
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 3), (6, 5), (17, 3),
                                   (5, 37), (3, 70)],
                         ids=lambda s: "{}x{}".format(*s))
def test_random_kernel_matches_reference(shape, k):
    # includes kernels wider than the grid, which wrap around it repeatedly,
    # and grids wider than one 16-column block whose width is not a multiple
    # of it; the adjoint is the convolution with the point-reflected taps
    rng = np.random.default_rng([k, *shape])
    taps = rng.standard_normal((k, k))
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    op = ConvOp(taps, shape)
    np.testing.assert_allclose(op.apply(x),
                               conv_reference(taps, x), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(op.adjoint(y),
                               conv_reference(taps[::-1, ::-1], y), rtol=1e-13, atol=1e-13)
    for out, a in ((op.apply(x), x), (op.adjoint(y), y)):  # a fresh grid each call
        assert out.flags.c_contiguous and not np.shares_memory(out, a)


def test_symmetric_kernel_self_adjoint():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    k = a + a[::-1, ::-1]  # point-symmetric
    y = rng.standard_normal((6, 6))
    op = ConvOp(k, y.shape)
    np.testing.assert_allclose(op.adjoint(y), op.apply(y), rtol=1e-14)


def test_identity_kernel_adjoint_is_identity():
    y = np.random.default_rng(4).standard_normal((4, 5))
    np.testing.assert_array_equal(ConvOp(ONE_TAP, y.shape).adjoint(y), y)


def test_conv_adjoint_dot_identity():
    rng = np.random.default_rng(5)
    k = rng.standard_normal((3, 3))
    x = rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 5))
    op = ConvOp(k, (5, 5))
    lhs = np.sum(op.apply(x) * y)
    rhs = np.sum(x * op.adjoint(y))
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_restriction_full_mask_flattens():
    x = np.arange(9.0).reshape(3, 3)
    mask = np.arange(9)
    np.testing.assert_array_equal(RestrictOp(mask, x.shape).apply(x), x.ravel())


def test_restriction_empty_mask():
    x = np.ones((3, 3))
    mask = np.array([], dtype=np.int64)
    op = RestrictOp(mask, x.shape)
    assert op.apply(x).size == 0
    np.testing.assert_array_equal(op.adjoint([]),
                                  np.zeros((3, 3)))


def test_restriction_direct_read():
    x = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(
        RestrictOp(np.array([0, 5]), x.shape).apply(x), [0.0, 5.0])


def test_restrict_op_adjoint_full_mask_reshapes():
    v = np.arange(6.0)
    got = RestrictOp(np.arange(6), (2, 3)).adjoint(v)
    np.testing.assert_array_equal(got, v.reshape(2, 3))


def test_restriction_dot_identity():
    rng = np.random.default_rng(6)
    mask = np.sort(rng.choice(20, 7, replace=False))
    x = rng.standard_normal((4, 5))
    y = rng.standard_normal(7)
    op = RestrictOp(mask, (4, 5))
    lhs = np.dot(op.apply(x), y)
    rhs = np.sum(x * op.adjoint(y))
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_compose_with_identity_is_inner():
    rng = np.random.default_rng(7)
    conv = ConvOp(rng.standard_normal((3, 3)), (4, 4))
    p = RestrictOp(np.sort(rng.choice(16, 5, replace=False)), (4, 4))
    x, y = rng.standard_normal((4, 4)), rng.standard_normal(5)
    comp = ComposeOp(ConvOp(ONE_TAP, (4, 4)), conv)
    np.testing.assert_array_equal(comp.apply(x), conv.apply(x))
    np.testing.assert_array_equal(comp.adjoint(x), conv.adjoint(x))
    comp = ComposeOp(p, ConvOp(ONE_TAP, (4, 4)))  # and an identity inside is the outer
    np.testing.assert_array_equal(comp.apply(x), p.apply(x))
    np.testing.assert_array_equal(comp.adjoint(y), p.adjoint(y))


def test_compose_scales_multiply():
    comp = ComposeOp(ConvOp([[2.0]], (3, 3)), ConvOp([[3.0]], (3, 3)))
    x = np.random.default_rng(8).standard_normal((3, 3))
    np.testing.assert_allclose(comp.apply(x), 6.0 * x, rtol=1e-15)
    np.testing.assert_allclose(comp.adjoint(x), 6.0 * x, rtol=1e-15)


def test_restrict_compose_conv_dot_test():
    rng = np.random.default_rng(9)
    kernel = rng.standard_normal((3, 3))
    mask = np.sort(rng.choice(36, 12, replace=False))
    op = ComposeOp(RestrictOp(mask, (6, 6)), ConvOp(kernel, (6, 6)))
    assert dot_test(op, seed=1, trials=20) <= 1e-10


@pytest.mark.parametrize("op", [ScaledIdentity((6, 6)), ScaledIdentity((6, 6), -4.5)])
def test_dot_test_trivial_ops(op):
    assert dot_test(op, seed=2, trials=20) <= 1e-14


def test_adjoint_consistency_all_kinds():
    rng = np.random.default_rng(10)
    shape = (8, 9)
    kernel = rng.standard_normal((5, 5))
    mask = np.sort(rng.choice(72, 30, replace=False))
    ops = [ConvOp(kernel, shape), RestrictOp(mask, shape),
           ComposeOp(RestrictOp(mask, shape), ConvOp(kernel, shape))]
    for op in ops:
        assert dot_test(op, seed=11, trials=20) <= 1e-10, op


def test_linearity():
    rng = np.random.default_rng(12)
    kernel = rng.standard_normal((3, 3))
    op = ConvOp(kernel, (7, 7))
    for trial in range(5):
        x = rng.standard_normal((7, 7))
        y = rng.standard_normal((7, 7))
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_shift_equivariance_on_torus():
    rng = np.random.default_rng(13)
    op = ConvOp(rng.standard_normal((3, 3)), (6, 8))
    x = rng.standard_normal((6, 8))
    for shift in [(1, 0), (0, 3), (4, 5)]:
        lhs = op.apply(np.roll(x, shift, axis=(0, 1)))
        rhs = np.roll(op.apply(x), shift, axis=(0, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_rejections():
    for taps in (np.ones((2, 2)), np.ones((3, 5)), np.ones(3), np.array([[np.nan]]),
                 np.array([[1.0, 0, 0], [0, np.inf, 0], [0, 0, 1.0]])):
        with pytest.raises(ValueError):  # even, non-square, not 2-D, non-finite
            ConvOp(taps, (3, 3))
    for indices in ([3, 3], [4, 2], [-1, 2], [0, 9], [99]):
        with pytest.raises(ValueError):  # repeated, decreasing, negative, out of range
            RestrictOp(indices, (3, 3))
    with pytest.raises(ValueError):
        ConvOp(ONE_TAP, (3, 3)).apply(np.ones(5))  # not 2-D
    op = ConvOp(ONE_TAP, (3, 3))
    with pytest.raises(ValueError):
        op.apply(np.ones((4, 4)))
    with pytest.raises(ValueError):
        ComposeOp(RestrictOp([0, 1], (3, 3)), ConvOp(ONE_TAP, (2, 2)))
    with pytest.raises(ValueError):
        RestrictOp([0, 1], (2, 2)).adjoint([1.0])


def test_operators_keep_read_only_copies():
    taps, indices = np.eye(3), np.array([1, 4])
    conv, restrict = ConvOp(taps, (3, 3)), RestrictOp(indices, (3, 3))
    taps[1, 1] = indices[0] = 0  # the caller's arrays are not the operators'
    np.testing.assert_array_equal(conv.taps, np.eye(3))
    np.testing.assert_array_equal(restrict.indices, [1, 4])
    assert (conv.taps.dtype, restrict.indices.dtype) == (np.float64, np.int64)
    for a in (conv.taps, restrict.indices):
        with pytest.raises(ValueError):
            a[0] = 1
