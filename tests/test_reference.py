import math
import tracemalloc

import numpy as np
import pytest

from tdcnet.errors import DimensionError
from tdcnet.model import DeconvLayerSpec, Tensor3, conv_layer, conv_operands
from tdcnet.reference import (_GROUP_BYTES, _bicubic_planes, _bicubic_weights, _cubic_kernel,
                              _padded_block, _phase_weights, _taps_window, conv_taps,
                              bicubic_upscale_plane, canvas_window, conv2d,
                              deconv2d_canvas, depth_to_space, prelu, psnr,
                              rgb_to_ycbcr, ycbcr_to_rgb)

from conftest import random_deconv


def conv2d_loops(x: Tensor3, layer) -> np.ndarray:
    """Independent triple-loop convolution used as an oracle for conv2d."""
    n_in, h, w = x.data.shape
    k, m, pb = layer.kernel, layer.out_maps, layer.pad_before
    out = np.zeros((m, h, w))
    for om in range(m):
        for yy in range(h):
            for xx in range(w):
                acc = layer.bias[om]
                for n in range(n_in):
                    for ky in range(k):
                        for kx in range(k):
                            sy, sx = yy - pb + ky, xx - pb + kx
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += layer.weights[om, n, ky, kx] * x.data[n, sy, sx]
                out[om, yy, xx] = acc
    if layer.prelu_slope is not None:
        out = np.where(out >= 0, out, layer.prelu_slope[:, None, None] * out)
    return out


class TestConv2d:
    def test_identity(self, rng):
        x = Tensor3(rng.normal(size=(1, 4, 4)))
        layer = conv_layer(1, 1, 1, np.ones((1, 1, 1, 1)))
        assert np.array_equal(conv2d(x, layer).data, x.data)

    def test_ones_kernel_edge_counts(self):
        x = Tensor3(np.ones((1, 3, 3)))
        layer = conv_layer(3, 1, 1, np.ones((1, 1, 3, 3)))
        out = conv2d(x, layer).data[0]
        assert out[1, 1] == 9
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4

    def test_matches_independent_loops(self, rng):
        x = Tensor3(rng.integers(-9, 10, size=(2, 5, 5)).astype(float))
        layer = conv_layer(3, 3, 2,
                           rng.integers(-9, 10, size=(3, 2, 3, 3)).astype(float),
                           rng.integers(-9, 10, size=3).astype(float),
                           np.abs(rng.normal(0, 1, 3)))
        assert np.allclose(conv2d(x, layer).data, conv2d_loops(x, layer),
                           rtol=0, atol=1e-12)

    def test_channel_mismatch(self, rng):
        layer = conv_layer(3, 1, 2, np.zeros((1, 2, 3, 3)))
        with pytest.raises(DimensionError):
            conv2d(Tensor3(np.zeros((1, 3, 3))), layer)

    def test_linearity(self, rng):
        layer = conv_layer(3, 2, 2, rng.normal(size=(2, 2, 3, 3)))
        u = Tensor3(rng.normal(size=(2, 4, 4)))
        v = Tensor3(rng.normal(size=(2, 4, 4)))
        lhs = conv2d(Tensor3(2.0 * u.data + 3.0 * v.data), layer).data
        rhs = 2.0 * conv2d(u, layer).data + 3.0 * conv2d(v, layer).data
        assert np.allclose(lhs, rhs, rtol=1e-9)


@pytest.mark.parametrize("kernel, live", [(3, "dense"), (3, "sparse"), (1, "dense")])
def test_conv_taps_reads_row_interleaved_blocks_in_place(rng, kernel, live):
    # tracemalloc counts numpy's buffers: the (R, M, W) sums, the column
    # products (g columns of a dense layer, one run's maps of a sparse one;
    # none for K = 1) and the in-place adds' ufunc buffers, at most np.getbufsize()
    # samples for each of 3 operands, never a block-sized copy, which a C-order
    # block takes
    m, n, r, w = 4, 64, 16, 64
    weights = rng.normal(size=(m, n, kernel, kernel))
    if live == "sparse":
        weights[2:, :, 0] = 0                             # maps 0, 1 alone in kernel row 0
    ops = conv_operands(weights, np.zeros(m))
    # K = 1 takes the rows as given, so give them held row-interleaved
    x = np.ascontiguousarray(rng.normal(size=(n, r, w)).transpose(1, 0, 2)).transpose(1, 0, 2)
    block = _padded_block(x, kernel, kernel // 2, kernel // 2)[0]
    sums = r * m * w * 8
    products = {1: 0, 3: sums * (min(kernel, _GROUP_BYTES // sums) if live == "dense" else 1)}
    peaks = []
    for padded in (block, np.ascontiguousarray(block)):
        conv_taps(padded, ops)
        tracemalloc.start()
        try:
            conv_taps(padded, ops)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= sums + products[kernel] + 3 * 8 * np.getbufsize() + 16384 < block.nbytes
    assert peaks[1] >= peaks[0] + block.nbytes


class TestDeconvCanvas:
    def test_single_pixel_block(self, rng):
        w = rng.integers(-9, 10, size=(1, 1, 3, 3)).astype(float)
        layer = DeconvLayerSpec(3, 2, 1, 1, w, np.zeros(1))
        x = Tensor3(np.full((1, 1, 1), 7.0))
        assert np.array_equal(deconv2d_canvas(x, layer).data[0], 7.0 * w[0, 0])

    def test_two_blocks_overlap_one_column(self, rng):
        w = rng.integers(-9, 10, size=(1, 1, 3, 3)).astype(float)
        layer = DeconvLayerSpec(3, 2, 1, 1, w, np.zeros(1))
        p, q = 3.0, 5.0
        canvas = deconv2d_canvas(Tensor3(np.array([[[p, q]]])), layer).data[0]
        assert canvas.shape == (3, 5)
        assert np.array_equal(canvas[:, 2], p * w[0, 0, :, 2] + q * w[0, 0, :, 0])

    def test_zero_input(self):
        layer = DeconvLayerSpec(3, 2, 1, 1, np.ones((1, 1, 3, 3)), np.zeros(1))
        canvas = deconv2d_canvas(Tensor3(np.zeros((1, 3, 3))), layer)
        assert not canvas.data.any()

    def test_mass_conservation(self, rng):
        layer = random_deconv(rng, 5, 2)
        x = Tensor3(rng.integers(-9, 10,
                                 size=(layer.in_maps, 3, 4)).astype(float))
        canvas = deconv2d_canvas(x, layer)
        for m in range(layer.out_maps):
            expect = sum(x.data[n].sum() * layer.weights[m, n].sum()
                         for n in range(layer.in_maps))
            assert canvas.data[m].sum() == expect

    def test_adjoint_of_strided_conv(self, rng):
        # on a 3x3 input, the canvas operator's matrix must be the transpose
        # of the matrix of stride-S valid convolution with the same kernel
        kd, s, h = 3, 2, 3
        w = rng.integers(-9, 10, size=(1, 1, kd, kd)).astype(float)
        layer = DeconvLayerSpec(kd, s, 1, 1, w, np.zeros(1))
        ch = (h - 1) * s + kd
        deconv_mat = np.zeros((ch * ch, h * h))
        for i in range(h * h):
            e = np.zeros((1, h, h))
            e[0, i // h, i % h] = 1.0
            deconv_mat[:, i] = deconv2d_canvas(Tensor3(e), layer).data.reshape(-1)
        conv_mat = np.zeros((h * h, ch * ch))
        for j in range(ch * ch):
            img = np.zeros((ch, ch))
            img[j // ch, j % ch] = 1.0
            for oy in range(h):
                for ox in range(h):
                    patch = img[oy * s:oy * s + kd, ox * s:ox * s + kd]
                    conv_mat[oy * h + ox, j] = (w[0, 0] * patch).sum()
        assert np.array_equal(deconv_mat, conv_mat.T)


class TestDepthToSpace:
    def test_s2_block_layout(self):
        t = Tensor3(np.array([[[1.0]], [[2.0]], [[3.0]], [[4.0]]]))
        assert np.array_equal(depth_to_space(t, 2).data[0],
                              [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1, 2, 5, 9])
    def test_row_bands_equal_whole_plane(self, scale, h):
        # a band reads only its taps' input rows, yet every sample is the
        # whole-plane one, for every band of whole input rows
        rng = np.random.default_rng([scale, h])
        planes = rng.uniform(-300.0, 600.0, (2, h, 7))
        weights = _bicubic_weights(h, 7, scale)
        whole = _bicubic_planes(planes, weights)
        for i0 in range(h):
            for i1 in range(i0 + 1, h + 1):
                band = _bicubic_planes(planes[:, _taps_window(i0, i1, h)], weights,
                                       (i0 * scale, i1 * scale))
                assert np.array_equal(band, whole[:, i0 * scale:i1 * scale])

    def test_s1_identity(self, rng):
        t = Tensor3(rng.normal(size=(3, 2, 2)))
        assert np.array_equal(depth_to_space(t, 1).data, t.data)

    def test_channel_divisibility(self):
        with pytest.raises(DimensionError):
            depth_to_space(Tensor3(np.zeros((3, 2, 2))), 2)


class TestPrelu:
    def test_slope_zero_is_relu(self):
        t = Tensor3(np.array([[[-2.0, 3.0]]]))
        assert np.array_equal(prelu(t, [0.0]).data, [[[0.0, 3.0]]])

    def test_slope_one_is_identity(self, rng):
        t = Tensor3(rng.normal(size=(2, 3, 3)))
        assert np.array_equal(prelu(t, [1.0, 1.0]).data, t.data)

    def test_definition(self):
        t = Tensor3(np.array([[[-2.0]]]))
        assert prelu(t, [0.25]).data[0, 0, 0] == -0.5

    def test_slope_count(self):
        with pytest.raises(DimensionError):
            prelu(Tensor3(np.zeros((2, 1, 1))), [0.1])


def _bicubic_axis(plane: np.ndarray, scale: int, axis: int) -> np.ndarray:
    """The per-tap gather loop bicubic_upscale_plane ran before its polyphase
    form, kept verbatim as the oracle of that form."""
    if scale == 1:
        return plane.copy()
    size = plane.shape[axis]
    dst = np.arange(size * scale)
    src = (dst + 0.5) / scale - 0.5          # half-pixel-center alignment
    base = np.floor(src).astype(int)
    out_shape = list(plane.shape)
    out_shape[axis] = size * scale
    out = np.zeros(out_shape)
    for tap in (-1, 0, 1, 2):
        idx = np.clip(base + tap, 0, size - 1)  # clamp-to-edge sampling
        wgt = _cubic_kernel(src - (base + tap))
        taken = np.take(plane, idx, axis=axis)
        shape = [1] * plane.ndim
        shape[axis] = -1
        out += wgt.reshape(shape) * taken
    return out


class TestBicubic:
    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 9), (17, 13), (12, 160), (96, 96)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_gather_loop(self, scale, shape):
        rng = np.random.default_rng([scale, *shape])
        # chroma in its studio range [16, 240], and samples well outside it
        p = rng.uniform(16.0, 240.0, shape)
        far = rng.random(shape) < 0.2
        p[far] = rng.choice([-300.0, -1.5, 0.0, 255.0, 1e6], int(far.sum()))
        want = _bicubic_axis(_bicubic_axis(p, scale, 0), scale, 1)
        assert np.array_equal(bicubic_upscale_plane(p, scale), want)

    @pytest.mark.parametrize("scale", range(1, 9))
    def test_phase_base_is_periodic(self, scale):
        # the polyphase form reads phase p at base[p] + i; this holds because
        # (2p + 1 - s) / 2s is 0 or at least 1/2s away from an integer
        n = 4096
        src = (np.arange(n * scale) + 0.5) / scale - 0.5
        base = np.floor(src).reshape(n, scale)
        assert np.array_equal(base, np.arange(n)[:, None] + base[0])

    def test_s1_identity(self, rng):
        p = rng.normal(size=(4, 5))
        assert np.array_equal(bicubic_upscale_plane(p, 1), p)

    @pytest.mark.parametrize("scale", [2.0, 2.5, "2", None])
    def test_non_integral_scale_is_a_dimension_error(self, scale):
        # a bare TypeError from deep inside the filter, before
        with pytest.raises(DimensionError, match=f"got {scale!r}"):
            bicubic_upscale_plane(np.ones((3, 4)), scale)

    @pytest.mark.parametrize("scale", [np.int64(2), np.array(2)], ids=repr)
    def test_integral_scales_are_accepted(self, rng, scale):
        p = rng.normal(size=(3, 4))
        want = bicubic_upscale_plane(p, int(scale))
        assert np.array_equal(bicubic_upscale_plane(p, scale), want)

    @pytest.mark.parametrize("scale", [2, 4])
    def test_phase_weights_collapse_exactly(self, scale):
        # (d + 0.5) / s is exact for a power of two s, so every sample of a
        # phase has the scalar's weight, in bands starting anywhere up to 2**20
        wgts = _phase_weights(7, scale)
        assert wgts.shape == (4, scale)
        taps = np.arange(-1, 3)[:, None]
        chunk = 2 ** 16
        for i0 in range(0, 2 ** 20 + chunk, chunk):
            src = (np.arange(i0 * scale, (i0 + chunk) * scale) + 0.5) / scale - 0.5
            per_sample = _cubic_kernel(src - (np.floor(src) + taps)).reshape(4, chunk, scale)
            assert np.array_equal(per_sample, np.broadcast_to(wgts[:, None], per_sample.shape))

    def test_phase_weights_stay_per_sample_at_s3(self):
        # (d + 0.5) / 3 rounds, so the weights of some phase differ between
        # samples in the last bits: s = 3 keeps a row of weights per phase
        n = 1000
        wgts = _phase_weights(n, 3)
        src = (np.arange(3 * n) + 0.5) / 3 - 0.5
        per_sample = _cubic_kernel(src - (np.floor(src) + np.arange(-1, 3)[:, None]))
        assert wgts.shape == (4, 3, n) and wgts.flags.c_contiguous
        assert np.array_equal(wgts, per_sample.reshape(4, n, 3).transpose(0, 2, 1))
        assert (wgts != wgts[..., :1]).any()

    def test_weights_built_once_per_shape(self):
        weights = _bicubic_weights(12, 160, 3)
        again = _bicubic_weights(12, 160, 3)
        assert again is weights and all(a is b for a, b in zip(again, weights))
        for a in weights:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_weights_sweep_past_the_cache_bound(self):
        shapes = [(h, w, s) for s in (2, 3, 4) for h in (1, 5, 12) for w in (1, 7, 16, 160)]
        assert len(shapes) > _bicubic_weights.cache_info().maxsize
        for _ in range(2):                      # the second pass rebuilds evicted weights
            for h, w, s in shapes:
                rows, cols = _bicubic_weights(h, w, s)
                assert np.array_equal(rows, _phase_weights(h, s))
                assert np.array_equal(cols, _phase_weights(w + 4, s))

    def test_constant_preserved(self):
        out = bicubic_upscale_plane(np.full((4, 4), 3.25), 3)
        assert np.allclose(out, 3.25, rtol=0, atol=1e-12)

    def test_linear_ramp_interior(self):
        ramp = np.tile(np.arange(16.0), (4, 1))
        out = bicubic_upscale_plane(ramp, 2)
        # interior fine columns away from clamped edges follow the same ramp
        fine = (np.arange(32) + 0.5) / 2 - 0.5
        assert np.allclose(out[:, 4:-4], np.tile(fine, (8, 1))[:, 4:-4],
                           rtol=0, atol=1e-9)


def stacked(y, cb, cr):
    # the whole-image formula: three float64 planes stacked, then rounded
    y_full = (y - 16.0) * (255.0 / 219.0)
    r = y_full + (cr - 128.0) * (1.0 - 0.299) * (255.0 / 112.0)
    b = y_full + (cb - 128.0) * (1.0 - 0.114) * (255.0 / 112.0)
    g = (y_full - 0.299 * r - 0.114 * b) / 0.587
    return np.clip(np.rint(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


class TestColor:
    def test_white(self):
        y, cb, cr = rgb_to_ycbcr(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert np.allclose([y[0, 0], cb[0, 0], cr[0, 0]], [235.0, 128.0, 128.0])

    def test_black(self):
        y, cb, cr = rgb_to_ycbcr(np.zeros((1, 1, 3), dtype=np.uint8))
        assert np.allclose([y[0, 0], cb[0, 0], cr[0, 0]], [16.0, 128.0, 128.0])

    def test_roundtrip_within_one_code(self, rng):
        img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        back = ycbcr_to_rgb(*rgb_to_ycbcr(img))
        assert np.abs(back.astype(int) - img.astype(int)).max() <= 1

    def test_ycbcr_to_rgb_of_scalars(self):
        # 0-d planes raised a TypeError from the scratch product, before
        got = ycbcr_to_rgb(100.0, 90.0, 200.0)
        assert got.shape == (3,) and got.tobytes() == stacked(100.0, 90.0, 200.0).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 1), (17, 13)])
    def test_ycbcr_to_rgb_matches_stacked_formula(self, shape):
        rng = np.random.default_rng(list(shape))
        # values far outside the studio ranges convert outside [0, 255]
        y, cb, cr = (rng.uniform(-60.0, 320.0, shape) for _ in range(3))
        # grey samples whose R and B land exactly on k + 0.5 (ties round to even)
        k = np.arange(-3, 259)
        ties = 16.0 + (k + 0.5) * (219.0 / 255.0)
        ties = ties[((ties - 16.0) * (255.0 / 219.0)) % 1.0 == 0.5]
        assert ties.size > 100
        mask = rng.random(shape) < 0.5
        mask.flat[0] = True
        y[mask] = rng.choice(ties, int(mask.sum()))
        even = np.floor((ties - 16.0) * (255.0 / 219.0)) % 2 == 0
        y.flat[0] = ties[even][0]                # half to even rounds this one down
        cb[mask] = cr[mask] = 128.0
        if y.size > 2:                       # one sample each side of [0, 255]
            y.flat[-2:], cb.flat[-2:], cr.flat[-2:] = (300.0, -60.0), (300.0, 128.0), (-50.0, 128.0)
        inputs = [a.copy() for a in (y, cb, cr)]
        want = stacked(y, cb, cr)
        got = ycbcr_to_rgb(y, cb, cr)
        assert got.dtype == np.uint8 and got.shape == shape + (3,)
        assert got.tobytes() == want.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(inputs, (y, cb, cr)))


class TestPsnr:
    def test_identical_is_inf(self, rng):
        a = rng.normal(size=(1, 4, 4))
        assert psnr(a, a) == math.inf

    def test_full_range_is_zero(self):
        assert psnr(np.zeros((1, 4, 4)), np.full((1, 4, 4), 255.0)) == 0.0

    def test_single_pixel_off_by_one(self):
        a = np.zeros((1, 4, 4))
        b = a.copy()
        b[0, 0, 0] = 1.0
        assert psnr(a, b, 0) == pytest.approx(10 * math.log10(65025 * 16))

    def test_border_crop(self):
        a = np.zeros((1, 4, 4))
        b = a.copy()
        b[0, 0, 0] = 100.0       # difference confined to the border
        assert psnr(a, b, 1) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))


class TestCanvasWindow:
    def test_zero_extension(self, rng):
        canvas = Tensor3(rng.normal(size=(1, 3, 3)))
        win = canvas_window(canvas, -1, 3, 3).data[0]
        assert not win[0].any() and not win[:, 0].any()
        assert np.array_equal(win[1:, 1:], canvas.data[0, :2, :2])
