import ast
import mmap
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import (dense_A_matrix, dense_domain_matrix, direct_green_matrix,
                       mp_green_2d, mp_j, mp_self_interaction, mp_y, n_padded_adjoint,
                       n_padded_apply, padded_fft_apply, padded_kernel)
from wavetomo import greens
from wavetomo.analytic import helmholtz_residual
from wavetomo.errors import ConfigError, DimensionError, SingularityError
from wavetomo.greens import GRAF_TAIL, SystemOperator, green_matrix, green_products
from wavetomo.grid import refined_grid


# name -> (call on small_setup's (grid, G, H, u_in), error, message start):
# each argument check of greens.py no other test reaches
GREENS_REJECTIONS = {
    "zero 2D wavenumber": (lambda s: wt.green_2d(np.array([1.0, 0.0]), k_b=0.0),
                           ConfigError, "k_b must be positive"),
    "negative 3D wavenumber": (lambda s: wt.green_3d(np.array([1.0, 0.0, 0.0]), k_b=-1.0),
                               ConfigError, "k_b must be nonnegative"),
    "field of the wrong shape": (lambda s: s[1].apply(np.zeros((8, 7))),
                                 DimensionError, "field has shape (8, 7), expected (8, 8)"),
    "sensor vector of the wrong shape": (
        lambda s: s[2].apply_adjoint(np.zeros(11)),
        DimensionError, "sensor vector has shape (11,), expected (12,)"),
    "mask index past the sensors": (lambda s: wt.MaskedSensorOperator(s[2], [0, 12]),
                                    ConfigError, "receiver index out of range"),
    "masked sensor vector of the wrong shape": (
        lambda s: wt.MaskedSensorOperator(s[2], [0, 3]).apply_adjoint(np.zeros(12)),
        DimensionError, "sensor vector has shape (12,), expected (2,)"),
    "fields of the wrong width": (
        lambda s: green_products(s[0], np.ones((1, 2)), 1.0, np.zeros((3, 63))),
        DimensionError, "fields have shape (3, 63), expected (T, 64)"),
    "one field, not a stack": (
        lambda s: green_products(s[0], np.ones((1, 2)), 1.0, np.zeros(64)),
        DimensionError, "fields have shape (64,), expected (T, 64)"),
}


@pytest.mark.parametrize("case", list(GREENS_REJECTIONS))
def test_rejections(small_setup, case):
    call, error, message = GREENS_REJECTIONS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call(small_setup)


def adjoint_gap(apply_fn, adjoint_fn, x, y):
    lhs = np.vdot(y, apply_fn(x))
    rhs = np.vdot(adjoint_fn(y), x)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


class TestPointGreens:
    def test_green_2d_unit_argument(self):
        # (j/4) H0^(1)(1) with J0(1), Y0(1) from the arbitrary-precision oracle
        val = wt.green_2d(np.array([1.0, 0.0]), k_b=1.0)
        expect = 0.25j * (mp_j(0, 1.0) + 1j * mp_y(0, 1.0))
        assert val == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.25j * (0.7651976866 + 1j * 0.0882569642),
                                       rel=1e-9)

    def test_green_2d_asymptotic_decay(self):
        # |g| ~ r^(-1/2): fit the log-slope over a decade
        r = np.logspace(2.0, 3.0, 24)
        disp = np.stack([r, np.zeros_like(r)], axis=-1)
        mags = np.abs(wt.green_2d(disp, k_b=1.0))
        slope = np.polyfit(np.log(r), np.log(mags), 1)[0]
        assert slope == pytest.approx(-0.5, abs=1e-3)

    def test_green_2d_singularity(self):
        with pytest.raises(SingularityError):
            wt.green_2d(np.zeros(2), k_b=5.0)

    def test_green_3d_values(self):
        assert wt.green_3d(np.array([1.0, 0, 0]), k_b=0.0) == pytest.approx(
            1.0 / (4 * np.pi))
        assert wt.green_3d(np.array([1.0, 0, 0]), k_b=np.pi) == pytest.approx(
            -1.0 / (4 * np.pi))
        one = wt.green_3d(np.array([0.7, 0, 0]), k_b=2.0)
        two = wt.green_3d(np.array([1.4, 0, 0]), k_b=2.0)
        assert abs(two) == pytest.approx(0.5 * abs(one), rel=1e-12)
        with pytest.raises(SingularityError):
            wt.green_3d(np.zeros(3), k_b=1.0)


class TestDomainOperator:
    def test_zero_maps_to_zero(self, small_setup):
        _, G, _, _ = small_setup
        out = G.apply(np.zeros(G.grid.shape, dtype=complex))
        assert np.all(out == 0)

    def test_adjoint_identity(self, rng):
        grid = wt.centered_grid((16, 16), spacing=0.03, wavelength=0.4)
        G = wt.build_domain_operator(grid)
        for _ in range(10):
            x = random_field(rng, grid.shape)
            y = random_field(rng, grid.shape)
            assert adjoint_gap(G.apply, G.apply_adjoint, x, y) <= 1e-12

    def test_linearity(self, small_setup, rng):
        _, G, _, _ = small_setup
        x = random_field(rng, G.grid.shape)
        y = random_field(rng, G.grid.shape)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = G.apply(a * x + b * y)
        rhs = a * G.apply(x) + b * G.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_impulse_gives_weighted_green(self):
        grid = wt.centered_grid((12, 12), spacing=0.05, wavelength=0.5)
        G = wt.build_domain_operator(grid)
        v = np.zeros(grid.shape)
        v[6, 6] = 1.0
        out = G.apply(v)
        pts = grid.pixel_centers()
        src = pts[6, 6]
        for ij in [(0, 0), (2, 9), (11, 3), (6, 7)]:
            expect = wt.green_2d(pts[ij] - src, grid.k_b) * grid.pixel_volume
            assert out[ij] == pytest.approx(expect, rel=1e-12)

    def test_fft_matches_direct_sum(self, rng):
        for shape in [(9, 7), (16, 16)]:
            grid = wt.centered_grid(shape, spacing=0.04, wavelength=0.45)
            G = wt.build_domain_operator(grid)
            dense = dense_domain_matrix(grid)
            v = random_field(rng, grid.shape)
            got = G.apply(v)
            expect = (dense @ v.ravel()).reshape(grid.shape)
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_fft_matches_direct_sum_3d(self, rng):
        grid = wt.DomainGrid((5, 4, 4), 0.05, (-0.1, -0.075, -0.075), 0.4)
        G = wt.build_domain_operator(grid)
        dense = dense_domain_matrix(grid)
        v = random_field(rng, grid.shape)
        got = G.apply(v)
        expect = (dense @ v.ravel()).reshape(grid.shape)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    @staticmethod
    def fft_grid_operator(shape):
        origin = tuple(-0.02 * n for n in shape)
        return wt.build_domain_operator(wt.DomainGrid(shape, 0.04, origin, 0.45))

    @pytest.mark.parametrize("shape", [(9, 7), (16, 16), (5, 4, 4), (7, 9, 6)])
    def test_bit_identical_to_padded_fftn(self, rng, shape):
        # per-axis transforms that skip zero lines and crop as they go feed
        # every kept line the inputs fftn gives it over the reversed axes
        G = self.fft_grid_operator(shape)
        for v in (random_field(rng, shape), rng.standard_normal(shape)):
            before = v.copy()
            got = G.apply(v)
            assert got.shape == shape
            assert np.array_equal(v, before)
            assert np.array_equal(got, padded_fft_apply(G, v))
            assert np.array_equal(G.apply_adjoint(v),
                                  np.conj(padded_fft_apply(G, np.conj(v))))
            assert np.array_equal(v, before)

    @pytest.mark.parametrize("shape", [(9, 7), (16, 16), (5, 4, 4), (7, 9, 6), (32, 32, 32)])
    def test_close_to_default_order_fftn(self, rng, shape):
        # the axis order of the forward passes changes only round-off
        G = self.fft_grid_operator(shape)
        v = random_field(rng, shape)
        expect = padded_fft_apply(G, v, axes_order=range(len(shape)))
        assert np.max(np.abs(G.apply(v) - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("shape,box", [
        ((9, 7), (slice(3, 6), slice(1, 5))),
        ((7, 9, 6), (slice(1, 4), slice(2, 6), slice(4, 6))),
    ], ids=["9x7", "7x9x6"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64])
    def test_bit_identical_to_n_padded_passes(self, rng, shape, box, dtype):
        # padding into a buffer of the period feeds every line the inputs
        # fft(n=P) gave it, for G and for a block whose periods are shorter
        # than 2n
        G = self.fft_grid_operator(shape)
        _, block = G.column_block(boxed_potential(shape, box, rng))
        assert block is not G
        assert all(p < 2 * n for p, n in zip(block._kernel_hat.shape, shape))
        for op in (G, block):
            for fn, oracle, in_shape in ((op.apply, n_padded_apply, op.in_shape),
                                         (op.apply_adjoint, n_padded_adjoint, op.out_shape)):
                v = rng.standard_normal(in_shape)
                if dtype != np.float64:
                    v = v + 1j * rng.standard_normal(in_shape)
                v = v.astype(dtype)
                before = v.copy()
                got = fn(v)
                assert got.dtype == np.result_type(dtype, 1j)
                assert np.array_equal(got, oracle(op, v))
                assert np.array_equal(v, before)

    @staticmethod
    def assert_forward_passes_first_axis_first(op, rng, monkeypatch):
        # each pass multiplies the lines the next one transforms, so the
        # largest runs on the contiguous last axis; each transforms a buffer
        # already at the period on its axis, since numpy's FFT pads the
        # lines of an n= call one at a time
        passes = []
        for name in ("fft", "ifft"):
            def record(a, *args, _name=name, _fn=getattr(np.fft, name), **kw):
                passes.append((_name, kw["axis"], a.shape, args or kw.get("n")))
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.fft, name, record)
        op.apply(random_field(rng, op.in_shape))
        (p0, p1, p2), (b0, b1, b2), (n0, n1, n2) = (op._kernel_hat.shape, op.in_shape,
                                                      op.out_shape)
        assert passes == [
            ("fft", 0, (p0, b1, b2), None),
            ("fft", 1, (p0, p1, b2), None),
            ("fft", 2, (p0, p1, p2), None),
            ("ifft", 2, (p0, p1, p2), None),
            ("ifft", 1, (p0, p1, n2), None),
            ("ifft", 0, (p0, n1, n2), None),
        ]

    def test_forward_passes_run_first_axis_first(self, rng, monkeypatch):
        G = self.fft_grid_operator((5, 4, 3))
        assert G._kernel_hat.shape == (10, 8, 6)
        self.assert_forward_passes_first_axis_first(G, rng, monkeypatch)

    def test_block_forward_passes_run_first_axis_first(self, rng, monkeypatch):
        shape = (5, 4, 3)
        box = (slice(1, 3), slice(0, 2), slice(1, 2))
        _, block = self.fft_grid_operator(shape).column_block(boxed_potential(shape, box, rng))
        assert block._kernel_hat.shape == (6, 5, 3) and block.in_shape == (2, 2, 1)
        self.assert_forward_passes_first_axis_first(block, rng, monkeypatch)

    def test_too_small_grid_rejected(self):
        grid = wt.centered_grid((1, 8), spacing=0.05, wavelength=0.5)
        with pytest.raises(ConfigError):
            wt.build_domain_operator(grid)


def fft_calls_with_length(source):
    """The line numbers of the ``np.fft`` calls in ``source`` that pass a
    length: ``n=``, ``s=`` or a second positional argument."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).startswith(("np.fft.", "numpy.fft."))
            and (len(node.args) > 1 or any(k.arg in ("n", "s") for k in node.keywords))]


def test_no_fft_call_pads_by_length():
    # numpy's FFT pads the lines of a call given a length one at a time, and
    # runs them as one batch when the input already has the output's length
    assert fft_calls_with_length("np.fft.fft(spec, n=period, axis=ax)") == [1]
    assert fft_calls_with_length("np.fft.fftn(x, (4, 4))") == [1]
    assert fft_calls_with_length("numpy.fft.ifftn(x, s=(4, 4))") == [1]
    assert fft_calls_with_length("np.fft.fft(buf, axis=ax, out=buf)") == []
    package = Path(__file__).resolve().parent.parent / "src" / "wavetomo"
    found = {path.name: fft_calls_with_length(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    assert "greens.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_declared_numpy_has_fft_out():
    # the apply's in-place np.fft.fft(..., out=...) needs numpy 2; a lower
    # declared floor would install a package whose every apply raises
    root = Path(__file__).resolve().parent.parent
    uses_out = any(ast.unparse(node.func).startswith(("np.fft.", "numpy.fft."))
                   and any(k.arg == "out" for k in node.keywords)
                   for path in (root / "src" / "wavetomo").glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call))
    floor = re.search(r'"numpy>=(\d+)', (root / "pyproject.toml").read_text(encoding="utf-8"))
    assert uses_out and floor is not None and int(floor.group(1)) >= 2


# (shape, spacing in wavelengths): the loop and generation grids of the 2D
# benchmark scenes, two odd small ones and the 3D sweep's grid
KERNEL_GRIDS = [pytest.param(shape, h, id="x".join(map(str, shape)))
                for shape, h in [((64, 64), 1 / 16), ((128, 128), 1 / 16),
                                 ((9, 7), 0.04 / 0.45), ((5, 4, 4), 0.04 / 0.45),
                                 ((32, 32, 32), 1 / 8)]]


def kernel_grid(shape, spacing_wl, wavelength=0.5):
    h = spacing_wl * wavelength
    return wt.DomainGrid(shape, h, tuple(-0.5 * h * (n - 1) for n in shape), wavelength)


class TestKernelBuild:
    @pytest.mark.parametrize("shape, spacing_wl", KERNEL_GRIDS)
    def test_bit_identical_to_every_offset_evaluated(self, shape, spacing_wl):
        # the kernel gathered from the distinct offsets equals the one that
        # evaluates g at each of the (2n)^d padded offsets, bit for bit
        grid = kernel_grid(shape, spacing_wl)
        kernel, kernel_hat, samples = padded_kernel(grid)
        got_kernel, got_samples = greens._padded_kernel(grid)
        G = wt.build_domain_operator(grid)
        for got, expect in ((got_kernel, kernel), (G._kernel_hat, kernel_hat),
                            (G._samples, samples), (got_samples, samples)):
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("shape, spacing_wl", KERNEL_GRIDS)
    def test_one_green_evaluation_per_distinct_offset(self, monkeypatch, shape, spacing_wl):
        # offsets 0..n_d per axis, less the zero offset, which the self
        # term fills
        evaluated = []
        for name in ("green_2d", "green_3d"):
            def count(r, k_b, _fn=getattr(greens, name)):
                evaluated.append(np.asarray(r).shape[0])
                return _fn(r, k_b)
            monkeypatch.setattr(greens, name, count)
        wt.build_domain_operator(kernel_grid(shape, spacing_wl))
        assert evaluated == [np.prod([n + 1 for n in shape]) - 1]


def boxed_potential(shape, box, rng):
    f = np.zeros(shape)
    f[box] = rng.uniform(0.5, 1.5, f[box].shape)
    return f


class TestColumnBlock:
    """G[:, B] on the bounding box B of f's support, and A built on it."""

    # odd shapes; boxes that touch the low and the high edges, 1-pixel boxes,
    # a box spanning one axis, and interior boxes
    BOXES = {
        (9, 7): [(slice(0, 3), slice(0, 2)), (slice(6, 9), slice(4, 7)),
                 (slice(4, 5), slice(3, 4)), (slice(0, 1), slice(6, 7)),
                 (slice(0, 9), slice(5, 7)), (slice(2, 6), slice(1, 4))],
        (7, 5, 9): [(slice(0, 2), slice(0, 2), slice(0, 3)),
                    (slice(5, 7), slice(3, 5), slice(6, 9)),
                    (slice(3, 4), slice(2, 3), slice(4, 5)),
                    (slice(1, 4), slice(0, 5), slice(2, 5))],
    }

    @pytest.mark.parametrize("shape,box", [(s, b) for s, boxes in BOXES.items()
                                           for b in boxes])
    def test_dense_oracle(self, rng, shape, box):
        G = TestDomainOperator.fft_grid_operator(shape)
        got_box, block = G.column_block(boxed_potential(shape, box, rng))
        assert got_box == box and block is not G
        widths = tuple(s.stop - s.start for s in box)
        assert block.in_shape == widths and block.out_shape == shape
        # each period is the shortest 5-smooth one a linear convolution allows
        assert block._kernel_hat.shape == tuple(
            greens.fast_length(n + b - 1) for n, b in zip(shape, widths))
        mask = np.zeros(shape, dtype=bool)
        mask[box] = True
        cols = dense_domain_matrix(G.grid)[:, mask.ravel()]
        x = random_field(rng, widths)
        expect = (cols @ x.ravel()).reshape(shape)
        assert np.max(np.abs(block.apply(x) - expect)) <= 1e-13 * np.max(np.abs(expect))
        y = random_field(rng, shape)
        expect = (cols.conj().T @ y.ravel()).reshape(widths)
        assert (np.max(np.abs(block.apply_adjoint(y) - expect))
                <= 1e-13 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("shape", [(9, 7), (7, 5, 9)])
    def test_system_operator_dense_oracle(self, rng, shape):
        G = TestDomainOperator.fft_grid_operator(shape)
        f = boxed_potential(shape, self.BOXES[shape][-1], rng)
        A = SystemOperator(f, G)
        assert A.G_box is not G
        dense = dense_A_matrix(G.grid, f)
        u = random_field(rng, shape)
        for got, matrix in ((A.apply(u), dense), (A.apply_adjoint(u), dense.conj().T)):
            expect = (matrix @ u.ravel()).reshape(shape)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("shape", [(9, 7), (5, 4, 4)])
    def test_whole_box_is_G_bit_for_bit(self, rng, shape):
        G = TestDomainOperator.fft_grid_operator(shape)
        f = rng.uniform(0.5, 1.5, shape)
        box, block = G.column_block(f)
        assert block is G and box == tuple(slice(0, n) for n in shape)
        A = SystemOperator(f, G)
        u = random_field(rng, shape)
        assert np.array_equal(A.apply(u), u - padded_fft_apply(G, f * u))
        assert np.array_equal(A.apply_adjoint(u),
                              u - f * np.conj(padded_fft_apply(G, np.conj(u))))

    def test_block_must_save_a_quarter_of_the_points(self, rng):
        # 60 x 64 of a 64^2 grid takes periods 125 x 128, 98% of G's points
        G = TestDomainOperator.fft_grid_operator((64, 64))
        box = (slice(2, 62), slice(0, 64))
        assert G.column_block(boxed_potential((64, 64), box, rng)) == (
            (slice(0, 64), slice(0, 64)), G)
        # forward_3d's 12^3 sphere in 32^3: 45^3 points instead of 64^3
        G = TestDomainOperator.fft_grid_operator((32, 32, 32))
        box = (slice(10, 22),) * 3
        got_box, block = G.column_block(boxed_potential((32, 32, 32), box, rng))
        assert got_box == box and block._kernel_hat.shape == (45, 45, 45)

    def test_empty_support_is_the_identity(self, small_setup, rng, monkeypatch):
        grid, G, _, _ = small_setup
        calls = []
        apply = greens.DomainGreensOperator.apply
        monkeypatch.setattr(greens.DomainGreensOperator, "apply",
                            lambda self, v: calls.append(1) or apply(self, v))
        f = np.zeros(grid.shape)
        assert G.column_block(f) == (None, None)
        A = SystemOperator(f, G)
        u = random_field(rng, grid.shape)
        assert np.array_equal(A.apply(u), u) and np.array_equal(A.apply_adjoint(u), u)
        assert A.apply(u.real).dtype == complex
        assert calls == []

    def test_G_caches_nothing(self, rng):
        G = TestDomainOperator.fft_grid_operator((9, 7))
        names = set(vars(G))
        arrays = {k: v.copy() for k, v in vars(G).items() if isinstance(v, np.ndarray)}
        G.column_block(boxed_potential((9, 7), (slice(2, 4), slice(1, 3)), rng))
        assert set(vars(G)) == names
        for k, v in arrays.items():
            assert np.array_equal(getattr(G, k), v)

    def test_fast_length(self):
        smooth = [p for p in range(1, 801)
                  if p == 2 ** _valuation(p, 2) * 3 ** _valuation(p, 3) * 5 ** _valuation(p, 5)]
        for m in range(1, 600):
            assert greens.fast_length(m) == min(p for p in smooth if p >= m)

    @pytest.mark.parametrize("m, rule", [(0, ">= 1"), (-3, ">= 1"), (2.0, "an integer"),
                                         (True, "an integer")],
                             ids=["zero", "negative", "integral float", "bool"])
    def test_fast_length_rejects(self, m, rule):
        # 0 and -3 used to loop forever (0 % 2 == 0), 2.0 returned 2.0 and
        # True returned True
        with pytest.raises(ConfigError, match=f"^FFT length must be {rule}$"):
            greens.fast_length(m)

    def test_support_box(self):
        f = np.zeros((6, 5, 4))
        assert greens.support_box(f) is None
        f[1, 4, 2] = -1.0
        f[3, 2, 2] = 0.5
        assert greens.support_box(f) == (slice(1, 4), slice(2, 5), slice(2, 3))


def _valuation(p, q):
    k = 0
    while p % q == 0:
        p //= q
        k += 1
    return k


class TestSensorOperator:
    def test_zero_field(self, small_setup):
        _, _, H, _ = small_setup
        assert np.all(H.apply(np.zeros(H.grid.shape, dtype=complex)) == 0)

    def test_single_pixel_single_sensor(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        sensors = wt.SensorSet(np.array([[0.9, -0.2]]))
        H = wt.build_sensor_operator(grid, sensors)
        v = np.zeros(grid.shape)
        v[2, 3] = 1.0
        expect = wt.green_2d(sensors.positions[0] - grid.pixel_centers()[2, 3],
                             grid.k_b) * grid.pixel_volume
        assert H.apply(v)[0] == pytest.approx(expect, rel=1e-12)

    def test_adjoint_identity(self, small_setup, rng):
        _, _, H, _ = small_setup
        for _ in range(10):
            x = random_field(rng, H.grid.shape)
            y = random_field(rng, (len(H.sensors),))
            assert adjoint_gap(H.apply, H.apply_adjoint, x, y) <= 1e-12

    def test_sensor_on_pixel_center_rejected(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        center = grid.pixel_centers()[3, 3]
        with pytest.warns(UserWarning):
            with pytest.raises(SingularityError):
                wt.build_sensor_operator(grid, wt.SensorSet(center[None, :]))

    def test_sensor_inside_domain_warns(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        inside = grid.pixel_centers()[3, 3] + 0.4 * grid.spacing
        with pytest.warns(UserWarning, match="inside"):
            wt.build_sensor_operator(grid, wt.SensorSet(inside[None, :]))

    def test_masked_operator(self, small_setup, rng):
        _, _, H, _ = small_setup
        mask = np.array([0, 3, 7])
        Hm = wt.MaskedSensorOperator(H, mask)
        x = random_field(rng, H.grid.shape)
        assert np.allclose(Hm.apply(x), H.apply(x)[mask])
        y = random_field(rng, (3,))
        assert adjoint_gap(Hm.apply, Hm.apply_adjoint, x, y) <= 1e-12

    def test_masked_operator_of_one_receiver(self, small_setup, rng):
        _, _, H, _ = small_setup
        Hm = wt.MaskedSensorOperator(H, [5])
        x = random_field(rng, H.grid.shape)
        assert np.array_equal(Hm.apply(x), H.apply(x)[[5]])
        y = random_field(rng, (1,))
        assert adjoint_gap(Hm.apply, Hm.apply_adjoint, x, y) <= 1e-12
        with pytest.raises(ConfigError, match="at least one"):
            wt.MaskedSensorOperator(H, [])

    def test_no_unread_attributes(self):
        # ``kind`` and the masked operator's ``len`` had no reader
        for cls in (wt.DomainGreensOperator, wt.SensorGreensOperator,
                    wt.MaskedSensorOperator):
            assert not hasattr(cls, "kind")
        assert not hasattr(wt.MaskedSensorOperator, "__len__")

    def test_adjoint_equals_conjugate_transpose_product(self, small_setup, rng):
        # the adjoint forms (y^H M)^H without copying M^H; same numbers
        _, _, H, _ = small_setup
        for y in (random_field(rng, (len(H.sensors),)),
                  rng.standard_normal(len(H.sensors))):
            expect = (H.matrix.conj().T @ y).reshape(H.grid.shape)
            assert np.array_equal(H.apply_adjoint(y), expect)


WL = 0.0749  # wavelength of the criterion-5 and benchmark scenes, m


def ring(count, radius, phase=0.0):
    return wt.ring_sensors(count, radius, phase).positions


def rel_entries(got, expect):
    return np.max(np.abs(got - expect) / np.abs(expect))


def graf_bound(grid):
    """The distance from the grid center beyond which a point takes the Graf
    rows, by the rule green_matrix documents."""
    center = np.asarray(grid.origin) + 0.5 * grid.spacing * (np.asarray(grid.shape) - 1)
    rho_max = np.max(np.linalg.norm(grid.pixel_centers() - center, axis=-1))
    k_rho = grid.k_b * rho_max
    order = int(np.ceil(k_rho + 12.0 * np.cbrt(k_rho) + 10.0))
    return center, rho_max, rho_max * max(2.0, GRAF_TAIL ** (-1.0 / order))


@pytest.fixture
def direct_rows(monkeypatch):
    """The displacements green_matrix evaluates directly, one (points,
    pixels, 2) array per call; green_matrix calls once per pixel block."""
    calls = []

    def spy(r, k_b):
        calls.append(np.array(r))
        return wt.green_2d(r, k_b)

    monkeypatch.setattr(greens, "green_2d", spy)
    return calls


def assert_direct(calls, grid, points, rows):
    """The direct calls evaluated exactly ``rows`` of ``points``, and each
    of them at every pixel once."""
    centers = grid.pixel_centers().reshape(-1, grid.ndim)
    expect = np.asarray(points)[rows, None, :] - centers[None, :, :]
    assert np.array_equal(np.concatenate(calls, axis=1), expect)


@pytest.mark.filterwarnings("error")
class TestGreenMatrix:
    """green_matrix against one Hankel evaluation per entry (the oracle)."""

    def check_scene(self, grid, points, weights, direct_rows, columns=slice(None)):
        got = green_matrix(grid, points, weights)
        assert direct_rows == []
        assert got.shape == (len(points), grid.size) and got.dtype == complex
        assert got.flags.c_contiguous
        expect = direct_green_matrix(grid, points, weights)
        assert rel_entries(got[:, columns], expect[:, columns]) <= 1e-12

    def test_criterion_5_scene(self, direct_rows):
        # 60 receivers and 8 sources about the 64^2 grid, and its 2x refined
        # generation grid
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        points = np.concatenate([ring(60, 0.5), ring(8, 0.45)])
        weights = np.concatenate([np.full(60, grid.pixel_volume), np.ones(8)])
        self.check_scene(grid, points, weights, direct_rows)
        self.check_scene(refined_grid(grid, 2), points, weights, direct_rows,
                         columns=slice(None, None, 3))

    def test_shifted_linear_scene(self, direct_rows):
        # the recon_linear_2d scene on a grid moved by whole pixels, as its
        # jittered seeds move it: the expansion runs about the grid center
        h = WL / 16
        origin = (-63.5 * h - 3 * h, -63.5 * h + 2 * h)
        grid = wt.DomainGrid((128, 128), h, origin, WL)
        points = np.concatenate([ring(120, 1.0, 0.02), ring(16, 0.9, 0.3)])
        weights = np.concatenate([np.full(120, grid.pixel_volume),
                                  np.full(16, 0.7 - 0.2j)])
        self.check_scene(grid, points, weights, direct_rows,
                         columns=slice(None, None, 3))

    def test_pixel_at_the_expansion_center(self, direct_rows):
        # odd by odd pixels: the center pixel has rho = 0, which
        # bessel_jn_all rejects, so its column is J_0 = 1 alone
        grid = wt.DomainGrid((9, 7), WL / 16, (0.02, -0.01), WL)
        center, _, _ = graf_bound(grid)
        assert np.any(np.all(grid.pixel_centers() == center, axis=-1))
        points = center + ring(12, 0.5, 0.1)
        self.check_scene(grid, points, 1.0, direct_rows)

    def test_entries_against_mpmath(self, direct_rows):
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        points = np.concatenate([ring(60, 0.5), ring(8, 0.45)])
        got = green_matrix(grid, points, 1.0)
        assert direct_rows == []
        centers = grid.pixel_centers().reshape(-1, 2)
        for p, n in [(0, 0), (7, 2080), (31, 4095), (59, 1234), (60, 2016), (67, 63)]:
            expect = mp_green_2d(points[p], centers[n], grid.k_b)
            assert abs(got[p, n] - expect) <= 1e-12 * abs(expect)

    def test_inside_the_circle_takes_the_direct_row(self, direct_rows):
        # outside the bounding box but inside the circumscribed circle
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        lo, hi = grid.bounding_box()
        near = np.array([[hi[0] + 0.1 * (hi[0] - lo[0]), 0.0]])
        _, rho_max, _ = graf_bound(grid)
        assert hi[0] < near[0, 0] < rho_max
        points = np.concatenate([ring(3, 0.5), near])
        got = green_matrix(grid, points, grid.pixel_volume)
        assert_direct(direct_rows, grid, points, [3])
        expect = direct_green_matrix(grid, points, np.full(4, grid.pixel_volume))
        assert np.array_equal(got[3], expect[3])
        assert rel_entries(got[:3], expect[:3]) <= 1e-12

    @pytest.mark.parametrize("shape", [(8, 8), (64, 64)])
    def test_rule_at_the_bound(self, direct_rows, shape):
        # 8^2: the tail bound GRAF_TAIL^(-1/L) = 3.9 decides; 64^2: the floor 2
        grid = wt.centered_grid(shape, spacing=WL / 16, wavelength=WL)
        center, _, bound = graf_bound(grid)
        direction = np.array([np.cos(0.3), np.sin(0.3)])
        points = center + bound * np.outer([1.0 - 1e-9, 1.0 + 1e-9], direction)
        got = green_matrix(grid, points, 1.0)
        assert_direct(direct_rows, grid, points, [0])
        centers = grid.pixel_centers().reshape(-1, 2)
        # the nearest pixel, where the series converges slowest
        n = np.argmin(np.linalg.norm(centers - points[1], axis=1))
        for col in (n, 0, grid.size - 1):
            expect = mp_green_2d(points[1], centers[col], grid.k_b)
            assert abs(got[1, col] - expect) <= 1e-12 * abs(expect)

    def test_single_pixel_and_3d_are_direct(self, direct_rows):
        grid = wt.DomainGrid((1, 1), WL / 16, (0.0, 0.0), WL)
        points = ring(4, 0.5)
        assert np.array_equal(green_matrix(grid, points, 2.0),
                              direct_green_matrix(grid, points, np.full(4, 2.0)))
        assert_direct(direct_rows, grid, points, [0, 1, 2, 3])
        grid3 = wt.DomainGrid((4, 3, 2), WL / 16, (0.0, 0.0, 0.0), WL)
        points3 = np.array([[0.5, 0.0, 0.1], [0.0, -0.6, 0.0]])
        assert np.array_equal(green_matrix(grid3, points3, 1.0),
                              direct_green_matrix(grid3, points3, np.ones(2)))

    def test_points_must_match_the_axes(self):
        grid = wt.centered_grid((8, 8), spacing=WL / 16, wavelength=WL)
        with pytest.raises(DimensionError):
            green_matrix(grid, np.zeros((2, 3)), 1.0)

    def test_sensor_matrix_layout(self, direct_rows):
        # the loop's GEMMs read H.matrix in place
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        H = wt.build_sensor_operator(grid, wt.ring_sensors(60, 0.5))
        assert direct_rows == []
        assert H.matrix.shape == (60, grid.size)
        assert H.matrix.dtype == np.complex128 and H.matrix.flags.c_contiguous

    def test_problem_rows_and_fields_from_one_call(self, monkeypatch):
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        H = wt.build_sensor_operator(grid, wt.ring_sensors(60, 0.5))
        tx = [wt.Transmitter("point", position=(0.45, 0.0), amplitude=2.0 - 1.0j),
              wt.Transmitter("plane", direction=(0.0, 1.0)),
              wt.Transmitter("point", position=(0.0, -0.45))]
        y = [np.ones(60, dtype=complex)] * 3
        mset = wt.MeasurementSet(tx, wt.ring_sensors(60, 0.5), [np.arange(60)] * 3, y)
        calls = []
        monkeypatch.setattr(greens, "green_matrix",
                            lambda grid, points, weights: calls.append(len(points))
                            or green_matrix(grid, points, weights))
        problem = wt.ScatteringProblem(mset, grid)
        # the receivers' rows and the two point sources' fields, each with
        # its own weight, from one call
        assert calls == [62]
        ring_H = problem._H_ring.matrix
        assert ring_H.shape == (60, grid.size)
        assert ring_H.dtype == np.complex128 and ring_H.flags.c_contiguous
        assert rel_entries(ring_H, H.matrix) <= 1e-13
        for t, u in enumerate(problem.u_in):
            expect = tx[t].field_on_grid(grid)
            assert rel_entries(u, expect) <= (0.0 if t == 1 else 1e-12)


    def test_point_sources_rows_held_once(self, monkeypatch):
        # with point sources only, H and the incident fields are two views
        # of the one green_matrix output: no row is copied
        grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
        tx = [wt.Transmitter("point", position=p) for p in ring(8, 0.45)]
        mset = wt.MeasurementSet(tx, wt.ring_sensors(60, 0.5), [np.arange(60)] * 8,
                                 [np.ones(60, dtype=complex)] * 8)
        built = []
        monkeypatch.setattr(greens, "green_matrix",
                            lambda grid, points, weights: built.append(
                                green_matrix(grid, points, weights)) or built[-1])
        problem = wt.ScatteringProblem(mset, grid)
        rows, = built
        assert np.shares_memory(problem.U_in, rows)
        assert np.shares_memory(problem._H_ring.matrix, rows)
        assert problem.U_in.flags.c_contiguous and problem.U_in.shape == (8, grid.size)
        assert np.array_equal(problem.U_in, rows[60:])

    def test_output_in_a_map_of_its_own(self):
        # the output is an anonymous map freed with it, never a block of
        # malloc's heap (greens._mapped_empty); no points give an empty array
        grid = wt.centered_grid((16, 16), spacing=WL / 16, wavelength=WL)
        out = green_matrix(grid, ring(4, 0.45), 1.0)
        assert isinstance(out.base.base.obj, mmap.mmap) and out.flags.writeable
        assert green_matrix(grid, np.empty((0, 2)), 1.0).shape == (0, grid.size)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def blocked_scenes():
    """(grid, points, weights): the benchmark's two solve grids, a grid
    with a pixel at the expansion center and a 3D grid, each of at least
    two GEMM blocks, with points on both paths in 2D."""
    h = WL / 16
    grid64 = wt.centered_grid((64, 64), spacing=h, wavelength=WL)
    inside = [[0.011, -0.023], [1.3 * grid64.bounding_box()[1][0], 0.0]]
    grid128 = wt.DomainGrid((128, 128), h, (-63.5 * h - 3 * h, -63.5 * h + 2 * h), WL)
    # 91^2: two Bessel blocks, the center pixel in the second, and a last
    # GEMM block of 2137 columns.  A stand-in rho = 1 m for the center
    # pixel's 0 would give k_b = 84 > L = 71 and start Miller's recurrence
    # of that block higher; a last block of 89 columns differed in its last
    # column.
    grid91 = wt.DomainGrid((91, 91), h, (0.02, -0.01), WL)
    grid3 = wt.DomainGrid((24, 20, 18), h, (0.0, 0.0, 0.0), WL)
    return {
        "64^2": (grid64, np.concatenate([ring(60, 0.5), ring(8, 0.45), inside]),
                 np.concatenate([np.full(60, grid64.pixel_volume), np.ones(10)])),
        "128^2": (grid128, np.concatenate([ring(120, 1.0, 0.02), ring(16, 0.9, 0.3),
                                           inside]),
                  np.concatenate([np.full(120, grid128.pixel_volume),
                                  np.full(18, 0.7 - 0.2j)])),
        "center pixel": (grid91, grid91.center + np.concatenate([ring(60, 0.7, 0.1),
                                                                 ring(8, 0.65)]),
                         np.linspace(0.5, 1.5, 68) + 0.3j),
        "3d": (grid3, np.array([[0.5, 0.0, 0.1], [0.0, -0.6, 0.0], [0.03, 0.02, 0.01],
                                [0.2, 0.2, -0.3]]), np.array([1.0, 2.0, 0.5j, 1.0])),
    }


class TestBlockedBuild:
    """green_matrix fills its output one pixel block at a time."""

    @pytest.mark.parametrize("name", list(blocked_scenes()))
    def test_bit_identical_to_one_block(self, monkeypatch, name):
        grid, points, weights = blocked_scenes()[name]
        assert grid.size >= 2 * greens.GEMM_PIXELS
        got = green_matrix(grid, points, weights)
        monkeypatch.setattr(greens, "BLOCK_PIXELS", grid.size)
        monkeypatch.setattr(greens, "GEMM_PIXELS", grid.size)
        assert np.array_equal(bits(got), bits(green_matrix(grid, points, weights)))

    def test_scratch_is_a_block_not_the_grid(self):
        # recon_linear_2d's 128^2 generation build, 120 receivers and 16
        # sources (L = 85).  One whole-grid build held 60.7 MB besides its
        # 35.7 MB output; the blocks hold 2.8 MB of Bessel values, a 2.8 MB
        # table and a 4.5 MB product.  11.8 MB measured.
        grid = wt.centered_grid((128, 128), spacing=WL / 16, wavelength=WL)
        points = np.concatenate([ring(120, 1.0), ring(16, 0.9, 0.3)])
        tracemalloc.start()
        try:
            out = green_matrix(grid, points, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 15e6


def near_scene():
    """A 64^2 grid and 128 points inside its Graf bound, some of them inside
    the grid, with complex weights."""
    grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
    center, rho_max, bound = graf_bound(grid)
    rng = np.random.default_rng(11)
    angle = rng.uniform(0.0, 2.0 * np.pi, 128)
    radius = rng.uniform(0.1 * rho_max, 0.95 * bound, 128)
    points = center + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return grid, points, rng.standard_normal(128) + 1j * rng.standard_normal(128)


class TestNearChunks:
    """The direct path evaluates NEAR_POINTS points of a block at a time."""

    def test_bit_identical_to_one_chunk(self, monkeypatch):
        grid, points, weights = near_scene()
        V = np.random.default_rng(5).standard_normal((2, grid.size)) + 0.5j
        assert not np.any(greens._graf_terms(grid, grid.pixel_centers().reshape(-1, 2),
                                             points, weights)[0])
        matrix = green_matrix(grid, points, weights)
        products = green_products(grid, points, weights, V)
        monkeypatch.setattr(greens, "NEAR_POINTS", len(points))
        assert np.array_equal(bits(matrix), bits(green_matrix(grid, points, weights)))
        assert np.array_equal(bits(products), bits(green_products(grid, points, weights, V)))

    def test_scratch_is_a_chunk_not_the_points(self):
        # the direct path holds about 130 B per point and pixel of a
        # 4096-pixel block: all 128 points in one chunk held 60.0 MB besides
        # the matrix, chunks of 16 hold 7.8 MB, and so do the products
        grid, points, weights = near_scene()
        V = np.ones((2, grid.size), dtype=complex)
        tracemalloc.start()
        try:
            out = green_matrix(grid, points, weights)
            matrix_peak = tracemalloc.get_traced_memory()[1] - out.nbytes
            tracemalloc.reset_peak()
            green_products(grid, points, weights, V)
            products_peak = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert matrix_peak < 12e6 and products_peak < 12e6


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("pixels_per_wavelength", [4, 16, 40])
def test_self_interaction_against_quadrature(ndim, pixels_per_wavelength):
    # the closed forms against an mpmath quadrature of g's radial profile
    # over the disk or ball of one pixel's area or volume; the closed
    # forms' cancellation at small k a leaves 2e-14 at 40 per wavelength
    grid = wt.centered_grid((4,) * ndim, spacing=WL / pixels_per_wavelength, wavelength=WL)
    expect = mp_self_interaction(ndim, grid.spacing, grid.k_b)
    assert abs(greens.self_interaction(grid) - expect) <= 1e-12 * abs(expect)


def product_scenes():
    """(grid, points, weights) with points on the Graf path only, on the
    direct path only and on both in 2D, on a 3D grid (direct only), and on
    an odd grid whose center pixel sits at the expansion center."""
    h = WL / 16
    grid = wt.centered_grid((64, 64), spacing=h, wavelength=WL)
    center, rho_max, bound = graf_bound(grid)
    near = np.concatenate([[[0.011, -0.023], [0.0, 0.0]], ring(6, 0.5 * (rho_max + bound))])
    scenes = blocked_scenes()
    return {
        "graf only": (grid, np.concatenate([ring(60, 0.5), ring(8, 0.45)]),
                      np.concatenate([np.full(60, grid.pixel_volume), np.ones(8) - 0.5j])),
        "direct only": (grid, near + [0.3 * h, 0.0], np.linspace(1.0, 2.0, 8)),
        "both": scenes["128^2"],
        "3d": scenes["3d"],
        "center pixel": (wt.DomainGrid((9, 7), h, (0.02, -0.01), WL),
                         np.concatenate([ring(12, 0.5, 0.1), [[0.05, 0.01]]]), 0.7 + 0.2j),
    }


class TestGreenProducts:
    """green_products against V @ green_matrix(...).T, the matrix it avoids."""

    @pytest.mark.parametrize("name", list(product_scenes()))
    def test_matches_the_matrix_product(self, name):
        grid, points, weights = product_scenes()[name]
        rng = np.random.default_rng(7)
        V = rng.standard_normal((3, grid.size)) + 1j * rng.standard_normal((3, grid.size))
        got = green_products(grid, points, weights, V)
        expect = V @ green_matrix(grid, points, weights).T
        assert got.shape == (3, len(points)) and got.dtype == complex
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)
        # each row against its own size too: no transmitter's products may
        # hide behind another's
        for a, b in zip(got, expect):
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

    def test_each_point_takes_its_own_path(self, direct_rows):
        # the Graf points are never evaluated directly, and the direct ones
        # once per pixel, in the blocks green_matrix fills
        grid, points, weights = product_scenes()["direct only"]
        ring_points = ring(60, 0.5)
        both = np.concatenate([ring_points, points])
        green_products(grid, both, 1.0, np.ones((2, grid.size)))
        assert_direct(direct_rows, grid, both, slice(60, None))

    def test_real_fields_and_blocks(self, monkeypatch):
        # a real V, and blocks narrower than the grid on both paths: the
        # result does not depend on how the pixels are split
        grid, points, weights = product_scenes()["both"]
        V = np.random.default_rng(3).standard_normal((2, grid.size))
        whole = V @ green_matrix(grid, points, weights).T
        monkeypatch.setattr(greens, "BLOCK_PIXELS", 1500)
        monkeypatch.setattr(greens, "GEMM_PIXELS", 700)
        got = green_products(grid, points, weights, V)
        assert np.linalg.norm(got - whole) <= 1e-13 * np.linalg.norm(whole)

    def test_scratch_does_not_grow_with_the_points(self):
        # a 360-slot ring against 60 on the Graf path: the products hold no
        # points x pixels array (the 300 more rows would be 78.6 MB).  The
        # point factor and its Hankel table grow by 0.85 MB
        grid = wt.centered_grid((128, 128), spacing=WL / 16, wavelength=WL)
        V = np.ones((4, grid.size), dtype=complex)
        peaks = []
        for count in (60, 360):
            tracemalloc.start()
            try:
                green_products(grid, ring(count, 1.0), grid.pixel_volume, V)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2e6


class TestScatteringOperator:
    def test_identity_when_f_zero(self, small_setup, rng):
        grid, G, _, _ = small_setup
        u = random_field(rng, grid.shape)
        assert np.allclose(wt.apply_A(np.zeros(grid.shape), u, G), u)
        assert np.allclose(wt.apply_AH(np.zeros(grid.shape), u, G), u)

    def test_zero_field(self, small_setup):
        grid, G, _, _ = small_setup
        f = np.ones(grid.shape)
        assert np.all(wt.apply_A(f, np.zeros(grid.shape, dtype=complex), G) == 0)

    def test_dense_oracle(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        u = random_field(rng, grid.shape)
        A = dense_A_matrix(grid, f)
        got = wt.apply_A(f, u, G)
        expect = (A @ u.ravel()).reshape(grid.shape)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)
        gotH = wt.apply_AH(f, u, G)
        expectH = (A.conj().T @ u.ravel()).reshape(grid.shape)
        assert np.linalg.norm(gotH - expectH) <= 1e-11 * np.linalg.norm(expectH)

    def test_adjoint_identity(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        for _ in range(10):
            u = random_field(rng, grid.shape)
            v = random_field(rng, grid.shape)
            gap = adjoint_gap(lambda w: wt.apply_A(f, w, G),
                              lambda w: wt.apply_AH(f, w, G), u, v)
            assert gap <= 1e-12

    def test_shape_mismatch(self, small_setup):
        grid, G, _, _ = small_setup
        with pytest.raises(DimensionError):
            wt.apply_A(np.zeros((3, 3)), np.zeros(grid.shape), G)


class TestHelmholtzConsistency:
    def test_sampled_green_second_order_residual(self):
        # residual of the discrete Laplacian on the sampled 2D Green's field
        # decays second order under spacing halving (patch away from source)
        k_b = 2 * np.pi / 0.5
        src = np.array([-0.9, -0.85])

        def run(spacing, n):
            grid = wt.DomainGrid((n, n), spacing, (0.3, 0.3), 0.5)
            sampler = lambda pts: wt.green_2d(pts - src, k_b)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid)

        r1 = run(0.02, 12)
        r2 = run(0.01, 24)
        assert r2 <= r1 / 3.0  # second order would give /4

    def test_exclusion_band_around_interior_source(self):
        # with the source inside the patch, excluding a band around it (3
        # coarse pixels, held at fixed physical radius across the halving so
        # the retained region is identical) restores second-order decay
        k_b = 2 * np.pi / 0.5
        band = 3 * 0.01

        def run(spacing, n):
            grid = wt.DomainGrid((n, n), spacing,
                                 (-0.5 * spacing * (n - 1),) * 2, 0.5)
            src = np.array([0.31 * spacing, 0.17 * spacing])
            sampler = lambda pts: wt.green_2d(pts - src, k_b)
            dist = np.linalg.norm(grid.pixel_centers() - src, axis=-1)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid,
                                      exclude=dist <= band)

        r1 = run(0.01, 20)
        r2 = run(0.005, 40)
        assert r2 <= r1 / 3.0

    def test_sampled_green_3d_second_order_residual(self):
        k_b = 2 * np.pi / 0.5
        src = np.array([-0.8, -0.8, -0.7])

        def run(spacing, n):
            grid = wt.DomainGrid((n, n, n), spacing, (0.3, 0.3, 0.3), 0.5)
            sampler = lambda pts: wt.green_3d(pts - src, k_b)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid)

        r1 = run(0.02, 8)
        r2 = run(0.01, 16)
        assert r2 <= r1 / 3.0
