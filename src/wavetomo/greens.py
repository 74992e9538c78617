"""Outgoing-wave Green's functions and their discretized grid operators.

The domain-to-domain operator G applies the convolution with the Helmholtz
Green's function over the pixel grid.  It is realized as a circulant embedding
on a grid of doubled extent per axis, so one apply costs a forward and an
inverse FFT of the padded grid instead of a dense N x N product (which would
not fit in memory for production grid sizes).  The transforms run one axis at
a time, skip the lines that are all zero and crop each axis as soon as it is
inverse-transformed.  Each forward pass copies its input into a buffer of the
period along its axis and zeroes only the pad, so numpy's FFT runs the lines
as one batch; given a length n= instead, it pads and transforms them one at a
time.  The forward passes run first axis first, so the largest one runs on
the contiguous last axis; the result matches the padded fftn over the
reversed axes bit for bit, and the default-order fftn to round-off.

In A = I - G diag(f), G reads only the support of f, and in A^H = I - f G^H
only that support is written.  ``SystemOperator`` therefore applies the
column block G[:, B] on the bounding box B of f's support and its adjoint:
a b-wide box convolved onto an n-wide axis, or back, needs a period of only
n + b - 1, not 2n.  For a 12^3 sphere in a 32^3 grid that is 45^3 FFT points
instead of 64^3.  With f = 0, A is the identity and applies no FFT.

The domain-to-sensor operator H is a
small dense M x N matrix, built by ``green_matrix`` one block of pixel
columns at a time: in 2D, the rows of points well outside the grid come from
Graf's addition theorem as a real GEMM, and the rest from direct Hankel
evaluations.  ``green_products`` forms the products V H^T of a stack of
fields on the same blocks without holding H: it projects each block of V
onto Graf's grid table and multiplies the small result by the point factor.
The data generation, which multiplies by H once, uses it; the
reconstruction loop, which multiplies many times, keeps H.

Discretization convention (used consistently package-wide): off-center kernel
entries are midpoint samples of g times the pixel area/volume; the zero-offset
entry is the analytic integral of g over a disk (2D) or ball (3D) whose
area/volume equals one pixel, which removes the singularity at second-order
accuracy.
"""

import mmap

import numpy as np

from .errors import ConfigError, DimensionError, SingularityError
from .grid import check_integer
from .special import bessel_jn_all, hankel1_0, hankel1_1, hankel1_all


def green_2d(r, k_b):
    """2D outgoing Green's function (j/4) H0^(1)(k_b * |r|).

    ``r`` holds displacement vectors in the trailing axis ((..., 2) or (..., 3)
    works; only the norm matters).  Raises SingularityError at zero separation.
    """
    if not k_b > 0:
        raise ConfigError("k_b must be positive")
    r = np.asarray(r, dtype=float)
    dist = np.linalg.norm(np.atleast_1d(r), axis=-1) if r.ndim else np.abs(r)
    if np.any(dist == 0.0):
        raise SingularityError("green_2d evaluated at zero separation")
    return 0.25j * hankel1_0(k_b * dist)


def green_3d(r, k_b):
    """3D outgoing Green's function exp(j k_b |r|) / (4 pi |r|)."""
    if k_b < 0:
        raise ConfigError("k_b must be nonnegative")
    r = np.asarray(r, dtype=float)
    dist = np.linalg.norm(np.atleast_1d(r), axis=-1) if r.ndim else np.abs(r)
    if np.any(dist == 0.0):
        raise SingularityError("green_3d evaluated at zero separation")
    return np.exp(1j * k_b * dist) / (4.0 * np.pi * dist)


def self_interaction(grid):
    """Pixel self-term: integral of g over the equal-area disk / equal-volume ball.

    2D: radius a with pi a^2 = h^2 gives (j pi a / (2 k)) H1^(1)(k a) - 1/k^2.
    3D: radius a with (4/3) pi a^3 = h^3 gives (exp(jka)(1 - jka) - 1)/k^2.
    """
    h = grid.spacing
    k = grid.k_b
    if grid.ndim == 2:
        a = h / np.sqrt(np.pi)
        return 0.5j * np.pi * a / k * hankel1_1(k * a) - 1.0 / k ** 2
    a = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return (np.exp(1j * k * a) * (1.0 - 1j * k * a) - 1.0) / k ** 2


def point_green(ndim):
    """The point Green's function of ``ndim`` axes, green_2d or green_3d."""
    return green_2d if ndim == 2 else green_3d


# a 2D point takes the Graf rows when (rho_max / r)^L < GRAF_TAIL and
# r > 2 rho_max (see green_matrix)
GRAF_TAIL = 1e-16


def _points_and_weights(grid, points, weights):
    """``points`` as a (P, ndim) float array, or DimensionError, and
    ``weights`` broadcast to P complex values."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != grid.ndim:
        raise DimensionError(f"points have shape {points.shape}, expected "
                             f"(P, {grid.ndim})")
    return points, np.broadcast_to(np.asarray(weights, dtype=complex), points.shape[:1])


def _direct_rows(grid, centers, points, weights, cols):
    """weights[p] * g(points[p] - x_n) on the pixel columns ``cols``."""
    disp = points[:, None, :] - centers[None, cols, :]
    return weights[:, None] * point_green(grid.ndim)(disp, grid.k_b)


def green_matrix(grid, points, weights):
    """weights[p] * g(points[p] - x_n) over the pixel centers x_n.

    Returns a C-contiguous complex (P, N) array.  About the grid center c,
    with s - c = r e^{j theta} and x - c = rho e^{j phi}, Graf's addition
    theorem (DLMF 10.23.7) gives for rho < r

        H0(k |s - x|) = sum_l eps_l H_l(k r) J_l(k rho) cos(l (phi - theta)),

    eps_0 = 1 and eps_l = 2 otherwise.  Truncated at
    L = ceil(k rho_max + 12 (k rho_max)^(1/3) + 10), where rho_max is the
    largest pixel-center distance from c, the matrix is a real GEMM: the
    (2P, 2L+2) real and imaginary parts of the point factor
    (j/4) w_p eps_l H_l(k r_p) [cos(l theta_p), sin(l theta_p)] times the
    (2L+2, N) grid table J_l(k rho_n) [cos(l phi_n); sin(l phi_n)].

    A 2D point takes that path when r > rho_max max(2, GRAF_TAIL^(-1/L)).
    Past order k r the terms fall like (rho_max / r)^l, so the first bound
    keeps the dropped tail below round-off.  Alone it lets r close in on
    rho_max as L grows, and then the orders just past L, where J_l(k rho)
    decays and H_l(k r) grows at nearly the same rate, are not negligible:
    2.5e-11 relative at k rho_max = 280 and 8e-10 at 560.  The second bound
    keeps them at round-off.  Every other point, and every 3D point, evaluates g directly;
    that path is also the test oracle.

    Both paths fill the output one block of BLOCK_PIXELS pixel columns at
    a time, the Graf path builds its table and runs its GEMM on
    GEMM_PIXELS columns of a block at a time, and the direct path
    evaluates NEAR_POINTS points of a block at a time, so the scratch
    memory is set by the blocks and P, not by N, and on the direct path
    not by P either.  Every step is elementwise in the pixel but two: the
    GEMM, split by output columns, and the 2D direct path's power series,
    which stops once all of a chunk's terms fall below 1e-18.  On OpenBLAS
    0.3.31 the blocks gave a one-block build's bits on every grid tried
    (64^2, 65^2, 91^2, 128^2, 129^2, 61 x 69) when two or more points took
    the Graf path; with one, the last column of an odd grid differed in the
    last bit.  The point chunks gave one chunk's bits with 360 points
    inside the Graf bound on 64^2, 65^2, 61 x 69 and 128^2 grids, and 40
    on a 12 x 10 x 9 grid; a series that stops earlier in a chunk could
    still move the last bit of a value near a zero of J_0.
    """
    points, weights = _points_and_weights(grid, points, weights)
    centers = grid.pixel_centers().reshape(-1, grid.ndim)
    out = _mapped_empty((len(points), grid.size))
    far, factor, tables = _graf_terms(grid, centers, points, weights)
    if factor is not None:
        rows = np.flatnonzero(far)
        factor = np.concatenate([factor.real, factor.imag])
        for cols, table, prod in tables(2 * rows.size):
            np.matmul(factor, table, out=prod)
            out.real[rows, cols] = prod[:rows.size]
            out.imag[rows, cols] = prod[rows.size:]
    near = _near_chunks(far)
    for cols in _column_blocks(grid.size, BLOCK_PIXELS):
        for rows in near:
            out[rows, cols] = _direct_rows(grid, centers, points[rows], weights[rows], cols)
    return out


def green_products(grid, points, weights, V):
    """V @ green_matrix(grid, points, weights).T without the (P, N) matrix.

    V is a (T, N) array of fields on the grid, raveled; returns the complex
    (T, P) array whose entry (t, p) is sum_n weights[p] g(points[p] - x_n)
    V[t, n].  The pixels run in the blocks ``green_matrix`` fills.  For the
    points on the Graf path each block's grid table is projected,
    [Re V; Im V][:, block] times the table's transpose, into one (2T, 2L+2)
    sum, and one (T, 2L+2) x (2L+2, P) product with the complex point factor
    finishes them.  The other points' rows are evaluated and multiplied
    NEAR_POINTS at a time per block.  So the scratch memory is set by the
    blocks, T and P, never by P times N, and a product costs one
    grid-table pass.  The
    sums run in another order than a product with the matrix does and agree
    with it to round-off.
    """
    points, weights = _points_and_weights(grid, points, weights)
    # complex once, so that V.real and V.imag below are views, not new arrays
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != grid.size:
        raise DimensionError(f"fields have shape {V.shape}, expected (T, {grid.size})")
    centers = grid.pixel_centers().reshape(-1, grid.ndim)
    T = len(V)
    out = np.zeros((T, len(points)), dtype=complex)
    far, factor, tables = _graf_terms(grid, centers, points, weights)
    if factor is not None:
        proj = np.zeros((2 * T, factor.shape[1]))
        for cols, table, parts in tables(2 * T):
            parts[:T] = V.real[:, cols]
            parts[T:] = V.imag[:, cols]
            proj += parts @ table.T
        out[:, far] = (proj[:T] + 1j * proj[T:]) @ factor.T
    near = _near_chunks(far)
    for cols in _column_blocks(grid.size, BLOCK_PIXELS):
        for rows in near:
            out[:, rows] += V[:, cols] @ _direct_rows(grid, centers, points[rows],
                                                      weights[rows], cols).T
    return out


# green_matrix fills its output this many pixel columns at a time: the
# Bessel values J_l(k rho) and the direct path per block.  bessel_jn_all
# runs about 130 numpy steps per call whatever its width, so narrow blocks
# cost time.  recon_linear_2d's 128^2 build with 136 points (L = 85), one
# BLAS thread, medians of 30 interleaved: 24.1 ms as one block, 24.3 ms at
# 8192, 25.2 ms at 4096 and 26.9 ms at 2048 columns.  At 4096 the Bessel
# values take 2.8 MB, and the build's scratch besides its output is 11.8
# MB, against 15.0 MB at 8192; a whole-grid build held 60.7 MB.
BLOCK_PIXELS = 4096
# the Graf table and its GEMM run on this many columns of a block: (2L + 2)
# and 2P rows of 2048 real values, 2.8 and 4.5 MB for that build.  1024
# columns made it 0.7 ms slower, 4096 no faster.
GEMM_PIXELS = 2048
# the direct path evaluates g on this many points of a block at a time: its
# steps hold about 130 B per point and pixel, 8.8 MB at 4096 columns, where
# all 360 points inside the Graf bound on a 128^2 grid held 192 MB.  That
# build took 2.11 s in chunks of 16, 2.20 s of 8, 2.25 s of 32 and 2.92 s
# in one chunk (best of 3, one BLAS thread, 2-vCPU host)
NEAR_POINTS = 16


def _mapped_empty(shape):
    """An uninitialized complex array in an anonymous memory map of its own,
    returned to the system when the array is freed.

    ``green_matrix``'s output is the largest array a reconstruction holds
    (19 MB on recon_linear_2d's 128^2 grid), built once per call and freed
    at its end.  From malloc, glibc raised its mmap threshold past that
    size at the first free and served later builds from its heap, where
    smaller allocations between two builds could split the freed block:
    the heap then grew by 11 MB at a reconstruction that varied with the
    solve threads' timing (the 36th of one back-to-back run, none in three
    others).  A map of its own keeps the block out of the heap.
    """
    count = int(np.prod(shape))
    if count == 0:
        return np.empty(shape, dtype=complex)
    # private, as malloc's own maps are; Windows has no flags and maps
    # anonymous memory privately anyway
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    return np.frombuffer(mmap.mmap(-1, 16 * count, **private), dtype=complex).reshape(shape)


def _near_chunks(far):
    """The indices of the points off the Graf path, NEAR_POINTS at a time."""
    near = np.flatnonzero(~far)
    return [near[i:i + NEAR_POINTS] for i in range(0, near.size, NEAR_POINTS)]


def _column_blocks(n, width):
    """Slices of [0, n), ``width`` columns each except the last, which takes
    the remainder too, so that no block is narrower than ``width`` unless n
    is.  OpenBLAS gave the whole product's last bits to a GEMM split into
    such blocks, but not always to a narrow last block: a 65^2 build whose
    last block had 129 columns differed in its last column."""
    starts = list(range(0, n, width))[:max(1, n // width)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _graf_terms(grid, centers, points, weights):
    """Graf's expansion about the grid center (see ``green_matrix``) of the
    2D points far enough for it: their mask, their complex (F, 2L+2) point
    factor (j/4) w_p eps_l H_l(k r_p) [cos(l theta_p), sin(l theta_p)], and
    ``tables``, where tables(m) yields (cols, table, scratch) per run of
    pixel columns: the real (2L+2, w) grid table on ``cols`` and an (m, w)
    scratch array for the caller's product with it.  The factor and tables
    are None when no point takes the expansion."""
    far = np.zeros(len(points), dtype=bool)
    if grid.ndim != 2:
        return far, None, None
    k = grid.k_b
    center = grid.center
    pix = (centers[:, 0] - center[0]) + 1j * (centers[:, 1] - center[1])
    src = (points[:, 0] - center[0]) + 1j * (points[:, 1] - center[1])
    rho, r = np.abs(pix), np.abs(src)
    rho_max = np.max(rho)
    k_rho = k * rho_max
    order = int(np.ceil(k_rho + 12.0 * np.cbrt(k_rho) + 10.0))
    far = (r > rho_max * max(2.0, GRAF_TAIL ** (-1.0 / order))) & (k_rho > 0)
    if not np.any(far):
        return far, None, None
    ls = np.arange(order + 1)

    # point factor: the weights, j/4 and eps_l fold in here, on 2L+2 columns
    src, r = src[far], r[far]
    eps = np.where(ls == 0, 1.0, 2.0)
    coef = (0.25j * weights[far])[:, None] * eps * hankel1_all(order, k * r).T
    trig = np.exp(1j * np.angle(src)[:, None] * ls)
    factor = np.concatenate([coef * trig.real, coef * trig.imag], axis=1)

    def tables(m):
        # grid table per block: one row per order and trig; e^{j l phi} by
        # recurrence, the pixel at the center (rho = 0, if any) has J_0 = 1
        # and J_l = 0 beyond.  Its Bessel values are overwritten, so it
        # takes rho_max's: an argument above L would raise the order
        # Miller's recurrence starts from, and so the other pixels' bits, in
        # its block only (rho = 1 m gives k_b rho = 84 > L = 71 on a 91^2
        # grid).  Table and scratch live in two buffers sized for the widest
        # run, reshaped to each run's width.
        blocks = [(block, _column_blocks(block.stop - block.start, GEMM_PIXELS))
                  for block in _column_blocks(grid.size, BLOCK_PIXELS)]
        width = max(sub.stop - sub.start for _, subs in blocks for sub in subs)
        table_buf = np.empty((2 * order + 2) * width)
        scratch_buf = np.empty(m * width)
        phase_buf = np.empty(width, dtype=complex)
        for block, subs in blocks:
            at_center = rho[block] == 0.0
            rho_safe = np.where(at_center, rho_max, rho[block])
            bessel = bessel_jn_all(order, k * rho_safe)
            rot = np.where(at_center, 1.0, pix[block] / rho_safe)
            for sub in subs:
                w = sub.stop - sub.start
                table = table_buf[:(2 * order + 2) * w].reshape(2 * order + 2, w)
                phase = phase_buf[:w]
                phase[:] = 1.0
                for l in ls:
                    np.multiply(bessel[l, sub], phase.real, out=table[l])
                    np.multiply(bessel[l, sub], phase.imag, out=table[order + 1 + l])
                    phase *= rot[sub]
                table[:, at_center[sub]] = 0.0
                table[0, at_center[sub]] = 1.0
                cols = slice(block.start + sub.start, block.start + sub.stop)
                yield cols, table, scratch_buf[:m * w].reshape(m, w)
            del bessel   # before the next block's values are made

    return far, factor, tables


# a column block is built only when its period holds at most this fraction
# of G's FFT points: its spectrum costs an unpruned fftn, about one apply of
# the block, and lengths with factors 3 and 5 transform slower per point
# than powers of two (at 64^2, a 125 x 128 block applied no faster than G)
BLOCK_POINTS = 0.75


def support_box(f):
    """The bounding box of f's nonzero entries as a tuple of slices, or None
    when f is 0 everywhere."""
    nonzero = np.asarray(f) != 0
    box = []
    for ax in range(nonzero.ndim):
        others = tuple(a for a in range(nonzero.ndim) if a != ax)
        hit = np.flatnonzero(np.any(nonzero, axis=others))
        if hit.size == 0:
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def fast_length(m):
    """The smallest 2^a 3^b 5^c >= m, a length numpy's FFT transforms fast."""
    if check_integer("FFT length", m) < 1:
        raise ConfigError("FFT length must be >= 1")
    while True:
        rest = m
        for q in (2, 3, 5):
            while rest % q == 0:
                rest //= q
        if rest == 1:
            return m
        m += 1


def _padded_kernel(grid):
    """G's kernel on the doubled grid, and its samples at offsets 0..n_d - 1.

    g depends on |x - x'| only, so it is evaluated once per offset 0..n_d
    per axis, prod (n_d + 1) - 1 evaluations besides the self term.  Padded
    index a holds offset a for a < n_d and a - 2 n_d otherwise, and gathers
    the value at its magnitude.  The samples hold every entry of G, and
    column blocks gather their windows from them.
    """
    offsets = [np.arange(n + 1) * grid.spacing for n in grid.shape]
    mesh = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    distinct = np.zeros(mesh.shape[:-1], dtype=complex)
    nonzero = np.sum(mesh * mesh, axis=-1) > 0
    distinct[nonzero] = point_green(grid.ndim)(mesh[nonzero], grid.k_b)
    distinct *= grid.pixel_volume
    distinct[(0,) * grid.ndim] = self_interaction(grid)
    fold = [np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n)) for n in grid.shape]
    samples = distinct[tuple(slice(0, n) for n in grid.shape)].copy()
    return distinct[np.ix_(*fold)], samples


def _pad_axis(a, ax, period):
    """``a`` zero-padded to ``period`` along ``ax``, in a new complex array
    of ``a``'s precision; only the pad is zeroed."""
    lead, n = (slice(None),) * ax, a.shape[ax]
    buf = np.empty(a.shape[:ax] + (period,) + a.shape[ax + 1:],
                   dtype=np.result_type(a.dtype, 1j))
    buf[lead + (slice(n, None),)] = 0
    buf[lead + (slice(0, n),)] = a
    return buf


class DomainGreensOperator:
    """Domain-to-domain operator: v -> integral of g(x - x') v(x') over the grid,
    or its column block G[:, B], which reads v on a box B of pixels only.

    Either is an FFT convolution from an input box onto an output box: the
    forward passes pad each axis of the input to the period P_d, one product
    with the kernel's spectrum follows, and the inverse passes crop each axis
    to the output.  G itself has the whole grid on both sides and P_d = 2 n_d,
    the zero-padded doubled grid; cost O(N log N) per apply.  The transforms
    run axis by axis, skipping lines that are all zero and cropping as they
    go: a 2D apply of G runs 6 and a 3D apply 14 of the 8 and 24 half-grid
    line transforms the full padded fftn/ifftn pair would.  Each forward pass
    allocates its own buffer, so the operator keeps no workspace between
    applies.  G's output is
    bit-identical to ifftn(fftn(pad(v), axes=reversed(range(ndim))) * K_hat),
    cropped.  ``column_block`` builds G[:, B], whose apply maps the box
    onto the grid and whose adjoint maps the grid back onto the box.
    The build evaluates g once per distinct offset magnitude, prod (n_d + 1)
    points (``_padded_kernel``), not at all prod 2 n_d padded offsets, and
    gathers the doubled kernel from them.  Immutable after construction and
    safe to share across threads.
    """

    def __init__(self, grid):
        if any(n < 2 for n in grid.shape):
            raise ConfigError("domain operator needs every grid dim >= 2")
        self.grid = grid
        kernel, self._samples = _padded_kernel(grid)
        self.in_shape = self.out_shape = grid.shape
        self._kernel_hat = np.fft.fftn(kernel)
        # the kernel is even in the offset, so G is complex symmetric
        self._transpose_hat = self._kernel_hat

    def _convolution(self, in_shape, out_shape, kernel_hat, transpose_hat):
        op = object.__new__(DomainGreensOperator)
        op.grid = self.grid
        op.in_shape, op.out_shape = in_shape, out_shape
        op._kernel_hat, op._transpose_hat = kernel_hat, transpose_hat
        return op

    def column_block(self, f):
        """(B, G[:, B]) on the bounding box B of f's nonzero entries.

        B is a tuple of slices.  G[:, B] maps a field on B onto the grid,
        as A u = u - G_B (f u)[B] needs, and its adjoint maps the grid back
        onto B, as f * G^H r does.  A linear convolution of a b-wide box
        onto an n-wide axis, or back, wraps around in no period shorter
        than n + b - 1, so axis d takes P_d, the smallest 2^a 3^b 5^c at
        least that.  When B is the whole grid, or prod P_d exceeds
        BLOCK_POINTS prod 2 n_d so that the block would not pay for its
        build, B is the whole grid and the operator G itself.  f = 0 gives
        (None, None): A is the identity.

        The window of the box-to-grid map holds k[e - j0] at e mod P for
        e in [-(b - 1), n - 1], j0 the box's first index; the grid-to-box
        map's holds k[e + j0] for e in [-(n - 1), b - 1], the same window
        reversed, so its spectrum is the first one's at -q mod P.  Both
        windows are gathered from G's kernel samples, so a block costs one
        fftn of the period and no Green's evaluation.
        """
        box = support_box(self.grid.check_field(f, "potential"))
        if box is None:
            return None, None
        shape = self.grid.shape
        widths = tuple(s.stop - s.start for s in box)
        period = tuple(fast_length(n + b - 1) for n, b in zip(shape, widths))
        share = np.prod(period) / np.prod(self._kernel_hat.shape)
        if widths == shape or share > BLOCK_POINTS:
            return tuple(slice(0, n) for n in shape), self
        where, offset = [], []
        for n, s, b, p in zip(shape, box, widths, period):
            e = np.arange(-(b - 1), n)   # output index minus input index
            where.append(e % p)
            offset.append(np.abs(e - s.start))
        window = np.zeros(period, dtype=complex)
        window[np.ix_(*where)] = self._samples[np.ix_(*offset)]
        kernel_hat = np.fft.fftn(window)
        reverse = np.ix_(*[-np.arange(p) % p for p in period])
        return box, self._convolution(widths, shape, kernel_hat, kernel_hat[reverse])

    def apply(self, v):
        # forward passes first axis first: each pass multiplies the lines the
        # next one transforms, so the largest pass runs on the last axis.
        # Each pass transforms its padded buffer in place (see the module
        # docstring); out= needs numpy 2.  Returning a new array instead made
        # a 64^2 apply 0.18 ms against 0.12 ms, faulting in its output pages
        # on every call.  spec is rebound before the transform, so the last
        # pass's buffer is freed first and none outlives its pass: holding
        # them grew the heap of a run that keeps many fields by 8 MB.  The
        # inverse passes run last axis first, each cropping its axis to the
        # output so the next one runs on fewer lines.  For G the bits match
        # fftn over the reversed axes, followed by the padded ifftn.
        spec = np.asarray(v)
        if spec.shape != self.in_shape:
            raise DimensionError(f"field has shape {spec.shape}, expected {self.in_shape}")
        for ax, period in enumerate(self._kernel_hat.shape):
            spec = _pad_axis(spec, ax, period)
            np.fft.fft(spec, axis=ax, out=spec)
        spec *= self._kernel_hat
        for ax in reversed(range(spec.ndim)):
            spec = np.fft.ifft(spec, axis=ax)
            spec = spec[(slice(None),) * ax + (slice(0, self.out_shape[ax]),)]
        return spec

    def apply_adjoint(self, v):
        # the adjoint is conj o transpose o conj, and the transpose maps the
        # output box back onto the input box
        transpose = self._convolution(self.out_shape, self.in_shape,
                                      self._transpose_hat, self._kernel_hat)
        return np.conj(transpose.apply(np.conj(v)))


def check_sensors(grid, sensors):
    """Warn when a sensor lies inside the domain, and raise
    SingularityError when one sits on a pixel center."""
    sensors.warn_if_inside(grid)
    # the nearest pixel center, axis by axis
    lo = np.asarray(grid.origin)
    index = np.clip(np.rint((sensors.positions - lo) / grid.spacing),
                    0, np.asarray(grid.shape) - 1)
    nearest = lo + grid.spacing * index
    if np.any(np.linalg.norm(sensors.positions - nearest, axis=1) < 1e-9 * grid.spacing):
        raise SingularityError("a sensor coincides with a pixel center")


def sensor_rows(grid, sensors, sources=None, amplitudes=()):
    """H's rows on ``sensors``, then amplitudes[j] * g(sources[j] - x_n).

    ``sources`` is an (S, ndim) array of point-source positions, if any.
    One ``green_matrix`` call builds both, so the grid table of its Graf path
    is built once per grid.  The sensors pass ``check_sensors`` first.
    """
    check_sensors(grid, sensors)
    if sources is None:
        sources = np.empty((0, grid.ndim))
    points = np.concatenate([sensors.positions, sources])
    weights = np.concatenate([np.full(len(sensors), grid.pixel_volume),
                              np.asarray(amplitudes, dtype=complex)])
    return green_matrix(grid, points, weights)


class SensorGreensOperator:
    """Domain-to-sensor operator: dense M x N matrix of pixel-weighted g values.

    ``matrix``, when given, is the sensors' block of a ``sensor_rows`` call
    that also built point sources' rows; otherwise the operator calls it.
    """

    def __init__(self, grid, sensors, matrix=None):
        self.grid = grid
        self.sensors = sensors
        self.matrix = sensor_rows(grid, sensors) if matrix is None else matrix

    def apply(self, v):
        v = self.grid.check_field(v)
        return self.matrix @ v.ravel()

    def apply_adjoint(self, y):
        y = np.asarray(y)
        if y.shape != (len(self.sensors),):
            raise DimensionError(
                f"sensor vector has shape {y.shape}, expected ({len(self.sensors)},)")
        # (y^H M)^H: the product reads M in place instead of building M^H
        return (y.conj() @ self.matrix).conj().reshape(self.grid.shape)


class MaskedSensorOperator:
    """Row subset of a shared SensorGreensOperator (per-transmitter active receivers)."""

    def __init__(self, base, indices):
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1 or indices.size < 1:
            raise ConfigError("mask needs at least one receiver index")
        if np.any(indices < 0) or np.any(indices >= len(base.sensors)):
            raise ConfigError("receiver index out of range")
        self.grid = base.grid
        self.base = base
        self.indices = indices

    def apply(self, v):
        return self.base.apply(v)[self.indices]

    def apply_adjoint(self, y):
        y = np.asarray(y)
        if y.shape != (self.indices.size,):
            raise DimensionError(
                f"sensor vector has shape {y.shape}, expected ({self.indices.size},)")
        full = np.zeros(len(self.base.sensors), dtype=complex)
        full[self.indices] = y
        return self.base.apply_adjoint(full)


def build_domain_operator(grid):
    """Discretized Green's operator inside the domain (FFT-convolution backed)."""
    return DomainGreensOperator(grid)


def build_sensor_operator(grid, sensors):
    """Discretized Green's operator from the domain to a sensor set."""
    return SensorGreensOperator(grid, sensors)


class SystemOperator:
    """A = I - G diag(f) for one potential f, with G restricted to the
    bounding box B of f's support (``DomainGreensOperator.column_block``).

    A u = u - G_B (f u)[B] and A^H u = u - f G^H u, where f G^H u is zero
    off B.  Build one per potential and apply it many times: the block's
    spectrum is one fftn.  For f = 0, A is the identity and applies no FFT.
    """

    def __init__(self, f, G):
        self.box, self.G_box = G.column_block(f)
        self.grid = G.grid
        self.f_box = None if self.box is None else np.asarray(f)[self.box]

    def apply(self, u):
        u = self.grid.check_field(u, "field")
        if self.box is None:
            return u.astype(complex)
        return u - self.G_box.apply(self.f_box * u[self.box])

    def apply_adjoint(self, u):
        out = self.grid.check_field(u, "field").astype(complex)
        if self.box is not None:
            out[self.box] -= self.f_box * self.G_box.apply_adjoint(u)
        return out


def apply_A(f, u, G):
    """A u = u - G (f * u), with A = I - G diag(f)."""
    return SystemOperator(f, G).apply(u)


def apply_AH(f, u, G):
    """A^H u = u - f * (G^H u); f is real so diag(f)^H = diag(f)."""
    return SystemOperator(f, G).apply_adjoint(u)
