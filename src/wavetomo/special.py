"""Self-contained special functions used by the Green's kernels and the
closed-form scattering series.

Cylindrical Bessel functions of order 0 and 1 come from one routine per
order, ``_bessel(n, x)``, which returns (J_n, Y_n) and evaluates nothing of
the other order: the ascending power series for x <= 12 and the Hankel
large-argument expansion (P/Q form, exact rational coefficients, optimally
truncated, phase looked up by order) beyond.  The crossover sits where both
branches stay below 1e-10 relative to the envelope sqrt(2/(pi*x)); double
precision holds that on (0, 100] and degrades only slowly above.

Higher integer orders come from the standard recurrences: downward (Miller)
recurrence with sum normalization for J_n, upward recurrence for Y_n and for
H_n^(1) = J_n + j Y_n.  Spherical Bessel functions use the same pattern with
their own closed-form seeds, and Legendre polynomials the three-term
recurrence; the four upward tables share one loop.

All functions accept scalars or numpy arrays of positive arguments.
"""

import functools

import numpy as np

from .errors import ConfigError

_EULER_GAMMA = 0.5772156649015328606
_SERIES_CUTOFF = 12.0
_SERIES_MAX_TERMS = 80
_ASYM_MAX_TERMS = 40


def _j_series(n, x):
    # J_n(x) = (x/2)^n sum_k (-x^2/4)^k / (k! (k+n)!), n = 0 or 1
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * q / (k * (k + n))
        total = total + term
        if np.all(np.abs(term) < 1e-18):
            break
    return total * (0.5 * x) ** n


def _y0_series(x, j0x):
    # Y0 = (2/pi)[(ln(x/2)+gamma) J0 + sum_k (-1)^{k+1} H_k (x^2/4)^k / (k!)^2]
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.zeros_like(x)
    harmonic = 0.0
    sign = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * q / (k * k)
        harmonic += 1.0 / k
        contrib = sign * harmonic * term
        total = total + contrib
        sign = -sign
        if np.all(np.abs(contrib) < 1e-18) and k > 3:
            break
    return (2.0 / np.pi) * ((np.log(0.5 * x) + _EULER_GAMMA) * j0x + total)


def _y1_series(x, j1x):
    # Y1 = (2/pi)(ln(x/2)+gamma) J1 - 2/(pi x)
    #      - (1/pi) sum_k (-1)^k (H_k + H_{k+1}) (x/2)^{2k+1} / (k! (k+1)!)
    q = 0.25 * x * x
    term = 0.5 * x
    total = term * 1.0  # k = 0 contribution carries H_0 + H_1 = 1
    harmonic_k = 0.0
    harmonic_k1 = 1.0
    sign = -1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * q / (k * (k + 1))
        harmonic_k += 1.0 / k
        harmonic_k1 += 1.0 / (k + 1)
        contrib = sign * (harmonic_k + harmonic_k1) * term
        total = total + contrib
        sign = -sign
        if np.all(np.abs(contrib) < 1e-18) and k > 3:
            break
    return ((2.0 / np.pi) * (np.log(0.5 * x) + _EULER_GAMMA) * j1x
            - 2.0 / (np.pi * x) - total / np.pi)


# per order n: the Y_n series and the Hankel phase offset (2n+1) pi/4
_Y_SERIES = (_y0_series, _y1_series)
_PHASE = (0.25 * np.pi, 0.75 * np.pi)


def _pq_asymptotic(order, x):
    """P/Q amplitude-phase sums of the Hankel expansion at integer order 0 or 1.

    Terms t_m = prod_{j<=m} (4*order^2 - (2j-1)^2) / (m! (8x)^m) are added with
    the standard alternating signs and truncated at the first growing term.
    """
    mu = 4.0 * order * order
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    last_mag = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, _ASYM_MAX_TERMS):
        term = term * (mu - (2 * m - 1) ** 2) / (m * 8.0 * x)
        mag = np.abs(term)
        active = active & (mag < last_mag)
        if not np.any(active):
            break
        last_mag = np.where(active, mag, last_mag)
        if m % 2 == 1:
            q = q + np.where(active, term * (-1.0) ** ((m - 1) // 2), 0.0)
        else:
            p = p + np.where(active, term * (-1.0) ** (m // 2), 0.0)
    return p, q


def _table(order_name, positive=True):
    """Preamble of the ``f(order, x)`` functions here whose first axis is the
    order (or J/Y): checks the order, hands the body x as a float array of at
    least one axis (positive unless told otherwise), returns a scalar's column."""
    def wrap(body):
        @functools.wraps(body)
        def table(order, x):
            if order < 0:
                raise ConfigError(f"{order_name} must be >= 0")
            x = np.asarray(x, dtype=float)
            if positive and np.any(x <= 0.0):
                raise ValueError("argument must be positive")
            out = body(order, np.atleast_1d(x))
            return out[:, 0] if x.ndim == 0 else out
        return table
    return wrap


@_table("n")
def _bessel(n, x):
    """[J_n, Y_n] for n = 0 or 1, shape (2,) + x.shape."""
    out = np.empty((2,) + x.shape)
    small = x <= _SERIES_CUTOFF
    if np.any(small):
        xs = x[small]
        js = _j_series(n, xs)
        out[0, small] = js
        out[1, small] = _Y_SERIES[n](xs, js)
    if np.any(~small):
        xl = x[~small]
        amp = np.sqrt(2.0 / (np.pi * xl))
        p, q = _pq_asymptotic(n, xl)
        chi = xl - _PHASE[n]
        c, s = np.cos(chi), np.sin(chi)
        out[0, ~small] = amp * (p * c - q * s)
        out[1, ~small] = amp * (p * s + q * c)
    return out


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + j Y0(x)."""
    j0, y0 = _bessel(0, x)
    return j0 + 1j * y0


def hankel1_1(x):
    """H1^(1)(x) = J1(x) + j Y1(x)."""
    j1, y1 = _bessel(1, x)
    return j1 + 1j * y1


def _upward(nmax, x, seed0, seed1, step):
    """Orders 0..nmax from two seeds by out[n+1] = step(n, out[n], out[n-1])."""
    out = np.zeros((nmax + 1,) + x.shape, dtype=np.result_type(seed0, seed1))
    out[0] = seed0
    if nmax >= 1:
        out[1] = seed1
    for n in range(1, nmax):
        out[n + 1] = step(n, out[n], out[n - 1])
    return out


_RESCALE = 1e250


@_table("nmax")
def bessel_jn_all(nmax, x):
    """J_n(x) for n = 0..nmax, shape (nmax+1,) + x.shape.

    Miller's downward recurrence from a start order above both nmax and x,
    normalized with J0 + 2*sum_k J_{2k} = 1.  Intermediate values are rescaled
    per point when they approach overflow.
    """
    top = int(max(nmax, np.ceil(np.max(x)))) if x.size else nmax
    start = top + int(np.ceil(2.0 * np.sqrt(max(top, 1)))) + 24
    if start % 2 == 1:
        start += 1

    out = np.zeros((nmax + 1,) + x.shape)
    norm = np.zeros_like(x)
    jp1 = np.zeros_like(x)       # J_{l+1} (unnormalized)
    jl = np.full_like(x, 1e-30)  # J_l at l = start
    for l in range(start, -1, -1):
        if l <= nmax:
            out[l] = jl
        if l % 2 == 0:
            norm = norm + (1.0 if l == 0 else 2.0) * jl
        if l > 0:
            jm1 = (2.0 * l / x) * jl - jp1
            jp1, jl = jl, jm1
            big = np.abs(jl) > _RESCALE
            if np.any(big):
                jl[big] /= _RESCALE
                jp1[big] /= _RESCALE
                norm[big] /= _RESCALE
                out[:, big] /= _RESCALE
    out /= norm
    return out


@_table("nmax")
def bessel_yn_all(nmax, x):
    """Y_n(x) for n = 0..nmax via the (stable) upward recurrence."""
    return _upward(nmax, x, _bessel(0, x)[1], _bessel(1, x)[1],
                   lambda n, y, y_prev: (2.0 * n / x) * y - y_prev)


@_table("nmax")
def hankel1_all(nmax, x):
    """H_n^(1)(x) = J_n(x) + j Y_n(x) for n = 0..nmax by the recurrence of
    ``bessel_yn_all``, run on the complex seeds.

    The imaginary part is ``bessel_yn_all`` bit for bit.  Y_n dominates the
    recurrence once n > x, so each entry is accurate relative to |H_n|, not
    its real part J_n alone.  The cost is O(nmax) per point whatever x is,
    where Miller's recurrence for J_n starts above x.
    """
    return _upward(nmax, x, hankel1_0(x), hankel1_1(x),
                   lambda n, h, h_prev: (2.0 * n / x) * h - h_prev)


@_table("lmax")
def spherical_jn_all(lmax, x):
    """Spherical j_l(x) for l = 0..lmax.

    Downward recurrence normalized with sum_l (2l+1) j_l^2 = 1, which avoids
    the zeros of any single seed order.
    """
    top = int(max(lmax, np.ceil(np.max(x)))) if x.size else lmax
    start = top + int(np.ceil(2.0 * np.sqrt(max(top, 1)))) + 24

    out = np.zeros((lmax + 1,) + x.shape)
    norm_sq = np.zeros_like(x)
    jp1 = np.zeros_like(x)
    jl = np.full_like(x, 1e-30)
    rescale = 1e120  # norm_sq holds squares, so rescale well before overflow
    for l in range(start, -1, -1):
        if l <= lmax:
            out[l] = jl
        norm_sq = norm_sq + (2.0 * l + 1.0) * jl * jl
        if l > 0:
            jm1 = ((2.0 * l + 1.0) / x) * jl - jp1
            jp1, jl = jl, jm1
            big = np.abs(jl) > rescale
            if np.any(big):
                jl[big] /= rescale
                jp1[big] /= rescale
                norm_sq[big] /= rescale ** 2
                out[:, big] /= rescale
    scale = 1.0 / np.sqrt(norm_sq)
    # the sum normalization loses the overall sign; recover it from whichever
    # closed-form seed (j0 or j1) is farther from a zero crossing
    ref0 = np.sin(x) / x
    ref1 = np.sin(x) / (x * x) - np.cos(x) / x
    raw = np.where(np.abs(ref0) >= np.abs(ref1), out[0], out[1] if lmax >= 1 else jp1)
    ref = np.where(np.abs(ref0) >= np.abs(ref1), ref0, ref1)
    sign = np.where(raw * scale * ref < 0, -1.0, 1.0)
    out *= scale * sign
    return out


@_table("lmax")
def spherical_yn_all(lmax, x):
    """Spherical n_l(x) for l = 0..lmax via upward recurrence."""
    return _upward(lmax, x, -np.cos(x) / x, -np.cos(x) / (x * x) - np.sin(x) / x,
                   lambda l, n, n_prev: ((2.0 * l + 1.0) / x) * n - n_prev)


@_table("lmax", positive=False)
def legendre_all(lmax, x):
    """Legendre polynomials P_l(x) for l = 0..lmax on x in [-1, 1]."""
    return _upward(lmax, x, 1.0, x, lambda l, p, p_prev:
                   ((2.0 * l + 1.0) * x * p - l * p_prev) / (l + 1.0))
