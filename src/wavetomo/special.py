"""Self-contained special functions used by the Green's kernels and the
closed-form scattering series.

Cylindrical Bessel functions of order 0 and 1 are evaluated by the ascending
power series for x <= 12 and by the Hankel large-argument expansion (P/Q form,
exact rational coefficients, optimally truncated) beyond.  The crossover sits
where both branches stay below 1e-10 relative to the envelope sqrt(2/(pi*x));
double precision holds that on (0, 100] and degrades only slowly above.

Higher integer orders come from the standard recurrences: downward (Miller)
recurrence with sum normalization for J_n, upward recurrence for Y_n.
Spherical Bessel functions use the same pattern with their own closed-form
seeds, and Legendre polynomials the three-term recurrence.

All functions accept scalars or numpy arrays of positive arguments.
"""

import numpy as np

from .errors import ConfigError

_EULER_GAMMA = 0.5772156649015328606
_SERIES_CUTOFF = 12.0
_SERIES_MAX_TERMS = 80
_ASYM_MAX_TERMS = 40


def _as_positive_array(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be positive")
    return x


def _j0_series(x):
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * q / (k * k)
        total = total + term
        if np.all(np.abs(term) < 1e-18):
            break
    return total


def _j1_series(x):
    # J1(x) = (x/2) sum_k (-x^2/4)^k / (k! (k+1)!)
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * q / (k * (k + 1))
        total = total + term
        if np.all(np.abs(term) < 1e-18):
            break
    return 0.5 * x * total


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


def _bessel01(x):
    """J0, Y0, J1, Y1 evaluated together on a positive array."""
    x = _as_positive_array(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    j0 = np.empty_like(x)
    y0 = np.empty_like(x)
    j1 = np.empty_like(x)
    y1 = np.empty_like(x)

    small = x <= _SERIES_CUTOFF
    if np.any(small):
        xs = x[small]
        j0s = _j0_series(xs)
        j1s = _j1_series(xs)
        j0[small] = j0s
        j1[small] = j1s
        y0[small] = _y0_series(xs, j0s)
        y1[small] = _y1_series(xs, j1s)
    if np.any(~small):
        xl = x[~small]
        amp = np.sqrt(2.0 / (np.pi * xl))
        p0, q0 = _pq_asymptotic(0, xl)
        chi0 = xl - 0.25 * np.pi
        c0, s0 = np.cos(chi0), np.sin(chi0)
        j0[~small] = amp * (p0 * c0 - q0 * s0)
        y0[~small] = amp * (p0 * s0 + q0 * c0)
        p1, q1 = _pq_asymptotic(1, xl)
        chi1 = xl - 0.75 * np.pi
        c1, s1 = np.cos(chi1), np.sin(chi1)
        j1[~small] = amp * (p1 * c1 - q1 * s1)
        y1[~small] = amp * (p1 * s1 + q1 * c1)

    if scalar:
        return j0[0], y0[0], j1[0], y1[0]
    return j0, y0, j1, y1


def bessel_j0(x):
    return _bessel01(x)[0]


def bessel_y0(x):
    return _bessel01(x)[1]


def bessel_j1(x):
    return _bessel01(x)[2]


def bessel_y1(x):
    return _bessel01(x)[3]


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + j Y0(x)."""
    j0, y0, _, _ = _bessel01(x)
    return j0 + 1j * y0


def hankel1_1(x):
    """H1^(1)(x) = J1(x) + j Y1(x)."""
    _, _, j1, y1 = _bessel01(x)
    return j1 + 1j * y1


_RESCALE = 1e250


def bessel_jn_all(nmax, x):
    """J_n(x) for n = 0..nmax, shape (nmax+1,) + x.shape.

    Miller's downward recurrence from a start order above both nmax and x,
    normalized with J0 + 2*sum_k J_{2k} = 1.  Intermediate values are rescaled
    per point when they approach overflow.
    """
    if nmax < 0:
        raise ConfigError("nmax must be >= 0")
    x = _as_positive_array(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
    return out[:, 0] if scalar else out


def bessel_yn_all(nmax, x):
    """Y_n(x) for n = 0..nmax via the (stable) upward recurrence."""
    if nmax < 0:
        raise ConfigError("nmax must be >= 0")
    x = _as_positive_array(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j0, y0, j1, y1 = _bessel01(x)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = y0
    if nmax >= 1:
        out[1] = y1
    for n in range(1, nmax):
        out[n + 1] = (2.0 * n / x) * out[n] - out[n - 1]
    return out[:, 0] if scalar else out


def spherical_jn_all(lmax, x):
    """Spherical j_l(x) for l = 0..lmax.

    Downward recurrence normalized with sum_l (2l+1) j_l^2 = 1, which avoids
    the zeros of any single seed order.
    """
    if lmax < 0:
        raise ConfigError("lmax must be >= 0")
    x = _as_positive_array(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
    return out[:, 0] if scalar else out


def spherical_yn_all(lmax, x):
    """Spherical n_l(x) for l = 0..lmax via upward recurrence."""
    if lmax < 0:
        raise ConfigError("lmax must be >= 0")
    x = _as_positive_array(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((lmax + 1,) + x.shape)
    out[0] = -np.cos(x) / x
    if lmax >= 1:
        out[1] = -np.cos(x) / (x * x) - np.sin(x) / x
    for l in range(1, lmax):
        out[l + 1] = ((2.0 * l + 1.0) / x) * out[l] - out[l - 1]
    return out[:, 0] if scalar else out


def legendre_all(lmax, x):
    """Legendre polynomials P_l(x) for l = 0..lmax on x in [-1, 1]."""
    if lmax < 0:
        raise ConfigError("lmax must be >= 0")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros((lmax + 1,) + x.shape)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = x
    for l in range(1, lmax):
        out[l + 1] = ((2.0 * l + 1.0) * x * out[l] - l * out[l - 1]) / (l + 1.0)
    return out[:, 0] if scalar else out
