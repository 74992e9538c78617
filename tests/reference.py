"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the package's production
paths: dense matrices instead of FFT convolutions, one Hankel evaluation
per point and pixel instead of the Graf-factored sensor matrix, the
zero-filled padded fftn instead of the pruned per-axis transforms, naive
recursions instead of the fused backward pass, the A^H solve instead of its
reciprocal forward solve in the adjoint-state gradient, subgradient descent
instead of the dual prox solver, and mpmath arbitrary-precision special
functions.  The objectives and unfused operators that only tests evaluate
live here too.
"""

import mpmath as mp
import numpy as np

from wavetomo.forward import bicgstab
from wavetomo.greens import apply_A, apply_AH, green_2d, green_3d, self_interaction
from wavetomo.tv import grad_adjoint, proj_box

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# special functions

def mp_j(n, x):
    return float(mp.besselj(n, x))


def mp_y(n, x):
    return float(mp.bessely(n, x))


def mp_sph_j(l, x):
    return float(mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + 0.5, x))


def mp_sph_y(l, x):
    return float(mp.sqrt(mp.pi / (2 * x)) * mp.bessely(l + 0.5, x))


def mp_hankel1(n, x):
    return complex(mp.hankel1(n, x))


def mp_green_2d(source, point, k_b):
    """(j/4) H0^(1)(k_b |source - point|) with the distance taken in mpmath."""
    dist = mp.sqrt(sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(source, point)))
    return complex(0.25j * mp.hankel1(0, k_b * dist))


# ---------------------------------------------------------------------------
# dense operator oracles

def dense_domain_matrix(grid):
    """G as an explicit dense matrix from per-entry Green's evaluations."""
    pts = grid.pixel_centers().reshape(-1, grid.ndim)
    n = pts.shape[0]
    g = green_2d if grid.ndim == 2 else green_3d
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        disp = pts[i] - pts
        dist = np.linalg.norm(disp, axis=1)
        nz = dist > 0
        out[i, nz] = g(disp[nz], grid.k_b) * grid.pixel_volume
        out[i, i] = self_interaction(grid)
    return out


def direct_green_matrix(grid, points, weights):
    """weights[p] * g(points[p] - x_n): one Hankel evaluation per entry."""
    centers = grid.pixel_centers().reshape(-1, grid.ndim)
    disp = np.asarray(points)[:, None, :] - centers[None, :, :]
    g = green_2d if grid.ndim == 2 else green_3d
    weights = np.broadcast_to(weights, disp.shape[:1])
    return weights[:, None] * g(disp, grid.k_b)


def dense_A_matrix(grid, f):
    return np.eye(grid.size, dtype=complex) - dense_domain_matrix(grid) @ np.diag(f.ravel())


def padded_fft_apply(G, v, axes_order=None):
    """G v by fftn/ifftn over a zero-filled buffer of doubled extent per axis.

    The forward fftn runs over ``axes_order``: by default the reversed axes,
    so it transforms axis 0 first, as ``G.apply`` does; ``range(ndim)`` gives
    numpy's default order, which transforms the last axis first.
    """
    shape = G.grid.shape
    if axes_order is None:
        axes_order = tuple(reversed(range(len(shape))))
    buf = np.zeros(tuple(2 * n for n in shape), dtype=complex)
    buf[tuple(slice(0, n) for n in shape)] = v
    out = np.fft.ifftn(np.fft.fftn(buf, axes=axes_order) * G._kernel_hat)
    return out[tuple(slice(0, n) for n in shape)]


# ---------------------------------------------------------------------------
# forward-model objective

def scattering_objective(f, u, u_in, G):
    """S(u) = 0.5 ||A u - u_in||_2^2."""
    resid = apply_A(f, u, G) - G.grid.check_field(u_in, "u_in")
    return 0.5 * float(np.vdot(resid, resid).real)


def objective_gradient(f, u, u_in, G):
    """grad S(u) = A^H (A u - u_in)."""
    resid = apply_A(f, u, G) - G.grid.check_field(u_in, "u_in")
    return apply_AH(f, resid, G)


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(eval_scalar, f, delta):
    """Central finite differences of a scalar function of the image f."""
    out = np.zeros(f.shape)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += delta
        fm = f.copy()
        fm[idx] -= delta
        out[idx] = (eval_scalar(fp) - eval_scalar(fm)) / (2.0 * delta)
    return out


# ---------------------------------------------------------------------------
# backward-pass oracles

def apply_Sk(f, gamma_k, v, G):
    """S^k v = v - gamma_k A^H (A v)."""
    return v - gamma_k * apply_AH(f, apply_A(f, v, G), G)


def apply_Tk(f, s_k, v, u_in, G):
    """T^k v = conj(G^H (A s^k - u_in)) * v + conj(s^k) * G^H (A v)."""
    grid = G.grid
    v = grid.check_field(v, "multiplier")
    resid = apply_A(f, s_k, G) - grid.check_field(u_in, "u_in")
    return (np.conj(G.apply_adjoint(resid)) * v
            + np.conj(s_k) * G.apply_adjoint(apply_A(f, v, G)))


def backprop_two_term_naive(f, y, u_in, G, H, trace):
    """The two-term recursion with unfused S^k and T^k applies (6 G-applies
    per iteration); the fused backward pass must match it bit for bit."""
    resid = trace.z - y
    back = H.apply_adjoint(resid)
    q = f * back
    r = np.conj(trace.u_hat) * back
    Sq_next = np.zeros_like(q)
    mu_next = 0.0
    for k in range(trace.K_effective, 0, -1):
        s_k = trace.s_history[k - 1]
        gamma_k = trace.gamma_history[k - 1]
        mu_k = trace.mu_history[k - 1]
        Sq = apply_Sk(f, gamma_k, q, G)
        r = r + gamma_k * apply_Tk(f, s_k, q, u_in, G)
        q = (1.0 - mu_k) * Sq + mu_next * Sq_next
        Sq_next = Sq
        mu_next = mu_k
    return np.real(r)


def backprop_three_vector(f, y, u_in, G, H, trace):
    """Explicit (q, r, p) three-vector recursion, kept separate from the
    production two-term update."""
    resid = trace.z - y
    back = H.apply_adjoint(resid)
    q = f * back
    r = np.conj(trace.u_hat) * back
    p = np.zeros_like(q)
    K = trace.K_effective
    for k in range(K, 0, -1):
        s_k = trace.s_history[k - 1]
        gamma_k = trace.gamma_history[k - 1]
        mu_k = trace.mu_history[k - 1]
        Sq = apply_Sk(f, gamma_k, q, G)
        r = r + gamma_k * apply_Tk(f, s_k, q, u_in, G)
        if k > 1:
            q, p = p + (1.0 - mu_k) * Sq, mu_k * Sq
    return np.real(r)


def adjoint_state_gradient_AH(f, y, u_in, G, H, cfg):
    """The adjoint-state gradient in its A^H form, without reciprocity.

    u solves A u = u_in, w solves A^H w = f H^H r, and the gradient is
    Re(conj(u) (H^H r + G^H w)); both BiCGStab solves use the production
    solver's tolerance and cap, u started at u_in and w at 0.
    """
    u_in = u_in.astype(complex)
    tol = np.sqrt(2.0 * cfg.delta_tol_rel)
    u, _ = bicgstab(lambda v: apply_A(f, v, G), u_in, u_in, tol, cfg.K)
    back = H.apply_adjoint(H.apply(f * u) - y)
    b = f * back
    w, _ = bicgstab(lambda v: apply_AH(f, v, G), b, np.zeros_like(b), tol, cfg.K)
    return np.real(np.conj(u) * (back + G.apply_adjoint(w)))


# ---------------------------------------------------------------------------
# TV prox oracles

def dual_objective(g, z, tau, box):
    """Dual-ascent objective being minimized by the FGP iterations."""
    w = z - tau * grad_adjoint(g)
    p = proj_box(w, box)
    return -0.5 * float(np.sum((w - p) ** 2)) + 0.5 * float(np.sum(w * w))


def tv_iso_batch(F):
    gx = np.zeros(F.shape)
    gy = np.zeros(F.shape)
    gx[:, :-1, :] = F[:, 1:, :] - F[:, :-1, :]
    gy[:, :, :-1] = F[:, :, 1:] - F[:, :, :-1]
    return np.sqrt(gx * gx + gy * gy), gx, gy


def _objective_from_norms(F, Z, tau, norms):
    return 0.5 * np.sum((F - Z) ** 2, axis=(1, 2)) + tau * np.sum(norms, axis=(1, 2))


def prox_objective_batch(F, Z, tau):
    return _objective_from_norms(F, Z, tau, tv_iso_batch(F)[0])


def subgradient_prox_batch(Z, tau, iters, box=None):
    """Projected subgradient descent with diminishing steps (2/(j+1), the
    strongly-convex schedule), run on a whole batch of instances at once.
    Returns the best objective value seen per instance.  The gradient field
    of each iterate serves both its objective value and the next step."""
    F = Z.copy()
    norms, gx, gy = tv_iso_batch(F)
    best = _objective_from_norms(F, Z, tau, norms)
    for j in range(1, iters + 1):
        inv = np.where(norms > 1e-300, 1.0 / np.maximum(norms, 1e-300), 0.0)
        dx = gx * inv
        dy = gy * inv
        div = np.zeros_like(F)
        div[:, :-1, :] -= dx[:, :-1, :]
        div[:, 1:, :] += dx[:, :-1, :]
        div[:, :, :-1] -= dy[:, :, :-1]
        div[:, :, 1:] += dy[:, :, :-1]
        g = (F - Z) + tau * div
        F = F - (2.0 / (j + 1)) * g
        if box is not None:
            F = np.clip(F, box.a, box.b)
        norms, gx, gy = tv_iso_batch(F)
        best = np.minimum(best, _objective_from_norms(F, Z, tau, norms))
    return best
