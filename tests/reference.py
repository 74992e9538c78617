"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the package's production
paths: dense matrices instead of FFT convolutions, naive recursions instead
of the fused backward pass, subgradient descent instead of the dual prox
solver, and mpmath arbitrary-precision special functions.
"""

import mpmath as mp
import numpy as np

from wavetomo.greens import green_2d, green_3d, self_interaction

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


def dense_A_matrix(grid, f):
    return np.eye(grid.size, dtype=complex) - dense_domain_matrix(grid) @ np.diag(f.ravel())


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

def backprop_two_term_naive(f, y, u_in, G, H, trace):
    """The two-term recursion with unfused S^k and T^k applies (6 G-applies
    per iteration); the fused backward pass must match it bit for bit."""
    from wavetomo.adjoint import apply_Sk, apply_Tk

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
    from wavetomo.adjoint import apply_Sk, apply_Tk

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


# ---------------------------------------------------------------------------
# TV prox oracle

def tv_iso_batch(F):
    gx = np.zeros(F.shape)
    gy = np.zeros(F.shape)
    gx[:, :-1, :] = F[:, 1:, :] - F[:, :-1, :]
    gy[:, :, :-1] = F[:, :, 1:] - F[:, :, :-1]
    return np.sqrt(gx * gx + gy * gy), gx, gy


def prox_objective_batch(F, Z, tau):
    norms, _, _ = tv_iso_batch(F)
    return 0.5 * np.sum((F - Z) ** 2, axis=(1, 2)) + tau * np.sum(norms, axis=(1, 2))


def subgradient_prox_batch(Z, tau, iters, box=None):
    """Projected subgradient descent with diminishing steps (2/(j+1), the
    strongly-convex schedule), run on a whole batch of instances at once.
    Returns the best objective value seen per instance."""
    F = Z.copy()
    best = prox_objective_batch(F, Z, tau)
    for j in range(1, iters + 1):
        norms, gx, gy = tv_iso_batch(F)
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
        best = np.minimum(best, prox_objective_batch(F, Z, tau))
    return best
