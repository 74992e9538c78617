"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the package's production
paths: dense matrices instead of FFT convolutions, one Hankel evaluation
per point and pixel instead of the Graf-factored sensor matrix, the
zero-filled padded fftn instead of the pruned per-axis transforms, forward
passes that pad each line by ``fft(n=P)`` instead of into a buffer of the
period, naive recursions instead of the fused backward pass, the A^H solve
instead of its reciprocal forward solve in the adjoint-state gradient,
subgradient descent instead of the dual prox solver, the dual prox with its
gradient fields stored component last instead of component first, G's
kernel evaluated at every padded offset instead of once per distinct offset
magnitude, every pixel supersampled for every phantom shape instead of each
shape's box, and mpmath arbitrary-precision special functions.  The
data generation on the whole refined grid stands in for its generation on
a sub-grid around the phantom's support, and mpmath radial quadratures for
the closed-form pixel self terms.  The objectives and unfused operators
that only tests evaluate live here too.
"""

import dataclasses
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from wavetomo.fileio import (generation_from_config, grid_from_config,
                             receivers_from_config, recon_config_from_config,
                             transmitters_from_config)
from wavetomo.forward import ForwardConfig, bicgstab
from wavetomo.greens import (SystemOperator, apply_A, apply_AH, build_domain_operator,
                             green_2d, green_3d, green_products, self_interaction)
from wavetomo.grid import refined_grid
from wavetomo.recon import _solve_rows, incident_fields
from wavetomo.simulate import GENERATION_RESIDUAL, render_phantom
from wavetomo.tv import BoxConstraint, grad_adjoint, proj_box

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


def mp_self_interaction(ndim, spacing, k_b):
    """The integral of g over the disk (2D) or ball (3D) of one pixel's
    area or volume, by mpmath quadrature of g's radial profile:
    2 pi int_0^a (j/4) H0(k r) r dr, or 4 pi int_0^a e^{jkr}/(4 pi r) r^2 dr."""
    h, k = mp.mpf(spacing), mp.mpf(k_b)
    if ndim == 2:
        a = h / mp.sqrt(mp.pi)
        return complex(2 * mp.pi * mp.quad(lambda r: 0.25j * mp.hankel1(0, k * r) * r, [0, a]))
    a = mp.cbrt(3 * h ** 3 / (4 * mp.pi))
    return complex(mp.quad(lambda r: mp.exp(1j * k * r) * r, [0, a]))


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


def padded_kernel(grid):
    """G's kernel on the doubled grid, its fftn and its samples at offsets
    0..n_d - 1, from one Green's evaluation at every padded offset."""
    offsets = [np.where(np.arange(2 * n) < n, np.arange(2 * n),
                        np.arange(2 * n) - 2 * n) * grid.spacing
               for n in grid.shape]
    mesh = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    dist_sq = np.sum(mesh * mesh, axis=-1)
    kernel = np.zeros(tuple(2 * n for n in grid.shape), dtype=complex)
    nonzero = dist_sq > 0
    g = green_2d if grid.ndim == 2 else green_3d
    kernel[nonzero] = g(mesh[nonzero], grid.k_b)
    kernel *= grid.pixel_volume
    kernel[(0,) * grid.ndim] = self_interaction(grid)
    samples = kernel[tuple(slice(0, n) for n in grid.shape)].copy()
    return kernel, np.fft.fftn(kernel), samples


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


def n_padded_apply(op, v):
    """``op.apply`` for G or a column block, with each forward pass padding
    its lines to the period by ``np.fft.fft(spec, n=period, axis=ax)``."""
    spec = np.asarray(v)
    for ax, period in enumerate(op._kernel_hat.shape):
        spec = np.fft.fft(spec, n=period, axis=ax)
    spec *= op._kernel_hat
    for ax in reversed(range(spec.ndim)):
        spec = np.fft.ifft(spec, axis=ax)
        spec = spec[(slice(None),) * ax + (slice(0, op.out_shape[ax]),)]
    return spec


def n_padded_adjoint(op, v):
    """``op.apply_adjoint`` as conj o transpose o conj over ``n_padded_apply``;
    the transpose maps the output box back onto the input box."""
    transpose = SimpleNamespace(_kernel_hat=op._transpose_hat, out_shape=op.in_shape)
    return np.conj(n_padded_apply(transpose, np.conj(v)))


def full_grid_cylinders(grid, specs, supersample=4):
    """``phantoms.cylinders`` supersampling every pixel of the grid for every
    shape."""
    step = grid.spacing / supersample
    offs = -0.5 * grid.spacing + step * (np.arange(supersample) + 0.5)
    subs = np.meshgrid(*([offs] * grid.ndim), indexing="ij")
    centers = grid.pixel_centers()
    f = np.zeros(grid.shape)
    for center, radius, c in specs:
        center = np.asarray(center, dtype=float)
        coverage = np.zeros(grid.shape)
        for off in zip(*(s.ravel() for s in subs)):
            dist_sq = np.sum((centers + np.asarray(off) - center) ** 2, axis=-1)
            coverage += dist_sq <= radius * radius
        f += c * coverage / supersample ** grid.ndim
    return f * grid.k_b ** 2


# ---------------------------------------------------------------------------
# data generation

def fine_grid_data(cfg):
    """The noise-free data on every ring slot, one row per transmitter,
    generated on the whole refined grid: G on every pixel of it, the
    BiCGStab solves to GENERATION_RESIDUAL and the Green's products over
    all of its pixels."""
    recon_cfg = recon_config_from_config(cfg)
    gen = generation_from_config(cfg)
    fine = refined_grid(grid_from_config(cfg), gen.grid_refine)
    f = render_phantom(cfg, fine)
    gen_cfg = dataclasses.replace(recon_cfg, forward=ForwardConfig(
        K=gen.k_multiplier * recon_cfg.forward.K,
        delta_tol_rel=0.5 * GENERATION_RESIDUAL ** 2))
    receivers, _ = receivers_from_config(cfg)
    _, U = incident_fields(fine, transmitters_from_config(cfg))
    U = _solve_rows(SystemOperator(f, build_domain_operator(fine)), U, gen_cfg)
    return green_products(fine, receivers.positions, fine.pixel_volume, U * f.ravel())


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
    for s_k, gamma_k, mu_k, _ in reversed(trace.steps):
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
    for k in range(trace.K_effective, 0, -1):
        s_k, gamma_k, mu_k, _ = trace.steps[k - 1]
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


def trailing_grad_op(f):
    """grad_op with component d stored last, in out[..., d]."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape + (f.ndim,))
    for d in range(f.ndim):
        head = tuple(slice(None, -1) if a == d else slice(None) for a in range(f.ndim))
        tail = tuple(slice(1, None) if a == d else slice(None) for a in range(f.ndim))
        out[head + (d,)] = f[tail] - f[head]
    return out


def trailing_grad_adjoint(g):
    """grad_adjoint of a component-last field, shape f.shape + (ndim,)."""
    g = np.asarray(g, dtype=float)
    ndim = g.ndim - 1
    assert g.shape[-1] == ndim
    out = np.zeros(g.shape[:-1])
    for d in range(ndim):
        head = tuple(slice(None, -1) if a == d else slice(None) for a in range(ndim))
        tail = tuple(slice(1, None) if a == d else slice(None) for a in range(ndim))
        comp = g[..., d]
        out[head] -= comp[head]
        out[tail] += comp[head]
    return out


def trailing_proj_dual(g):
    g = np.asarray(g, dtype=float)
    norm = np.sqrt(np.sum(g * g, axis=-1))
    return g / np.maximum(1.0, norm)[..., None]


def trailing_prox_tv(z, tau, box=BoxConstraint(), iters=10, dual_init=None):
    """prox_tv with the dual stored component last, shape z.shape + (ndim,):
    the same fast gradient projection steps, in the same arithmetic order."""
    z = np.asarray(z, dtype=float)
    if tau == 0.0:
        return proj_box(z, box), np.zeros(z.shape + (z.ndim,))
    gamma = 1.0 / (12.0 * tau)
    if dual_init is None:
        g = np.zeros(z.shape + (z.ndim,))
    else:
        g = np.array(dual_init, dtype=float)
        assert g.shape == z.shape + (z.ndim,)
    g_t = g
    q = 1.0
    for _ in range(iters):
        g_prev = g
        f_inner = proj_box(z - tau * trailing_grad_adjoint(g_t), box)
        g = trailing_proj_dual(g_t + gamma * trailing_grad_op(f_inner))
        q_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * q * q))
        g_t = g + ((q - 1.0) / q_new) * (g - g_prev)
        q = q_new
    return proj_box(z - tau * trailing_grad_adjoint(g), box), g


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
