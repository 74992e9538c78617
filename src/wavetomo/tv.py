"""Total-variation values and the box-constrained TV proximal operator.

The prox is evaluated on the dual problem with accelerated projected gradient
ascent (fast gradient projection): the dual variable is a per-pixel vector
field constrained to the l2 unit ball (the penalty is isotropic TV), and the
primal iterate is recovered by the box projection of z - tau D^T g.  The
dual step is 1/(12 tau), the bound valid in 3D (conservative in 2D).

The discrete gradient D takes forward differences with replicate-edge
(Neumann) closure; its adjoint is the matching negative divergence, exact to
machine precision.  Gradient fields and the dual are stored component first,
shape (ndim,) + f.shape, so each dual step reads whole contiguous blocks g[d].
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError


@dataclass(frozen=True)
class BoxConstraint:
    """Per-pixel bounds a <= f <= b (either side may be infinite)."""

    a: float = -np.inf
    b: float = np.inf

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            # bool is a Real, and the config file rejects it
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"box bound {name}: expected a number, "
                                  f"got {json.dumps(value, default=str)}")
        if not self.a <= self.b:
            raise ConfigError(f"box requires a <= b, got [{self.a}, {self.b}]")


def grad_op(f):
    """Forward differences along every axis, shape (ndim,) + f.shape.

    out[d] holds the differences along axis d.  The last sample along each
    axis is replicated (Neumann closure), so its difference is zero.
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros((f.ndim,) + f.shape)
    for d in range(f.ndim):
        head = tuple(slice(None, -1) if a == d else slice(None) for a in range(f.ndim))
        tail = tuple(slice(1, None) if a == d else slice(None) for a in range(f.ndim))
        out[(d,) + head] = f[tail] - f[head]
    return out


def grad_adjoint(g):
    """Exact adjoint of grad_op: <D f, g> = <f, grad_adjoint(g)> for all f and
    all g of grad_op's shape (ndim,) + f.shape."""
    g = np.asarray(g, dtype=float)
    ndim = g.ndim - 1
    if g.shape[0] != ndim:
        raise DimensionError(f"gradient field has {g.shape[0]} components "
                             f"for {ndim} axes")
    out = np.zeros(g.shape[1:])
    for d in range(ndim):
        head = tuple(slice(None, -1) if a == d else slice(None) for a in range(ndim))
        tail = tuple(slice(1, None) if a == d else slice(None) for a in range(ndim))
        comp = g[d]
        out[head] -= comp[head]
        out[tail] += comp[head]
    return out


def tv_value(f):
    """Isotropic TV of f: the sum over pixels of the l2 norm of the gradient."""
    g = grad_op(f)
    return float(np.sum(np.sqrt(np.sum(g * g, axis=0))))


def proj_box(f, box):
    """Componentwise clamp of f to [box.a, box.b]."""
    return np.clip(np.asarray(f, dtype=float), box.a, box.b)


def proj_dual(g):
    """Projection onto the dual unit balls: each pixel's component vector
    g[:, pixel] is divided by max(1, its l2 norm)."""
    g = np.asarray(g, dtype=float)
    norm = np.sqrt(np.sum(g * g, axis=0))
    return g / np.maximum(1.0, norm)


def prox_tv(z, tau, box=BoxConstraint(), iters=10, dual_init=None):
    """Box-constrained TV proximal operator argmin 0.5||f - z||^2 + tau R(f).

    Runs exactly ``iters`` fast-gradient-projection steps on the dual (the
    FISTA loop runs the default 10) and returns ``(f, dual)``; the
    dual has grad_op's shape (ndim,) + z.shape and is zero when ``tau == 0``.
    ``dual_init`` warm-starts it (callers keep it between outer iterations;
    this function is stateless); a cold start uses the zero dual field.
    """
    z = np.asarray(z, dtype=float)
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    g = np.zeros((z.ndim,) + z.shape)
    if tau == 0.0:
        return proj_box(z, box), g

    gamma = 1.0 / (12.0 * tau)
    if dual_init is not None:
        g = np.array(dual_init, dtype=float, order="C")
        if g.shape != (z.ndim,) + z.shape:
            raise DimensionError("dual warm start has the wrong shape")
    g_t = g
    q = 1.0
    for _ in range(iters):
        g_prev = g
        f_inner = proj_box(z - tau * grad_adjoint(g_t), box)
        g = proj_dual(g_t + gamma * grad_op(f_inner))
        q_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * q * q))
        g_t = g + ((q - 1.0) / q_new) * (g - g_prev)
        q = q_new
    return proj_box(z - tau * grad_adjoint(g), box), g
