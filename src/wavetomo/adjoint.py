"""The paper's gradient of the data-fidelity term D(f) = 0.5 ||H(f u) - y||^2.

``gradient_from_trace`` is the reference that the acceptance gate and
``wavetomo gradcheck`` check; the FISTA loop takes the adjoint-state
gradient of ``recon.total_gradient`` instead.  The reference
differentiates the series itself: the forward field is a composition of K
accelerated-gradient iterations, so the gradient is obtained by
backpropagating the sensor residual through the recorded iterates.  Two
multiplier fields are carried backwards per iteration:

  q^k -- the vector multiplying the (never-materialized) Jacobian of u^k,
  r^k -- the accumulated f-dependence already peeled off.

Per iteration the updates use S^k = I - gamma_k A^H A (self-adjoint) and
T^k v = conj(G^H(A s^k - u_in)) * v + conj(s^k) * G^H(A v); the momentum
couples q^{k-1} to both S^k q^k and the previous S^{k+1} q^{k+1}.  The
gradient is Re(r^0).  The f-dependence of the adaptive step sizes gamma_k is
deliberately ignored (they become stationary; a fixed step makes the gradient
exact).

Both operators act on the same q^k and share its products, so one backward
iteration is

  Aq   = A q^k,  GHAq = G^H Aq,
  S^k q^k = q^k - gamma_k (Aq - f * GHAq),
  r      += gamma_k (conj(GHr_k) * q^k + conj(s^k) * GHAq),

where GHr_k = G^H(A s^k - u_in) was formed by the forward step at s^k and is
read from the trace.  That is 2 G-applies per iteration (one in A, on the
column block of f's support, and one in G^H, on the whole grid), so a transmitter gradient costs 2K + 1 forward + 2K backward applies
with the adaptive step (2K forward with a fixed one).
The unfused S^k and T^k operators (6 applies between them) are test
oracles in ``tests/reference.py``; the fused update performs their
operations in the same order and gives the same result bit for bit when the
trace's residuals were formed from a direct A s^k (a fixed step, or K = 1).
An adaptive solve extrapolates A s^k from carried fields, so there the two
agree to round-off.

Memory: a solve given H keeps two fields per iteration, s^k and GHr_k,
O(2 K N) complex values; an H-free solve keeps only its final field u_hat.
"""

import numpy as np

from .errors import DimensionError
from .forward import forward_solve
from .greens import SystemOperator


def data_fidelity(z, y):
    """D = 0.5 ||y - z||_2^2 between predicted and measured sensor fields."""
    z = np.asarray(z)
    y = np.asarray(y)
    if z.shape != y.shape:
        raise DimensionError(f"sensor counts differ: {z.shape} vs {y.shape}")
    resid = y - z
    return 0.5 * float(np.vdot(resid, resid).real)


def gradient_from_trace(f, y, G, H, trace):
    """Backward recursion over an existing forward trace; returns Re(r^0).

    The trace must come from ``forward_solve`` with the sensor operator H
    given; it holds the residuals G^H(A s^k - u_in), so u_in is not needed.
    """
    grid = G.grid
    f = grid.check_field(f, "potential")
    y = np.asarray(y)
    if trace.z is None:
        raise DimensionError("trace was solved without a sensor operator H; "
                             "pass H to forward_solve to differentiate it")
    if trace.z.shape != y.shape:
        raise DimensionError(f"sensor counts differ: {trace.z.shape} vs {y.shape}")
    resid = trace.z - y
    back = H.apply_adjoint(resid)
    q = f * back                      # diag(f)^H H^H (z - y), f real
    r = np.conj(trace.u_hat) * back   # diag(u_hat)^H H^H (z - y)
    A = SystemOperator(f, G)

    Sq_next = np.zeros(grid.shape, dtype=complex)  # S^{k+1} q^{k+1}, zero at k = K
    mu_next = 0.0
    for k in range(trace.K_effective, 0, -1):
        s_k = trace.s_history[k - 1]
        GHr_k = trace.GHr_history[k - 1]
        gamma_k = trace.gamma_history[k - 1]
        mu_k = trace.mu_history[k - 1]
        Aq = A.apply(q)
        GHAq = G.apply_adjoint(Aq)
        Sq = q - gamma_k * (Aq - f * GHAq)                           # S^k q
        r += gamma_k * (np.conj(GHr_k) * q + np.conj(s_k) * GHAq)  # T^k q
        # q^0 multiplies the f-independent u^0, so its exact closure at k = 1
        # is irrelevant to the returned gradient
        q = (1.0 - mu_k) * Sq + mu_next * Sq_next
        Sq_next = Sq
        mu_next = mu_k
    return np.real(r)


def gradient_data_fidelity(f, y, u_in, G, H, cfg):
    """Gradient of 0.5||y - z(f)||^2; runs the forward solve internally."""
    trace = forward_solve(f, u_in, G, H, cfg)
    return gradient_from_trace(f, y, G, H, trace)
