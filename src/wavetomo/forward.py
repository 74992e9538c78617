"""Multiple-scattering forward model.

The total field for a potential f is computed by minimizing
S(u) = 0.5 ||A u - u_in||^2 with A = I - G diag(f), using accelerated
gradient descent.  The iterates form a series expansion of the field; a
solve given the sensor operator H records them, because the reverse-mode
gradient of the data fit differentiates through every iteration.  The
series is the paper's forward model, and stays where that model is checked:
the reference gradient, the contrast sweep and the closed-form comparisons.
``bicgstab`` solves every other system on A: the data generation's fields,
and the gradient and predictions of the FISTA loop.
"""

import numbers
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (ConfigError, ConvergenceWarning, NumericalError,
                     StepDegeneracyError)
from .greens import apply_A, apply_AH

# the adaptive solve's carried residual bottoms out near 1e-13 ||u_in||: an
# objective tolerance below 0.5 (1e-13)^2 would be reported as met although
# the true objective never reached it
MIN_OBJECTIVE_TOL_REL = 1e-26


@dataclass
class ForwardConfig:
    """Knobs of the forward field solve.

    K : maximum number of iterations (>= 1), of the series and of the
        FISTA loop's BiCGStab solves alike.
    delta_tol_rel : early-stop threshold on the objective, scaled per solve
        by ||u_in||^2 and compared against S(s^k).  0 disables early
        stopping; it must otherwise be at least MIN_OBJECTIVE_TOL_REL.
        BiCGStab stops at the residual it implies, sqrt(2 delta_tol_rel).
    nu : None for the exact line-search step ||g||^2/||Ag||^2, or a constant
        step (required for exact reverse-mode gradients through the series;
        see estimate_fixed_step).  BiCGStab does not read it, and no config
        key sets it.
    """

    K: int
    delta_tol_rel: float = 0.0
    nu: float | None = None
    # benchmarks/workloads.py passes "objective"; ROADMAP item 1 deletes it
    stop_on: InitVar[str] = "objective"

    def __post_init__(self, stop_on):
        if stop_on != "objective":
            raise ConfigError("stop_on must be 'objective'")
        # bool is an Integral, and the config file rejects it
        if isinstance(self.K, bool) or not isinstance(self.K, numbers.Integral):
            raise ConfigError("K must be an integer")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if isinstance(self.delta_tol_rel, bool) or not 0 <= self.delta_tol_rel < np.inf:
            raise ConfigError("delta_tol_rel must be a finite number >= 0")
        if 0 < self.delta_tol_rel < MIN_OBJECTIVE_TOL_REL:
            raise ConfigError(f"delta_tol_rel must be 0 or >= {MIN_OBJECTIVE_TOL_REL:g} "
                              "on the objective, above the solve's round-off floor")
        if self.nu is not None and (isinstance(self.nu, bool) or not np.inf > self.nu > 0):
            raise ConfigError("nu must be a finite number > 0")


@dataclass
class ForwardTrace:
    """Result of a forward solve, and what its reverse-mode gradient needs.

    ``GHr_history[k - 1]`` holds G^H (A s^k - u_in), the Green's-adjoint
    residual the step at s^k already formed; the backward pass reuses it.
    The four histories and ``z`` are recorded only when the solve is given a
    sensor operator H, since only such a trace can be differentiated;
    otherwise they are None and the trace holds ``u_hat`` and
    ``K_effective`` alone.
    """

    s_history: list | None = None
    gamma_history: list | None = None
    mu_history: list | None = None
    GHr_history: list | None = None
    u_hat: np.ndarray | None = None
    z: np.ndarray | None = None
    K_effective: int = 0

    def validate(self):
        histories = (self.s_history, self.gamma_history, self.mu_history,
                     self.GHr_history)
        if all(h is None for h in histories):
            return
        if any(h is None or len(h) != self.K_effective for h in histories):
            raise ConfigError("trace histories disagree with K_effective")
        if any(not g > 0 for g in self.gamma_history):
            raise ConfigError("trace contains a nonpositive step size")


def predict_scattered(u_hat, f, H):
    """Scattered field at the sensors, H (u_hat * f).

    No incident term is added: the measured data is the scattered field and
    an f-independent offset would not affect gradients.
    """
    grid = H.grid
    return H.apply(grid.check_field(u_hat, "u_hat") * grid.check_field(f, "potential"))


def forward_solve(f, u_in, G, H, cfg):
    """Accelerated-gradient field solve; returns a ForwardTrace.

    The solve starts at u^{-1} = u^0 = u_in, the start the reverse-mode
    gradient assumes, with t_0 = 0.  Each iteration extrapolates s^k from
    the two previous iterates, takes a gradient step, and may stop early on
    ``cfg.delta_tol_rel``; a solve with a tolerance that runs all K
    iterations without meeting it warns with ConvergenceWarning.
    When H is given, z = H(u_hat * f) and the trace keeps each iteration's
    s^k, gamma_k, mu_k and G^H residual for the backward pass, the stopping
    iteration included, so the histories always have K_effective entries.

    The adaptive step (``cfg.nu`` None) forms A g, so it carries A u^k =
    A s^k - gamma_k A g alongside u^k and extrapolates A s^k from A u^{k-1}
    and A u^{k-2} as s^k is extrapolated: A is applied directly only to
    u^0, and a solve costs 2K + 1 G-applies.  The carried residual drifts
    from A s^k - u_in by round-off; the true final residual of a long solve
    bottoms out near 1e-13 ||u_in||.  A fixed step never forms A g, so it
    applies A to every s^k and costs 2K.
    """
    grid = G.grid
    f = grid.check_field(f, "potential")
    u_in = grid.check_field(u_in, "u_in").astype(complex)
    u_prev2 = u_in.copy()
    u_prev1 = u_in.copy()

    tol = cfg.delta_tol_rel * float(np.vdot(u_in, u_in).real)

    trace = ForwardTrace() if H is None else ForwardTrace([], [], [], [])
    t_prev = 0.0
    carry = cfg.nu is None
    # A u^{k-1} and A u^{k-2}, carried by the adaptive step
    Au_prev1 = Au_prev2 = apply_A(f, u_prev1, G) if carry else None
    for k in range(1, cfg.K + 1):
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        mu_k = (1.0 - t_prev) / t_k
        s_k = (1.0 - mu_k) * u_prev1 + mu_k * u_prev2
        if carry:
            As = (1.0 - mu_k) * Au_prev1 + mu_k * Au_prev2
        else:
            As = apply_A(f, s_k, G)
        resid = As - u_in
        GHr = G.apply_adjoint(resid)
        g = resid - f * GHr           # A^H resid, as apply_AH forms it
        g_norm_sq = float(np.vdot(g, g).real)

        stop = tol > 0 and 0.5 * float(np.vdot(resid, resid).real) < tol

        if cfg.nu is not None:
            gamma_k = cfg.nu
        elif g_norm_sq == 0.0:
            # exact stationary point: any positive step multiplies a zero
            # gradient, so keep the trace invariant gamma > 0 with a placeholder
            gamma_k = 1.0
            Au_k = As
        else:
            Ag = apply_A(f, g, G)
            Ag_norm_sq = float(np.vdot(Ag, Ag).real)
            if Ag_norm_sq == 0.0:
                raise StepDegeneracyError(
                    "||A g|| vanished while ||g|| > 0; adaptive step undefined")
            gamma_k = g_norm_sq / Ag_norm_sq
            Au_k = As - gamma_k * Ag

        u_k = s_k - gamma_k * g
        if H is not None:
            trace.s_history.append(s_k)
            trace.gamma_history.append(gamma_k)
            trace.mu_history.append(mu_k)
            trace.GHr_history.append(GHr)
        trace.K_effective = k
        u_prev2, u_prev1 = u_prev1, u_k
        if carry:
            Au_prev2, Au_prev1 = Au_prev1, Au_k
        t_prev = t_k
        if stop:
            break

    if tol > 0 and not stop:
        warnings.warn(f"forward solve reached K = {cfg.K} without meeting "
                      f"delta_tol_rel = {cfg.delta_tol_rel:g} on the objective",
                      ConvergenceWarning, stacklevel=2)
    trace.u_hat = u_prev1
    if H is not None:
        trace.z = predict_scattered(trace.u_hat, f, H)
    trace.validate()
    return trace


def bicgstab(op, b, x0, tol, maxiter):
    """Unpreconditioned BiCGStab (van der Vorst, 1992) for op(x) = b.

    Stops once ||b - op(x)|| <= tol ||b|| or after ``maxiter`` iterations of
    two applies each; a nonzero x0 costs one more apply for the initial
    residual.  ``tol`` 0 runs all ``maxiter`` iterations silently, as
    ``forward_solve`` does with ``delta_tol_rel`` 0; an exactly zero
    residual returns at once whatever the tolerance.  A solve with ``tol``
    > 0 that reaches ``maxiter`` warns with ConvergenceWarning.  A
    breakdown, <r0, r>, <r0, A p> or the stabilizing step omega vanishing
    while r is nonzero, or omega undefined because A r vanished, raises
    NumericalError.  Returns (x, the number of op applies).
    """
    x = x0.copy()
    applies = int(np.any(x0))
    r = b - op(x0) if applies else b.copy()
    bound = tol * np.linalg.norm(b)
    if np.linalg.norm(r) <= bound:
        return x, applies
    r0 = r.copy()
    rho_prev = alpha = omega = 1.0
    p = v = np.zeros_like(b)
    for _ in range(maxiter):
        rho = np.vdot(r0, r)
        if rho == 0:
            raise NumericalError("BiCGStab breakdown: <r0, r> vanished")
        p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
        v = op(p)
        applies += 1
        r0v = np.vdot(r0, v)
        if r0v == 0:
            raise NumericalError("BiCGStab breakdown: <r0, A p> vanished")
        alpha = rho / r0v
        x += alpha * p
        r = r - alpha * v
        if np.linalg.norm(r) <= bound:
            return x, applies
        t = op(r)
        applies += 1
        tt = np.vdot(t, t)
        if tt == 0:
            raise NumericalError("BiCGStab breakdown: the stabilizing step is undefined")
        omega = np.vdot(t, r) / tt
        if omega == 0:
            raise NumericalError("BiCGStab breakdown: the stabilizing step vanished")
        x += omega * r
        r = r - omega * t
        if np.linalg.norm(r) <= bound:
            return x, applies
        rho_prev = rho
    if tol > 0:
        warnings.warn(f"BiCGStab reached {maxiter} iterations without meeting "
                      f"the relative residual {tol:g}", ConvergenceWarning, stacklevel=2)
    return x, applies


def estimate_fixed_step(f, G, iters=20, tol=1e-3, seed=0):
    """Power-iteration estimate of 1/||A||_2^2, a safe fixed step size."""
    rng = np.random.default_rng(seed)
    grid = G.grid
    b = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    b /= np.linalg.norm(b)
    lam = 0.0
    for _ in range(iters):
        w = apply_AH(f, apply_A(f, b, G), G)
        lam_new = float(np.linalg.norm(w))
        b = w / lam_new
        if lam > 0 and abs(lam_new - lam) < tol * lam:
            lam = lam_new
            break
        lam = lam_new
    return 1.0 / lam
