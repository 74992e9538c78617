"""Multiple-scattering forward model and the paper's gradient through it.

The total field for a potential f is computed by minimizing
S(u) = 0.5 ||A u - u_in||^2 with A = I - G diag(f), using accelerated
gradient descent.  The iterates form a series expansion of the field; a
solve given the sensor operator H records them in a ForwardTrace, and
``gradient_from_trace`` differentiates the data fit through every iteration.
The series is the paper's forward model, and stays where that model is
checked: the reference gradient (the acceptance gate and ``wavetomo
gradcheck``), the contrast sweep and the closed-form comparisons.
``bicgstab`` solves every other system on A: the data generation's fields,
and the adjoint-state gradient and predictions of the FISTA loop.
"""

import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (ConfigError, ConvergenceWarning, DimensionError,
                     NumericalError, StepDegeneracyError)
from .greens import SystemOperator
from .grid import check_integer

# the adaptive solve's carried residual bottoms out near 1e-13 ||u_in||: an
# objective tolerance below 0.5 (1e-13)^2 would be reported as met although
# the true objective never reached it
MIN_OBJECTIVE_TOL_REL = 1e-26
# BiCGStab's stop floor on ||r|| / ||b||, double precision's unit round-off
BICGSTAB_FLOOR = np.finfo(float).eps


@dataclass
class ForwardConfig:
    """Knobs of the forward field solve.

    K : maximum number of iterations (>= 1), of the series and of the
        FISTA loop's BiCGStab solves alike.
    delta_tol_rel : early-stop threshold on the objective, scaled per solve
        by ||u_in||^2 and compared against S(s^k).  0 disables early
        stopping; it must otherwise be at least MIN_OBJECTIVE_TOL_REL.
        BiCGStab stops at the residual it implies, ``residual_tol``.
    nu : None for the exact line-search step ||g||^2/||Ag||^2, or a constant
        step (required for exact reverse-mode gradients through the series;
        see estimate_fixed_step).  BiCGStab does not read it, and no config
        key sets it.
    """

    K: int
    delta_tol_rel: float = 0.0
    nu: float | None = None
    # benchmarks/workloads.py passes "objective"; delete it once that call is gone
    stop_on: InitVar[str] = "objective"

    def __post_init__(self, stop_on):
        if stop_on != "objective":
            raise ConfigError("stop_on must be 'objective'")
        if check_integer("K", self.K) < 1:
            raise ConfigError("K must be >= 1")
        if isinstance(self.delta_tol_rel, bool) or not 0 <= self.delta_tol_rel < np.inf:
            raise ConfigError("delta_tol_rel must be a finite number >= 0")
        if 0 < self.delta_tol_rel < MIN_OBJECTIVE_TOL_REL:
            raise ConfigError(f"delta_tol_rel must be 0 or >= {MIN_OBJECTIVE_TOL_REL:g} "
                              "on the objective, above the solve's round-off floor")
        if self.nu is not None and (isinstance(self.nu, bool) or not np.inf > self.nu > 0):
            raise ConfigError("nu must be a finite number > 0")

    @property
    def residual_tol(self):
        """||A u - u_in|| / ||u_in|| where 0.5 ||A u - u_in||^2 = delta_tol_rel ||u_in||^2."""
        return np.sqrt(2.0 * self.delta_tol_rel)


@dataclass
class ForwardTrace:
    """Result of a forward solve, and what its reverse-mode gradient needs.

    ``steps[k - 1]`` is iteration k's record (s^k, gamma_k, mu_k, GHr_k):
    the extrapolated point, the step size, the momentum weight and
    GHr_k = G^H (A s^k - u_in), the Green's-adjoint residual the step at s^k
    already formed, which the backward pass reuses.  ``steps`` and ``z`` are
    recorded only when the solve is given a sensor operator H, since only
    such a trace can be differentiated; otherwise they are None and the trace
    holds ``u_hat`` and ``K_effective`` alone.  A trace given H keeps two
    fields per iteration, O(2 K N) complex values; an H-free one keeps only
    its final field.
    """

    steps: list | None = None
    u_hat: np.ndarray | None = None
    z: np.ndarray | None = None
    K_effective: int = 0

    def validate(self):
        """ConfigError unless there is one step record per iteration, each
        with a positive step size; an H-free trace has none to check."""
        if self.steps is None and self.z is None:
            return
        if self.steps is None or len(self.steps) != self.K_effective:
            raise ConfigError("trace step records disagree with K_effective")
        if any(not gamma > 0 for _, gamma, _, _ in self.steps):
            raise ConfigError("trace contains a nonpositive step size")


def forward_solve(f, u_in, G, H, cfg):
    """Accelerated-gradient field solve; returns a ForwardTrace.

    The solve starts at u^{-1} = u^0 = u_in, the start the reverse-mode
    gradient assumes, with t_0 = 0.  Each iteration extrapolates s^k from
    the two previous iterates, takes a gradient step, and may stop early on
    ``cfg.delta_tol_rel``; a solve with a tolerance that runs all K
    iterations without meeting it warns with ConvergenceWarning.
    When H is given, z = H(u_hat * f) and the trace keeps one step record
    per iteration for the backward pass, the stopping iteration included.

    The adaptive step (``cfg.nu`` None) forms A g, so it carries A u^k =
    A s^k - gamma_k A g alongside u^k and extrapolates A s^k from A u^{k-1}
    and A u^{k-2} as s^k is extrapolated: A is applied directly only to
    u^0, and a solve costs 2K + 1 G-applies.  The carried residual drifts
    from A s^k - u_in by round-off; the true final residual of a long solve
    bottoms out near 1e-13 ||u_in||.  A fixed step never forms A g, so it
    applies A to every s^k and costs 2K.  A applies G's column block on the
    bounding box of f's support (``greens.SystemOperator``), and so does the
    H-free step's f G^H resid; the H-given step applies G^H on the whole
    grid, since its backward pass reads the residual there.
    """
    grid = G.grid
    f = grid.check_field(f, "potential")
    u_in = grid.check_field(u_in, "u_in").astype(complex)
    A = SystemOperator(f, G)
    u_prev2 = u_in.copy()
    u_prev1 = u_in.copy()

    tol = cfg.delta_tol_rel * float(np.vdot(u_in, u_in).real)

    trace = ForwardTrace(steps=None if H is None else [])
    t_prev = 0.0
    carry = cfg.nu is None
    # A u^{k-1} and A u^{k-2}, carried by the adaptive step
    Au_prev1 = Au_prev2 = A.apply(u_prev1) if carry else None
    for k in range(1, cfg.K + 1):
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        mu_k = (1.0 - t_prev) / t_k
        s_k = (1.0 - mu_k) * u_prev1 + mu_k * u_prev2
        if carry:
            As = (1.0 - mu_k) * Au_prev1 + mu_k * Au_prev2
        else:
            As = A.apply(s_k)
        resid = As - u_in
        if H is None:
            g = A.apply_adjoint(resid)
        else:
            # the backward pass reads G^H resid on every pixel
            GHr = G.apply_adjoint(resid)
            g = resid - f * GHr       # A^H resid
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
            Ag = A.apply(g)
            Ag_norm_sq = float(np.vdot(Ag, Ag).real)
            if Ag_norm_sq == 0.0:
                raise StepDegeneracyError(
                    "||A g|| vanished while ||g|| > 0; adaptive step undefined")
            gamma_k = g_norm_sq / Ag_norm_sq
            Au_k = As - gamma_k * Ag

        u_k = s_k - gamma_k * g
        if H is not None:
            trace.steps.append((s_k, gamma_k, mu_k, GHr))
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
        trace.z = H.apply(trace.u_hat * f)
    return trace


def data_fidelity(z, y):
    """D = 0.5 ||y - z||_2^2 between predicted and measured sensor fields."""
    z = np.asarray(z)
    y = np.asarray(y)
    if z.shape != y.shape:
        raise DimensionError(f"sensor counts differ: {z.shape} vs {y.shape}")
    resid = y - z
    return 0.5 * float(np.vdot(resid, resid).real)


def gradient_from_trace(f, y, G, H, trace):
    """The paper's gradient of D(f) = 0.5 ||H(f u) - y||^2 through the series.

    Backpropagates the sensor residual through the K_effective recorded
    iterations of a ``forward_solve`` given H, and returns Re(r^0); the trace
    holds the residuals G^H(A s^k - u_in), so u_in is not needed.  Raises
    ConfigError for a trace that fails ``ForwardTrace.validate``.  Two
    multiplier fields are carried backwards: q^k multiplies the
    (never-materialized) Jacobian of u^k, and r^k accumulates the
    f-dependence already peeled off.  Per iteration the updates use
    S^k = I - gamma_k A^H A (self-adjoint) and
    T^k v = conj(G^H(A s^k - u_in)) * v + conj(s^k) * G^H(A v); the momentum
    couples q^{k-1} to both S^k q^k and the previous S^{k+1} q^{k+1}.  The
    f-dependence of adaptive step sizes is ignored (they become stationary;
    a fixed step makes the gradient exact).  Both operators share their
    products, so one backward iteration is

      Aq   = A q^k,  GHAq = G^H Aq,
      S^k q^k = q^k - gamma_k (Aq - f * GHAq),
      r      += gamma_k (conj(GHr_k) * q^k + conj(s^k) * GHAq),

    2 G-applies (one in A, on the column block of f's support, and one in
    G^H, on the whole grid): a transmitter gradient costs 2K + 1 forward and
    2K backward applies with the adaptive step (2K forward with a fixed one).
    The unfused S^k and T^k (6 applies between them) are test oracles in
    ``tests/reference.py``; the fused update matches them bit for bit when
    the residuals were formed from a direct A s^k (a fixed step, or K = 1),
    and to round-off when an adaptive solve extrapolated A s^k.
    """
    trace.validate()
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
    for s_k, gamma_k, mu_k, GHr_k in reversed(trace.steps):
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


def bicgstab(op, b, x0, tol, maxiter):
    """Unpreconditioned BiCGStab (van der Vorst, 1992) for op(x) = b.

    Stops once ||b - op(x)|| <= max(tol, BICGSTAB_FLOOR) ||b|| or after
    ``maxiter`` iterations of two applies each; a nonzero x0 costs one more
    apply for the initial residual.  ``tol`` 0 stops only at that round-off
    floor, and reaches ``maxiter`` silently, as ``forward_solve`` does with
    ``delta_tol_rel`` 0.  A solve with ``tol`` > 0 that reaches ``maxiter``
    warns with ConvergenceWarning.  A breakdown, <r0, r>, <r0, A p> or the
    stabilizing step omega vanishing while r is nonzero, or omega undefined
    because A r vanished, raises NumericalError, and so does a step alpha
    or omega that is not finite.  Returns (x, the number of op applies).
    """
    x = x0.copy()
    applies = int(np.any(x0))
    r = b - op(x0) if applies else b.copy()
    bound = max(tol, BICGSTAB_FLOOR) * np.linalg.norm(b)
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
        if not np.isfinite(alpha):
            raise NumericalError("BiCGStab step alpha is not finite")
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
        if not np.isfinite(omega):
            raise NumericalError("BiCGStab step omega is not finite")
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
    A = SystemOperator(f, G)
    lam = 0.0
    for _ in range(iters):
        w = A.apply_adjoint(A.apply(b))
        lam_new = float(np.linalg.norm(w))
        b = w / lam_new
        if lam > 0 and abs(lam_new - lam) < tol * lam:
            lam = lam_new
            break
        lam = lam_new
    return 1.0 / lam
