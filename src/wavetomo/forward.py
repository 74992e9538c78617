"""Multiple-scattering forward model.

The total field for a potential f is computed by minimizing
S(u) = 0.5 ||A u - u_in||^2 with A = I - G diag(f), using accelerated
gradient descent.  The iterates form a series expansion of the field; a
solve given the sensor operator H records them, because the reverse-mode
gradient of the data fit differentiates through every iteration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepDegeneracyError
from .greens import apply_A, apply_AH


@dataclass
class ForwardConfig:
    """Knobs of the forward field solve.

    K : maximum number of iterations (>= 1).
    delta_tol : absolute early-stop threshold; compared against ||grad||_2
        when ``stop_on == "gradient"`` (the default) or against S(s^k) when
        ``stop_on == "objective"``.  0 disables early stopping.
    delta_tol_rel : convenience alternative scaled per solve by ||u_in||
        (gradient mode) or ||u_in||^2 (objective mode).
    step_mode : "adaptive" (exact line-search step ||g||^2/||Ag||^2) or
        "fixed" (constant ``nu``; required for exact adjoint gradients).
    momentum : setting False zeroes the extrapolation (plain gradient descent).
    """

    K: int
    delta_tol: float = 0.0
    delta_tol_rel: float | None = None
    step_mode: str = "adaptive"
    nu: float | None = None
    stop_on: str = "gradient"
    momentum: bool = True

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.delta_tol < 0:
            raise ConfigError("delta_tol must be >= 0")
        if self.delta_tol_rel is not None:
            if self.delta_tol_rel < 0:
                raise ConfigError("delta_tol_rel must be >= 0")
            if self.delta_tol > 0:
                raise ConfigError("set at most one of delta_tol / delta_tol_rel")
        if self.step_mode not in ("adaptive", "fixed"):
            raise ConfigError("step_mode must be 'adaptive' or 'fixed'")
        if self.stop_on not in ("gradient", "objective"):
            raise ConfigError("stop_on must be 'gradient' or 'objective'")
        if self.step_mode == "fixed":
            if self.nu is None or not self.nu > 0:
                raise ConfigError("fixed step mode requires nu > 0")


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


def scattering_objective(f, u, u_in, G):
    """S(u) = 0.5 ||A u - u_in||_2^2."""
    resid = apply_A(f, u, G) - G.grid.check_field(u_in, "u_in")
    return 0.5 * float(np.vdot(resid, resid).real)


def objective_gradient(f, u, u_in, G):
    """grad S(u) = A^H (A u - u_in)."""
    resid = apply_A(f, u, G) - G.grid.check_field(u_in, "u_in")
    return apply_AH(f, resid, G)


def predict_scattered(u_hat, f, H):
    """Scattered field at the sensors, H (u_hat * f).

    No incident term is added: the measured data is the scattered field and
    an f-independent offset would not affect gradients.
    """
    grid = H.grid
    return H.apply(grid.check_field(u_hat, "u_hat") * grid.check_field(f, "potential"))


def forward_solve(f, u_in, G, H=None, cfg=None, u_init=None):
    """Accelerated-gradient field solve; returns a ForwardTrace.

    u^{-1} = u^0 = u_init (defaults to u_in, which the reverse-mode gradient
    assumes), t_0 = 0.  Each iteration extrapolates s^k from the two previous
    iterates, takes a gradient step, and may stop early on ``cfg.delta_tol``.
    When H is given, z = H(u_hat * f) and the trace keeps each iteration's
    s^k, gamma_k, mu_k and G^H residual for the backward pass, the stopping
    iteration included, so the histories always have K_effective entries.
    """
    if cfg is None:
        raise ConfigError("forward_solve requires a ForwardConfig")
    grid = G.grid
    f = grid.check_field(f, "potential")
    u_in = grid.check_field(u_in, "u_in").astype(complex)
    u_prev2 = u_in.copy() if u_init is None else grid.check_field(u_init).astype(complex)
    u_prev1 = u_prev2.copy()

    tol = cfg.delta_tol
    if cfg.delta_tol_rel is not None:
        uin_sq = float(np.vdot(u_in, u_in).real)
        tol = cfg.delta_tol_rel * (uin_sq if cfg.stop_on == "objective"
                                   else np.sqrt(uin_sq))

    trace = ForwardTrace() if H is None else ForwardTrace([], [], [], [])
    t_prev = 0.0
    for k in range(1, cfg.K + 1):
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        mu_k = (1.0 - t_prev) / t_k if cfg.momentum else 0.0
        s_k = (1.0 - mu_k) * u_prev1 + mu_k * u_prev2
        As = apply_A(f, s_k, G)
        resid = As - u_in
        GHr = G.apply_adjoint(resid)
        g = resid - f * GHr           # A^H resid, as apply_AH forms it
        g_norm_sq = float(np.vdot(g, g).real)

        stop = False
        if tol > 0:
            if cfg.stop_on == "gradient":
                stop = np.sqrt(g_norm_sq) < tol
            else:
                stop = 0.5 * float(np.vdot(resid, resid).real) < tol

        if cfg.step_mode == "fixed":
            gamma_k = cfg.nu
        elif g_norm_sq == 0.0:
            # exact stationary point: any positive step multiplies a zero
            # gradient, so keep the trace invariant gamma > 0 with a placeholder
            gamma_k = 1.0
        else:
            Ag = apply_A(f, g, G)
            Ag_norm_sq = float(np.vdot(Ag, Ag).real)
            if Ag_norm_sq == 0.0:
                raise StepDegeneracyError(
                    "||A g|| vanished while ||g|| > 0; adaptive step undefined")
            gamma_k = g_norm_sq / Ag_norm_sq

        u_k = s_k - gamma_k * g
        if H is not None:
            trace.s_history.append(s_k)
            trace.gamma_history.append(gamma_k)
            trace.mu_history.append(mu_k)
            trace.GHr_history.append(GHr)
        trace.K_effective = k
        u_prev2, u_prev1 = u_prev1, u_k
        t_prev = t_k
        if stop:
            break

    trace.u_hat = u_prev1
    if H is not None:
        trace.z = predict_scattered(trace.u_hat, f, H)
    trace.validate()
    return trace


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
