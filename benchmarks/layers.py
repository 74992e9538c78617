"""Where the traced run hooks into wavetomo, and the per-layer metrics it
derives from the recorded spans.

Each site is wrapped where the caller looks it up: a class attribute for
operator methods, the importing module's global for functions (``recon``
calls its own ``forward_solve`` name, ``greens`` its own ``hankel1_0``), and
the defining module for what this benchmark calls itself.
"""

import importlib

import numpy as np

from tracer import self_times


def _size(args, kwargs, result):
    return int(np.size(args[0]))


def _sensor_rows(args, kwargs, result):
    return len(args[0].sensors)


def _mask_rows(args, kwargs, result):
    return int(args[0].indices.size)


def _forward_trace(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return [result.K_effective, cfg.K, int(result.u_hat.size)]


# (module, class or None, attribute, span name, annotate)
SITES = [
    ("wavetomo.greens", "DomainGreensOperator", "apply", "greens.G.apply", None),
    ("wavetomo.greens", "DomainGreensOperator", "apply_adjoint", "greens.G.apply_adjoint", None),
    ("wavetomo.greens", "SensorGreensOperator", "apply", "greens.H.apply", _sensor_rows),
    ("wavetomo.greens", "SensorGreensOperator", "apply_adjoint", "greens.H.apply_adjoint",
     _sensor_rows),
    ("wavetomo.greens", "MaskedSensorOperator", "apply", "greens.H.masked_apply", _mask_rows),
    ("wavetomo.greens", "MaskedSensorOperator", "apply_adjoint",
     "greens.H.masked_apply_adjoint", _mask_rows),
    ("wavetomo.greens", None, "hankel1_0", "special.hankel", _size),
    ("wavetomo.greens", None, "hankel1_1", "special.hankel", _size),
    ("wavetomo.greens", None, "build_domain_operator", "greens.build", None),
    ("wavetomo.recon", None, "build_domain_operator", "greens.build", None),
    ("wavetomo.recon", None, "build_sensor_operator", "greens.build", None),
    ("wavetomo.simulate", None, "build_domain_operator", "greens.build", None),
    ("wavetomo.simulate", None, "build_sensor_operator", "greens.build", None),
    ("wavetomo.forward", None, "forward_solve", "forward.solve", _forward_trace),
    ("wavetomo.recon", None, "forward_solve", "forward.solve", _forward_trace),
    ("wavetomo.simulate", None, "forward_solve", "forward.solve", _forward_trace),
    ("wavetomo.recon", None, "gradient_from_trace", "adjoint.gradient", None),
    ("wavetomo.recon", None, "prox_tv", "tv.prox", None),
    ("wavetomo.tv", None, "grad_op", "tv.grad_op", None),
    ("wavetomo.recon", None, "total_gradient", "recon.total_gradient", None),
    ("wavetomo.recon", None, "predict_all", "recon.predict_all", None),
    ("wavetomo.recon", None, "born_gradient", "recon.born_gradient", None),
    ("wavetomo.recon", None, "born_predict", "recon.born_predict", None),
    ("wavetomo.recon", None, "ScatteringProblem", "recon.problem_build", None),
    ("wavetomo.recon", None, "_backtrack_step", "recon.backtrack", None),
    ("wavetomo.recon", None, "fista_reconstruct", "recon.fista", None),
    ("wavetomo.simulate", None, "simulate_measurements", "simulate.measurements", None),
    ("wavetomo.phantoms", None, "cylinders", "phantoms.render", None),
    ("wavetomo.phantoms", None, "shepp_logan", "phantoms.render", None),
    ("wavetomo.fileio", None, "save_measurements", "fileio.save", None),
    ("wavetomo.fileio", None, "load_measurements", "fileio.load", None),
    ("wavetomo.analytic", None, "analytic_field_3d", "analytic.field", None),
]


def site_owner(module, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer):
    for module, cls, attr, name, annotate in SITES:
        tracer.wrap(site_owner(module, cls), attr, name, annotate)


# name, unit; the order is the order of BENCHMARK.json's per_layer list
METRICS = [
    ("greens.G.applies", "count"),
    ("greens.G.apply_ms", "ms"),
    ("greens.G.gen_apply_ms", "ms"),
    ("greens.G.busy_s", "s"),
    ("greens.G.fft_points_per_apply", "points-computed"),
    ("greens.G.mb_per_apply", "MB-computed"),
    ("greens.H.calls", "count"),
    ("greens.H.apply_ms", "ms"),
    ("greens.H.adjoint_ms", "ms"),
    ("greens.H.busy_s", "s"),
    ("greens.H.rows_useful_ratio", "ratio"),
    ("greens.build_s", "s"),
    ("special.hankel_points", "count"),
    ("special.hankel_s", "s"),
    ("forward.solves", "count"),
    ("forward.K_eff_mean", "count"),
    ("forward.K_eff_max", "count"),
    ("forward.hit_K", "count"),
    ("forward.self_s", "s"),
    ("forward.trace_mb", "MB-computed"),
    ("adjoint.gradients", "count"),
    ("adjoint.G_applies_per_gradient", "count"),
    ("adjoint.G_applies_per_iter", "ratio"),
    ("adjoint.self_s", "s"),
    ("tv.prox_calls", "count"),
    ("tv.prox_ms_p50", "ms"),
    ("tv.inner_iters_mean", "count"),
    ("tv.busy_s", "s"),
    ("recon.iterations", "count"),
    ("recon.problem_build_s", "s"),
    ("recon.backtrack_s", "s"),
    ("recon.backtrack_evals", "count"),
    ("recon.gradient_s", "s"),
    ("recon.monitor_s", "s"),
    ("recon.monitor_G_applies", "count"),
    ("recon.iter_forward_s", "s"),
    ("recon.iter_backward_s", "s"),
    ("recon.iter_tv_s", "s"),
    ("recon.iter_monitor_s", "s"),
    ("simulate.measurements_s", "s"),
    ("simulate.G_applies", "count"),
    ("phantoms.render_s", "s"),
    ("fileio.save_s", "s"),
    ("fileio.load_s", "s"),
    ("fileio.measurement_bytes", "bytes"),
    ("analytic.field_s", "s"),
    ("analytic.convergence_warnings", "count"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def g_apply_cost(shape):
    """Computed FFT points and MB moved by one DomainGreensOperator.apply.

    Two FFTs over the doubled grid of P points; memory traffic counted as
    16-byte words: zero fill (P), copy in (N), forward FFT read and write
    (2P), kernel product (3P), inverse FFT read and write (2P).  The
    returned corner is a view.  Cache misses are not modelled.
    """
    n = int(np.prod(shape))
    p = n * 2 ** len(shape)
    return 2 * p, 16.0 * (8 * p + n) / 1e6


def _median_ms(durations):
    return 1e3 * float(np.median(durations)) if durations else 0.0


class _Index:
    """Parent/child lookups over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        # G applies in each span's subtree (parents precede children)
        self.g_below = [0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            if spans[i].name == "greens.G.apply":
                self.g_below[i] += 1
            if spans[i].parent >= 0:
                self.g_below[spans[i].parent] += self.g_below[i]

    def select(self, name, run, after=None):
        return [i for i, s in enumerate(self.spans)
                if s.name == name and s.run == run
                and (after is None or s.start >= after)]

    def parent_name(self, i):
        p = self.spans[i].parent
        return self.spans[p].name if p >= 0 else None

    def has_ancestor(self, i, name):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def total(self, idx):
        return float(sum(self.spans[i].duration for i in idx))

    def self_total(self, idx):
        return float(sum(self.self_s[i] for i in idx))


def layer_metrics(spans, info):
    """Per-layer metrics of one traced run.

    Spans of the timed solve carry run "solve", of the traced set-up "setup"
    and of the untimed checks "check".  ``info`` holds what the benchmark
    knows without spans: iterations, transmitter count, solve-grid shape,
    measurement file size, analytic warnings and both solve times.
    A layer that does not run on the workload reports 0.
    """
    ix = _Index(spans)
    spans = ix.spans
    m = {}

    g_apply = ix.select("greens.G.apply", "solve")
    g_adj = ix.select("greens.G.apply_adjoint", "solve")
    gen_apply = ix.select("greens.G.apply", "setup")
    m["greens.G.applies"] = len(g_apply)
    m["greens.G.apply_ms"] = _median_ms([spans[i].duration for i in g_apply])
    m["greens.G.gen_apply_ms"] = _median_ms([spans[i].duration for i in gen_apply])
    m["greens.G.busy_s"] = ix.self_total(g_apply + g_adj)
    points, mb = g_apply_cost(info["grid_shape"])
    m["greens.G.fft_points_per_apply"] = points
    m["greens.G.mb_per_apply"] = mb

    h_apply = ix.select("greens.H.apply", "solve")
    h_adj = ix.select("greens.H.apply_adjoint", "solve")
    masked = (ix.select("greens.H.masked_apply", "solve")
              + ix.select("greens.H.masked_apply_adjoint", "solve"))
    m["greens.H.calls"] = len(h_apply) + len(h_adj)
    m["greens.H.apply_ms"] = _median_ms([spans[i].duration for i in h_apply])
    m["greens.H.adjoint_ms"] = _median_ms([spans[i].duration for i in h_adj])
    m["greens.H.busy_s"] = ix.self_total(h_apply + h_adj + masked)
    computed = useful = 0
    for i in h_apply + h_adj:
        computed += spans[i].attrs
        p = spans[i].parent
        masked_parent = p >= 0 and spans[p].name.startswith("greens.H.masked")
        useful += spans[p].attrs if masked_parent else spans[i].attrs
    m["greens.H.rows_useful_ratio"] = useful / computed if computed else 0.0
    m["greens.build_s"] = ix.total(ix.select("greens.build", "solve"))

    hankel = ix.select("special.hankel", "setup") + ix.select("special.hankel", "solve")
    m["special.hankel_points"] = int(sum(spans[i].attrs for i in hankel))
    m["special.hankel_s"] = ix.total(hankel)

    solves = ix.select("forward.solve", "solve")
    k_eff = [spans[i].attrs[0] for i in solves]
    m["forward.solves"] = len(solves)
    m["forward.K_eff_mean"] = float(np.mean(k_eff)) if k_eff else 0.0
    m["forward.K_eff_max"] = max(k_eff, default=0)
    m["forward.hit_K"] = sum(1 for i in solves if spans[i].attrs[0] == spans[i].attrs[1])
    m["forward.self_s"] = ix.self_total(solves)
    # the trace keeps one extrapolated complex field per iteration
    m["forward.trace_mb"] = max((16.0 * spans[i].attrs[0] * spans[i].attrs[2] / 1e6
                                 for i in solves), default=0.0)

    grads = ix.select("adjoint.gradient", "solve")
    m["adjoint.gradients"] = len(grads)
    per_grad, ratios = [], []
    for i in grads:
        # total_gradient runs one transmitter's solve, then its backward pass
        fwd = max(j for j in solves if j < i and spans[j].parent == spans[i].parent)
        per_grad.append(ix.g_below[fwd] + ix.g_below[i])
        ratios.append(per_grad[-1] / spans[fwd].attrs[0])
    m["adjoint.G_applies_per_gradient"] = float(np.mean(per_grad)) if per_grad else 0.0
    # median: a solve at f = 0 stops at K_eff = 1 with a zero gradient and
    # skips the step-size apply, so its ratio is 8
    m["adjoint.G_applies_per_iter"] = float(np.median(ratios)) if ratios else 0.0
    m["adjoint.self_s"] = ix.self_total(grads)

    prox = ix.select("tv.prox", "solve")
    inner = ix.select("tv.grad_op", "solve")
    m["tv.prox_calls"] = len(prox)
    m["tv.prox_ms_p50"] = _median_ms([spans[i].duration for i in prox])
    m["tv.inner_iters_mean"] = len(inner) / len(prox) if prox else 0.0
    m["tv.busy_s"] = ix.self_total(prox + inner)

    iters = info["iterations"]
    m["recon.iterations"] = iters
    m["recon.problem_build_s"] = ix.total(ix.select("recon.problem_build", "solve"))
    backtrack = ix.select("recon.backtrack", "solve")
    m["recon.backtrack_s"] = ix.total(backtrack)
    # FISTA iterations start once the step is fixed
    loop_start = max((spans[i].end for i in backtrack), default=None)
    predict = ix.select("recon.predict_all", "solve")
    born_pred = ix.select("recon.born_predict", "solve")
    in_backtrack = [i for i in predict + born_pred if ix.has_ancestor(i, "recon.backtrack")]
    n_tx = info["n_tx"]
    m["recon.backtrack_evals"] = (
        sum(1 for i in in_backtrack if spans[i].name == "recon.predict_all")
        + sum(1 for i in in_backtrack if spans[i].name == "recon.born_predict") / n_tx)
    full_grad = ix.select("recon.total_gradient", "solve", loop_start)
    born_grad = ix.select("recon.born_gradient", "solve", loop_start)
    monitor = (ix.select("recon.predict_all", "solve", loop_start)
               + [i for i in ix.select("recon.born_predict", "solve", loop_start)
                  if ix.parent_name(i) != "recon.born_gradient"])
    m["recon.gradient_s"] = ix.total(full_grad + born_grad)
    m["recon.monitor_s"] = ix.total(monitor)
    m["recon.monitor_G_applies"] = int(sum(ix.g_below[i] for i in monitor))
    loop_solves = [i for i in ix.select("forward.solve", "solve", loop_start)
                   if ix.parent_name(i) == "recon.total_gradient"]
    loop_born_fwd = [i for i in ix.select("recon.born_predict", "solve", loop_start)
                     if ix.parent_name(i) == "recon.born_gradient"]
    fwd_s = ix.total(loop_solves) + ix.total(loop_born_fwd)
    bwd_s = (ix.total(ix.select("adjoint.gradient", "solve", loop_start))
             + ix.total(born_grad) - ix.total(loop_born_fwd))
    per = 1.0 / iters if iters else 0.0
    m["recon.iter_forward_s"] = fwd_s * per
    m["recon.iter_backward_s"] = bwd_s * per
    m["recon.iter_tv_s"] = ix.total(ix.select("tv.prox", "solve", loop_start)) * per
    m["recon.iter_monitor_s"] = m["recon.monitor_s"] * per

    sim = ix.select("simulate.measurements", "setup")
    m["simulate.measurements_s"] = ix.total(sim)
    m["simulate.G_applies"] = int(sum(ix.g_below[i] for i in sim))
    m["phantoms.render_s"] = ix.total(ix.select("phantoms.render", "setup"))
    m["fileio.save_s"] = ix.total(ix.select("fileio.save", "setup"))
    m["fileio.load_s"] = ix.total(ix.select("fileio.load", "setup"))
    m["fileio.measurement_bytes"] = info["measurement_bytes"]

    m["analytic.field_s"] = ix.total(ix.select("analytic.field", "check"))
    m["analytic.convergence_warnings"] = info["analytic_warnings"]

    m["trace.solve_s"] = info["traced_solve_s"]
    m["trace.overhead_s"] = info["traced_solve_s"] - info["solve_s"]
    m["trace.spans"] = len(spans)
    return m
