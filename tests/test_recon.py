import ast
import cmath
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import adjoint_state_gradient_AH, dense_A_matrix, fd_gradient
from wavetomo import recon
from wavetomo.errors import ConfigError, ConvergenceWarning, NumericalError, TransformError
from wavetomo.greens import (DomainGreensOperator, MaskedSensorOperator, SystemOperator,
                             build_sensor_operator)
from wavetomo.recon import ScatteringProblem


def tiny_problem(rng, n_tx=2, n=8, wl=0.5):
    grid = wt.centered_grid((n, n), spacing=wl / 16, wavelength=wl)
    ring = wt.ring_sensors(10, radius=0.4)
    tx = [wt.Transmitter("point", position=(0.45 * np.cos(a), 0.45 * np.sin(a)))
          for a in np.linspace(0, 2 * np.pi, n_tx, endpoint=False)]
    y = [random_field(rng, (10,)) for _ in tx]
    mset = wt.MeasurementSet(transmitters=tx, receivers=ring,
                             active_indices=[np.arange(10)] * n_tx, y=y)
    return grid, mset


def masked_problem(rng, n=12, slots=12):
    """Three transmitters that record different receiver slots; none records slot 0.

    Each measurement is the incident field at its receiver times a factor
    within 0.3 of 1, so the Rytov transform of y + u_in unwraps cleanly.
    """
    grid = wt.centered_grid((n, n), spacing=0.5 / 16, wavelength=0.5)
    ring = wt.ring_sensors(slots, radius=0.4)
    tx = [wt.Transmitter("point", position=(0.45 * np.cos(a), 0.45 * np.sin(a)))
          for a in (0.3, 2.4, 4.5)]
    active = [np.arange(1, slots), np.arange(2, slots, 3), np.array([1, 4, 5, 11])]
    y = [t.field_at(ring.positions[ix], grid.k_b) * 0.2
         * (rng.uniform(-1, 1, ix.size) + 1j * rng.uniform(-1, 1, ix.size))
         for t, ix in zip(tx, active)]
    return grid, wt.MeasurementSet(transmitters=tx, receivers=ring,
                                   active_indices=active, y=y)


def synthetic_problem(rng, n=8):
    """tiny_problem's geometry with data the loop's model predicts for a
    15%-contrast cylinder, and the config of an 8-iteration reconstruction."""
    grid, mset = tiny_problem(rng, n=n)
    f_true = wt.cylinders(grid, [((0.0, 0.0), 0.08, 0.15)])
    cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=30), tau_rel=1e-10,
                         fista_iters=8)
    mset.y[:] = wt.predict_all(f_true, ScatteringProblem(mset, grid), cfg)
    return grid, mset, f_true, cfg


def model_data(model, mset, problem):
    """The data a model fits: Rytov-transformed for "rytov", y otherwise."""
    if model != "rytov":
        return mset.y
    return [wt.rytov_transform(y + u, u) for y, u in zip(mset.y, problem.u_in_sensors)]


def rel_err(got, expect):
    return np.linalg.norm(got - expect) / np.linalg.norm(expect)


class TestMeasurementSet:
    def test_length_validation(self, rng):
        grid, mset = tiny_problem(rng)
        with pytest.raises(ConfigError):
            wt.MeasurementSet(transmitters=mset.transmitters,
                              receivers=mset.receivers,
                              active_indices=mset.active_indices[:1],
                              y=mset.y)

    def test_subsample_of_two_receivers_keeps_one(self):
        # subsample keeps positions 1, 1 + factor, ...: two receivers are
        # the fewest that a factor above 1 leaves one of
        assert recon.check_subsample(2, n_receivers=2) == 2
        with pytest.raises(ConfigError, match="^subsampling by 2 keeps no receiver of 1$"):
            recon.check_subsample(2, n_receivers=1)
        tx = [wt.Transmitter("point", position=(1.0, 0.0))]
        y = [np.array([1.0 + 2.0j, 3.0 - 1.0j])]
        kept = wt.MeasurementSet(tx, wt.ring_sensors(2, 1.0), [[0, 1]], y).subsample(2)
        assert kept.active_indices[0].tolist() == [1] and kept.y[0].tolist() == [3.0 - 1.0j]

    def test_subsample_nesting(self, rng):
        _, mset = tiny_problem(rng, n_tx=1)
        s2 = mset.subsample(2)
        s4 = mset.subsample(4)
        assert set(s4.active_indices[0]) <= set(s2.active_indices[0])
        with pytest.raises(ConfigError):
            mset.subsample(3)

    @pytest.mark.parametrize("factor", [2.0, True], ids=["integral float", "bool"])
    def test_subsample_factor_must_be_an_integer(self, rng, factor):
        # 2.0 used to end in numpy's IndexError, and True returned the set
        # as factor 1
        _, mset = tiny_problem(rng, n_tx=1)
        with pytest.raises(ConfigError, match="^subsampling factor must be an integer$"):
            mset.subsample(factor)

    def test_transmitter_without_receivers_rejected(self, rng):
        # it used to be accepted and fail later, building the sensor operator
        _, mset = tiny_problem(rng)
        with pytest.raises(ConfigError, match="^transmitter 1: no receivers$"):
            wt.MeasurementSet(transmitters=mset.transmitters, receivers=mset.receivers,
                              active_indices=[np.arange(10), []], y=[mset.y[0], []])

    @pytest.mark.parametrize("active, message", [
        ([-1, 0], "receiver index -1 outside 0..5"),
        ([0, 7], "receiver index 7 outside 0..5"),
        ([0, 0], "receiver slot 0 listed twice"),
    ], ids=["negative index", "index past the ring", "slot listed twice"])
    def test_bad_active_index_rejected(self, active, message):
        # -1 used to read the last slot, [0, 0] was accepted, and 7 ended in
        # an IndexError building the ScatteringProblem
        tx = [wt.Transmitter("point", position=(0.45, 0.0))]
        with pytest.raises(ConfigError, match=f"^transmitter 0: {message}$"):
            wt.MeasurementSet(transmitters=tx, receivers=wt.ring_sensors(6, radius=0.4),
                              active_indices=[active], y=[np.ones(2, complex)])

    @pytest.mark.parametrize("active, dtype", [
        ([0.7, 2.9], "float64"), ([0.0, 2.0], "float64"), ([True, False], "bool"),
    ], ids=["fractional", "integral floats", "bools"])
    def test_non_integer_active_index_rejected(self, active, dtype):
        # [0.7, 2.9] used to be stored as slots [0, 2], and [True, False] as [1, 0]
        tx = [wt.Transmitter("point", position=(0.45, 0.0))]
        with pytest.raises(ConfigError, match="^transmitter 0: receiver indices must be "
                           f"integers, got {dtype}$"):
            wt.MeasurementSet(transmitters=tx, receivers=wt.ring_sensors(6, radius=0.4),
                              active_indices=[active], y=[np.ones(2, complex)])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_numpy_integer_active_index_accepted(self, dtype):
        tx = [wt.Transmitter("point", position=(0.45, 0.0))]
        mset = wt.MeasurementSet(tx, wt.ring_sensors(6, radius=0.4),
                                 [np.array([4, 1], dtype=dtype)], [np.ones(2, complex)])
        assert mset.active_indices[0].dtype == int
        assert mset.active_indices[0].tolist() == [4, 1]

    def test_subsample_that_empties_a_transmitter_rejected(self, rng):
        # subsampling keeps positions 1, 1 + factor, ...: none of one receiver
        _, mset = tiny_problem(rng)
        one = wt.MeasurementSet(transmitters=mset.transmitters, receivers=mset.receivers,
                                active_indices=[np.arange(10), [3]],
                                y=[mset.y[0], mset.y[1][:1]])
        with pytest.raises(ConfigError,
                           match="^subsampling by 2 keeps no receiver of 1$"):
            one.subsample(2)

    @pytest.mark.parametrize("take", [lambda y: y[::2], lambda y: np.stack([y, y], axis=1)[:2, 1]],
                             ids=["every other entry", "column of a 2-D array"])
    def test_strided_data_accepted(self, take):
        # the finiteness check viewed y as floats, which numpy refuses for a
        # strided complex array: a ValueError on valid data
        y = take(np.array([1 + 2j, 3 - 1j, -2 + 0.5j, 4j]))
        assert not y.flags.c_contiguous
        tx = [wt.Transmitter("point", position=(1.0, 0.0))]
        mset = wt.MeasurementSet(tx, wt.ring_sensors(2, 1.0), [[0, 1]], [y])
        assert np.array_equal(mset.y[0], y)
        bad = np.array([1 + 2j, 3 - 1j, complex(-2.0, np.inf), 4j])[::2]
        with pytest.raises(ConfigError, match="^transmitter 0: non-finite measurement$"):
            wt.MeasurementSet(tx, wt.ring_sensors(2, 1.0), [[0, 1]], [bad])

    @pytest.mark.parametrize("tx, message", [
        (wt.Transmitter("point", position=(1.0, 0.0, 0.0)), "point position has 3"),
        (wt.Transmitter("plane", direction=(1.0, 0.0, 0.0)), "plane direction has 3"),
    ], ids=["point", "plane"])
    def test_transmitter_axes_must_match_receivers(self, rng, tx, message):
        # these used to be accepted and end in a numpy reshape or matmul
        # error building the ScatteringProblem
        with pytest.raises(ConfigError, match=f"^transmitter 1: {message} coordinates "
                           "but the receiver positions have 2$"):
            wt.MeasurementSet([wt.Transmitter("point", position=(1.0, 0.0)), tx],
                              wt.ring_sensors(6, 1.0), [np.arange(6)] * 2,
                              [random_field(rng, (6,))] * 2)


class TestTransmitter:
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.0])
    def test_plane_direction_extreme_scale(self, scale):
        # a finite direction normalizes without overflow or underflow
        tx = wt.Transmitter("plane", direction=(scale, scale))
        assert np.allclose(tx.direction, (np.sqrt(0.5), np.sqrt(0.5)), rtol=1e-15)

    @pytest.mark.parametrize("direction", [
        (0.0, 0.0), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_plane_direction_rejected(self, direction):
        with pytest.raises(ConfigError, match="direction"):
            wt.Transmitter("plane", direction=direction)

    @pytest.mark.parametrize("direction", [(0.6, -0.8), (-0.48, 0.6, 0.64)])
    def test_plane_wave_travels_along_its_direction(self, direction):
        # a exp(i k d.r), one point at a time: its phase grows along d
        k = 2.0 * np.pi / 0.5
        tx = wt.Transmitter("plane", direction=direction, amplitude=2.0 - 1.0j)
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.5, 0.5, (4, len(direction)))
        expect = [(2.0 - 1.0j) * cmath.exp(1j * k * sum(p * d for p, d in zip(pt, direction)))
                  for pt in points.tolist()]
        assert np.allclose(tx.field_at(points, k), expect, rtol=1e-13, atol=0.0)


class TestTotalGradient:
    def test_zero_residual(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        mset.y[:] = wt.predict_all(f, problem, cfg)
        grad, _ = wt.total_gradient(f, problem, cfg, mset.y)
        assert np.allclose(grad, 0.0)

    def test_duplicate_tx_doubles(self, rng):
        grid, mset1 = tiny_problem(rng, n_tx=1)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=5), tau_rel=0.0)
        mset2 = wt.MeasurementSet(
            transmitters=mset1.transmitters * 2,
            receivers=mset1.receivers,
            active_indices=mset1.active_indices * 2,
            y=mset1.y * 2)
        f = random_potential(rng, grid)
        g1, _ = wt.total_gradient(f, ScatteringProblem(mset1, grid), cfg, mset1.y)
        g2, _ = wt.total_gradient(f, ScatteringProblem(mset2, grid), cfg, mset2.y)
        assert np.allclose(g2, 2.0 * g1)

    def test_G_apply_budget(self, rng, monkeypatch):
        # per transmitter, a gradient costs exactly the applies its u and x
        # BiCGStab solves report and applies no G^H, and a prediction repeats
        # the u solve and costs nothing more; at f = 0, A = I applies no G,
        # and each solve stops after the one A apply of its initial residual.
        # An extra apply per solve fails here.  The solves of one call run on
        # several threads, so each thread counts its own G applies and a
        # solve is known by its right-hand side, not by its place in the order
        grid, mset = tiny_problem(rng, n=16)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=60, delta_tol_rel=5e-7),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        calls, adjoint_calls, solves = [], [], []
        thread = threading.local()
        apply, apply_adjoint, krylov = (
            DomainGreensOperator.apply, DomainGreensOperator.apply_adjoint,
            recon.bicgstab)

        def counted(self, v):
            calls.append(1)
            thread.applies = getattr(thread, "applies", 0) + 1
            return apply(self, v)

        def counted_adjoint(self, v):
            adjoint_calls.append(1)
            return apply_adjoint(self, v)

        def recorded_krylov(op, b, x0, tol, maxiter):
            before = getattr(thread, "applies", 0)
            x, applies = krylov(op, b, x0, tol, maxiter)
            solves.append((b.tobytes(), (applies, getattr(thread, "applies", 0) - before)))
            return x, applies

        monkeypatch.setattr(DomainGreensOperator, "apply", counted)
        monkeypatch.setattr(DomainGreensOperator, "apply_adjoint", counted_adjoint)
        monkeypatch.setattr(recon, "bicgstab", recorded_krylov)
        wt.total_gradient(f, problem, cfg, mset.y)
        gradient_calls = len(calls)
        gradient = dict(solves)
        u_rhs = [u.tobytes() for u in problem.U_in]
        # each transmitter's u and x solve; each A apply is one G apply
        assert len(solves) == len(gradient) == 4 and set(u_rhs) < gradient.keys()
        assert min(a for a, _ in gradient.values()) > 1
        assert all(a == g for a, g in gradient.values())
        assert gradient_calls == sum(a for a, _ in gradient.values())
        wt.predict_all(f, problem, cfg)
        # each transmitter's u solve again
        predicted = dict(solves[4:])
        assert len(solves) == 6 and predicted == {b: gradient[b] for b in u_rhs}
        assert len(calls) - gradient_calls == sum(a for a, _ in predicted.values())
        assert adjoint_calls == []
        del calls[:], solves[:]
        wt.total_gradient(np.zeros(grid.shape), problem, cfg, mset.y)
        assert [cost for _, cost in solves] == [(1, 0)] * 4 and calls == []
        assert adjoint_calls == []

    @pytest.mark.parametrize("model, builds", [("full", 1), ("born", 0)])
    def test_one_system_operator_per_gradient(self, rng, monkeypatch, model, builds):
        # the u and the x solves share one A = I - G diag(f), whose column
        # block costs an fftn to build; the linear models build none
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        built = []

        class Counted(SystemOperator):
            def __init__(self, f, G):
                built.append(1)
                super().__init__(f, G)

        monkeypatch.setattr(recon, "SystemOperator", Counted)
        wt.total_gradient(random_potential(rng, grid), problem,
                          cfg if model == "full" else None, mset.y)
        assert len(built) == builds

    def test_predict_all_equals_direct_solve(self, rng):
        # predict_all's fields solve A u = u_in to the loop's residual
        # sqrt(2 delta_tol_rel) = 1e-3, so z = H(f u) is within about that
        # of the prediction from a dense direct solve
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=5e-7),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        A = dense_A_matrix(grid, f)
        for z, u_in, H in zip(wt.predict_all(f, problem, cfg), problem.u_in, problem.H):
            u = np.linalg.solve(A, u_in.ravel()).reshape(grid.shape)
            assert rel_err(z, H.apply(f * u)) <= 1e-3

    @staticmethod
    def D_gap(rng, grid, mset, delta_tol_rel, model="full"):
        cfg = (wt.ReconConfig(forward=wt.ForwardConfig(K=200, delta_tol_rel=delta_tol_rel),
                              tau_rel=0.0)
               if model == "full" else None)
        problem = ScatteringProblem(mset, grid)
        data = model_data(model, mset, problem)
        f = random_potential(rng, grid)
        _, D = wt.total_gradient(f, problem, cfg, data)
        z = wt.predict_all(f, problem, cfg)
        D_pred = sum(wt.data_fidelity(zt, yt) for zt, yt in zip(z, data))
        return abs(D - D_pred) / D_pred

    def test_returned_D_matches_prediction(self, rng):
        # the gradient and predict_all take z from the same fields, so the
        # D the gradient returns is the D of the prediction, bit for bit
        assert self.D_gap(rng, *tiny_problem(rng, n_tx=3), 1e-3) == 0.0

    @pytest.mark.parametrize("model", ["born", "rytov"])
    def test_linear_returned_D_matches_prediction(self, rng, model):
        # the same for A = I; masked_problem's data take the Rytov transform
        # cleanly
        assert self.D_gap(rng, *masked_problem(rng), 1e-3, model) == 0.0

    def test_returned_D_converges_to_prediction(self, rng):
        assert self.D_gap(rng, *tiny_problem(rng, n_tx=3), 1e-20) <= 1e-9


def on_cpus(monkeypatch, n):
    """Make the solve threads see n usable CPUs and one BLAS thread, and
    allow n of them; n above MAX_SOLVE_THREADS also splits the pixels into
    n blocks."""
    monkeypatch.setattr(recon, "_usable_cpus", lambda: n)
    monkeypatch.setattr(recon, "MAX_SOLVE_THREADS", max(n, recon.MAX_SOLVE_THREADS))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def solving_threads(monkeypatch, meet=1):
    """The thread of every BiCGStab solve, in the order they start.  Each
    thread's first solve waits until ``meet`` threads have started one, so
    that many run at once or the wait times out."""
    seen, first = [], threading.local()
    barrier = threading.Barrier(meet, timeout=10)
    krylov = recon.bicgstab

    def recorded(op, b, x0, tol, maxiter):
        seen.append(threading.get_ident())
        if not getattr(first, "met", False):
            first.met = True
            barrier.wait()
        return krylov(op, b, x0, tol, maxiter)

    monkeypatch.setattr(recon, "bicgstab", recorded)
    return seen


# run with OpenBLAS started on one thread: fista_reconstruct's histories and
# f_hat per model on one and on two solve threads, and the pools each opened.
# On a 24x24 grid a sum of two pixel blocks' products differs from one GEMM
# in the last bits (on 16x16 OpenBLAS's own blocking of the sum made them
# agree), so a block split that followed the thread count would show here
PINNED_LOOP = """
import json, sys, warnings
import numpy as np
import wavetomo as wt
from wavetomo import recon
from test_recon import synthetic_problem

pools = []

class Counted(recon.ThreadPoolExecutor):
    def __init__(self, *args, **kwargs):
        pools.append(1)
        super().__init__(*args, **kwargs)

recon.ThreadPoolExecutor = Counted
warnings.simplefilter("ignore")
# threads that switch every microsecond: a row or block written by two
# threads, or work that read another's state, would change the results
sys.setswitchinterval(1e-6)
out = {}
for model in ("full", "born", "rytov"):
    runs = []
    for cpus in (1, 2):
        recon._usable_cpus = lambda: cpus
        del pools[:]
        grid, mset, f_true, cfg = synthetic_problem(np.random.default_rng(5), n=24)
        rep = wt.fista_reconstruct(mset, grid, cfg, ground_truth=f_true, model=model)
        runs.append((rep, len(pools)))
    (one, _), (two, _) = runs
    out[model] = {
        "differ": [name for name in ("data_fit_history", "step_history",
                                     "recon_error_history")
                   if getattr(one, name) != getattr(two, name)]
                  + ([] if np.array_equal(one.f_hat, two.f_hat) else ["f_hat"]),
        "pools": [n for _, n in runs]}
print(json.dumps(out))
"""


def thread_pool_references(source):
    """(enclosing function, line) of each ``ThreadPoolExecutor`` name in
    ``source``; "import" for a name an import binds, None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend(("import", child.lineno) for alias in child.names
                             if "ThreadPoolExecutor" in (alias.name.rsplit(".")[-1],
                                                         alias.asname))
            elif (isinstance(child, ast.Name) and child.id == "ThreadPoolExecutor"
                  or isinstance(child, ast.Attribute)
                  and child.attr == "ThreadPoolExecutor"):
                found.append((function, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef))
                  else function)

    visit(ast.parse(source), None)
    return found


def test_thread_pools_open_only_in_on_threads():
    # the one helper runs threads only with BLAS on one thread and caps them
    # at the usable CPUs and MAX_SOLVE_THREADS; a pool opened elsewhere would
    # skip both rules
    assert thread_pool_references(
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "import concurrent.futures\n"
        "def f():\n    return concurrent.futures.ThreadPoolExecutor(2)\n"
        "g = ThreadPoolExecutor\n") == [("import", 1), ("f", 4), (None, 5)]
    package = Path(__file__).resolve().parent.parent / "src" / "wavetomo"
    found = {(path.name, function)
             for path in package.glob("*.py")
             for function, _ in thread_pool_references(path.read_text(encoding="utf-8"))}
    assert found == {("recon.py", "import"), ("recon.py", "_on_threads")}


class TestThreadedSolves:
    """One call's T field systems, and the H products' pixel blocks, run on
    min(items, usable CPUs, MAX_SOLVE_THREADS) threads when BLAS runs on one
    thread."""

    def test_rows_bit_identical_on_any_thread_count(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng, n_tx=5)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        rows = []
        for n in (1, 2, 3):
            on_cpus(monkeypatch, n)
            seen = solving_threads(monkeypatch, meet=n)
            rows.append(recon._solve_rows(SystemOperator(f, problem.G), problem.U_in, cfg))
            monkeypatch.undo()
            assert len(seen) == 5 and len(set(seen)) == n
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2])

    def test_more_threads_than_cores_switching_fast(self, rng, monkeypatch):
        # six threads on twelve rows, switching every microsecond: a row
        # written by two threads, or a solve that read another's state,
        # would change X
        grid, mset = tiny_problem(rng, n_tx=12)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        on_cpus(monkeypatch, 1)
        serial = recon._solve_rows(SystemOperator(f, problem.G), problem.U_in, cfg)
        on_cpus(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = recon._solve_rows(SystemOperator(f, problem.G), problem.U_in, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial)

    def test_loop_bit_identical_on_any_thread_count(self):
        # a fresh interpreter, so that OpenBLAS really starts on one thread:
        # in this process only the environment check can be faked, and
        # concurrent threaded GEMMs need not agree in the last bits
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(here), str(Path(wt.__file__).resolve().parent.parent),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", PINNED_LOOP],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert sorted(result) == ["born", "full", "rytov"]
        for model, got in result.items():
            assert got["differ"] == [], model
            # serial on one CPU, threaded on two
            assert got["pools"][0] == 0 and got["pools"][1] > 0, model

    @pytest.mark.parametrize("model", ["born", "full"])
    def test_block_products_match_one_product(self, rng, monkeypatch, model):
        # the gradient's loop as one GEMM per product, before the pixel
        # blocks; only the prediction's sum of two blocks changes the order
        grid, mset = masked_problem(rng)
        problem = ScatteringProblem(mset, grid)
        cfg = (wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
               if model == "full" else None)
        f = random_potential(rng, grid)
        H = problem._H_ring.matrix
        on_cpus(monkeypatch, 2)
        A, U, blocks = recon._fields_and_rows(f, problem, cfg)
        R = (U * f.ravel()) @ H.T
        assert rel_err(blocks, R) <= 1e-13
        for r, h, y in zip(R, problem.H, mset.y):
            resid = r[h.indices] - y
            r[:] = 0.0
            r[h.indices] = resid
        X = recon._solve_rows(A, R.conj() @ H, cfg)
        expect = np.real(np.sum(U * X, axis=0)).reshape(grid.shape)
        grad, _ = wt.total_gradient(f, problem, cfg, mset.y)
        assert rel_err(grad, expect) <= 1e-13

    def test_worker_warnings_reach_the_caller(self, rng, monkeypatch):
        # one BiCGStab iteration misses a 1.4e-10 residual on every row, and
        # each of the three rows is solved on its own thread
        grid, mset = tiny_problem(rng, n_tx=3)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=1, delta_tol_rel=1e-20))
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        on_cpus(monkeypatch, 3)
        seen = solving_threads(monkeypatch, meet=3)
        before = threading.active_count()
        with pytest.warns(ConvergenceWarning) as record:
            recon._solve_rows(SystemOperator(f, problem.G), problem.U_in, cfg)
        assert len(set(seen)) == 3
        assert [w.category for w in record] == [ConvergenceWarning] * 3
        assert threading.active_count() == before

    @pytest.mark.parametrize("in_caller", [False, True], ids=["worker row", "caller row"])
    def test_error_reaches_the_caller_after_every_thread(self, rng, monkeypatch, in_caller):
        grid, mset = tiny_problem(rng, n_tx=3)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        on_cpus(monkeypatch, 3)
        caller, krylov, solved = threading.get_ident(), recon.bicgstab, []

        def failing(op, b, x0, tol, maxiter):
            if (threading.get_ident() == caller) == in_caller:
                raise NumericalError("breakdown in this row")
            out = krylov(op, b, x0, tol, maxiter)
            solved.append(1)
            return out

        monkeypatch.setattr(recon, "bicgstab", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError, match="breakdown in this row"):
            recon._solve_rows(SystemOperator(f, problem.G), problem.U_in, cfg)
        assert threading.active_count() == before
        # the rows that did not fail were all solved before the error arrived
        assert len(solved) == (2 if in_caller else 1)

    @pytest.mark.parametrize("n_tx, cpus", [(1, 4), (3, 1)],
                             ids=["one transmitter", "one CPU"])
    def test_one_row_or_cpu_starts_no_thread(self, rng, monkeypatch, n_tx, cpus):
        # one row is solved on the caller, while the H products' pixel
        # blocks may still run on threads; one CPU opens no pool at all
        grid, mset = tiny_problem(rng, n_tx=n_tx)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        on_cpus(monkeypatch, cpus)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was opened")

        if cpus == 1:
            monkeypatch.setattr(recon, "ThreadPoolExecutor", no_pool)
        seen = solving_threads(monkeypatch)
        wt.total_gradient(random_potential(rng, grid), problem, cfg, mset.y)
        assert seen and set(seen) == {threading.get_ident()}

    def test_threads_capped_on_many_cpus(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng, n_tx=8)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        monkeypatch.setattr(recon, "_usable_cpus", lambda: 8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        seen = solving_threads(monkeypatch, meet=recon.MAX_SOLVE_THREADS)
        A = SystemOperator(random_potential(rng, grid), problem.G)
        recon._solve_rows(A, problem.U_in, cfg)
        assert len(seen) == 8 and len(set(seen)) == recon.MAX_SOLVE_THREADS == 2

    def test_threaded_blas_solves_on_the_caller(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng, n_tx=4)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=40, delta_tol_rel=5e-7))
        problem = ScatteringProblem(mset, grid)
        on_cpus(monkeypatch, 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen = solving_threads(monkeypatch)
        A = SystemOperator(random_potential(rng, grid), problem.G)
        recon._solve_rows(A, problem.U_in, cfg)
        assert len(seen) == 4 and set(seen) == {threading.get_ident()}

    @pytest.mark.parametrize("env, one", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "2"}, False),
    ], ids=["unset", "openblas 1", "omp 1", "openblas first", "zero skipped",
            "junk skipped"])
    def test_blas_thread_count_follows_openblas(self, monkeypatch, env, one):
        for var in recon.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert recon._blas_on_one_thread() is one

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        assert recon._usable_cpus() >= 1
        monkeypatch.setattr(recon.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert recon._usable_cpus() == 1
        monkeypatch.delattr(recon.os, "sched_getaffinity")
        monkeypatch.setattr(recon.os, "cpu_count", lambda: 3)
        assert recon._usable_cpus() == 3
        # os.cpu_count() returns None when the count is unknown
        monkeypatch.setattr(recon.os, "cpu_count", lambda: None)
        assert recon._usable_cpus() == 1


class TestOneKernel:
    """``total_gradient`` and ``predict_all`` for all three models against
    per-transmitter oracles: ``born_gradient`` and ``born_predict`` for the
    linear models (A = I), the reference A^H form for the full model."""

    @pytest.mark.parametrize("model", ["born", "rytov"])
    def test_linear_matches_per_transmitter_sums(self, rng, model):
        grid, mset = masked_problem(rng)
        problem = ScatteringProblem(mset, grid)
        data = model_data(model, mset, problem)
        f = random_potential(rng, grid)
        parts = [wt.born_gradient(f, y, u, h)
                 for y, u, h in zip(data, problem.u_in, problem.H)]
        grad, D = wt.total_gradient(f, problem, None, data)
        assert rel_err(grad, np.sum([g for g, _ in parts], axis=0)) <= 1e-13
        assert abs(D - sum(d for _, d in parts)) <= 1e-13 * D
        z = wt.predict_all(f, problem, None)
        for zt, u, h in zip(z, problem.u_in, problem.H):
            assert rel_err(zt, wt.born_predict(f, u, h)) <= 1e-13

    def test_full_matches_A_H_form_per_transmitter(self, rng):
        # reciprocity: the kernel's x solve on A against the A^H solve of
        # the oracle, summed over transmitters that record different slots
        grid, mset = masked_problem(rng)
        problem = ScatteringProblem(mset, grid)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=200, delta_tol_rel=1e-26))
        f = random_potential(rng, grid)
        grad, D = wt.total_gradient(f, problem, cfg, mset.y)
        expect = sum(adjoint_state_gradient_AH(f, y, u, problem.G, h, cfg.forward)
                     for y, u, h in zip(mset.y, problem.u_in, problem.H))
        assert rel_err(grad, expect) <= 1e-11
        z = wt.predict_all(f, problem, cfg)
        assert D == sum(wt.data_fidelity(zt, y) for zt, y in zip(z, mset.y))


class TestRecordedRows:
    """H is built only for the receiver slots some transmitter recorded."""

    def test_subsampled_set_builds_the_union(self, rng):
        grid, mset = masked_problem(rng)
        sub = mset.subsample(2)
        problem = ScatteringProblem(sub, grid)
        recorded = np.unique(np.concatenate(sub.active_indices))
        assert problem._H_ring.matrix.shape[0] == recorded.size < len(sub.receivers)
        # the same problem with every transmitter masked out of the whole ring
        ring_H = build_sensor_operator(grid, sub.receivers)
        ref = ScatteringProblem(sub, grid)
        ref._H_ring = ring_H
        ref.H = [MaskedSensorOperator(ring_H, ix) for ix in sub.active_indices]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=1e-3))
        f = random_potential(rng, grid)
        for got, expect in zip(wt.predict_all(f, problem, cfg),
                               wt.predict_all(f, ref, cfg)):
            assert rel_err(got, expect) <= 1e-13
        grad, D = wt.total_gradient(f, problem, cfg, sub.y)
        grad_ref, D_ref = wt.total_gradient(f, ref, cfg, sub.y)
        assert rel_err(grad, grad_ref) <= 1e-13
        assert abs(D - D_ref) <= 1e-13 * D_ref

    def test_all_recorded_keeps_the_ring_matrix(self, rng):
        grid, mset = tiny_problem(rng)
        problem = ScatteringProblem(mset, grid)
        ring_H = build_sensor_operator(grid, mset.receivers)
        assert np.array_equal(problem._H_ring.matrix, ring_H.matrix)


class TestLazyBuilds:
    """G and the receivers' incident fields are built only for the models
    that read them."""

    @pytest.mark.parametrize("model, builds", [("born", 0), ("rytov", 0), ("full", 1)])
    def test_only_the_full_model_builds_G(self, rng, monkeypatch, model, builds):
        grid, mset = masked_problem(rng)
        built = []
        init = DomainGreensOperator.__init__

        def counted(self, grid):
            built.append(grid.shape)
            init(self, grid)
        monkeypatch.setattr(DomainGreensOperator, "__init__", counted)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20), fista_iters=3)
        wt.fista_reconstruct(mset, grid, cfg, model=model)
        assert built == [grid.shape] * builds

    def test_sensor_incident_fields_on_first_read(self, rng, monkeypatch):
        grid, mset = masked_problem(rng)
        calls = []
        field_at = wt.Transmitter.field_at

        def counted(self, points, k_b):
            calls.append(len(points))
            return field_at(self, points, k_b)
        monkeypatch.setattr(wt.Transmitter, "field_at", counted)
        problem = ScatteringProblem(mset, grid)
        assert calls == []
        got = problem.u_in_sensors
        assert calls == [ix.size for ix in mset.active_indices]
        assert problem.u_in_sensors is got
        assert len(calls) == mset.n_tx
        for u, tx, ix in zip(got, mset.transmitters, mset.active_indices):
            expect = field_at(tx, mset.receivers.positions[ix], grid.k_b)
            assert u.tobytes() == expect.tobytes()


class TestFista:
    def test_null_measurements_give_zero_image(self, rng):
        grid, mset = tiny_problem(rng)
        mset.y[:] = [np.zeros(10, dtype=complex) for _ in mset.y]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau_rel=1.5e-9,
                             fista_iters=1)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert np.all(rep.f_hat == 0.0)
        assert rep.data_fit_history == [0.0]

    def test_deterministic_replay(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=3)
        r1 = wt.fista_reconstruct(mset, grid, cfg)
        r2 = wt.fista_reconstruct(mset, grid, cfg)
        assert np.array_equal(r1.f_hat, r2.f_hat)
        assert r1.data_fit_history == r2.data_fit_history

    def test_iterates_stay_in_box(self, rng):
        grid, mset = tiny_problem(rng)
        box = wt.BoxConstraint(0.0, 0.5 * grid.k_b ** 2)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4, box=box)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert np.all(rep.f_hat >= box.a) and np.all(rep.f_hat <= box.b)

    def test_data_fit_decreases_on_synthetic(self, rng):
        grid, mset, f_true, cfg = synthetic_problem(rng)
        rep = wt.fista_reconstruct(mset, grid, cfg, ground_truth=f_true)
        assert rep.data_fit_history[-1] < 1.0
        assert rep.recon_error_history[-1] < 1.0

    def test_tau_config_validation(self):
        with pytest.raises(ConfigError):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=-1.0)
        with pytest.raises(ConfigError):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("fista_iters", 1.5), ("tv_iters", 2.0)])
    def test_loop_config_validation(self, field, value):
        # rejected at construction, not at the first prox or range() call
        with pytest.raises(ConfigError, match=field):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1.0, **{field: value})


class TestAdaptiveStep:
    """The step starts at the backtracking's gamma_0, grows while D + tau TV
    falls, and halves, restarting the momentum, when it rises.  The suite
    turns every warning into an error, so a run that warns fails."""

    @staticmethod
    def scale_start(monkeypatch, factor):
        backtrack = recon._backtrack_step
        monkeypatch.setattr(recon, "_backtrack_step",
                            lambda *args: factor * backtrack(*args))

    def test_step_grows_while_the_objective_falls(self, rng, monkeypatch):
        # the first step is the backtracking's gamma_0
        starts = []
        backtrack = recon._backtrack_step
        monkeypatch.setattr(recon, "_backtrack_step",
                            lambda *args: starts.append(backtrack(*args)) or starts[-1])
        grid, mset, f_true, cfg = synthetic_problem(rng, n=16)
        rep = wt.fista_reconstruct(mset, grid, cfg, ground_truth=f_true)
        steps = np.array(rep.step_history)
        assert [steps[0]] == starts and steps.size == cfg.fista_iters
        assert np.allclose(steps[1:] / steps[:-1], recon.STEP_GROW, rtol=1e-15)

    @pytest.mark.parametrize("factor", [4, 8])
    def test_too_large_start_recovers(self, rng, monkeypatch, factor):
        # 4 and 8 times gamma_0 make D + tau TV rise; each rise halves the
        # step, and no rise follows a halving
        grid, mset, f_true, cfg = synthetic_problem(rng, n=16)
        self.scale_start(monkeypatch, factor)
        rep = wt.fista_reconstruct(mset, grid, cfg, ground_truth=f_true)
        steps = np.array(rep.step_history)
        ratio = steps[1:] / steps[:-1]
        halved = ratio == recon.STEP_SHRINK
        assert np.all(halved | np.isclose(ratio, recon.STEP_GROW, rtol=1e-15))
        assert np.sum(halved) >= np.log2(factor) - 1 and not np.any(halved[1:] & halved[:-1])
        assert np.max(steps[1:]) < steps[0]
        assert rep.data_fit_history[-1] < 1.0

    def test_rise_restarts_the_momentum(self, rng, monkeypatch):
        # after a rise at iteration k, iteration k + 1 takes its gradient at
        # iteration k's prox output itself, with no momentum term
        grid, mset, _, cfg = synthetic_problem(rng, n=16)
        self.scale_start(monkeypatch, 4)
        points, outputs = [], []
        gradient, prox = recon.total_gradient, recon.prox_tv

        def recorded_gradient(f, *args):
            points.append(f.copy())
            return gradient(f, *args)

        def recorded_prox(*args, **kwargs):
            out = prox(*args, **kwargs)
            outputs.append(out[0].copy())
            return out

        monkeypatch.setattr(recon, "total_gradient", recorded_gradient)
        monkeypatch.setattr(recon, "prox_tv", recorded_prox)
        steps = wt.fista_reconstruct(mset, grid, cfg).step_history
        # points[k] and outputs[k] belong to iteration k + 1
        rises = [k for k in range(1, len(steps) - 1) if steps[k] < steps[k - 1]]
        assert rises
        for k in rises:
            assert np.array_equal(points[k + 1], outputs[k])

    def test_rise_after_a_halving_warns(self, rng, monkeypatch):
        grid, mset, f_true, cfg = synthetic_problem(rng, n=16)
        self.scale_start(monkeypatch, 1e6)
        with pytest.warns(wt.ConvergenceWarning) as caught:
            wt.fista_reconstruct(mset, grid, cfg)
        assert [str(w.message) for w in caught] == [
            "FISTA objective rose at iteration 3 after the step was halved at iteration 2",
            "FISTA objective rose at iteration 6 after the step was halved at iteration 5",
            "FISTA made no progress: data fit 654.482 after 8 iterations, 1 at f = 0"]

    def test_run_without_progress_warns(self, rng, monkeypatch):
        # under Born at 1e6 gamma_0 rises and falls alternate, so no rise
        # follows a halving, and the box holds f_hat at 0
        grid, mset, f_true, cfg = synthetic_problem(rng, n=16)
        self.scale_start(monkeypatch, 1e6)
        with pytest.warns(wt.ConvergenceWarning) as caught:
            rep = wt.fista_reconstruct(mset, grid, cfg, model="born")
        assert [str(w.message) for w in caught] == [
            "FISTA made no progress: data fit 1 after 8 iterations, 1 at f = 0"]
        assert not np.any(rep.f_hat) and rep.data_fit_history[-1] == 1.0

    def test_null_measurements_keep_the_step(self, rng):
        # D + tau TV stays 0, so it never falls strictly and the step never grows
        grid, mset = tiny_problem(rng)
        mset.y[:] = [np.zeros(10, dtype=complex) for _ in mset.y]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), fista_iters=200)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert np.all(rep.f_hat == 0.0)
        assert np.isfinite(rep.step_history[0])
        assert rep.step_history == [rep.step_history[0]] * 200

    def test_step_overflow_raises(self, rng, monkeypatch):
        # gamma tau is checked at every iteration, not only at gamma_0
        grid, mset, _, cfg = synthetic_problem(rng)
        monkeypatch.setattr(recon, "STEP_GROW", np.inf)
        with pytest.raises(NumericalError, match="^tau \\* gamma overflow at iteration 2$"):
            wt.fista_reconstruct(mset, grid, cfg)


class TestNumericalTrouble:
    """Trouble in the loop raises NumericalError instead of passing on."""

    @pytest.mark.parametrize("bad_call, message", [
        (1, "non-finite gradient at the initial iterate"),
        (2, "non-finite gradient at iteration 2"),
    ], ids=["initial iterate", "later iterate"])
    def test_non_finite_gradient_raises(self, rng, monkeypatch, bad_call, message):
        grid, mset, _, cfg = synthetic_problem(rng)
        gradient, calls = recon.total_gradient, []

        def poisoned(*args):
            grad, D = gradient(*args)
            calls.append(1)
            if len(calls) == bad_call:
                grad[0, 0] = np.nan
            return grad, D

        monkeypatch.setattr(recon, "total_gradient", poisoned)
        with pytest.raises(NumericalError, match=f"^{message}$"):
            wt.fista_reconstruct(mset, grid, cfg)
        assert len(calls) == bad_call

    @staticmethod
    def backtracking_predictions(rng, monkeypatch, offset, message):
        """The predictions the step search makes before it raises ``message``,
        when every prediction is the data plus ``offset``."""
        grid, mset, _, cfg = synthetic_problem(rng)
        calls = []

        def far_prediction(f, problem, cfg):
            calls.append(1)
            return [y + offset for y in mset.y]

        monkeypatch.setattr(recon, "predict_all", far_prediction)
        with pytest.raises(NumericalError, match=f"^{message}$"):
            wt.fista_reconstruct(mset, grid, cfg)
        return len(calls)

    def test_backtracking_failure_raises(self, rng, monkeypatch):
        # a NaN prediction raises at once, not after 80 halvings
        assert self.backtracking_predictions(
            rng, monkeypatch, np.nan, "non-finite objective in the step-size backtracking") == 1

    def test_backtracking_bound_failure_raises(self, rng, monkeypatch):
        # a finite prediction that misses the quadratic bound at every step
        assert self.backtracking_predictions(
            rng, monkeypatch, 1e3, "step-size backtracking failed to satisfy the bound") == 80

    def test_non_finite_objective_at_zero_raises(self, rng, monkeypatch):
        grid, mset, _, cfg = synthetic_problem(rng)
        gradient = recon.total_gradient
        monkeypatch.setattr(recon, "total_gradient",
                            lambda *args: (gradient(*args)[0], np.inf))
        monkeypatch.setattr(recon, "predict_all", lambda *args: pytest.fail("predicted"))
        with pytest.raises(NumericalError,
                           match="^non-finite objective at the initial iterate$"):
            wt.fista_reconstruct(mset, grid, cfg)


class TestMonitoring:
    """The loop's data fit costs one H-free prediction per reconstruction;
    the step search at f = 0 makes predictions of its own."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count the calls of ``recon.<name>`` made outside the step search."""
        calls = []
        searching = []
        fn = getattr(recon, name)
        backtrack = recon._backtrack_step

        def counted(*args):
            if not searching:
                calls.append(1)
            return fn(*args)

        def backtrack_step(*args):
            searching.append(1)
            try:
                return backtrack(*args)
            finally:
                searching.pop()

        monkeypatch.setattr(recon, name, counted)
        monkeypatch.setattr(recon, "_backtrack_step", backtrack_step)
        return calls

    @staticmethod
    def final_fit(rep, mset, grid, cfg):
        problem = ScatteringProblem(mset, grid)
        z = wt.predict_all(rep.f_hat, problem, cfg)
        D = sum(wt.data_fidelity(zt, yt) for zt, yt in zip(z, mset.y))
        return 2.0 * D / float(sum(np.vdot(v, v).real for v in mset.y))

    @pytest.mark.parametrize("iters", [1, 4])
    def test_one_prediction_with_fixed_step(self, rng, monkeypatch, iters):
        # the step changes with D + tau TV, from the gradient's D and one TV
        # value, so it costs no prediction of its own
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=iters)
        calls = self.count_calls(monkeypatch, "predict_all")
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert len(calls) == 1
        assert len(rep.data_fit_history) == iters

    def test_one_linear_prediction_with_fixed_step(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4)
        calls = self.count_calls(monkeypatch, "predict_all")
        wt.fista_reconstruct(mset, grid, cfg, model="born")
        assert len(calls) == 1

    def test_last_entry_is_fit_at_f_hat(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert rep.data_fit_history[-1] == self.final_fit(rep, mset, grid, cfg)
        # entry 1 is at f~_1 = 0, where z = 0 fits ||y||^2 exactly
        assert rep.data_fit_history[0] == 1.0

    def test_backtracking_gradient_is_iteration_one(self, rng, monkeypatch):
        # the step search's gradient at f = 0 is reused, not recomputed
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=3)
        calls = self.count_calls(monkeypatch, "total_gradient")
        wt.fista_reconstruct(mset, grid, cfg)
        assert len(calls) == 3

    def test_early_stop_keeps_one_entry_per_iteration(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=6)
        # any step below 10x the iterate's norm stops the loop at iteration 2
        monkeypatch.setattr(recon, "STOP_REL_CHANGE", 10.0)
        calls = self.count_calls(monkeypatch, "predict_all")
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert len(rep.data_fit_history) == len(rep.iter_seconds) == 2
        assert len(calls) == 1
        assert rep.data_fit_history[-1] == self.final_fit(rep, mset, grid, cfg)


class TestLinearBaselines:
    def test_born_trivial(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        assert np.all(wt.born_predict(np.zeros(grid.shape), u_in, H) == 0)
        f = random_potential(rng, grid)
        assert np.allclose(wt.born_predict(2 * f, u_in, H),
                           2 * wt.born_predict(f, u_in, H))

    def test_born_gradient_fd(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        grad, _ = wt.born_gradient(f, y, u_in, H)

        def D_of(fv):
            return wt.data_fidelity(wt.born_predict(fv, u_in, H), y)

        # D is exactly quadratic in f, so central differences carry no
        # truncation error; a large step just suppresses roundoff
        fd = fd_gradient(D_of, f, 1e-2 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-8

    def test_born_gradient_returns_D(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        _, D = wt.born_gradient(f, y, u_in, H)
        assert D == wt.data_fidelity(wt.born_predict(f, u_in, H), y)

    def test_rytov_trivial(self, rng):
        u_in = random_field(rng, (12,))
        assert np.allclose(wt.rytov_transform(u_in, u_in), 0.0)
        phi = 1e-3
        got = wt.rytov_transform(u_in * np.exp(1j * phi), u_in)
        assert np.allclose(got, 1j * phi * u_in, rtol=1e-6)

    def test_rytov_zero_incident_rejected(self, rng):
        u_in = random_field(rng, (5,))
        u_in[2] = 0.0
        with pytest.raises(TransformError):
            wt.rytov_transform(u_in + 1.0, u_in)

    def test_rytov_shapes_must_agree(self, rng):
        with pytest.raises(wt.DimensionError,
                           match="^total and incident sensor fields differ in shape$"):
            wt.rytov_transform(random_field(rng, (5,)), random_field(rng, (4,)))

    def test_rytov_zero_total_rejected(self, rng):
        u_in = random_field(rng, (5,))
        u_total = u_in.copy()
        u_total[3] = 0.0
        with pytest.raises(TransformError, match="^total field vanishes at a sensor$"):
            wt.rytov_transform(u_total, u_in)

    def test_rytov_phase_jump_warns(self):
        # successive phases 0, 3 and -3 rad: the jump of 6 rad is unwrapped
        # to 2 pi - 6, and the ambiguity reported
        u_in = np.ones(3, dtype=complex)
        u_total = np.exp(1j * np.array([0.0, 3.0, -3.0]))
        with pytest.warns(UserWarning, match="^phase unwrap ambiguity: successive "
                                             "receiver phase jumps exceed pi$"):
            got = wt.rytov_transform(u_total, u_in)
        assert np.allclose(got, 1j * np.array([0.0, 3.0, 2.0 * np.pi - 3.0]))

    def test_rytov_matches_born_weak_scattering(self):
        # 1% contrast cylinder: complex-log data ~ Born prediction of true f
        wl = 0.5
        grid = wt.centered_grid((24, 24), spacing=wl / 16, wavelength=wl)
        f = wt.cylinders(grid, [((0.0, 0.0), 0.18, 0.01)])
        G = wt.build_domain_operator(grid)
        ring = wt.ring_sensors(24, radius=1.1)
        H = wt.build_sensor_operator(grid, ring)
        tx = wt.Transmitter("point", position=(1.2, 0.0))
        u_in = tx.field_on_grid(grid)
        z = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=60)).z
        u_in_sens = tx.field_at(ring.positions, grid.k_b)
        y_rytov = wt.rytov_transform(z + u_in_sens, u_in_sens)
        z_born = wt.born_predict(f, u_in, H)
        rel = np.linalg.norm(y_rytov - z_born) / np.linalg.norm(z_born)
        assert rel <= 0.05
