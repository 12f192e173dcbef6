"""Control layer: projection, stationarity measure, bang-bang classification,
seeded admissible controls, and the projected L-BFGS optimizer."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_spec
from hypothesis import given, settings
from hypothesis import strategies as st

import pfcontrol as pfc
from pfcontrol import control
from pfcontrol.dynamics import solve_state
from pfcontrol.problem import broadcast


def _small_spec(**kw):
    return desk_spec("regular", cells=16, steps=8, **kw)


def _boxed(lower, upper, steps, cells):
    """A desk spec of the given size with the box [lower, upper]."""
    spec = desk_spec("regular", cells=cells, steps=steps)
    return dataclasses.replace(spec, box=pfc.ControlBox(lower=lower, upper=upper))


class TestProjection:
    def test_clamps_nodewise(self):
        spec = _boxed(-1.0, 1.0, steps=1, cells=3)
        u = np.array([[-2.0, 0.5, 3.0]])
        assert np.array_equal(control.project_box(u, spec), [[-1.0, 0.5, 1.0]])

    def test_spatial_bound_arrays(self):
        spec = _boxed(np.array([0.0, -1.0]), np.array([0.5, 2.0]), steps=2, cells=2)
        u = np.array([[1.0, -3.0], [-1.0, 1.5]])
        assert np.array_equal(control.project_box(u, spec), [[0.5, -1.0], [0.0, 1.5]])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50), min_size=4, max_size=4
        ),
        st.lists(
            st.floats(min_value=-50, max_value=50), min_size=4, max_size=4
        ),
    )
    def test_projection_is_nonexpansive(self, a, b):
        spec = _boxed(-2.0, 3.0, steps=1, cells=4)
        pa = control.project_box(np.array([a]), spec)
        pb = control.project_box(np.array([b]), spec)
        assert np.all(np.abs(pa - pb) <= np.abs(np.array([a]) - np.array([b])) + 1e-15)


class TestStationarity:
    def test_zero_gradient_is_stationary(self):
        spec = _small_spec()
        u = np.zeros((8, 16))
        assert pfc.stationarity_residual(u, np.zeros_like(u), spec) == 0.0

    def test_pinned_face_against_positive_gradient(self):
        spec = _small_spec()
        u = np.full((8, 16), -1.0)
        g = np.full_like(u, 0.3)
        assert pfc.stationarity_residual(u, g, spec) == 0.0

    def test_interior_point_measures_gradient_norm(self):
        spec = _small_spec()
        u = np.zeros((8, 16))
        rng = np.random.default_rng(0)
        g = 0.1 * rng.uniform(-1.0, 1.0, u.shape)
        res = pfc.stationarity_residual(u, g, spec)
        assert res == pytest.approx(pfc.lq_norm(g, spec), rel=1e-14)


class TestBangBang:
    def test_consistent_partition(self):
        box = pfc.ControlBox(lower=-1.0, upper=1.0)
        q = np.array([[2.0, -2.0, 0.0, 1.0]])
        u = np.array([[-1.0, 1.0, 0.2, -1.0]])
        rep = pfc.bang_bang_classify(u, q, box)
        assert rep.frac_lower_consistent == 1.0
        assert rep.frac_upper_consistent == 1.0
        assert rep.n_positive == 2 and rep.n_negative == 1 and rep.n_neutral == 1
        assert rep.frac_at_lower == 0.5
        assert rep.frac_interior == 0.25

    def test_interior_node_breaks_consistency(self):
        box = pfc.ControlBox()
        q = np.array([[1.0, 1.0]])
        u = np.array([[-1.0, 0.0]])
        rep = pfc.bang_bang_classify(u, q, box)
        assert rep.frac_lower_consistent == 0.5

    def test_tol_override(self):
        box = pfc.ControlBox()
        q = np.array([[0.5, -0.5]])
        u = np.array([[0.0, 0.0]])
        rep = pfc.bang_bang_classify(u, q, box, tol=1.0)
        assert rep.n_neutral == 2
        assert rep.frac_lower_consistent == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(pfc.ShapeMismatch):
            pfc.bang_bang_classify(np.zeros((1, 2)), np.zeros((2, 1)), pfc.ControlBox())


class TestRandomControl:
    def test_inside_box_and_deterministic(self):
        spec = _small_spec()
        u1 = pfc.random_admissible_control(spec, 42)
        u2 = pfc.random_admissible_control(spec, 42)
        u3 = pfc.random_admissible_control(spec, 43)
        lo, hi = spec.box.bounds((spec.tgrid.steps, spec.grid.ncells))
        assert np.all(u1 >= lo) and np.all(u1 <= hi)
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)

    def test_respects_tight_box(self):
        spec = _small_spec()
        spec = dataclasses.replace(spec, box=pfc.ControlBox(lower=0.2, upper=0.3))
        u = pfc.random_admissible_control(spec, 7)
        assert np.all(u >= 0.2) and np.all(u <= 0.3)


class TestSharedHelpers:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.5, np.full((3, 4), 0.5)),
            (np.arange(4.0), np.tile(np.arange(4.0), (3, 1))),
            (np.ones((3, 4)), np.ones((3, 4))),
        ],
    )
    def test_broadcast(self, value, expected):
        out = broadcast(value, (3, 4), "box.lower")
        assert out.shape == (3, 4) and np.array_equal(out, expected)

    def test_broadcast_bad_shape(self):
        with pytest.raises(
            pfc.ShapeMismatch, match=r"^box\.lower: shape \(3,\) incompatible with \(3, 4\)$"
        ):
            broadcast(np.ones(3), (3, 4), "box.lower")

    def test_random_admissible_control_unchanged(self):
        spec = desk_spec()
        rng = np.random.default_rng(11)
        shape = (spec.tgrid.steps, spec.grid.ncells)
        lo, hi = np.full(shape, -1.0), np.full(shape, 1.0)
        raw = rng.uniform(lo, hi)
        smooth = np.stack([spec.grid.helmholtz_solve(level) for level in raw])
        expected = np.clip(smooth, lo, hi)
        assert np.array_equal(pfc.random_admissible_control(spec, 11), expected)


def _reference_direction(grad, pairs, free, spec):
    """The two-loop recursion with every curvature formed where it is used:
    the reference the curvature cache of control._lbfgs_direction must match
    to the bit."""

    def inner(a, b):
        return control.lq_inner(a, b * free, spec)

    pairs = [(s, y) for s, y in pairs if inner(s, y) > control._CURVATURE * inner(y, y)]
    q, alphas = grad * free, []
    for s, y in reversed(pairs):
        alphas.append(control.lq_inner(s, q, spec) / inner(s, y))
        q -= alphas[-1] * y * free
    if pairs:
        q *= inner(*pairs[-1]) / inner(pairs[-1][1], pairs[-1][1])
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - control.lq_inner(y, q, spec) / inner(s, y)) * s * free
    return -q


def _curved_pairs(rng, shape, count):
    """count (s, y) pairs with y = 2 s + noise: positive curvature."""
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(shape)
        pairs.append((s, 2.0 * s + 0.1 * rng.standard_normal(shape)))
    return pairs


class TestLbfgsDirection:
    def test_secant_equation_and_free_nodes(self):
        # With the newest pair kept, H y = s for that pair; nodes outside the
        # free set get no move.
        spec = _small_spec()
        rng = np.random.default_rng(3)
        shape = (spec.tgrid.steps, spec.grid.ncells)
        pairs = _curved_pairs(rng, shape, 3)
        free = np.ones(shape, dtype=bool)
        s, y = pairs[-1]
        assert np.allclose(-control._lbfgs_direction(y, pairs, free, spec), s, atol=1e-12)
        free[0] = False
        g = rng.standard_normal(shape)
        d = control._lbfgs_direction(g, pairs, free, spec)
        assert np.all(d[0] == 0.0)
        assert pfc.lq_inner(g, d, spec) < 0.0

    def test_pairs_without_curvature_are_skipped(self):
        spec = _small_spec()
        g = np.ones((spec.tgrid.steps, spec.grid.ncells))
        free = np.ones(g.shape, dtype=bool)
        bad = [(g, -g)]
        assert np.array_equal(control._lbfgs_direction(g, bad, free, spec), -g)

    @pytest.mark.parametrize(
        "count,partial,flat",
        [(10, False, None), (10, True, None), (6, True, 3), (1, True, None), (0, True, None)],
        ids=["ten", "ten-partial", "one-flat", "one", "none"],
    )
    def test_matches_the_reference_bit_for_bit(self, count, partial, flat):
        # 16x32 pairs; `flat` turns that pair's y into -s, without curvature.
        spec = desk_spec()
        shape = (spec.tgrid.steps, spec.grid.ncells)
        rng = np.random.default_rng(count)
        pairs = _curved_pairs(rng, shape, count)
        if flat is not None:
            pairs[flat] = (pairs[flat][0], -pairs[flat][0])
        free = rng.random(shape) < 0.7 if partial else np.ones(shape, dtype=bool)
        grad = rng.standard_normal(shape)
        got = control._lbfgs_direction(grad, pairs, free, spec)
        assert got.tobytes() == _reference_direction(grad, pairs, free, spec).tobytes()

    def test_inner_products_per_direction(self, monkeypatch):
        # Each kept pair's s.y and y.y are formed once: 4 inner products per
        # pair, where forming them at every use takes 6 per pair and 2 more.
        spec = desk_spec()
        shape = (spec.tgrid.steps, spec.grid.ncells)
        rng = np.random.default_rng(4)
        pairs, calls = _curved_pairs(rng, shape, 10), []
        inner = control.lq_inner

        def counted(a, b, spec):
            calls.append(1)
            return inner(a, b, spec)

        monkeypatch.setattr(control, "lq_inner", counted)
        free = np.ones(shape, dtype=bool)
        control._lbfgs_direction(rng.standard_normal(shape), pairs, free, spec)
        assert len(calls) == 40


class TestOptimize:
    def test_zero_cost_terminates_immediately(self):
        spec = dataclasses.replace(_small_spec(), cost=pfc.CostSpec())
        report = pfc.optimize(spec)
        assert report.termination == "stationary"
        assert report.iterations == 0
        assert report.j_final == 0.0
        assert report.residual_final == 0.0
        assert report.bang_bang.frac_lower_consistent == 1.0

    def test_descent_run_bookkeeping(self):
        spec = _small_spec()
        opts = pfc.OptimizeOptions(stat_tol=1.0e-10, max_iter=15)
        report = pfc.optimize(spec, opts=opts)
        assert report.termination == "max_iterations"
        assert report.iterations == 15
        j = np.array(report.j_history)
        assert np.all(np.diff(j) <= 0.0)
        assert len(report.residual_history) == len(j)
        assert len(report.evaluations_history) == len(j) - 1
        assert all(n >= 1 for n in report.evaluations_history)
        lo, hi = spec.box.bounds((spec.tgrid.steps, spec.grid.ncells))
        assert np.all(report.u_opt >= lo) and np.all(report.u_opt <= hi)

    def test_evaluations_count_every_state_solve(self, monkeypatch):
        # Every state solve is the initial solve of a start or a line-search
        # trial of an accepted iterate: the stationarity check costs none.
        solves, reports = [], []
        solo, run = control.solve_state, control._optimize_single

        def counting_solve(u, spec):
            solves.append(u)
            return solo(u, spec)

        def recording_run(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(control, "solve_state", counting_solve)
        monkeypatch.setattr(control, "_optimize_single", recording_run)
        opts = pfc.OptimizeOptions(stat_tol=1.0e-4, max_iter=400, starts=(1,))
        best = pfc.optimize(_small_spec(), opts=opts)
        assert len(reports) == 2 and best in reports
        assert all(r.termination == "stationary" for r in reports)
        assert len(solves) == sum(sum(r.evaluations_history) for r in reports) + len(reports)

    def test_line_search_stall_is_reported(self, monkeypatch):
        # A cost that rises off the start rejects every trial.
        values = iter([1.0] + [2.0] * 100)
        monkeypatch.setattr(control, "cost_value", lambda state, cost: next(values))
        report = pfc.optimize(_small_spec())
        assert report.termination == "line_search_stalled"
        assert report.iterations == 0
        assert report.j_history == [1.0] and report.evaluations_history == []

    def test_ascent_direction_resets_the_memory(self, monkeypatch):
        # The third L-BFGS direction is turned uphill: the optimizer drops its
        # two pairs, takes the steepest-descent step and keeps descending.
        calls, direction = [], control._lbfgs_direction

        def uphill_once(grad, pairs, free, spec):
            calls.append((pairs, len(pairs)))
            d = direction(grad, pairs, free, spec)
            return -d if len(calls) == 3 else d

        monkeypatch.setattr(control, "_lbfgs_direction", uphill_once)
        opts = pfc.OptimizeOptions(stat_tol=1.0e-4, max_iter=400)
        report = pfc.optimize(_small_spec(), opts=opts)
        assert [n for _, n in calls[:4]] == [0, 1, 2, 1]
        assert calls[2][0] == []
        # The steepest-descent step is accepted at full length.
        assert report.evaluations_history[2] == 1
        assert report.termination == "stationary"
        assert np.all(np.diff(report.j_history) <= 0.0)

    def test_reaches_stationarity_at_loose_tol(self):
        spec = _small_spec()
        opts = pfc.OptimizeOptions(stat_tol=1.0e-4, max_iter=400)
        report = pfc.optimize(spec, opts=opts)
        assert report.termination == "stationary"
        assert report.residual_final <= 1.0e-4
        # Cross-check the reported residual independently.
        grad = pfc.reduced_gradient(report.u_opt, spec)
        res = pfc.stationarity_residual(report.u_opt, grad, spec)
        assert res == pytest.approx(report.residual_final, rel=1e-10)

    def test_multistart_keeps_best(self):
        spec = _small_spec()
        opts = pfc.OptimizeOptions(stat_tol=1.0e-12, max_iter=4, starts=(1,))
        single = pfc.optimize(spec, opts=dataclasses.replace(opts, starts=()))
        multi = pfc.optimize(spec, opts=opts)
        assert multi.j_final <= single.j_final
        assert multi.start_seed in (None, 1)

    def test_multistart_reports_lowest_start(self):
        # With no iterations each start's j_final is its starting cost, and
        # the ones start is beaten by a random start.
        spec = desk_spec()
        u0 = np.ones((spec.tgrid.steps, spec.grid.ncells))
        opts = pfc.OptimizeOptions(max_iter=0, starts=(1, 2, 3))
        single = dataclasses.replace(opts, starts=())
        j = {None: pfc.optimize(spec, u0, single).j_final}
        for seed in opts.starts:
            start = control.random_admissible_control(spec, seed)
            j[seed] = pfc.optimize(spec, start, single).j_final
        multi = pfc.optimize(spec, u0, opts)
        assert multi.start_seed == min(j, key=j.get) == 3
        assert multi.j_final == j[3] < j[None]

    def test_control_hypotheses_enforced(self):
        spec = _small_spec()
        decoupled = dataclasses.replace(
            spec, physics=pfc.PhysicsParams(visc=0.0, latent=0.0, coupling=1.0)
        )
        with pytest.raises(pfc.ValidationError) as err:
            pfc.optimize(decoupled)
        assert any("latent" in v for v in err.value.violations)

    def test_coupling_must_be_positive(self):
        spec = _small_spec()
        uncoupled = dataclasses.replace(
            spec, physics=dataclasses.replace(spec.physics, coupling=0.0)
        )
        with pytest.raises(pfc.ValidationError) as err:
            pfc.optimize(uncoupled)
        assert err.value.violations == [
            "physics.coupling: must be positive for the control problem"
        ]

    @pytest.mark.parametrize("eps", [0.0, 1.0e-3], ids=["exact", "yosida"])
    def test_inviscid_singular_well_is_one_violation(self, eps):
        # The exact well cannot be built without viscosity (the constructor's
        # "exact mode" text). The regularized one can, and solves, but the
        # control theory needs visc > 0 (optimize's text).
        well = desk_spec("log", yosida_eps=eps)
        with pytest.raises(pfc.ValidationError) as err:
            spec = dataclasses.replace(well, physics=pfc.PhysicsParams(visc=0.0))
            solve_state(np.zeros((spec.tgrid.steps, spec.grid.ncells)), spec)
            pfc.optimize(spec)
        assert [v.startswith("physics.visc") for v in err.value.violations] == [True]
        assert ("exact mode" in err.value.violations[0]) == (eps == 0.0)

    def test_initial_guess_shape_checked(self):
        spec = _small_spec()
        with pytest.raises(pfc.ShapeMismatch):
            pfc.optimize(spec, u0=np.zeros((3, 3)))

    def test_initial_guess_projected_first(self):
        spec = dataclasses.replace(_small_spec(), cost=pfc.CostSpec())
        u0 = np.full((8, 16), 5.0)
        report = pfc.optimize(spec, u0=u0)
        assert np.all(report.u_opt <= 1.0)


_MULTI_START_OPTS = pfc.OptimizeOptions(stat_tol=1.0e-3, max_iter=400, starts=(1, 2, 3))


@pytest.fixture(scope="class")
def multi_start_runs():
    """The solo run of every start of _MULTI_START_OPTS on the desk problem,
    and the multi-start run. The first start is the ones control: its run is
    the longest, and seed 1's run ends lowest."""
    spec = desk_spec()
    u0 = np.ones((spec.tgrid.steps, spec.grid.ncells))
    solo = dataclasses.replace(_MULTI_START_OPTS, starts=())
    starts = [u0] + [pfc.random_admissible_control(spec, s) for s in _MULTI_START_OPTS.starts]
    runs = [pfc.optimize(spec, start, solo) for start in starts]
    return runs, pfc.optimize(spec, u0, _MULTI_START_OPTS)


class TestMultiStart:
    """optimize runs its starts one after another and keeps the lowest."""

    def test_report_is_the_best_solo_run(self, multi_start_runs):
        runs, multi = multi_start_runs
        best, seed = runs[0], None
        for s, report in zip(_MULTI_START_OPTS.starts, runs[1:]):
            if report.j_final < best.j_final:
                best, seed = report, s
        assert seed == 1
        assert multi.start_seed == seed
        assert np.array_equal(multi.u_opt, best.u_opt)
        assert multi.j_history == best.j_history
        assert multi.residual_history == best.residual_history
        assert multi.evaluations_history == best.evaluations_history

    def test_the_first_failing_start_raises_its_error(self, monkeypatch):
        # Seed 2's and seed 3's starts both fail their first state solve;
        # seed 2 comes first, so its error ends the run and seed 3 never runs.
        spec, solo = desk_spec(), control.solve_state
        failures = {
            s: (pfc.random_admissible_control(spec, s), pfc.NewtonDivergence(f"start {s}"))
            for s in (2, 3)
        }
        solves = []

        def failing(u, spec):
            solves.append(u)
            for start, failure in failures.values():
                if np.array_equal(u, start):
                    raise failure
            return solo(u, spec)

        monkeypatch.setattr(control, "solve_state", failing)
        with pytest.raises(pfc.NewtonDivergence) as info:
            pfc.optimize(spec, opts=_MULTI_START_OPTS)
        assert info.value is failures[2][1]
        assert np.array_equal(solves[-1], failures[2][0])
        assert not any(np.array_equal(u, failures[3][0]) for u in solves)


def test_yosida_ladder_of_optimal_values_is_first_order():
    # |J_eps - J_exact| at eps 1e-1, 1e-2, 1e-3 measured 4.20e-5, 4.76e-6 and
    # 4.79e-7. The optimal controls converge too slowly for a rate.
    stat_tol = 1.0e-5
    opts = pfc.OptimizeOptions(stat_tol=stat_tol, max_iter=2000)
    exact_spec = desk_spec("log", cells=16, steps=8)
    exact = pfc.optimize(exact_spec, opts=opts)
    assert exact.termination == "stationary"
    gaps = []
    for eps in (1.0e-1, 1.0e-2, 1.0e-3):
        report = pfc.optimize(desk_spec("log", cells=16, steps=8, yosida_eps=eps), opts=opts)
        assert report.termination == "stationary"
        gaps.append(abs(report.j_final - exact.j_final))
    slopes = [np.log10(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(0.8 <= slope <= 1.2 for slope in slopes), (gaps, slopes)
    # The eps = 1e-3 optimum is nearly stationary for the exact problem.
    grad = pfc.reduced_gradient(report.u_opt, exact_spec)
    residual = pfc.stationarity_residual(report.u_opt, grad, exact_spec)
    assert residual <= 2.0 * stat_tol
