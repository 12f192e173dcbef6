"""Potential splits, domain policing and the Yosida regularization."""

import dataclasses
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pfcontrol as pfc
from conftest import child_env
from pfcontrol import potential
from pfcontrol.errors import OutOfDomain, RootSolveFailure


def _central(fn, r, delta=1e-6):
    return (fn(r + delta) - fn(r - delta)) / (2 * delta)


class TestQuartic:
    pot = pfc.quartic_double_well()

    def test_known_values(self):
        r = np.array([2.0])
        assert self.pot.dw_convex(r)[0] == 8.0
        assert self.pot.dw_rest(r)[0] == -2.0
        r = np.array([1.0, 0.0])
        w = self.pot.w_convex(r) + self.pot.w_rest(r)
        assert w == pytest.approx([0.0, 0.25])

    def test_not_singular(self):
        assert not self.pot.is_singular
        assert np.all(np.isinf(self.pot.distance_to_boundary(np.array([5.0]))))

    def test_split_derivative_consistency(self):
        r = np.linspace(-1.5, 1.5, 7)
        fd = _central(self.pot.w_convex, r)
        np.testing.assert_allclose(self.pot.dw_convex(r), fd, rtol=1e-8, atol=1e-8)
        fd2 = _central(self.pot.dw_convex, r)
        np.testing.assert_allclose(self.pot.d2w_convex_eff(r), fd2, rtol=1e-6, atol=1e-6)
        fd_rest = _central(self.pot.w_rest, r)
        np.testing.assert_allclose(self.pot.dw_rest(r), fd_rest, rtol=1e-8, atol=1e-8)

    def test_yosida_unit_eps_at_two(self):
        # x + x^3 = 2 has root 1, so the regularized slope is (2 - 1)/1 = 1.
        slope = self.pot.with_eps(1.0).dw_convex_eff(np.array([2.0]))[0]
        assert slope == pytest.approx(1.0, rel=1e-12)

    def test_resolvent_equation(self):
        r = np.linspace(-3.0, 3.0, 11)
        for eps in (1.0, 1e-2, 1e-4):
            j = self.pot.resolvent(r, eps)
            np.testing.assert_allclose(j + eps * j**3, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_outside_the_line(self, bad):
        # The domain is the open line, so the finite values are exactly inside;
        # the message names the first entry outside.
        r = np.array([0.5, bad, -np.inf, 2.0])
        first = re.escape(repr(bad))
        message = rf"^value {first} outside domain \(-inf, inf\) of the convex part$"
        for evaluate in (self.pot.dw_convex, self.pot.dw_and_d2w_convex_eff):
            with pytest.raises(OutOfDomain, match=message):
                evaluate(r)
        assert np.isfinite(self.pot.dw_and_d2w_convex_eff(np.array([-1.0e100, 1.0e100]))).all()

    def test_closure_admits_the_infinite_ends(self):
        assert self.pot.w_convex(np.array([-np.inf, np.inf])).tolist() == [np.inf, np.inf]
        with pytest.raises(OutOfDomain, match=r"^value nan outside domain \(-inf, inf\) "):
            self.pot.w_convex(np.array([1.0, np.nan]))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1.0e70, max_value=1.0e70))
    def test_products_agree_with_pow_property(self, r):
        # r * r * r and 0.25 (r r)(r r) in place of libm's r**3 and r**4, up
        # to where r**4 overflows.
        r = np.array([r])
        cube, quartic = r**3, 0.25 * r**4
        assert np.abs(self.pot.dw_convex(r) - cube) <= 2 * np.spacing(np.abs(cube))
        assert np.abs(self.pot.w_convex(r) - quartic) <= 3 * np.spacing(np.abs(quartic))


class TestLogarithmic:
    pot = pfc.log_double_well(c=2.0)

    def test_known_values(self):
        assert self.pot.dw_convex(np.array([0.5]))[0] == pytest.approx(math.log(3.0))
        assert self.pot.d2w_convex_eff(np.array([0.0]))[0] == pytest.approx(2.0)
        assert self.pot.w_rest(np.array([0.3]))[0] == pytest.approx(-2.0 * 0.09)

    def test_closure_of_convex_part_is_finite(self):
        vals = self.pot.w_convex(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(vals, 2.0 * math.log(2.0))

    def test_domain_violations_raise(self):
        with pytest.raises(OutOfDomain):
            self.pot.dw_convex(np.array([1.0]))
        with pytest.raises(OutOfDomain):
            self.pot.w_convex(np.array([1.5]))
        with pytest.raises(OutOfDomain):
            self.pot.d2w_convex_eff(np.array([-1.0]))

    def test_blow_up_towards_endpoints(self):
        assert self.pot.dw_convex(np.array([1.0 - 1e-12]))[0] > 25.0
        assert self.pot.dw_convex(np.array([-1.0 + 1e-12]))[0] < -25.0

    def test_yosida_defined_outside_domain(self):
        vals = self.pot.with_eps(1e-2).dw_convex_eff(np.array([-5.0, 5.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] < 0 < vals[1]

    def test_sandwich_and_eps_monotonicity(self):
        r = np.linspace(-0.95, 0.95, 21)
        exact = self.pot.dw_convex(r)
        prev_err = None
        for eps in (0.2, 0.1, 0.05, 0.025):
            reg = self.pot.with_eps(eps).dw_convex_eff(r)
            assert np.all(np.abs(reg) <= np.abs(exact) + 1e-12)
            assert np.all(reg * exact >= -1e-14)
            err = np.abs(reg - exact)
            if prev_err is not None:
                assert np.all(err <= prev_err + 1e-12)
            prev_err = err

    def test_yosida_prime_matches_fd(self):
        r = np.linspace(-0.8, 0.8, 9)
        eps = 1e-2
        reg = self.pot.with_eps(eps)
        fd = _central(reg.dw_convex_eff, r)
        slope = reg.d2w_convex_eff(r)
        np.testing.assert_allclose(slope, fd, rtol=1e-6)

    def test_envelope_below_exact_and_derivative(self):
        r = np.linspace(-0.9, 0.9, 9)
        eps = 1e-2
        reg = self.pot.with_eps(eps)
        env = reg.w_convex_eff(r)
        assert np.all(env <= self.pot.w_convex(r) + 1e-12)
        fd = _central(reg.w_convex_eff, r)
        np.testing.assert_allclose(reg.dw_convex_eff(r), fd, rtol=1e-6, atol=1e-8)

    def test_with_eps_switches_effective_mode(self):
        reg = self.pot.with_eps(1e-3)
        assert reg.yosida_eps == 1e-3
        r = np.array([0.5])
        assert reg.dw_convex_eff(r)[0] != self.pot.dw_convex_eff(r)[0]
        assert self.pot.dw_convex_eff(r)[0] == self.pot.dw_convex(r)[0]

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            pfc.log_double_well(c=0.0)

    def test_distance_to_boundary(self):
        d = self.pot.distance_to_boundary(np.array([-0.75, 0.0, 0.5, 0.875]))
        assert d.tolist() == [0.25, 1.0, 0.5, 0.125]


class TestLogLinear:
    pot = pfc.log_linear()

    def test_domain_and_values(self):
        assert self.pot.lo == -1.0 and math.isinf(self.pot.hi)
        assert self.pot.dw_convex(np.array([0.0]))[0] == 0.0
        assert self.pot.dw_convex(np.array([-0.5]))[0] == pytest.approx(-1.0)
        assert np.all(self.pot.w_rest(np.array([1.0, 7.0])) == 0.0)

    def test_resolvent_on_half_line(self):
        r = np.array([-0.999, 0.0, 10.0, 1e4])
        eps = 0.5
        j = self.pot.resolvent(r, eps)
        assert np.all(j > -1.0)
        np.testing.assert_allclose(j + eps * j / (1.0 + j), r, rtol=1e-12, atol=1e-12)

    def test_distance_to_boundary(self):
        # The infinite end is never the nearer one.
        d = self.pot.distance_to_boundary(np.array([-0.75, 0.0, 1.0e300]))
        assert d.tolist() == [0.25, 1.0, 1.0e300 + 1.0]


@pytest.mark.parametrize(
    "call",
    [
        "pfc.quartic_double_well(1e-3).dw_convex_eff(np.array([np.nan]))",
        "pfc.quartic_double_well(1e-3).dw_convex_eff(np.array([0.5, -np.inf]))",
        "pfc.log_linear(1e-3).dw_convex_eff(np.array([np.inf]))",
        # A convex derivative that is NaN everywhere is a failure on every
        # well, whether its ends are finite or not.
        "dataclasses.replace(pfc.quartic_double_well(1e-3),"
        " _dw_convex=lambda r: np.full_like(r, np.nan)).dw_convex_eff(np.array([0.5]))",
        "dataclasses.replace(pfc.log_double_well(2.0, 1e-3),"
        " _dw_convex=lambda r: np.full_like(r, np.nan)).resolvent([0.5, -0.3], 1e-3)",
        "dataclasses.replace(pfc.log_double_well(2.0, 1e-3),"
        " _dw_convex=lambda r: np.full_like(r, np.nan)).dw_convex_eff(np.array([0.5]))",
    ],
)
def test_resolvent_fails_instead_of_hanging(call):
    # In a child process with a timeout, so a regression fails the test
    # rather than hanging the suite.
    script = (
        "import dataclasses\nimport numpy as np\nimport pfcontrol as pfc\n"
        f"try:\n    {call}\nexcept pfc.RootSolveFailure:\n    print('RootSolveFailure')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.stdout.strip() == "RootSolveFailure", proc.stderr


@pytest.mark.parametrize(
    "change, message",
    [
        ({"yosida_eps": -1.0e-3}, "yosida_eps must be nonnegative"),
        ({"lo": 1.0, "hi": 1.0}, "domain must be a nonempty open interval"),
    ],
    ids=["eps", "domain"],
)
def test_potential_construction_errors(change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(pfc.log_double_well(2.0), **change)


def test_resolvent_needs_positive_eps():
    with pytest.raises(ValueError, match="^resolvent needs eps > 0$"):
        pfc.quartic_double_well().resolvent(np.array([0.5]), 0.0)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_resolvent_of_a_non_finite_value_raises(r):
    with pytest.raises(RootSolveFailure, match="^resolvent of a non-finite value$"):
        pfc.quartic_double_well(1.0e-3).resolvent(np.array([0.5, r]), 1.0e-3)


def test_resolvent_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(potential, "_ROOT_MAX_ITER", 2)
    with pytest.raises(RootSolveFailure, match="^resolvent iteration did not converge$"):
        pfc.log_double_well(2.0, 1.0e-3).resolvent(np.array([0.5]), 1.0e-3)


def test_resolvent_of_a_nan_slope_raises():
    nan_slope = dataclasses.replace(
        pfc.log_double_well(2.0, 1.0e-3), _dw_convex=lambda r: np.full_like(r, np.nan)
    )
    with pytest.raises(RootSolveFailure, match="^resolvent of a convex part with a NaN slope$"):
        nan_slope.resolvent(np.array([0.5, -0.3]), 1.0e-3)


def test_split_methods():
    pot = pfc.quartic_double_well()
    r = np.array([0.5, -0.5])
    np.testing.assert_allclose(pot.dw_convex(r), r**3)
    np.testing.assert_allclose(pot.d2w_rest(r), -1.0)
    np.testing.assert_allclose(pot.with_eps(1.0).dw_convex_eff(np.array([2.0])), [1.0])


@pytest.mark.parametrize("r", [1.0e300, -1.0e300])
def test_resolvent_of_huge_input(r):
    # x**3 overflows at the starting bracket end, so the root is reached by
    # about 660 bisection halvings before Newton takes over.
    eps = 1.0e-3
    pot = pfc.quartic_double_well(eps)
    x = pot.resolvent(np.array([r]), eps)
    assert np.all(np.isfinite(pot.dw_convex_eff(np.array([r]))))
    assert abs(x[0] + eps * x[0] ** 3 - r) <= 1.0e-14 * abs(r)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_yosida_monotone_property(a, b, eps):
    pot = pfc.log_double_well(c=2.0, yosida_eps=eps)
    ya, yb = pot.dw_convex_eff(np.array([a]))[0], pot.dw_convex_eff(np.array([b]))[0]
    assert (ya - yb) * (a - b) >= -1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=1e-3, max_value=10.0))
def test_quartic_yosida_sandwich_property(r, eps):
    pot = pfc.quartic_double_well()
    reg = pot.with_eps(eps).dw_convex_eff(np.array([r]))[0]
    exact = pot.dw_convex(np.array([r]))[0]
    assert abs(reg) <= abs(exact) + 1e-10
    assert reg * exact >= -1e-14


WELLS = {
    "log": pfc.log_double_well(c=2.0),
    "quartic": pfc.quartic_double_well(),
    "loglinear": pfc.log_linear(),
}


def _root_iterations(pot, r, eps, start=None):
    """Resolvent iterations, counted as evaluations of the convex slope."""
    calls = []
    d2w = pot._d2w_convex
    counted = dataclasses.replace(pot, _d2w_convex=lambda x: calls.append(1) or d2w(x))
    counted.resolvent(r, eps, start)
    return len(calls)


# Iterations of one resolvent call on 64 points for eps = 1e-3, 1e-2, 1e-1, 1
# under the earlier termination rule, which bisected every entry whose Newton
# step landed on its bracket end, converged ones included.
EARLIER_ITERATIONS = [
    ("log", (-0.95, 0.95), (53, 54, 55, 53)),
    ("log", (-3.0, 3.0), (64, 66, 68, 69)),
    ("quartic", (-3.0, 3.0), (53, 55, 56, 56)),
    ("loglinear", (-3.0, 3.0), (99, 103, 105, 108)),
    ("loglinear", (-1.0e6, 1.0e6), (83, 86, 90, 93)),
]


@pytest.mark.parametrize("well,interval,earlier", EARLIER_ITERATIONS)
def test_resolvent_iterations_not_above_earlier_rule(well, interval, earlier):
    r = np.linspace(*interval, 64)
    for eps, bound in zip((1e-3, 1e-2, 1e-1, 1.0), earlier):
        assert _root_iterations(WELLS[well], r, eps) <= bound


def test_converged_entries_are_not_bisected_again():
    r = np.linspace(-0.95, 0.95, 64)
    assert _root_iterations(WELLS["log"], r, 1e-3) <= 12


def _bisected_root(pot, r, eps):
    """Root of x + eps * dw_convex(x) = r by plain bisection down to adjacent
    floats. The root lies between 0 and r, because dw_convex has the sign of x."""
    lo = max(min(r, 0.0), np.nextafter(pot.lo, np.inf))
    hi = min(max(r, 0.0), np.nextafter(pot.hi, -np.inf))

    def g(x):
        return x + eps * pot._dw_convex(np.array([x]))[0] - r

    with np.errstate(divide="ignore"):
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if g(mid) <= 0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return lo if abs(g(lo)) <= abs(g(hi)) else hi


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(WELLS)),
    st.floats(min_value=-1.0e6, max_value=1.0e6),
    st.floats(min_value=1e-3, max_value=1.0),
)
# Starting at the singular end -1, Newton crawls off it in steps of about
# 1 + x, far below ROOT_XTOL; a rule that trusted one small step stopped there.
@example("loglinear", -1.0e6, 1e-3)
@example("loglinear", -1.0e3, 1e-3)
@example("log", 1.03, 1e-3)
def test_resolvent_matches_bisection(well, r, eps):
    pot = WELLS[well]
    x = pot.resolvent(np.array([r]), eps)[0]
    ref = _bisected_root(pot, r, eps)
    assert abs(x - ref) <= 32 * np.spacing(abs(ref))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(WELLS)),
    st.floats(min_value=-1.0e6, max_value=1.0e6),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
# From next to a singular end Newton crawls off it in small moves; one of them
# must not be taken for convergence, however close the root is to that end.
@example("loglinear", -1.0e6, 1e-3, 0.5)
@example("log", 1.03, 1e-3, 0.5)
@example("log", -3.6e5, 2.7e-3, 0.5)
def test_warm_started_resolvent_matches_bisection(well, r, eps, t):
    pot = WELLS[well]
    ref = _bisected_root(pot, r, eps)
    lo = max(min(r, 0.0), np.nextafter(pot.lo, np.inf))
    hi = min(max(r, 0.0), np.nextafter(pot.hi, -np.inf))
    starts = np.array([
        lo, hi, np.nextafter(pot.lo, np.inf), np.nextafter(pot.hi, -np.inf),
        ref, np.nextafter(ref, -np.inf), np.nextafter(ref, np.inf),
        0.5 * (lo + hi), lo + t * (hi - lo),
    ])
    x = pot.resolvent(np.full(starts.shape, r), eps, starts)
    assert np.all(np.abs(x - ref) <= 32 * np.spacing(abs(ref)))


@pytest.mark.parametrize("eps", [1e-3, 1e-1, 1.0])
@pytest.mark.parametrize("well", sorted(WELLS))
def test_start_at_the_root_takes_one_iteration(well, eps):
    r = np.concatenate([np.linspace(-3.0, 3.0, 64), np.linspace(-1.0e6, 1.0e6, 64)])
    root = WELLS[well].resolvent(r, eps)
    assert _root_iterations(WELLS[well], r, eps, root) == 1


@pytest.mark.parametrize(
    "pot",
    [pfc.log_double_well(2.0), pfc.log_double_well(2.0, 1e-3), pfc.quartic_double_well(1e-2),
     pfc.log_linear(1e-3)],
    ids=["log-exact", "log-yosida", "quartic-yosida", "loglinear-yosida"],
)
def test_value_and_slope_together(pot):
    r = np.linspace(-0.9, 0.9, 19)
    value, slope = pot.dw_and_d2w_convex_eff(r)
    assert np.array_equal(value, pot.dw_convex_eff(r))
    assert np.array_equal(slope, pot.d2w_convex_eff(r))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["log-exact", "log-yosida", "quartic", "loglinear-yosida"]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_rows_evaluate_as_alone_property(well, rows, cells, seed):
    # Batched marches and the sweeps evaluate many levels in one call, cold
    # and warm; each row must come out as it would alone.
    pot = {
        "log-exact": pfc.log_double_well(2.0),
        "log-yosida": pfc.log_double_well(2.0, 1e-3),
        "quartic": pfc.quartic_double_well(),
        "loglinear-yosida": pfc.log_linear(1e-3),
    }[well]
    rng = np.random.default_rng(seed)
    r0 = rng.uniform(-0.99, 0.99, (rows, cells))
    r = r0 + rng.normal(0.0, 1e-2, (rows, cells)).clip(-0.005, 0.005)
    value0, slope0 = pot.dw_and_d2w_convex_eff(r0)
    for previous in (None, (r0, value0, slope0)):
        value, slope = pot.dw_and_d2w_convex_eff(r, previous)
        for i in range(rows):
            alone = None if previous is None else [a[i].copy() for a in previous]
            v, s = pot.dw_and_d2w_convex_eff(r[i].copy(), alone)
            assert np.array_equal(value[i], v) and np.array_equal(slope[i], s)
