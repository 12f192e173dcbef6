"""Double-well potentials split into a convex part and a smooth remainder.

Each potential W = w_convex + w_rest, with w_convex convex and possibly
singular on an open interval, and w_rest smooth with bounded curvature.
The time stepper treats the derivative of the convex part implicitly and the
derivative of the remainder explicitly, which is what makes the scheme
unconditionally energy stable.

For singular convex parts the derivative can be replaced by its Yosida
regularization with parameter eps: dw_eps(r) = (r - resolvent(r)) / eps where
resolvent(r) solves x + eps * dw_convex(x) = r. The regularization is globally
defined, Lipschitz with constant 1/eps, and satisfies |dw_eps| <= |dw_convex|
pointwise on the domain.

The resolvent is a vectorized root solve: Newton steps inside a bracket that
starts as [min(r, 0), max(r, 0)] cut to the open domain (an infinite end is
an end at +-inf), which holds the root because every convex part here has
dw_convex(0) = 0 and dw_convex increasing. The bracket shrinks with every
evaluation; bisection replaces a step that leaves it or fails to halve the
previous move. An entry ends, and stays, when its move is below ROOT_XTOL
and either zero or at most half of a previous move, so a converged entry is
never bisected again, and Newton's tiny but growing steps away from a
singular end are never taken for convergence.

A caller that solved at a nearby r0 can start Newton from there instead of
from r: dw_and_d2w_convex_eff takes its earlier evaluation (r0, value,
slope) and starts at the root at r0 moved along the resolvent's slope. Such
a warm entry may also end after its first move, if that move is below
ROOT_XTOL and at most _WARM_STOP times its distance to the domain end. A
Newton crawl off a singular end, from distance d towards a root at distance
D, moves about d * ln(D / d), so it passes that test only once d is within
0.1% of D, where Newton has converged.

There is one evaluator per job: w_convex, dw_convex, w_rest, dw_rest and
d2w_rest are exact; dw_convex_eff, d2w_convex_eff, dw_and_d2w_convex_eff
(value and slope from one resolvent solve) and w_convex_eff (the Moreau
envelope when regularized) follow the potential's yosida_eps, which
with_eps(eps) replaces.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import OutOfDomain, RootSolveFailure

__all__ = [
    "Potential",
    "quartic_double_well",
    "log_double_well",
    "log_linear",
]

#: Relative step tolerance of the resolvent root solve; a few ulps, because
#: the root error is amplified by 1/eps in the Yosida values built from it.
ROOT_XTOL = 1.0e-15
#: Root iterations: a bisection step halves the bracket, whose width |r| falls
#: from below 2**1024 to the smallest subnormal 2**-1074 in about 2100
#: halvings, so every bracket collapses to adjacent floats before this.
_ROOT_MAX_ITER = 2200
#: A warm-started entry may end after one move at most this fraction of its
#: distance to the nearer domain end (see Potential.resolvent).
_WARM_STOP = 1.0e-3


@dataclasses.dataclass(frozen=True)
class Potential:
    """A split potential with optional Yosida regularization of the convex part.

    Attributes:
        lo, hi: open domain of the convex part's derivative (+-inf if entire).
        yosida_eps: regularization parameter; 0 means exact evaluation.
    """

    lo: float
    hi: float
    yosida_eps: float
    _w_convex: Callable[[np.ndarray], np.ndarray]
    _dw_convex: Callable[[np.ndarray], np.ndarray]
    _d2w_convex: Callable[[np.ndarray], np.ndarray]
    _w_rest: Callable[[np.ndarray], np.ndarray]
    _dw_rest: Callable[[np.ndarray], np.ndarray]
    _d2w_rest: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.yosida_eps < 0:
            raise ValueError("yosida_eps must be nonnegative")
        if not self.lo < self.hi:
            raise ValueError("domain must be a nonempty open interval")

    @property
    def noise_floor(self) -> float:
        """Evaluation noise of the Yosida values, 16 ulps of the resolvent root
        amplified by 1/eps; 0 in exact mode. The Newton tolerance of a step
        cannot go below it."""
        return 16.0 * np.finfo(float).eps / self.yosida_eps if self.yosida_eps > 0 else 0.0

    # -- domain ---------------------------------------------------------------

    @property
    def is_singular(self) -> bool:
        return math.isfinite(self.lo) or math.isfinite(self.hi)

    def contains(self, r: np.ndarray, margin: float = 0.0) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (r > self.lo + margin) & (r < self.hi - margin)

    def distance_to_boundary(self, r: np.ndarray) -> np.ndarray:
        """Pointwise distance to the nearest domain endpoint (inf if entire)."""
        r = np.asarray(r, dtype=float)
        return np.minimum(r - self.lo, self.hi - r)

    def _require_inside(self, r: np.ndarray, closure: bool = False) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if closure:
            ok = (r >= self.lo) & (r <= self.hi)
        else:  # on the entire line, exactly the finite entries are inside
            ok = (r > self.lo) & (r < self.hi) if self.is_singular else np.isfinite(r)
        if not ok.all():
            bad = float(np.asarray(r)[~ok].flat[0])
            raise OutOfDomain(
                f"value {bad!r} outside domain ({self.lo}, {self.hi}) of the convex part"
            )
        return r

    # -- exact evaluation -------------------------------------------------------

    def w_convex(self, r: np.ndarray) -> np.ndarray:
        """Convex part; finite on the domain closure for the stock kinds."""
        return self._w_convex(self._require_inside(r, closure=True))

    def dw_convex(self, r: np.ndarray) -> np.ndarray:
        return self._dw_convex(self._require_inside(r))

    def w_rest(self, r: np.ndarray) -> np.ndarray:
        return self._w_rest(np.asarray(r, dtype=float))

    def dw_rest(self, r: np.ndarray) -> np.ndarray:
        return self._dw_rest(np.asarray(r, dtype=float))

    def d2w_rest(self, r: np.ndarray) -> np.ndarray:
        return self._d2w_rest(np.asarray(r, dtype=float))

    # -- Yosida regularization ---------------------------------------------------

    def with_eps(self, eps: float) -> "Potential":
        return dataclasses.replace(self, yosida_eps=float(eps))

    def resolvent(
        self, r: np.ndarray, eps: float, start: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve x + eps * dw_convex(x) = r for x in the open domain.

        Bracketed Newton with bisection fallback; the map is strictly
        increasing, so the root is unique, and it lies between 0 and r as
        dw_convex(0) = 0: the bracket starts as [min(r, 0), max(r, 0)] cut to
        the domain. Newton starts at r, or at `start` (warm) when given, each
        clipped to the bracket. A NaN slope raises RootSolveFailure. A Newton
        step is kept only if it stays in the closed bracket and moves at most
        half as far as the step before it; otherwise the entry bisects. An
        entry is done, and stays where it is, once its move is below
        ROOT_XTOL and at most half of the move before it. The first move ends
        a cold entry only if it is zero: from a start at a singular endpoint
        Newton crawls in steps far below ROOT_XTOL that double each time. It
        ends a warm entry if it is also at most _WARM_STOP times the distance
        to the nearer domain end, which a crawl passes only once converged
        (see the module docstring); a bisection move is half the bracket,
        which holds the root. Each entry's root is independent of the other
        entries of r.
        """
        if eps <= 0:
            raise ValueError("resolvent needs eps > 0")
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.isfinite(r).all():
            raise RootSolveFailure("resolvent of a non-finite value")
        lo, hi = np.minimum(r, 0.0), np.maximum(r, 0.0)
        if math.isfinite(self.lo):
            lo = np.maximum(lo, math.nextafter(self.lo, math.inf))
        if math.isfinite(self.hi):
            hi = np.minimum(hi, math.nextafter(self.hi, -math.inf))
        x = np.clip(r if start is None else start, lo, hi)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for it in range(_ROOT_MAX_ITER):
                g = x + eps * self._dw_convex(x) - r
                lo = np.where(g <= 0, x, lo)
                hi = np.where(g > 0, x, hi)
                x_new = x - g / (1.0 + eps * self._d2w_convex(x))
                if it:
                    x_new = np.where(done, x, x_new)
                move = np.abs(x_new - x)
                newton = (lo <= x_new) & (x_new <= hi)
                if it:
                    half = 0.5 * last
                    newton &= move <= half
                if not newton.all():
                    x_new = np.where(newton, x_new, 0.5 * (lo + hi))
                    move = np.abs(x_new - x)
                done = move <= ROOT_XTOL * (1.0 + np.abs(x_new))
                if it:
                    done &= move <= half
                elif start is None:
                    done &= move == 0
                else:
                    done &= move <= _WARM_STOP * self.distance_to_boundary(x_new)
                x, last = x_new, move
                if done.all():
                    break
            else:
                raise RootSolveFailure("resolvent iteration did not converge")
        if np.isnan(g).any():
            raise RootSolveFailure("resolvent of a convex part with a NaN slope")
        return x

    # -- effective (mode-respecting) evaluation -----------------------------------

    def dw_convex_eff(self, r: np.ndarray) -> np.ndarray:
        """Derivative of the convex part as driven by the dynamics (exact or Yosida)."""
        return self.dw_and_d2w_convex_eff(r)[0]

    def d2w_convex_eff(self, r: np.ndarray) -> np.ndarray:
        return self.dw_and_d2w_convex_eff(r)[1]

    def dw_and_d2w_convex_eff(
        self, r: np.ndarray, previous: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(dw_convex_eff(r), d2w_convex_eff(r)): exact, or the Yosida value
        and its derivative (implicit differentiation of the resolvent) from
        one resolvent solve when regularized.

        previous = (r0, value0, slope0), an earlier evaluation at r0, starts
        that solve at the root there moved along its slope: j0 + (r - r0) /
        (1 + eps * b0), with j0 = r0 - eps * value0 and 1 / (1 + eps * b0) =
        1 - eps * slope0. The exact mode ignores it."""
        if self.yosida_eps == 0:
            r = self._require_inside(r)
            return self._dw_convex(r), self._d2w_convex(r)
        eps = self.yosida_eps
        r = np.asarray(r, dtype=float)
        start = None
        if previous is not None:
            r0, value0, slope0 = previous
            start = (r0 - eps * value0) + (r - r0) * (1.0 - eps * slope0)
        j = self.resolvent(r, eps, start)
        b = self._d2w_convex(j)
        return (r - j) / eps, b / (1.0 + eps * b)

    def w_convex_eff(self, r: np.ndarray) -> np.ndarray:
        """Convex part in the energy: exact, or its Moreau envelope if regularized."""
        if self.yosida_eps == 0:
            return self.w_convex(r)
        eps = self.yosida_eps
        r = np.asarray(r, dtype=float)
        j = self.resolvent(r, eps)
        y = (r - j) / eps
        return self._w_convex(j) + 0.5 * eps * y * y


# -- stock kinds ------------------------------------------------------------------


def quartic_double_well(yosida_eps: float = 0.0) -> Potential:
    """W(r) = (r^2 - 1)^2 / 4 split as r^4/4 + (1 - 2 r^2)/4; entire domain."""
    return Potential(
        lo=-math.inf,
        hi=math.inf,
        yosida_eps=yosida_eps,
        # Products, not r**3 and r**4, which NumPy sends to libm pow.
        _w_convex=lambda r: 0.25 * (r * r) * (r * r),
        _dw_convex=lambda r: r * r * r,
        _d2w_convex=lambda r: 3.0 * r**2,
        _w_rest=lambda r: 0.25 * (1.0 - 2.0 * r**2),
        _dw_rest=lambda r: -r,
        _d2w_rest=lambda r: -np.ones_like(r),
    )


def log_double_well(c: float = 2.0, yosida_eps: float = 0.0) -> Potential:
    """W(r) = (1+r)ln(1+r) + (1-r)ln(1-r) - c r^2 on (-1, 1).

    The logarithmic part is the convex piece (finite on the closure); the
    quadratic -c r^2 is the remainder. c > 1 makes the origin concave.
    """
    if c <= 0:
        raise ValueError("quadratic coefficient c must be positive")

    def xlogx(x):
        # x ln x, extended by its limit 0 at x = 0 (the domain endpoints).
        return x * np.log(np.where(x > 0, x, 1.0))

    def w_convex(r):
        return xlogx(1.0 + r) + xlogx(1.0 - r)

    return Potential(
        lo=-1.0,
        hi=1.0,
        yosida_eps=yosida_eps,
        _w_convex=w_convex,
        _dw_convex=lambda r: np.log1p(r) - np.log1p(-r),
        _d2w_convex=lambda r: 1.0 / (1.0 + r) + 1.0 / (1.0 - r),
        _w_rest=lambda r: -c * r**2,
        _dw_rest=lambda r: -2.0 * c * r,
        _d2w_rest=lambda r: np.full_like(r, -2.0 * c),
    )


def log_linear(yosida_eps: float = 0.0) -> Potential:
    """Convex part r - ln(1+r) on (-1, inf): singular at -1, linear growth at +inf.

    No remainder for this kind; the potential is the convex part alone.
    """
    return Potential(
        lo=-1.0,
        hi=math.inf,
        yosida_eps=yosida_eps,
        _w_convex=lambda r: r - np.log1p(r),
        _dw_convex=lambda r: r / (1.0 + r),
        _d2w_convex=lambda r: 1.0 / (1.0 + r) ** 2,
        _w_rest=lambda r: np.zeros_like(r),
        _dw_rest=lambda r: np.zeros_like(r),
        _d2w_rest=lambda r: np.zeros_like(r),
    )
