"""Solution families pinned by inner/outer asymptotics and their ordering."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (InapplicableError, IntegrationFailureError,
                     InvalidParameterError, PartialFamilyError)
from .odeflow import (_STRIP_STEPS, IntegratorConfig, Trajectory, _dop853_batch,
                      _trajectories, stepper_work)
from .odeflow import integrate_radial_ivp  # noqa: F401  (perfbench traces this name)
from .potential import BumpFunction, Potential, _profile, _scaled, example_446_potential

GRID_POINTS = 512
# the leaves of example 4.4.6
_LEAF_CFG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


@dataclass
class OrderingReport:
    min_gap: float                     # min over the r-grid and the leaf pairs
    min_dudalpha: float
    verdict: str                       # "ordered" | "not-ordered"
    degenerate_input: bool = False
    coverage: Optional[tuple[float, float]] = None  # u-range swept at r_mid


@dataclass
class LeafFamily:
    kind: str  # "N_A" | "M_A" | "example446"
    n: int
    A: float
    alpha_grid: np.ndarray
    r_grid: np.ndarray
    u_matrix: np.ndarray               # shape (len(r_grid), len(alpha_grid))
    trajectories: list[Trajectory] = field(default_factory=list)
    ordering: Optional[OrderingReport] = None


def check_ordering(fam: LeafFamily) -> OrderingReport:
    """Total-ordering evidence: min vertical gap between consecutive leaves
    over the common grid, plus finite-difference du/dalpha positivity."""
    if fam.u_matrix.shape[1] < 2:
        raise InvalidParameterError("ordering needs at least two leaves")
    alphas = np.asarray(fam.alpha_grid, float)
    degenerate = bool(np.any(np.diff(alphas) <= 0))
    diffs = np.diff(fam.u_matrix, axis=1)
    min_gap = float(np.min(diffs))
    if degenerate:
        dud = 0.0
    else:
        dud = float(np.min(diffs / np.diff(alphas)[None, :]))
    mid = fam.u_matrix[len(fam.r_grid) // 2, :]
    report = OrderingReport(
        min_gap=min_gap, min_dudalpha=dud,
        verdict="ordered" if (min_gap > 0 and not degenerate) else "not-ordered",
        degenerate_input=degenerate,
        coverage=(float(mid[0]), float(mid[-1])))
    return report


def build_NA_family(pot: Potential, n: int, A: float, alphas,
                    cfg: IntegratorConfig = IntegratorConfig(),
                    r_min: float = 1e-4,
                    r_start: Optional[float] = None) -> LeafFamily:
    """Leaves with outer form u = alpha / r^{n-2} + A, integrated inward
    from r_start >= r_outer (where that form holds) to r_min < r_start."""
    if n < 3:
        raise InvalidParameterError("outer-pinned family requires n >= 3")
    r_start = 2.0 * pot.r_outer if r_start is None else r_start

    def start(alpha):
        return alpha / r_start ** (n - 2) + A, -(n - 2) * alpha / r_start ** (n - 1)

    return _pinned_family("N_A", pot, n, A, alphas, r_start, r_min, cfg, start)


def build_MA_family(pot: Potential, n: int, A: float, alphas,
                    cfg: IntegratorConfig = IntegratorConfig(),
                    r_end: Optional[float] = None) -> LeafFamily:
    """Leaves with inner form u = A / r^{n-2} + alpha on (0, r_inner],
    integrated outward from r_inner to r_end > r_inner.  Requires a potential
    vanishing near the origin."""
    if n < 3:
        raise InvalidParameterError("inner-pinned family requires n >= 3")
    if not pot.r_inner or pot.r_inner <= 0:
        raise InapplicableError("potential has no inner support gap r_inner > 0")
    r0 = pot.r_inner
    r_end = 2.0 * pot.r_outer if r_end is None else r_end

    def start(alpha):
        return A / r0 ** (n - 2) + alpha, -(n - 2) * A / r0 ** (n - 1)

    return _pinned_family("M_A", pot, n, A, alphas, r0, r_end, cfg, start)


def _pinned_family(kind, pot, n, A, alphas, r0, r_far, cfg, start) -> LeafFamily:
    """The leaves run from (u, u') = start(alpha) at r0 to r_far, all in one
    batch, read on the geometric r-grid from the inner to the outer radius
    (N_A inward)."""
    if not (r0 > 0 and r_far > 0):
        raise InvalidParameterError("start and end radii must be > 0, got %r and %r" % (r0, r_far))
    if kind == "N_A" and not r0 >= pot.r_outer:
        raise InvalidParameterError("N_A starts where its outer form holds, at r_start >= "
                                    "r_outer = %r, got %r" % (pot.r_outer, r0))
    if not (r_far < r0 if kind == "N_A" else r_far > r0):
        raise InvalidParameterError("%s runs %s from r = %r, got an end radius of %r" % (
            kind, "inward" if kind == "N_A" else "outward", r0, r_far))
    alphas = list(alphas)
    if not alphas or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidParameterError("alpha grid must be nonempty and strictly increasing")
    t0, t_far = math.log(r0), math.log(r_far)
    u0, du0 = np.array([start(alpha) for alpha in alphas]).T
    trajectories = _trajectories(pot, n, t0, [u0, r0 * du0], replace(cfg, t_range=(t0, t_far)))
    failed = [a for a, res in zip(alphas, trajectories) if isinstance(res, Exception)]
    if failed:
        raise PartialFamilyError("leaves failed for alpha in %r" % (failed,),
                                 failed_alphas=failed)
    r_grid = np.geomspace(*((r_far, r0) if kind == "N_A" else (r0, r_far)), GRID_POINTS)
    u_matrix = np.column_stack([traj.u_of_r(r_grid) for traj in trajectories])
    fam = LeafFamily(kind=kind, n=n, A=A, alpha_grid=np.asarray(alphas, float),
                     r_grid=r_grid, u_matrix=u_matrix, trajectories=trajectories)
    if len(trajectories) >= 2:
        fam.ordering = check_ordering(fam)
    else:
        # a single leaf is trivially ordered
        mid = float(u_matrix[len(r_grid) // 2, 0])
        fam.ordering = OrderingReport(min_gap=math.inf, min_dudalpha=math.inf,
                                      verdict="ordered", coverage=(mid, mid))
    return fam


@dataclass
class ExampleLeaf:
    u0: float
    t: np.ndarray
    u: np.ndarray
    max_residual: float


@dataclass
class ExampleReport:
    variant: str
    leaves: list[ExampleLeaf]
    max_residual: float
    min_pairwise_gap: float
    crossings: int
    diagnostics: dict = field(default_factory=dict)   # stepper work of the leaves
    timing: dict = field(default_factory=dict)        # seconds per phase


def _first_order_rhs(phi, psi):
    """du/dt = phi'(u) psi(t) on a (1, cell) array: one profile pass over both
    bumps' arguments, written as [u ; t] into one array, scaled as
    BumpFunction.jet scales."""
    center, width = (np.array([[getattr(b, k)] for b in (phi, psi)]) for k in ("center", "width"))

    def rhs(t, y):
        x = np.empty((2,) + y[0].shape)
        x[0], x[1] = y[0], t
        x -= center
        x /= width
        g, dg = _profile(x, (0, 1))
        dphi = _scaled([dg[0]], (1,), phi.amplitude, phi.width)[0]
        return (dphi * _scaled([g[1]], (0,), psi.amplitude, psi.width)[0])[None]
    return rhs


def _example_leaves(phi, psi, u0_grid, fd_step):
    """The sample times, per initial value u0 the leaf u and its u'' by a
    fourth-order stencil on the dense first-order flow du/dt = phi'(u) psi(t),
    and the stepper work. The leaves step in one `_dop853_batch` run at
    _LEAF_CFG, at most psi's support width over _STRIP_STEPS per step. The
    leaves do not depend on the variant of W."""
    t_lo, t_hi = psi.support
    t_span = (t_lo - 0.5, t_hi + 0.5)
    if len(u0_grid) == 0:
        raise InvalidParameterError("the u0 grid is empty")
    if not 0.0 < 4 * fd_step < t_span[1] - t_span[0]:
        raise InvalidParameterError("need 0 < 4 fd_step < %r, got fd_step = %r"
                                    % (t_span[1] - t_span[0], fd_step))
    m = len(u0_grid)
    run, _, _, rows = _dop853_batch(
        _first_order_rhs(phi, psi), np.full(m, t_span[0]), np.full(m, t_span[1]),
        np.array(u0_grid, dtype=float)[None], (_LEAF_CFG.rel_tol, _LEAF_CFG.abs_tol),
        (t_hi - t_lo) / _STRIP_STEPS, dense=True)
    for message in filter(None, run.failures):
        raise IntegrationFailureError("first-order flow failed: %s" % message)
    h = fd_step
    ts = np.linspace(t_span[0] + 2 * h, t_span[1] - 2 * h, 801)
    stencil = np.concatenate((ts + 2 * h, ts + h, ts - h, ts - 2 * h, ts))
    u = np.array([leaf(stencil)[0] for leaf in rows]).reshape(m, 5, len(ts))
    udot = phi.derivative(u) * psi.value(stencil.reshape(5, len(ts)))
    uddot = (-udot[:, 0] + 8 * udot[:, 1] - 8 * udot[:, 2] + udot[:, 3]) / (12.0 * h)
    return ts, list(zip(u[:, 4], uddot)), stepper_work([run])


def _newton_residual(w, ts, u, uddot) -> float:
    """max |u'' + e^{2t} W'_u(u, t)| along one leaf."""
    return float(np.max(np.abs(uddot + np.exp(2.0 * ts) * w.dw_du(u, ts))))


def example_446_check(phi: BumpFunction, psi: BumpFunction, u0_grid,
                      variant: str = "chain-rule",
                      fd_step: float = 2e-4) -> ExampleReport:
    """Integrate du/dt = phi'(u) psi(t) per initial value at _LEAF_CFG and
    verify the Newton residual u'' + e^{2t} W'_u(u, t) along each graph (u''
    by a fourth-order stencil on the dense flow field), plus pairwise
    non-crossing. u0_grid None is 11 values. Variant "auto" is the variant
    with the smaller largest residual over these leaves."""
    u0_grid = sorted(float(x) for x in (_inset(phi, 11) if u0_grid is None else u0_grid))
    if any(a == b for a, b in zip(u0_grid, u0_grid[1:])):
        raise InvalidParameterError("u0_grid values must be distinct, got %r" % (u0_grid,))
    t0 = time.perf_counter()
    ts, flows, work = _example_leaves(phi, psi, u0_grid, fd_step)
    t1 = time.perf_counter()
    ws = {v: example_446_potential(phi, psi, variant=v)
          for v in (("as-printed", "chain-rule") if variant == "auto" else (variant,))}
    residuals = {v: [_newton_residual(w, ts, us, uddot) for us, uddot in flows]
                 for v, w in ws.items()}
    variant = min(residuals, key=lambda v: max(residuals[v]))
    leaves = [ExampleLeaf(u0=u0, t=ts, u=us, max_residual=res)
              for u0, (us, _), res in zip(u0_grid, flows, residuals[variant])]
    max_res = max(leaf.max_residual for leaf in leaves)
    if len(leaves) >= 2:
        diffs = np.diff(np.column_stack([us for us, _ in flows]), axis=1)
        min_gap = float(np.min(diffs))
        crossings = int(np.count_nonzero(np.min(diffs, axis=0) <= 0))
    else:
        min_gap, crossings = math.inf, 0
    return ExampleReport(variant=variant, leaves=leaves, max_residual=max_res,
                         min_pairwise_gap=min_gap, crossings=crossings,
                         diagnostics={"leaves": work},
                         timing={"flow_seconds": t1 - t0,
                                 "residual_seconds": time.perf_counter() - t1})


def _inset(phi, count):
    """count initial values over phi's support inset by 10%."""
    lo, hi = phi.support
    return np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), count)


def select_example_446_variant(phi: BumpFunction, psi: BumpFunction) -> str:
    """Residual oracle: the variant whose Newton residual along the default 11
    leaves of the first-order flow is smaller."""
    return example_446_check(phi, psi, None, variant="auto").variant
