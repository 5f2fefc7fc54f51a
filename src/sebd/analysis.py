"""Post-processing: purification-time fits and finite-size data collapse."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalysisError",
    "PurificationFit",
    "CollapseFit",
    "fit_tau",
    "data_collapse",
]

ENTROPY_FLOOR = 1e-12

# data_collapse's search grid: eps_c steps over the swept epsilon range,
# nu over NU_RANGE
EPS_RES = 1e-3
NU_RANGE = (0.7, 2.0)
NU_RES = 1e-2


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class PurificationFit:
    """Exponential-decay fit S_R(t) ~ exp(-t/tau) over a fixed window."""

    tau: float
    row_lo: int
    row_hi: int
    residual: float
    n_points: int


def fit_tau(series, l_x: int) -> PurificationFit:
    """Least-squares fit of log S_R against row index on rows [l_x, 2*l_x].

    The window (inclusive) drops the early-time transient. Entries at or
    below the positivity floor are excluded; a non-decaying series raises
    (tau unbounded).
    """
    series = np.asarray(series, dtype=float)
    t = np.arange(len(series))
    lo, hi = int(l_x), int(2 * l_x)
    if not 0 <= lo <= hi < len(series):
        raise AnalysisError(f"window [{lo}, {hi}] outside series of length {len(series)}")
    mask = np.zeros(len(series), dtype=bool)
    mask[lo : hi + 1] = True
    mask &= series > ENTROPY_FLOOR
    if mask.sum() < 2:
        raise AnalysisError("window empty after positivity filtering")
    x = t[mask]
    y = np.log(series[mask])
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0.0:
        raise AnalysisError(f"series does not decay on the window (tau unbounded, slope {slope:g})")
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return PurificationFit(
        tau=float(-1.0 / slope),
        row_lo=lo,
        row_hi=hi,
        residual=resid,
        n_points=int(mask.sum()),
    )


@dataclass(frozen=True)
class CollapseFit:
    """Scaling-collapse result with the R <= 1.3 R_min error region.

    box is the bounding rectangle (eps_lo, eps_hi, nu_lo, nu_hi) of grid
    cells inside the contour; identifiable is False when the objective is
    flat (data carry no scaling signal).
    """

    eps_c: float
    nu: float
    r_min: float
    box: tuple
    identifiable: bool


def collapse_objective(points, eps_c: float, nu: float) -> float:
    """Mean squared deviation of each interior point from the straight line
    through its neighbors on the sorted master curve x = (eps-eps_c)*L^(1/nu)."""
    eps, ell, y = points
    x = (eps - eps_c) * ell ** (1.0 / nu)
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    y0, y2 = ys[:-2], ys[2:]
    span = x2 - x0
    safe = np.where(np.abs(span) > 1e-300, span, 1.0)
    pred = y0 + (y2 - y0) * (x1 - x0) / safe
    return float(np.mean((ys[1:-1] - pred) ** 2))


def _as_point_arrays(points) -> tuple:
    pts = [(float(e), float(l), float(v)) for e, l, v in points]
    if len(pts) < 3:
        raise AnalysisError("need at least three points")
    eps = np.array([p[0] for p in pts])
    ell = np.array([p[1] for p in pts])
    y = np.array([p[2] for p in pts])
    if len(set(ell.tolist())) < 2:
        raise AnalysisError("need at least two distinct system sizes")
    return eps, ell, y


def data_collapse(points):
    """Grid minimization of the collapse objective, then local refinement;
    returns (fit, (eps_grid, nu_grid, r)) with r[i, j] the objective at
    (eps_grid[i], nu_grid[j]).

    The eps_c grid spans the swept epsilon range at EPS_RES; nu runs over
    NU_RANGE at NU_RES. The error box is the bounding rectangle of grid
    cells with R <= 1.3 R_min (using the refined minimum), widened to
    contain the refined optimum.
    """
    arrs = _as_point_arrays(points)
    eps = arrs[0]
    eps_grid = np.arange(eps.min(), eps.max() + EPS_RES / 2, EPS_RES)
    nu_grid = np.arange(NU_RANGE[0], NU_RANGE[1] + NU_RES / 2, NU_RES)
    r = np.empty((len(eps_grid), len(nu_grid)))
    for i, ec in enumerate(eps_grid):
        for j, nu in enumerate(nu_grid):
            r[i, j] = collapse_objective(arrs, ec, nu)
    i0, j0 = np.unravel_index(np.argmin(r), r.shape)
    spread = float(r.max() - r.min())
    identifiable = spread > 1e-18

    import scipy.optimize  # lazy: importing sebd loads no scipy

    # nu_grid's last step can overshoot NU_RANGE by roundoff; the start is
    # clipped into the bounds, as scipy would after warning
    bounds = [(eps_grid[0], eps_grid[-1]), NU_RANGE]
    best = scipy.optimize.minimize(
        lambda p: collapse_objective(arrs, p[0], p[1]),
        x0=np.clip([eps_grid[i0], nu_grid[j0]], *np.transpose(bounds)),
        method="Nelder-Mead",
        bounds=bounds,
    )
    eps_c, nu = float(best.x[0]), float(best.x[1])
    r_min = float(best.fun)

    inside = r <= 1.3 * max(r_min, 1e-300)
    if inside.any():
        ii, jj = np.nonzero(inside)
        box = (
            min(float(eps_grid[ii.min()]), eps_c),
            max(float(eps_grid[ii.max()]), eps_c),
            min(float(nu_grid[jj.min()]), nu),
            max(float(nu_grid[jj.max()]), nu),
        )
    else:
        box = (eps_c, eps_c, nu, nu)
    fit = CollapseFit(eps_c=eps_c, nu=nu, r_min=r_min, box=box, identifiable=identifiable)
    return fit, (eps_grid, nu_grid, r)

