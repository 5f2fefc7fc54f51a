"""Two-replica Ising reduction: link weights, couplings, and the critical point.

Averaging the replicated trajectory dynamics over Haar-random gates leaves a
classical Ising model on the time slices of the effective 1D circuit. Its two
link weights depend on the unraveling only through the scalar x, so the phase
(volume-law vs area-law entanglement, i.e. ordered vs disordered magnet) is
predicted by comparing x against a closed-form critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import KrausSet, unraveling_cost_x


class StatmechDomainError(ValueError):
    """x outside the interval where the coupling logarithms are defined."""


@dataclass(frozen=True)
class IsingCouplings:
    """Couplings of the effective magnet; J_d <= 0 favours order, J_h >= 0 disorder."""

    J_d: float
    J_h: float
    q: int


def couplings(x: float, q: int) -> IsingCouplings:
    """Ising couplings at cost x for local dimension q.

    Defined for 1/q < x <= 1; at the lower edge the diagonal coupling
    diverges to -inf (fully ordered limit).
    """
    if q < 2:
        raise StatmechDomainError(f"local dimension {q} below 2")
    q2 = float(q * q)
    num_d = q2 * x * x - 1.0
    den_d = q2 - x * x
    if num_d <= 0.0:
        raise StatmechDomainError(
            f"x={x} at or below 1/q: log argument (q^2 x^2 - 1) = {num_d} <= 0"
        )
    if x > 1.0:
        raise StatmechDomainError(
            f"x={x} above 1: log argument (q^2 - x^2) side invalid for a cost"
        )
    J_d = 0.25 * math.log(num_d / den_d)
    J_h = 0.25 * math.log(x * x * (q2 - 1.0) ** 2 / (num_d * den_d))
    return IsingCouplings(J_d=J_d, J_h=J_h, q=q)


def x_from_couplings(c: IsingCouplings) -> float:
    """Invert the diagonal coupling back to the cost x."""
    q2 = float(c.q * c.q)
    e = math.exp(4.0 * c.J_d)
    return math.sqrt((e * q2 + 1.0) / (q2 + e))


def critical_x(q: int) -> float:
    """Self-dual point of the magnet: x_c = (q^2+1)/((q^2-1) + sqrt(2 q^4 + 2))."""
    if q < 2:
        raise StatmechDomainError(f"local dimension {q} below 2")
    q2 = float(q * q)
    return (q2 + 1.0) / ((q2 - 1.0) + math.sqrt(2.0 * q2 * q2 + 2.0))


def duality_gap(x: float, q: int) -> float:
    """Residual of the self-duality relation; zero exactly at x = critical_x(q)."""
    c = couplings(x, q)
    return 2.0 * math.exp(2.0 * c.J_h) - (
        math.exp(-2.0 * c.J_d) - math.exp(2.0 * c.J_d)
    )


def predicted_phase(k: KrausSet) -> str:
    """Mean-field phase label for an unraveling: 'ordered', 'disordered' or 'critical'.

    Ordered means volume-law trajectory entanglement (hard to simulate),
    disordered means area-law. Advisory only; never used to gate a run.
    """
    x = unraveling_cost_x(k)
    xc = critical_x(k.d)
    if abs(x - xc) < 1e-12:
        return "critical"
    return "ordered" if x < xc else "disordered"
