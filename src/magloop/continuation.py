"""Regularization continuation (eps, tau) -> 0 and outcome classification.

A run continues the sweep family it is given (``init_sweep_family`` builds
one): one minimax solve per entry of a geometric schedule, each started
from the previous step's family, step 0 from the given one.  The level of
step 0 at (eps0, tau0) is the run's reference level c_ref.  Each solve
has one tolerance, ``grad_tol``, and refines its argmax only if the
gradient certificate fails.  Each step records the argmax loop, its
rescaled length l = sqrt(E) * length, nu = eps * l, and the implied
energies of the limiting orbit:

    E_lin = E * (1 + 2 nu)       (first-order shift)
    E_exact = E * (1 + 2 nu)^2     (exact curvature balance)

Two terminal behaviors are distinguished.  Either the lengths stabilize and
the final loop solves the extremal equation (ConvergedExtremal at energy E),
or the lengths grow while nu shrinks, in which case the recorded loops are
approximate extremals at the implied energies (DivergingLengths with the
energy ladder attached).  Anything else is Inconclusive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .action import ActionParams
from .dynamics import ResidualReport, el_residual_SE
from .errors import ConfigError
from .geometry import GeometrySpec
from .loops import Loop, LoopFamily, length
from .minimax import DescentSettings, MinimaxResult, _engine

# the level band beta = BETA_FRAC * c_ref reported with a run
BETA_FRAC = 0.1
# classification thresholds: the final extremal-equation residual of a
# ConvergedExtremal, and the relative spread of its last three lengths
RESIDUAL_TOL = 1e-2
LENGTH_WINDOW = 0.01


@dataclass(frozen=True)
class Schedule:
    """Joint geometric schedule eps_n = eps0 rho^n, tau_n = tau0 rho^n."""

    eps0: float
    tau0: float
    rho: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ConfigError("eps0 must be positive")
        if not (0.0 <= self.tau0 < 1.0):
            raise ConfigError("tau must satisfy 0 <= tau < 1")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError("rho must lie in (0, 1)")
        if not (isinstance(self.n_steps, numbers.Integral)
                and self.n_steps >= 1):
            raise ConfigError("n_steps must be a positive integer")

    def eps(self, n: int) -> float:
        return self.eps0 * self.rho ** n

    def tau(self, n: int) -> float:
        return self.tau0 * self.rho ** n

    def pairs(self) -> list[tuple[float, float]]:
        """The (eps, tau) visit order."""
        return [(self.eps(n), self.tau(n)) for n in range(self.n_steps)]


def implied_energy(nu: float, E: float) -> tuple[float, float]:
    """(first-order, exact) energies of the orbit a diverging sequence
    approximates: E(1+2nu) and E(1+2nu)^2."""
    if not (0 <= nu < math.inf):
        raise ConfigError("nu must be finite and nonnegative")
    if not (math.isfinite(E) and E > 0):
        raise ConfigError("E must be positive")
    shift = 1.0 + 2.0 * nu
    return E * shift, E * shift * shift


@dataclass(frozen=True)
class ContinuationRecord:
    """One continuation step: regularization, level, and argmax diagnostics."""

    step: int
    eps: float
    tau: float
    level: float
    loop: Loop
    l: float
    nu: float
    E_lin: float
    E_exact: float
    residual: ResidualReport
    minimax: MinimaxResult


@dataclass(frozen=True)
class ConvergedExtremal:
    """Lengths stabilized; the final loop is an extremal at energy E."""

    loop: Loop
    residual: ResidualReport

    case = "ConvergedExtremal"


@dataclass(frozen=True)
class DivergingLengths:
    """Lengths grow while nu shrinks; each recorded loop approximates an
    extremal at its implied energy."""

    ladder_lin: tuple
    ladder_exact: tuple

    case = "DivergingLengths"


@dataclass(frozen=True)
class Inconclusive:
    """Neither terminal pattern matched within the run's budget."""

    reason: str

    case = "Inconclusive"


Classification = ConvergedExtremal | DivergingLengths | Inconclusive


def classify_outcome(records: list[ContinuationRecord]) -> Classification:
    """Pattern classification of a finished continuation run.

    ConvergedExtremal: the last three rescaled lengths agree within
    LENGTH_WINDOW (relative) and the final extremal-equation residual is
    below RESIDUAL_TOL.  DivergingLengths: the last three lengths strictly
    increase while nu strictly decreases.  Otherwise Inconclusive.
    """
    if len(records) < 3:
        return Inconclusive(f"need at least 3 records, got {len(records)}")
    tail = records[-3:]
    ls = [r.l for r in tail]
    nus = [r.nu for r in tail]
    spread = (max(ls) - min(ls)) / max(min(ls), 1e-300)
    final_res = records[-1].residual.max_res
    if spread <= LENGTH_WINDOW:
        if final_res < RESIDUAL_TOL:
            return ConvergedExtremal(records[-1].loop, records[-1].residual)
        return Inconclusive(
            f"lengths stabilized (spread {spread:.3g}) but final residual "
            f"{final_res:.3g} >= {RESIDUAL_TOL:.3g}")
    if ls[0] < ls[1] < ls[2] and nus[0] > nus[1] > nus[2]:
        return DivergingLengths(
            ladder_lin=tuple(r.E_lin for r in records),
            ladder_exact=tuple(r.E_exact for r in records),
        )
    return Inconclusive(
        f"no terminal pattern: lengths {ls}, nu {nus}, "
        f"final residual {final_res:.3g}")


def continuation_run(spec: GeometrySpec, E: float, family: LoopFamily,
                     schedule: Schedule, settings: DescentSettings, *,
                     delta: float = ActionParams.delta
                     ) -> tuple[list[ContinuationRecord], Classification, float]:
    """Continue ``family``; returns (records, classification, c_ref).

    Step 0 starts from ``family.rows``.  Raises NoNegativeLoopFound if a
    terminal loop of the family has S_E >= 0.  The level of step 0 is
    c_ref; a run whose c_ref is not positive and finite stops there.
    A run stops Inconclusive, keeping the records before it, at a step
    whose argmax is the one-point loop: no curve was found there.
    """
    rows = family.rows
    records = []
    for n, (eps_n, tau_n) in enumerate(schedule.pairs()):
        params = ActionParams(E=E, eps=eps_n, tau=tau_n, delta=delta)
        result, rows = _engine(spec, rows, params, settings)
        if n == 0:
            c_ref = result.level
            if not (0.0 < c_ref < math.inf):
                return [], Inconclusive(f"bootstrap level {c_ref:.6g} is "
                                        "not positive and finite"), c_ref
        loop = result.argmax
        if loop.is_point():
            return records, Inconclusive(
                f"step {n}: the argmax is the one-point loop (level "
                f"{result.level:.6g})"), c_ref
        l_resc = math.sqrt(E) * length(spec, loop)
        nu = eps_n * l_resc
        e_lin, e_exact = implied_energy(nu, E)
        rep = el_residual_SE(spec, loop, E)
        records.append(ContinuationRecord(
            step=n, eps=eps_n, tau=tau_n, level=result.level, loop=loop,
            l=l_resc, nu=nu, E_lin=e_lin, E_exact=e_exact,
            residual=rep, minimax=result))
    return records, classify_outcome(records), c_ref
