"""The six destroy-operator families mapping an incumbent to a sub-problem.

Semantics follow the standard matheuristics literature:

* mutation: uniformly unfix a share of the integer variables (classic LNS,
  Shaw 1998).
* crossover: fix the variables where the incumbent agrees with a randomly
  chosen archived solution (solution crossover as in population LNS).
* local branching: Hamming-ball constraint around the incumbent over the
  binary variables (Fischetti & Lodi 2003).
* proximity: objective cutoff forcing improvement while minimizing the
  Hamming distance to the incumbent (Fischetti & Monaci 2014).
* rens: fix LP-integral variables and restrict fractional ones to their
  surrounding integers (Berthold 2014).
* rins: fix variables where the incumbent and the LP relaxation agree
  (Danna, Rothberg & Le Pape 2005).

Operators only restrict integer variables; continuous ones are left to the
repair solver. Each states its sub-problem in the model's arrays: the fixing
families give full-length bounds from masks over the integer columns, local
branching appends its ball as one row of +-1 over the binaries, and proximity
appends the costs themselves as its cutoff row and swaps in +-1 Hamming
costs. Identifiers serialize as ``c``, ``m_30``, ``lb_20``, ``p_05``,
``r_40``, ``ri_10``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import INTEGRALITY_TOL, MipModel, NeighborhoodSpec, Solution

CROSSOVER = "crossover"
MUTATION = "mutation"
LOCAL_BRANCHING = "local_branching"
PROXIMITY = "proximity"
RENS = "rens"
RINS = "rins"

FAMILIES = (CROSSOVER, MUTATION, LOCAL_BRANCHING, PROXIMITY, RENS, RINS)

PERCENTAGE_POOL = {
    MUTATION: (10, 20, 30, 40, 50),
    LOCAL_BRANCHING: (10, 20, 30, 40, 50),
    PROXIMITY: (5, 10, 15, 20, 30),
    RENS: (10, 20, 30, 40, 50),
    RINS: (10, 20, 30, 40, 50),
}

_PREFIX = {
    CROSSOVER: "c",
    MUTATION: "m",
    LOCAL_BRANCHING: "lb",
    PROXIMITY: "p",
    RENS: "r",
    RINS: "ri",
}
_FAMILY_BY_PREFIX = {v: k for k, v in _PREFIX.items()}


class MissingRelaxation(ValueError):
    """rens/rins asked to run without LP relaxation values."""


class EmptyNeighborhood(ValueError):
    """The spec would fix every integer variable; the iteration can be skipped."""


@dataclass(frozen=True)
class OperatorSpec:
    family: str
    percentage: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.family == CROSSOVER:
            if self.percentage is not None:
                raise ValueError("crossover takes no percentage")
        elif self.percentage not in PERCENTAGE_POOL[self.family]:
            raise ValueError(
                f"{self.family} percentage must be in {PERCENTAGE_POOL[self.family]}"
            )

    @property
    def identifier(self) -> str:
        if self.family == CROSSOVER:
            return "c"
        return f"{_PREFIX[self.family]}_{self.percentage:02d}"

    @classmethod
    def from_identifier(cls, token: str) -> "OperatorSpec":
        if token == "c":
            return cls(CROSSOVER)
        prefix, _, pct = token.partition("_")
        if prefix not in _FAMILY_BY_PREFIX or not pct.isdigit():
            raise ValueError(f"unknown operator identifier {token!r}")
        return cls(_FAMILY_BY_PREFIX[prefix], int(pct))


@dataclass(frozen=True)
class OperatorContext:
    """Worker-local inputs to a destroy operator.

    ``lp_values`` is the relaxation of the original model (required by
    rens/rins); ``archive`` holds recently accepted solutions.
    """

    incumbent: Solution
    archive: tuple[Solution, ...] = ()
    lp_values: tuple[float, ...] | None = None
    rng: object = None


def build_neighborhood(
    spec: OperatorSpec, ctx: OperatorContext, model: MipModel
) -> NeighborhoodSpec:
    """Produce the sub-problem spec for one destroy move around the incumbent."""
    relax = model.relaxation
    discrete = np.flatnonzero(relax.integer).tolist()
    if not discrete:
        raise EmptyNeighborhood("model has no integer variables")
    rng = ctx.rng
    if spec.family == MUTATION:
        return _mutation(spec.percentage, ctx, relax, discrete, rng)
    if spec.family == CROSSOVER:
        return _crossover(ctx, relax, discrete, rng)
    if spec.family == LOCAL_BRANCHING:
        return _local_branching(spec.percentage, ctx, relax)
    if spec.family == PROXIMITY:
        return _proximity(spec.percentage, ctx, relax)
    if spec.family == RENS:
        return _rens(spec.percentage, ctx, relax, discrete, rng)
    return _rins(spec.percentage, ctx, relax, discrete, rng)


def _rounded(values) -> np.ndarray:
    """``float(round(v))`` for each value: ``np.rint`` alone gives -0.0 for small negatives."""
    return np.rint(values) + 0.0


def _fixing(fix, values, lower, upper) -> NeighborhoodSpec:
    """Bounds ``lower`` and ``upper`` with the columns in mask ``fix`` fixed at ``values``."""
    return NeighborhoodSpec(bounds=(np.where(fix, values, lower), np.where(fix, values, upper)))


def _mutation(percentage, ctx, relax, discrete, rng):
    fix = relax.integer.copy()
    fix[rng.sample(discrete, math.ceil(percentage * len(discrete) / 100))] = False
    return _fixing(fix, _rounded(ctx.incumbent.values), relax.lower, relax.upper)


def _crossover(ctx, relax, discrete, rng):
    incumbent = ctx.incumbent.values
    partners = [s for s in ctx.archive if s.values != incumbent]
    if not partners:
        # no second solution to cross with yet
        return _mutation(30, ctx, relax, discrete, rng)
    other = rng.choice(partners)
    fix = relax.integer & (np.abs(np.subtract(incumbent, other.values)) <= INTEGRALITY_TOL)
    if np.count_nonzero(fix) == len(discrete):
        raise EmptyNeighborhood("archive partner agrees on every integer variable")
    return _fixing(fix, _rounded(incumbent), relax.lower, relax.upper)


def _local_branching(percentage, ctx, relax):
    binary = _binaries(relax, "local branching")
    radius = math.ceil(percentage * np.count_nonzero(binary) / 100)
    costs, ones = _hamming(ctx, binary)
    return NeighborhoodSpec(rows=(costs[None], [radius - ones]))


def _proximity(percentage, ctx, relax):
    binary = _binaries(relax, "proximity search")
    if not np.count_nonzero(relax.c):
        raise EmptyNeighborhood("proximity search needs a nonzero objective")
    incumbent_obj = ctx.incumbent.objective
    delta = (percentage / 100.0) * max(abs(incumbent_obj), 1.0)
    # the objective cutoff c @ x <= incumbent - delta
    cutoff = incumbent_obj - relax.offset - delta
    return NeighborhoodSpec(rows=(relax.c[None], [cutoff]), objective=_hamming(ctx, binary))


def _binaries(relax, search):
    """Mask of the binaries (``LpRelaxation.binary``); ``search`` needs one."""
    binary = relax.binary
    if not np.count_nonzero(binary):
        raise EmptyNeighborhood(f"{search} needs binary variables")
    return binary


def _hamming(ctx, binary):
    """Costs and offset of sum(x_j : inc=0) + sum(1 - x_j : inc=1) over the binaries."""
    ones = binary & (_rounded(ctx.incumbent.values) >= 1)
    return np.where(ones, -1.0, np.where(binary, 1.0, 0.0)), float(np.count_nonzero(ones))


def _cap_unfixed(percentage, relax, discrete, fix, rng):
    """Mask of a random excess of unfixed variables, to re-fix at incumbent values."""
    unfixed = np.flatnonzero(relax.integer & ~fix).tolist()
    if not unfixed:
        raise EmptyNeighborhood("every integer variable would be fixed")
    cap = math.ceil(percentage * len(discrete) / 100)
    refix = np.zeros_like(fix)
    if len(unfixed) > cap:
        refix[rng.sample(unfixed, len(unfixed) - cap)] = True
    return refix


def _rens(percentage, ctx, relax, discrete, rng):
    if ctx.lp_values is None:
        raise MissingRelaxation("rens needs LP relaxation values")
    lp = np.array(ctx.lp_values)
    nearest = _rounded(lp)
    fix = relax.integer & (np.abs(lp - nearest) <= INTEGRALITY_TOL)
    fractional = relax.integer & ~fix
    refix = _cap_unfixed(percentage, relax, discrete, fix, rng)
    # integral LP values are fixed at min(max(nearest, lower), upper), a -0.0 bound too,
    # fractional ones get their surrounding integers, and re-fixed ones the incumbent's
    within = np.where(relax.lower > nearest, relax.lower, nearest)
    within = np.where(relax.upper < within, relax.upper, within)
    values = np.where(refix, _rounded(ctx.incumbent.values), within)
    lower = np.where(fractional, np.floor(lp) + 0.0, relax.lower)
    upper = np.where(fractional, np.ceil(lp) + 0.0, relax.upper)
    return _fixing(fix | refix, values, lower, upper)


def _rins(percentage, ctx, relax, discrete, rng):
    if ctx.lp_values is None:
        raise MissingRelaxation("rins needs LP relaxation values")
    incumbent = ctx.incumbent.values
    fix = relax.integer & (np.abs(np.subtract(ctx.lp_values, incumbent)) <= INTEGRALITY_TOL)
    fix |= _cap_unfixed(percentage, relax, discrete, fix, rng)
    return _fixing(fix, _rounded(incumbent), relax.lower, relax.upper)
