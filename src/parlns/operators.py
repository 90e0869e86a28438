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
repair solver. Identifiers serialize as ``c``, ``m_30``, ``lb_20``, ``p_05``,
``r_40``, ``ri_10``.
"""

import math
from dataclasses import dataclass

from .model import (
    CONTINUOUS,
    INTEGRALITY_TOL,
    LE,
    LinearConstraint,
    MipModel,
    NeighborhoodSpec,
    Solution,
)

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
    discrete = model.integer_indices()
    if not discrete:
        raise EmptyNeighborhood("model has no integer variables")
    rng = ctx.rng
    if spec.family == MUTATION:
        return _mutation(spec.percentage, ctx, discrete, rng)
    if spec.family == CROSSOVER:
        return _crossover(ctx, discrete, rng)
    if spec.family == LOCAL_BRANCHING:
        return _local_branching(spec.percentage, ctx, model)
    if spec.family == PROXIMITY:
        return _proximity(spec.percentage, ctx, model)
    if spec.family == RENS:
        return _rens(spec.percentage, ctx, model, discrete, rng)
    return _rins(spec.percentage, ctx, model, discrete, rng)


def _fix_value(ctx: OperatorContext, index: int) -> float:
    return float(round(ctx.incumbent.values[index]))


def _mutation(percentage, ctx, discrete, rng):
    free_count = math.ceil(percentage * len(discrete) / 100)
    free = set(rng.sample(discrete, free_count))
    fixings = {j: _fix_value(ctx, j) for j in discrete if j not in free}
    return NeighborhoodSpec(fixings=fixings)


def _crossover(ctx, discrete, rng):
    incumbent = ctx.incumbent.values
    partners = [s for s in ctx.archive if s.values != incumbent]
    if not partners:
        # no second solution to cross with yet
        return _mutation(30, ctx, discrete, rng)
    other = rng.choice(partners)
    fixings = {
        j: _fix_value(ctx, j)
        for j in discrete
        if abs(incumbent[j] - other.values[j]) <= INTEGRALITY_TOL
    }
    if len(fixings) == len(discrete):
        raise EmptyNeighborhood("archive partner agrees on every integer variable")
    return NeighborhoodSpec(fixings=fixings)


def _hamming_terms(ctx, binaries):
    """Coefficients of sum(x_j : inc=0) + sum(1 - x_j : inc=1) over binaries."""
    coefficients = {}
    ones = 0
    for j in binaries:
        if round(ctx.incumbent.values[j]) >= 1:
            coefficients[j] = -1.0
            ones += 1
        else:
            coefficients[j] = 1.0
    return coefficients, ones


def _local_branching(percentage, ctx, model):
    binaries = model.binary_indices()
    if not binaries:
        raise EmptyNeighborhood("local branching needs binary variables")
    radius = math.ceil(percentage * len(binaries) / 100)
    coefficients, ones = _hamming_terms(ctx, binaries)
    constraint = LinearConstraint(
        name=f"lb_{percentage:02d}_ball",
        coefficients=coefficients,
        relation=LE,
        rhs=float(radius - ones),
    )
    return NeighborhoodSpec(extra_constraints=(constraint,))


def _proximity(percentage, ctx, model):
    binaries = model.binary_indices()
    if not binaries:
        raise EmptyNeighborhood("proximity search needs binary variables")
    if not model.objective:
        raise EmptyNeighborhood("proximity search needs a nonzero objective")
    incumbent_obj = ctx.incumbent.objective
    delta = (percentage / 100.0) * max(abs(incumbent_obj), 1.0)
    cutoff = LinearConstraint(
        name=f"p_{percentage:02d}_cutoff",
        coefficients=dict(model.objective),
        relation=LE,
        rhs=incumbent_obj - model.objective_offset - delta,
    )
    coefficients, ones = _hamming_terms(ctx, binaries)
    return NeighborhoodSpec(
        extra_constraints=(cutoff,),
        objective_override=(coefficients, float(ones)),
    )


def _cap_unfixed(percentage, ctx, discrete, fixings, overrides, rng):
    """Re-fix a random excess of unfixed variables at incumbent values."""
    cap = math.ceil(percentage * len(discrete) / 100)
    unfixed = [j for j in discrete if j not in fixings]
    if len(unfixed) > cap:
        for j in rng.sample(unfixed, len(unfixed) - cap):
            fixings[j] = _fix_value(ctx, j)
            overrides.pop(j, None)
    if len(fixings) == len(discrete):
        raise EmptyNeighborhood("every integer variable would be fixed")


def _rens(percentage, ctx, model, discrete, rng):
    if ctx.lp_values is None:
        raise MissingRelaxation("rens needs LP relaxation values")
    fixings = {}
    overrides = {}
    for j in discrete:
        lp_v = ctx.lp_values[j]
        nearest = round(lp_v)
        var = model.variables[j]
        if abs(lp_v - nearest) <= INTEGRALITY_TOL:
            fixings[j] = float(min(max(nearest, var.lower), var.upper))
        else:
            overrides[j] = (float(math.floor(lp_v)), float(math.ceil(lp_v)))
    _cap_unfixed(percentage, ctx, discrete, fixings, overrides, rng)
    return NeighborhoodSpec(fixings=fixings, bound_overrides=overrides)


def _rins(percentage, ctx, model, discrete, rng):
    if ctx.lp_values is None:
        raise MissingRelaxation("rins needs LP relaxation values")
    fixings = {
        j: _fix_value(ctx, j)
        for j in discrete
        if abs(ctx.lp_values[j] - ctx.incumbent.values[j]) <= INTEGRALITY_TOL
    }
    _cap_unfixed(percentage, ctx, discrete, fixings, {}, rng)
    return NeighborhoodSpec(fixings=fixings)
