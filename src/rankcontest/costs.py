"""Effort cost functions.

A cost model maps a quality level q >= 0 to the effort cost c(q) of
producing a contribution of that quality.  Every family is strictly
increasing and continuously differentiable, with a closed-form inverse.
The value c(0) is the *entry cost*: the cost of the lowest
possible quality, which a potential contestant avoids entirely by
staying out.  Entry is strategically interesting precisely when
c(0) > 0, so models with c(0) == 0 are accepted here but rejected by
the experiments that study endogenous entry.

Three families:

    linear       c(q) = c0 + slope*q          (c0 >= 0, slope > 0)
    exp          c(q) = exp(k*q)              (k > 0)
    quad         c(q) = c0 + a*q + b*q**2     (c0 >= 0, a > 0, b >= 0)

The monotonicity of the ratio c'(q)/c(q) decides which reward-design
results apply (winner-take-all dominance and the payoff of taxing
entry both require it non-increasing), so each family classifies the
ratio analytically; see :meth:`CostModel.hazard_class`.  The quadratic
family exists mainly as a controlled counter-family: with 2*b*c0 > a**2
the ratio rises before it falls, violating that hypothesis.

Text format used by the CLI and JSON configs::

    linear:c0=0.25,slope=1      exp:k=2      quad:c0=0.1,a=1,b=2
"""

from dataclasses import dataclass

import numpy as np

from .errors import CostParseError, DomainError

HAZARD_NONINCREASING = "nonincreasing"
HAZARD_CONSTANT = "constant"
HAZARD_OTHER = "other"

# Slack when validating inverse targets: c(0) computed elsewhere can be
# off by a few ulps, and inverse(c(0) - epsilon) must still return 0.
_INVERSE_SLACK = 1e-9


def _check_quality(q):
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise DomainError("quality must be nonnegative")
    return q


def _scalar_in(x):
    return np.ndim(x) == 0


@dataclass(frozen=True)
class CostModel:
    """Common interface of all cost families.

    Subclasses provide ``value``, ``derivative``, ``inverse`` and
    ``hazard_class``; all accept scalars or arrays and are pure, so
    instances can be shared freely across threads.
    """

    family = "?"

    def value(self, q):
        raise NotImplementedError

    def derivative(self, q):
        raise NotImplementedError

    def inverse(self, v):
        raise NotImplementedError

    def hazard_class(self) -> str:
        raise NotImplementedError

    def __call__(self, q):
        return self.value(q)

    @property
    def entry_cost(self) -> float:
        return float(self.value(0.0))

    @property
    def has_entry_cost(self) -> bool:
        return self.entry_cost > 0.0

    def _check_cost(self, v):
        v = np.asarray(v, dtype=float)
        floor = self.entry_cost
        if np.any(v < floor - _INVERSE_SLACK * max(1.0, abs(floor))):
            raise DomainError(
                f"cost value below c(0)={floor}: no quality produces it"
            )
        return np.maximum(v, floor)

    def spec_string(self) -> str:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearCost(CostModel):
    """c(q) = c0 + slope*q."""

    c0: float = 0.0
    slope: float = 1.0

    family = "linear"

    def __post_init__(self):
        if not self.c0 >= 0.0:
            raise DomainError("linear cost requires c0 >= 0")
        if not self.slope > 0.0:
            raise DomainError("linear cost requires slope > 0")

    def value(self, q):
        q = _check_quality(q)
        out = self.c0 + self.slope * q
        return float(out) if _scalar_in(q) else out

    def derivative(self, q):
        q = _check_quality(q)
        out = np.full_like(q, self.slope, dtype=float)
        return float(out) if _scalar_in(q) else out

    def inverse(self, v):
        v = self._check_cost(v)
        out = (v - self.c0) / self.slope
        return float(out) if _scalar_in(v) else out

    def hazard_class(self) -> str:
        # c'/c = slope / (c0 + slope*q), decreasing in q
        return HAZARD_NONINCREASING

    def spec_string(self) -> str:
        return f"linear:c0={self.c0!r},slope={self.slope!r}"

    def to_dict(self) -> dict:
        return {"family": "linear", "c0": self.c0, "slope": self.slope}


@dataclass(frozen=True)
class ExponentialCost(CostModel):
    """c(q) = exp(k*q); the entry cost is always 1."""

    k: float = 1.0

    family = "exp"

    def __post_init__(self):
        if not self.k > 0.0:
            raise DomainError("exponential cost requires k > 0")

    def value(self, q):
        q = _check_quality(q)
        out = np.exp(self.k * q)
        return float(out) if _scalar_in(q) else out

    def derivative(self, q):
        q = _check_quality(q)
        out = self.k * np.exp(self.k * q)
        return float(out) if _scalar_in(q) else out

    def inverse(self, v):
        v = self._check_cost(v)
        out = np.log(v) / self.k
        out = np.maximum(out, 0.0)
        return float(out) if _scalar_in(v) else out

    def hazard_class(self) -> str:
        # c'/c = k everywhere
        return HAZARD_CONSTANT

    def spec_string(self) -> str:
        return f"exp:k={self.k!r}"

    def to_dict(self) -> dict:
        return {"family": "exp", "k": self.k}


@dataclass(frozen=True)
class QuadraticPlusCost(CostModel):
    """c(q) = c0 + a*q + b*q**2.

    ``a > 0`` is required even though ``b > 0`` alone would keep c
    strictly increasing for q > 0: a zero slope at the origin would put
    1/c'(0) integrands out of reach.
    """

    c0: float = 0.0
    a: float = 1.0
    b: float = 0.0

    family = "quad"

    def __post_init__(self):
        if not self.c0 >= 0.0:
            raise DomainError("quadratic cost requires c0 >= 0")
        if not self.a > 0.0:
            raise DomainError("quadratic cost requires a > 0")
        if not self.b >= 0.0:
            raise DomainError("quadratic cost requires b >= 0")

    def value(self, q):
        q = _check_quality(q)
        out = self.c0 + self.a * q + self.b * q * q
        return float(out) if _scalar_in(q) else out

    def derivative(self, q):
        q = _check_quality(q)
        out = self.a + 2.0 * self.b * q
        return float(out) if _scalar_in(q) else out

    def inverse(self, v):
        # the root of b*q**2 + a*q - d in the form that never subtracts
        # nearly equal terms, which also covers b == 0
        d = self._check_cost(v) - self.c0
        out = 2.0 * d / (self.a + np.sqrt(self.a * self.a + 4.0 * self.b * d))
        return float(out) if _scalar_in(d) else out

    def hazard_class(self) -> str:
        # d/dq [c'/c] has the sign of (2*b*c0 - a^2) - 2*a*b*q - 2*b^2*q^2,
        # so the ratio is non-increasing everywhere iff 2*b*c0 <= a^2 and
        # otherwise rises before it falls.
        if self.b == 0.0:
            return HAZARD_NONINCREASING
        if 2.0 * self.b * self.c0 <= self.a * self.a:
            return HAZARD_NONINCREASING
        return HAZARD_OTHER

    def spec_string(self) -> str:
        return f"quad:c0={self.c0!r},a={self.a!r},b={self.b!r}"

    def to_dict(self) -> dict:
        return {"family": "quad", "c0": self.c0, "a": self.a, "b": self.b}


_FAMILIES = {
    "linear": (LinearCost, ("c0", "slope")),
    "exp": (ExponentialCost, ("k",)),
    "quad": (QuadraticPlusCost, ("c0", "a", "b")),
}


def parse_cost(text: str) -> CostModel:
    """Parse a cost specification string such as ``linear:c0=0.25,slope=1``.

    Raises :class:`CostParseError` carrying the character offset of the
    first invalid token.
    """
    if not isinstance(text, str):
        raise CostParseError("cost spec must be a string", 0)
    head, sep, rest = text.partition(":")
    family = head.strip()
    if family not in _FAMILIES:
        raise CostParseError(
            f"unknown cost family {family!r} (expected one of {sorted(_FAMILIES)})", 0
        )
    if not sep:
        raise CostParseError("missing ':' after cost family", len(head))
    cls, allowed = _FAMILIES[family]
    params = {}
    offset = len(head) + 1
    for piece in rest.split(","):
        key, eq, value = piece.partition("=")
        key = key.strip()
        if not eq or not key:
            raise CostParseError(f"expected key=value, got {piece!r}", offset)
        if key not in allowed:
            raise CostParseError(
                f"unknown parameter {key!r} for family {family!r}", offset
            )
        if key in params:
            raise CostParseError(f"duplicate parameter {key!r}", offset)
        try:
            params[key] = float(value)
        except ValueError:
            raise CostParseError(
                f"could not parse number {value.strip()!r}", offset + len(key) + 1
            ) from None
        offset += len(piece) + 1
    try:
        return cls(**params)
    except DomainError as exc:
        raise CostParseError(str(exc), len(head) + 1) from exc


def cost_from_dict(data: dict) -> CostModel:
    """Rebuild a cost model from its ``to_dict`` form."""
    if "family" not in data:
        raise DomainError("cost dict needs a 'family' key")
    family = data["family"]
    if family not in _FAMILIES:
        raise DomainError(f"unknown cost family {family!r}")
    cls, allowed = _FAMILIES[family]
    extra = set(data) - set(allowed) - {"family"}
    if extra:
        raise DomainError(f"unknown cost parameters {sorted(extra)}")
    params = {k: float(data[k]) for k in allowed if k in data}
    return cls(**params)
