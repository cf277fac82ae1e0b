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

    linear       c(q) = c0 + slope*q
    exp          c(q) = exp(k*q)
    quad         c(q) = c0 + a*q + b*q**2

A family declares each parameter once, as a field with its lower bound
(see :func:`_param`), and its formulas on float arrays.
:class:`CostModel` derives the rest from those declarations: the
bound checks (every parameter must also be finite), the quality and
cost-value checks, scalar-in/scalar-out handling, and the text and
dict forms.

The monotonicity of the ratio c'(q)/c(q) decides which reward-design
results apply (winner-take-all dominance and the payoff of taxing
entry both require it non-increasing), so each family classifies the
ratio analytically in its ``hazard_class``.  The quadratic
family exists mainly as a controlled counter-family: with 2*b*c0 > a**2
the ratio rises before it falls, violating that hypothesis.

Text format used by the CLI and JSON configs: the family, a colon and
``name=value`` pairs for its fields, in declaration order in
:meth:`CostModel.spec_string`; omitted fields take their defaults::

    linear:c0=0.25,slope=1      exp:k=2      quad:c0=0.1,a=1,b=2
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import CostParseError, DomainError

HAZARD_NONINCREASING = "nonincreasing"
HAZARD_CONSTANT = "constant"
HAZARD_OTHER = "other"

# Slack when validating inverse targets: c(0) computed elsewhere can be
# off by a few ulps, and inverse(c(0) - epsilon) must still return 0.
_INVERSE_SLACK = 1e-9


def _param(default: float, least: float, strict: bool = False):
    """Declare one family parameter: finite and at least ``least``
    (above it when ``strict``)."""
    return field(default=default, metadata={"least": least, "strict": strict})


@dataclass(frozen=True)
class CostModel:
    """Common interface of all cost families.

    Subclasses declare their parameters with :func:`_param`, the
    formulas ``_value``, ``_derivative`` and ``_inverse`` on float
    arrays, and ``hazard_class``.  ``value``, ``derivative`` and
    ``inverse`` accept scalars or arrays (a scalar in gives a float
    out) and are pure, so instances can be shared freely across threads.
    """

    family = "?"
    title = "?"  # the family's name in error messages

    def __post_init__(self):
        for param in fields(self):
            value = getattr(self, param.name)
            least, strict = param.metadata["least"], param.metadata["strict"]
            if not (math.isfinite(value) and (value > least if strict else value >= least)):
                raise DomainError(
                    f"{self.title} cost requires a finite {param.name} "
                    f"{'>' if strict else '>='} {least}"
                )

    def value(self, q):
        return self._scalar_out(self._value, self._quality(q))

    def derivative(self, q):
        return self._scalar_out(self._derivative, self._quality(q))

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        floor = self.entry_cost
        if np.any(v < floor - _INVERSE_SLACK * max(1.0, abs(floor))):
            raise DomainError(f"cost value below c(0)={floor}: no quality produces it")
        return self._scalar_out(self._inverse, np.maximum(v, floor))

    @staticmethod
    def _quality(q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if np.any(q < 0.0):
            raise DomainError("quality must be nonnegative")
        return q

    @staticmethod
    def _scalar_out(formula, x):
        out = formula(x)
        return float(out) if np.ndim(x) == 0 else out

    @property
    def entry_cost(self) -> float:
        return float(self.value(0.0))

    @property
    def has_entry_cost(self) -> bool:
        return self.entry_cost > 0.0

    def spec_string(self) -> str:
        params = ",".join(f"{name}={value!r}" for name, value in asdict(self).items())
        return f"{self.family}:{params}"

    def to_dict(self) -> dict:
        return {"family": self.family, **asdict(self)}


@dataclass(frozen=True)
class LinearCost(CostModel):
    """c(q) = c0 + slope*q."""

    c0: float = _param(0.0, 0)
    slope: float = _param(1.0, 0, strict=True)

    family = "linear"
    title = "linear"

    def _value(self, q):
        return self.c0 + self.slope * q

    def _derivative(self, q):
        return np.full_like(q, self.slope, dtype=float)

    def _inverse(self, v):
        return (v - self.c0) / self.slope

    def hazard_class(self) -> str:
        # c'/c = slope / (c0 + slope*q), decreasing in q
        return HAZARD_NONINCREASING


@dataclass(frozen=True)
class ExponentialCost(CostModel):
    """c(q) = exp(k*q); the entry cost is always 1."""

    k: float = _param(1.0, 0, strict=True)

    family = "exp"
    title = "exponential"

    def _value(self, q):
        return np.exp(self.k * q)

    def _derivative(self, q):
        return self.k * np.exp(self.k * q)

    def _inverse(self, v):
        return np.maximum(np.log(v) / self.k, 0.0)

    def hazard_class(self) -> str:
        # c'/c = k everywhere
        return HAZARD_CONSTANT


@dataclass(frozen=True)
class QuadraticPlusCost(CostModel):
    """c(q) = c0 + a*q + b*q**2.

    ``a > 0`` is required even though ``b > 0`` alone would keep c
    strictly increasing for q > 0: a zero slope at the origin would put
    1/c'(0) integrands out of reach.
    """

    c0: float = _param(0.0, 0)
    a: float = _param(1.0, 0, strict=True)
    b: float = _param(0.0, 0)

    family = "quad"
    title = "quadratic"

    def _value(self, q):
        return self.c0 + self.a * q + self.b * q * q

    def _derivative(self, q):
        return self.a + 2.0 * self.b * q

    def _inverse(self, v):
        # the root of b*q**2 + a*q - d in the form that never subtracts
        # nearly equal terms, which also covers b == 0
        d = v - self.c0
        return 2.0 * d / (self.a + np.sqrt(self.a * self.a + 4.0 * self.b * d))

    def hazard_class(self) -> str:
        # d/dq [c'/c] has the sign of (2*b*c0 - a^2) - 2*a*b*q - 2*b^2*q^2,
        # so the ratio is non-increasing everywhere iff 2*b*c0 <= a^2 and
        # otherwise rises before it falls (b == 0 included).
        if 2.0 * self.b * self.c0 <= self.a * self.a:
            return HAZARD_NONINCREASING
        return HAZARD_OTHER


_FAMILIES = {cls.family: cls for cls in (LinearCost, ExponentialCost, QuadraticPlusCost)}


def parse_cost(text: str) -> CostModel:
    """Parse a cost specification string (see the module docstring).

    Raises :class:`CostParseError` carrying the character offset of the
    first invalid token; a parameter out of its bound or not finite
    points just past the family name.
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
    cls = _FAMILIES[family]
    allowed = {param.name for param in fields(cls)}
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
