"""Contest values computed apart from the package, with scipy.

Nothing here calls rankcontest: costs are rebuilt from their parameters
with closed-form inverses, the entry probability is a Brent root of the
binomial benefit sum, and the quality statistics are integrated in
pressure space:

    p:       sum_i a_{i+1} * Bin(n-1, x).pmf(i) = c(0)   (interior regime)
    q(x):    c^{-1}(benefit(x) - shift)
    budget:  sum_k a_k * P(Bin(n, p) >= k)
    E[max]:  integral_0^p q(x) * n * (1-x)**(n-1) dx
    E[avg]:  integral_0^p q(x) dx

On the golden contest (prizes 1, 0; c(q) = 0.25 + q) these give
p = 0.75, budget 0.9375, E[max] 0.421875 and E[avg] 0.28125.
"""

import math

import numpy as np
from scipy import integrate, optimize, special, stats


class Cost:
    """c(q) and its closed-form inverse, from ``CostModel.to_dict()``."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        self.params = {k: float(v) for k, v in spec.items() if k != "family"}

    def value(self, q: float) -> float:
        p = self.params
        if self.family == "linear":
            return p["c0"] + p["slope"] * q
        if self.family == "exp":
            return math.exp(p["k"] * q)
        return p["c0"] + p["a"] * q + p["b"] * q * q

    def inverse(self, v: float) -> float:
        p = self.params
        if self.family == "linear":
            q = (v - p["c0"]) / p["slope"]
        elif self.family == "exp":
            q = math.log(v) / p["k"] if v > 0.0 else 0.0
        else:
            # stable root of b q^2 + a q - (v - c0) = 0
            d = v - p["c0"]
            q = 2.0 * d / (p["a"] + math.sqrt(max(p["a"] ** 2 + 4.0 * p["b"] * d, 0.0)))
        return max(q, 0.0)


class Contest:
    """Reference equilibrium of one contest."""

    def __init__(self, prizes, cost_spec: dict):
        self.a = np.asarray(prizes, dtype=float)
        self.n = self.a.size
        self.cost = Cost(cost_spec)
        self._k = np.arange(self.n)
        m = self.n - 1
        self._log_comb = special.gammaln(m + 1) - special.gammaln(self._k + 1) \
            - special.gammaln(m - self._k + 1)
        c0 = self.cost.value(0.0)
        self.shift = max(self.a[-1] - c0, 0.0)
        if self.a[0] <= c0:
            self.p = 0.0
        elif self.a[-1] >= c0:
            self.p = 1.0
        else:
            self.p = optimize.brentq(
                lambda x: self.benefit(x) - c0, 0.0, 1.0, xtol=1e-15, maxiter=200
            )
        self.qbar = self.cost.inverse(self.a[0] - self.shift) if self.p > 0.0 else 0.0

    def benefit(self, x: float) -> float:
        return float(self.a @ self.rank_pmf(x))

    def rank_pmf(self, x: float) -> np.ndarray:
        """P(exactly k of the n-1 rivals beat quality with pressure x),
        in log space: log C(n-1, k) + k log x + (n-1-k) log(1-x)."""
        return np.exp(self._log_comb + special.xlogy(self._k, x)
                      + special.xlog1py(self.n - 1 - self._k, -x))

    def quality(self, x: float) -> float:
        """q(x) = c^{-1}(benefit(x) - shift), the quality at pressure x."""
        return self.cost.inverse(self.benefit(x) - self.shift)

    def pressure(self, q: float) -> float:
        """x(q): the pressure at which quality q is indifferent."""
        target = self.cost.value(q) + self.shift
        if q <= 0.0:
            return self.p
        if q >= self.qbar:
            return 0.0
        return optimize.brentq(
            lambda x: self.benefit(x) - target, 0.0, self.p, xtol=1e-15, maxiter=200
        )

    def budget(self) -> float:
        k = np.arange(1, self.n + 1)
        return float(self.a @ stats.binom.sf(k - 1, self.n, self.p))

    def _integral(self, f) -> float:
        if self.p == 0.0:
            return 0.0
        # the max weight n(1-x)^(n-1) lives within a few 1/n of x = 0
        knee = min(self.p, 5.0 / self.n)
        points = [knee] if 0.0 < knee < self.p else None
        value, _ = integrate.quad(
            f, 0.0, self.p, epsabs=1e-14, epsrel=1e-12, limit=400, points=points
        )
        return value

    def eq_max(self) -> float:
        n = self.n
        return self._integral(lambda x: self.quality(x) * n * (1.0 - x) ** (n - 1))

    def eq_avg(self) -> float:
        return self._integral(self.quality)
