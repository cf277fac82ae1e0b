import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from rankcontest import (
    CostParseError,
    DomainError,
    ExponentialCost,
    LinearCost,
    QuadraticPlusCost,
    parse_cost,
)

ALL_MODELS = [
    LinearCost(c0=0.25, slope=1.0),
    LinearCost(c0=0.0, slope=0.7),
    ExponentialCost(k=1.0),
    ExponentialCost(k=2.5),
    QuadraticPlusCost(c0=0.1, a=1.0, b=2.0),
    QuadraticPlusCost(c0=0.4, a=0.3, b=0.0),
]


def test_eval_examples():
    assert LinearCost(c0=0.25, slope=1.0).value(0.5) == pytest.approx(0.75)
    assert ExponentialCost(k=1.0).value(0.0) == pytest.approx(1.0)
    assert QuadraticPlusCost(c0=0.1, a=1.0, b=2.0).value(0.5) == pytest.approx(1.1)


def test_derivative_examples():
    assert LinearCost(c0=0.25, slope=1.0).derivative(0.4) == pytest.approx(1.0)
    assert ExponentialCost(k=2.0).derivative(0.0) == pytest.approx(2.0)
    assert QuadraticPlusCost(c0=0.1, a=1.0, b=2.0).derivative(0.25) == pytest.approx(2.0)


def test_inverse_examples():
    assert LinearCost(c0=0.25, slope=1.0).inverse(1.0) == pytest.approx(0.75)
    assert ExponentialCost(k=1.0).inverse(1.0) == pytest.approx(0.0)
    assert QuadraticPlusCost(c0=0.1, a=1.0, b=2.0).inverse(1.1) == pytest.approx(
        0.5, abs=1e-10
    )


def bisection_inverse(model, v):
    """The quadratic family's former inverse: 80 vectorised bisection
    steps on [0, hi], hi doubled from 1 until it brackets every target."""
    targets = np.atleast_1d(np.asarray(v, dtype=float))
    hi = 1.0
    while model.value(hi) < targets.max():
        hi *= 2.0
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = model.value(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_quadratic_closed_form_matches_bisection():
    rng = np.random.default_rng(2024)
    for draw in range(2000):
        model = QuadraticPlusCost(
            c0=rng.uniform(0.0, 1.0),
            a=rng.uniform(0.01, 3.0),
            b=0.0 if draw % 10 == 0 else rng.uniform(0.0, 5.0),
        )
        targets = model.c0 + np.concatenate(([0.0], np.logspace(-12, 3, 63)))
        got = model.inverse(targets)
        want = bisection_inverse(model, targets)
        assert got[0] == 0.0
        # rounding c0 + a*q + b*q**2 blurs q by about eps * v / a, which
        # dominates the relative error for targets just above c0
        blur = 4.0 * np.finfo(float).eps * targets / model.a
        assert np.all(np.abs(got - want) <= 1e-14 * want + blur)


def test_quadratic_inverse_against_bisection_oracle():
    model = QuadraticPlusCost(c0=0.1, a=1.0, b=2.0)

    def oracle(v):
        lo, hi = 0.0, 1.0
        while model.value(hi) < v:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if model.value(mid) < v:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for v in [0.1, 0.3, 1.1, 4.0, 37.5]:
        assert model.inverse(v) == pytest.approx(oracle(v), abs=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_strict_monotonicity(model):
    grid = np.linspace(0.0, 5.0, 100)
    values = model.value(grid)
    assert np.all(np.diff(values) > 0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_inverse_round_trip(model):
    grid = np.linspace(0.0, 5.0, 100)
    back = model.inverse(model.value(grid))
    assert np.max(np.abs(back - grid)) <= 1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_derivative_matches_finite_difference(model):
    h = 1e-6
    grid = np.linspace(0.1, 4.0, 40)
    fd = (model.value(grid + h) - model.value(grid - h)) / (2 * h)
    exact = model.derivative(grid)
    assert np.max(np.abs(fd - exact) / np.abs(exact)) <= 1e-6


def test_derivative_positive_everywhere():
    grid = np.linspace(0.0, 6.0, 50)
    for model in ALL_MODELS:
        assert np.all(model.derivative(grid) > 0)


def test_hazard_classes_analytic():
    assert LinearCost(c0=0.25, slope=1.0).hazard_class() == "nonincreasing"
    assert LinearCost(c0=0.0, slope=3.0).hazard_class() == "nonincreasing"
    assert ExponentialCost(k=3.0).hazard_class() == "constant"
    assert QuadraticPlusCost(c0=0.1, a=0.01, b=1.0).hazard_class() == "other"
    # 2*b*c0 <= a**2 keeps the ratio monotone even with curvature
    assert QuadraticPlusCost(c0=0.1, a=1.0, b=2.0).hazard_class() == "nonincreasing"


def test_hazard_class_matches_grid_sampling_oracle():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 20.0, 4001)
    for _ in range(40):
        model = QuadraticPlusCost(
            c0=rng.uniform(0.01, 1.0), a=rng.uniform(0.05, 2.0), b=rng.uniform(0.0, 3.0)
        )
        ratio = model.derivative(grid) / model.value(grid)
        rises = np.any(np.diff(ratio) > 1e-12)
        assert (model.hazard_class() == "other") == bool(rises)


def test_domain_errors():
    model = LinearCost(c0=0.25, slope=1.0)
    with pytest.raises(DomainError):
        model.value(-0.1)
    with pytest.raises(DomainError):
        model.derivative(-1.0)
    with pytest.raises(DomainError):
        model.inverse(0.1)  # below c(0)
    with pytest.raises(DomainError):
        LinearCost(c0=-0.1, slope=1.0)
    with pytest.raises(DomainError):
        LinearCost(c0=0.1, slope=0.0)
    with pytest.raises(DomainError):
        ExponentialCost(k=0.0)
    with pytest.raises(DomainError):
        QuadraticPlusCost(c0=0.1, a=0.0, b=1.0)


def test_entry_cost_flag():
    assert LinearCost(c0=0.25, slope=1.0).has_entry_cost
    assert not LinearCost(c0=0.0, slope=1.0).has_entry_cost
    assert ExponentialCost(k=1.0).has_entry_cost


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_spec_string_round_trip(model):
    assert parse_cost(model.spec_string()) == model
    data = model.to_dict()
    assert data.pop("family") == model.family
    assert type(model)(**data) == model


FAMILIES = {cls.family: cls for cls in (LinearCost, ExponentialCost, QuadraticPlusCost)}
# (spec, message); each was accepted before parameters had to be finite,
# and the first three then failed deep in quadrature with RuntimeWarnings
NON_FINITE = [
    ("exp:k=inf", "exponential cost requires a finite k > 0"),
    ("linear:c0=0.25,slope=inf", "linear cost requires a finite slope > 0"),
    ("quad:c0=0.1,a=1,b=inf", "quadratic cost requires a finite b >= 0"),
    ("linear:c0=inf,slope=1", "linear cost requires a finite c0 >= 0"),
    ("quad:c0=0.1,a=nan,b=1", "quadratic cost requires a finite a > 0"),
]


@pytest.mark.parametrize("spec, message", NON_FINITE)
def test_non_finite_parameters_rejected(spec, message):
    family, _, rest = spec.partition(":")
    params = {key: float(value) for key, value in (p.split("=") for p in rest.split(","))}
    with pytest.raises(DomainError) as err:
        FAMILIES[family](**params)
    assert str(err.value) == message
    with pytest.raises(CostParseError) as err:
        parse_cost(spec)
    assert str(err.value) == message
    assert err.value.offset == len(family) + 1


def test_docs_list_each_family_with_its_declared_bounds():
    text = (Path(__file__).resolve().parents[1] / "docs" / "instance-format.md").read_text()
    block = text.split("## Cost spec strings", 1)[1].split("```", 2)[1]
    documented = {}
    for line in block.strip().splitlines():
        spec, bounds = re.fullmatch(r"(\S+)\s+c\(q\) = .*\((.*)\)", line).groups()
        family, _, params = spec.partition(":")
        documented[family] = ([p.split("=")[0] for p in params.split(",")], bounds)
    declared = {}
    for cls in FAMILIES.values():
        params = dataclasses.fields(cls)
        bounds = ", ".join(
            f"{p.name} {'>' if p.metadata['strict'] else '>='} {p.metadata['least']}"
            for p in params
        )
        declared[cls.family] = ([p.name for p in params], bounds)
    assert documented == declared


def test_parse_errors_carry_offsets():
    with pytest.raises(CostParseError) as err:
        parse_cost("cubic:c0=1")
    assert err.value.offset == 0
    with pytest.raises(CostParseError) as err:
        parse_cost("linear:c0=0.25,rate=1")
    assert err.value.offset == len("linear:") + len("c0=0.25,")
    with pytest.raises(CostParseError) as err:
        parse_cost("exp:k=abc")
    assert err.value.offset == len("exp:k=")
    with pytest.raises(CostParseError):
        parse_cost("linear")
