"""Shared fixtures: the standing example maps and random-form helpers."""
from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

import fibera
from fibera import KForm, PolyMap, Polynomial, infinity_basis, monomial_basis

# `python -m fibera.cli` in a subprocess imports the fibera under test
_PKG_ROOT = str(Path(fibera.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")]))


def variables(n):
    return [Polynomial.variable(n, i) for i in range(n)]


@pytest.fixture(scope="session")
def golden_map():
    """F = (x*z, x^2 + y^2 - z^2) on C^3: isolated singularity at infinity,
    Milnor number 5.  The standing nontrivial example throughout the suite."""
    x, y, z = variables(3)
    return PolyMap([x * z, x ** 2 + y ** 2 - z ** 2], (1, 1, 1))


@pytest.fixture(scope="session")
def golden_basis(golden_map):
    return infinity_basis(golden_map)


@pytest.fixture(scope="session")
def cusp_map():
    """f = x^2 + y^3 with weights (3, 2): weighted-homogeneous cusp."""
    x, y = variables(2)
    return PolyMap([x ** 2 + y ** 3], (3, 2))


@pytest.fixture(scope="session")
def circle_map():
    x, y = variables(2)
    return PolyMap([x ** 2 + y ** 2], (1, 1))


@pytest.fixture(scope="session")
def sphere_map():
    x, y, z = variables(3)
    return PolyMap([x ** 2 + y ** 2 + z ** 2], (1, 1, 1))


@pytest.fixture(scope="session")
def line_map():
    """f = x viewed on C^2: empty singular locus, Milnor number 0."""
    x, _ = variables(2)
    return PolyMap([x], (1, 1))


@pytest.fixture(scope="session")
def quartic_map():
    """f = x^4 + x^2 y^2: fails the complete-intersection-at-infinity test
    (the singular locus of the cone at infinity is a whole line)."""
    x, y = variables(2)
    return PolyMap([x ** 4 + x ** 2 * y ** 2], (1, 1))


def make_random_form(rng, n, k, weights, max_degree, density=0.4):
    """Random k-form with integer coefficients, weighted degree <= max_degree."""
    f = KForm.zero(n, k)
    for b in monomial_basis(n, k, weights, max_degree, at_most=True):
        if rng.random() < density:
            c = rng.randint(-4, 4)
            if c:
                f = f + Fraction(c) * b
    return f


def make_random_poly(rng, n, weights, max_degree, density=0.4):
    return make_random_form(rng, n, 0, weights, max_degree, density).as_polynomial()


@pytest.fixture(scope="session")
def random_form():
    return make_random_form


@pytest.fixture(scope="session")
def random_poly():
    return make_random_poly
