import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from mtload import (cross_section_from_beta, excited_mot_density,
                    mean_collision_velocity, mot_on_decay_rate,
                    overlap_correction)
from mtload.collisions import GAUSS_NODES, GAUSS_WEIGHTS


def nested_quadrature_overlap(q):
    # independent numerical oracle: E[exp(-sqrt(rho^2 + 4 z^2))] for an
    # isotropic Gaussian of radius q, by adaptive 2-D quadrature over
    # (rho, z) out to 12 q
    norm = 1.0 / (q * q * math.sqrt(2.0 * math.pi * q * q))

    def integrand(z, rho):
        gauss = (norm * rho * math.exp(-rho * rho / (2.0 * q * q))
                 * math.exp(-z * z / (2.0 * q * q)))
        return gauss * math.exp(-math.sqrt(rho * rho + 4.0 * z * z))

    span = 12.0 * q
    with warnings.catch_warnings():
        # the oracle's own roundoff warnings do not concern the library
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(integrand, 0.0, span,
                                   lambda rho: -span, lambda rho: span,
                                   epsabs=1e-12, epsrel=1e-10)
    return val


def test_gauss_rule_is_leggauss():
    # the committed half rule, mirrored, is numpy's rule bit for bit
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    assert np.array_equal(GAUSS_NODES, nodes)
    assert np.array_equal(GAUSS_WEIGHTS, weights)


def test_velocity_reference_value(cr):
    v = mean_collision_velocity(300e-6, 100e-6, cr)
    assert v == pytest.approx(0.403797900333598, rel=1e-12, abs=0.0)


def test_velocity_symmetry_and_scaling(cr):
    assert mean_collision_velocity(300e-6, 100e-6, cr) == \
        mean_collision_velocity(100e-6, 300e-6, cr)
    v = mean_collision_velocity(300e-6, 100e-6, cr)
    assert mean_collision_velocity(1200e-6, 400e-6, cr) == pytest.approx(
        2 * v, rel=1e-12, abs=0.0)


def test_velocity_single_species_limit(cr):
    from mtload.constants import K_B
    t = 200e-6
    expected = math.sqrt(8 * K_B * t / (math.pi * cr.mass))
    assert mean_collision_velocity(t, 0.0, cr) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def test_velocity_rejects_both_zero(cr):
    with pytest.raises(ValueError):
        mean_collision_velocity(0.0, 0.0, cr)


def test_excited_density_example():
    n_e = excited_mot_density(1e7, 0.35, 1.571e-9)
    assert n_e == pytest.approx(2.228e15, rel=1e-3)
    assert excited_mot_density(1e7, 0.0, 1.571e-9) == 0.0
    assert excited_mot_density(1e7, 0.35, 2 * 1.571e-9) == pytest.approx(
        n_e / 2, rel=1e-12)


def test_overlap_point_reservoir_limit():
    assert overlap_correction(1e-5) == pytest.approx(1.0, abs=1e-4)


def test_overlap_reference_value():
    # value computed independently by brute-force Monte Carlo and nested
    # quadrature before the implementation existed
    f = overlap_correction(0.25)
    assert f == pytest.approx(0.5961065816, rel=1e-6)
    assert 0.5 <= f <= 0.8


@pytest.mark.parametrize(
    "q", np.concatenate([np.geomspace(1e-3, 1.0, 10), [0.2741]]).tolist())
def test_overlap_matches_nested_quadrature(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = overlap_correction(q)
    assert type(f) is float
    assert f == pytest.approx(nested_quadrature_overlap(q), rel=1e-9)


def test_overlap_monotone_decreasing():
    ratios = (0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
    values = [overlap_correction(r) for r in ratios]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_cross_section_from_beta(cr):
    v_mt = mean_collision_velocity(100e-6, 100e-6, cr)
    sigma = cross_section_from_beta(7e-17, v_mt)
    assert sigma == pytest.approx(7e-17 / v_mt, rel=1e-15, abs=0.0)
    # lands about half an order of magnitude below the reservoir-trap
    # cross-section scale of 1e-15 m^2
    assert 1e-16 < sigma < 1e-15
    assert cross_section_from_beta(0.0, 0.2) == 0.0
    assert cross_section_from_beta(7e-17, 0.4) == pytest.approx(
        cross_section_from_beta(7e-17, 0.2) / 2, rel=1e-15, abs=0.0)


def test_loss_rate_composition_linearity(cr):
    # Gamma = n_e sigma v must be linear in N_MOT and in sigma
    def gamma(n_mot, sigma):
        n_e = excited_mot_density(n_mot, 0.35, 1.5e-9)
        v = mean_collision_velocity(300e-6, 100e-6, cr)
        return mot_on_decay_rate(n_e, sigma, v)

    g = gamma(1e7, 1e-15)
    assert gamma(2e7, 1e-15) == pytest.approx(2 * g, rel=1e-12)
    assert gamma(1e7, 2e-15) == pytest.approx(2 * g, rel=1e-12)
    # finite-difference slope is constant (exact linearity)
    s1 = gamma(1.1e7, 1e-15) - gamma(1.0e7, 1e-15)
    s2 = gamma(5.1e7, 1e-15) - gamma(5.0e7, 1e-15)
    assert s1 == pytest.approx(s2, rel=1e-9)
