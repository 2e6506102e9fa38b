import pytest

from mtload import (LightField, efficiency_from_rate,
                    excitation_probability, transfer_rate)


def operating_light(cr, detuning_linewidths=-2.0):
    return LightField(single_beam_intensity=15.0 * cr.saturation_intensity,
                      beam_count=6,
                      detuning=detuning_linewidths * cr.gamma_eg)


def test_no_light_no_excitation(cr):
    light = LightField(single_beam_intensity=0.0, detuning=-2 * cr.gamma_eg)
    assert excitation_probability(light, cr) == 0.0


def test_excited_fraction_at_operating_point(cr):
    # 15 I_s per beam, six beams, two linewidths red: s = 90/(7/3)
    p = excitation_probability(operating_light(cr), cr)
    assert p == pytest.approx(0.34704370179948585, rel=1e-12, abs=0.0)
    assert p == pytest.approx(0.347, abs=5e-4)


def test_saturation_limit(cr):
    light = LightField(single_beam_intensity=1e9 * cr.saturation_intensity,
                       beam_count=6, detuning=0.0)
    assert abs(excitation_probability(light, cr) - 0.5) < 1e-6


def test_bounded_below_half(cr, rng):
    for _ in range(50):
        light = LightField(
            single_beam_intensity=float(rng.uniform(0, 1e4)),
            beam_count=int(rng.integers(1, 8)),
            detuning=float(rng.uniform(-10, 10)) * cr.gamma_eg,
        )
        p = excitation_probability(light, cr)
        assert 0.0 <= p < 0.5


def test_monotonicity_finite_differences(cr, rng):
    # dP/dI > 0 and dP/d|Delta| < 0 at random operating points
    for _ in range(10):
        intensity = float(rng.uniform(1.0, 50.0)) * cr.saturation_intensity
        det = -float(rng.uniform(0.5, 8.0)) * cr.gamma_eg
        p0 = excitation_probability(
            LightField(intensity, 6, det), cr)
        p_brighter = excitation_probability(
            LightField(intensity * 1.001, 6, det), cr)
        p_redder = excitation_probability(
            LightField(intensity, 6, det * 1.001), cr)
        assert p_brighter > p0
        assert p_redder < p0


def test_transfer_rate_examples(cr):
    assert transfer_rate(0.0, 0.3, cr, 0.32) == 0.0
    r = transfer_rate(1e7, 0.347, cr, 0.32)
    assert r == pytest.approx(1.410208e8, rel=1e-6)
    # order of magnitude of the headline loading rate
    assert 1e7 < r < 1e9


def test_transfer_rate_linearity(cr):
    r1 = transfer_rate(1e7, 0.3, cr, 0.25)
    assert transfer_rate(2e7, 0.3, cr, 0.25) == pytest.approx(2 * r1, rel=1e-15)
    assert transfer_rate(1e7, 0.3, cr, 0.5) == pytest.approx(2 * r1, rel=1e-15)


def test_efficiency_round_trip(cr, rng):
    for _ in range(20):
        eta = float(rng.uniform(0.01, 1.0))
        n = float(rng.uniform(1e5, 1e8))
        p = float(rng.uniform(0.01, 0.49))
        r = transfer_rate(n, p, cr, eta)
        assert efficiency_from_rate(r, n, p, cr) == pytest.approx(
            eta, rel=1e-12, abs=0.0)


def test_efficiency_zero_rate(cr):
    assert efficiency_from_rate(0.0, 1e7, 0.3, cr) == 0.0


def test_efficiency_zero_denominator_rejected(cr):
    with pytest.raises(ValueError):
        efficiency_from_rate(1.0, 0.0, 0.3, cr)
    with pytest.raises(ValueError):
        efficiency_from_rate(1.0, 1e7, 0.0, cr)
