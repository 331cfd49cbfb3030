"""Unit tests for energy bookkeeping and parameter adaptation.

The sigmoid anchors are frozen from a high-precision computation:
sigmoid(4) = 0.982013790037908..., so with gains 0.5 and bounds [3, 15]
an agent 8 units above threshold carries eta = 14.784165480454901.
"""

import numpy as np
import pytest

from flocksim import (
    AdaptationParams,
    EnergyState,
    InteractionParams,
    Neighborhood,
    adaptive_delta,
    adaptive_eta,
    adaptive_threshold,
    apply_adaptation,
    energy_derivative,
    low_energy_fraction,
)


def test_energy_state_validation():
    EnergyState(initial=80.0)
    with pytest.raises(ValueError):
        EnergyState(initial=80.0, c1=-0.1)
    with pytest.raises(ValueError):
        EnergyState(initial=80.0, c2=0.0)
    with pytest.raises(ValueError):
        EnergyState(initial=0.0)


def test_adaptation_params_validation():
    AdaptationParams()
    with pytest.raises(ValueError):
        AdaptationParams(delta_min=2.0, delta_max=1.0)
    with pytest.raises(ValueError):
        AdaptationParams(eta_min=-1.0)
    with pytest.raises(ValueError):
        AdaptationParams(k_delta=0.0)
    with pytest.raises(ValueError):
        AdaptationParams(k_eta=-0.5)


def test_energy_derivative_frozen_value():
    # -(0.15 * 25 + 0.015) = -3.765 for ||a|| = 5.
    got = energy_derivative(np.array([3.0, 4.0]), 0.15, 0.015)
    assert got == pytest.approx(-3.765, rel=1e-12)


def test_energy_derivative_always_below_metabolic_floor():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(-5, 5, 2)
        assert energy_derivative(a, 0.15, 0.015) <= -0.015
    assert energy_derivative(np.zeros(2), 0.15, 0.015) == pytest.approx(-0.015)


def test_low_energy_fraction_cases():
    energies = np.array([50.0, 45.0, 20.0])
    nbrs = Neighborhood((1, 2))
    assert low_energy_fraction(energies, nbrs, 40.0) == pytest.approx(0.5)
    assert low_energy_fraction(np.array([50.0, 10.0, 20.0]), nbrs, 40.0) == 1.0
    assert low_energy_fraction(energies, Neighborhood(()), 40.0) == 0.0
    # Strictly below: a neighbor exactly at threshold does not count.
    assert low_energy_fraction(np.array([50.0, 40.0, 40.0]), nbrs, 40.0) == 0.0


def test_adaptive_threshold_cases():
    nbrs = Neighborhood((1, 2))
    # Half the neighbors tired: 40 - 0.5 * (40 - 20) = 30.
    assert adaptive_threshold(np.array([50.0, 45.0, 20.0]), nbrs, 40.0) == \
        pytest.approx(30.0)
    # All tired: threshold collapses onto the weakest neighbor.
    assert adaptive_threshold(np.array([50.0, 30.0, 20.0]), nbrs, 40.0) == \
        pytest.approx(20.0)
    # No neighbors: keep the global threshold.
    assert adaptive_threshold(np.array([50.0]), Neighborhood(()), 40.0) == 40.0


def test_adaptive_eta_frozen_values():
    p = AdaptationParams(eta_min=3.0, eta_max=15.0, k_eta=0.5)
    assert adaptive_eta(48.0, 40.0, p) == pytest.approx(
        14.784165480454901, rel=1e-12)
    # At the threshold the sigmoid is exactly 1/2.
    assert adaptive_eta(40.0, 40.0, p) == 9.0


def test_adaptive_delta_frozen_values():
    p = AdaptationParams(delta_min=0.5, delta_max=2.0, k_delta=0.5)
    assert adaptive_delta(48.0, 40.0, p) == pytest.approx(
        1.973020685056863, rel=1e-12)
    assert adaptive_delta(40.0, 40.0, p) == 1.25


def test_adaptation_saturates_without_overflow():
    p = AdaptationParams()
    assert adaptive_eta(1e6, 40.0, p) == pytest.approx(p.eta_max, abs=1e-12)
    assert adaptive_eta(-1e6, 40.0, p) == pytest.approx(p.eta_min, abs=1e-12)
    assert adaptive_delta(1e6, 40.0, p) == pytest.approx(p.delta_max, abs=1e-12)
    assert adaptive_delta(-1e6, 40.0, p) == pytest.approx(p.delta_min, abs=1e-12)


def test_adaptation_monotone_in_energy():
    p = AdaptationParams()
    rng = np.random.default_rng(8)
    energies = np.sort(rng.uniform(-50, 150, 40))
    etas = [adaptive_eta(float(e), 40.0, p) for e in energies]
    deltas = [adaptive_delta(float(e), 40.0, p) for e in energies]
    assert np.all(np.diff(etas) >= 0)
    assert np.all(np.diff(deltas) >= 0)
    assert all(p.eta_min <= e <= p.eta_max for e in etas)
    assert all(p.delta_min <= d <= p.delta_max for d in deltas)


def test_apply_adaptation_updates_only_offsets():
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    energies = np.array([60.0, 35.0, 10.0])
    params = [InteractionParams(delta=1.0, eta=5.0, radius=3.0, v_max=4.0,
                                t_vmax=2.0)] * 3
    adap = AdaptationParams()
    out = apply_adaptation(pos, energies, params, adap)
    assert len(out.delta) == len(out.eta) == 3
    for i, before in enumerate(params):
        assert out.radius[i] == before.radius
        assert out.alpha[i] == before.alpha
        assert out.beta[i] == before.beta
        assert out.v_max[i] == before.v_max
        assert out.t_vmax[i] == before.t_vmax
    # The well-rested agent sits higher than the exhausted one.
    assert out.eta[0] > out.eta[2]
    assert out.delta[0] > out.delta[2]


def test_apply_adaptation_permutation_equivariance():
    rng = np.random.default_rng(13)
    pos = rng.uniform(0, 6, (5, 2))
    energies = rng.uniform(0, 100, 5)
    params = [InteractionParams(radius=4.0)] * 5
    adap = AdaptationParams()
    out = apply_adaptation(pos, energies, params, adap)
    perm = rng.permutation(5)
    out_p = apply_adaptation(pos[perm], energies[perm], params, adap)
    for k, orig in enumerate(perm):
        assert out_p.eta[k] == pytest.approx(out.eta[orig], rel=1e-15)
        assert out_p.delta[k] == pytest.approx(out.delta[orig], rel=1e-15)


def test_apply_adaptation_validates_lengths():
    pos = np.zeros((3, 2))
    with pytest.raises(ValueError):
        apply_adaptation(pos, np.zeros(2), [InteractionParams()] * 3,
                         AdaptationParams())
    with pytest.raises(ValueError):
        apply_adaptation(pos, np.zeros(3), [InteractionParams()] * 2,
                         AdaptationParams())

