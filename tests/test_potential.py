"""Potential well: values, derivatives, and hypothesis checkers."""

import numpy as np
import pytest

from homoclinic import (
    HypothesisViolation,
    SingularityHit,
    SingularPotentialSpec,
    check_A,
    check_H2,
    check_H3,
    check_H4,
    check_W_negativity,
    default_witness,
    eval_a,
    eval_gradW,
    eval_hessW,
    eval_W,
    example_potential,
)
from homoclinic.potential import CoefficientSpec


def test_coefficient_values():
    spec = CoefficientSpec(a_base=2.0, a_amp=1.0, period=1.0)
    assert eval_a(spec, 0.0) == pytest.approx(3.0)
    assert eval_a(spec, 0.5) == pytest.approx(1.0)
    assert eval_a(spec, 0.25) == pytest.approx(2.0, abs=1e-12)
    assert eval_a(spec, 7.25) == pytest.approx(2.0, abs=1e-12)
    # periodicity
    t = np.linspace(-3.0, 3.0, 101)
    assert np.allclose(eval_a(spec, t), eval_a(spec, t + 7.0), atol=1e-12)


def test_well_value_and_gradient_by_hand():
    # u = (1, 0), q = (2, 0), alpha = 2: |u|^2 = 1, s = 1
    pot = example_potential()
    u = np.array([1.0, 0.0])
    assert eval_W(pot.well, u) == pytest.approx(-1.0)
    # grad = -2u s^-a + a |u|^2 s^(-a-2) (u - q) = (-2,0) + 2(-1,0)
    g = eval_gradW(pot.well, u)
    assert np.allclose(g, [-4.0, 0.0], atol=1e-14)


def test_well_values_other_points():
    # alpha = 2, u = (-2, 0): |u|^2 = 4, s = 4, W = -4/16
    pot2 = example_potential(alpha=2.0)
    assert eval_W(pot2.well, np.array([-2.0, 0.0])) == pytest.approx(-0.25)
    # alpha = 3, u = (1, 0): s = 1 so the power drops out
    pot3 = example_potential(alpha=3.0)
    assert eval_W(pot3.well, np.array([1.0, 0.0])) == pytest.approx(-1.0)


def test_gradient_matches_value_differences():
    pot = example_potential()
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        u = rng.uniform(-3.0, 3.0, 2)
        if np.linalg.norm(u - pot.q) < 0.5:
            continue
        g = eval_gradW(pot.well, u)
        step = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = np.empty(2)
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            fd[a] = (eval_W(pot.well, u + e) - eval_W(pot.well, u - e)) / (2.0 * step)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)
        checked += 1


def test_well_decreases_toward_singularity():
    # along the open segment 0 -> q both factors push W down, so the
    # directional derivative toward q stays negative
    pot = example_potential()
    qhat = pot.q / np.linalg.norm(pot.q)
    for s in np.linspace(0.1, 1.9, 10):
        g = eval_gradW(pot.well, s * qhat)
        assert float(g @ qhat) < 0.0


def test_well_vanishes_at_origin():
    pot = example_potential()
    z = np.zeros(2)
    assert eval_W(pot.well, z) == 0.0
    assert np.all(eval_gradW(pot.well, z) == 0.0)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_hessian_at_zero_closed_form(alpha):
    # W ~ -|u|^2 |q|^-alpha near 0, so the Hessian is -2 |q|^-alpha I
    pot = example_potential(alpha=alpha)
    expected = -2.0 * 2.0 ** (-alpha)
    H = eval_hessW(pot.well, np.zeros(2))
    assert np.allclose(H, expected * np.eye(2), atol=1e-12)
    rep = check_H2(pot.well)
    assert rep.eigen_min == pytest.approx(expected, abs=1e-4)
    assert rep.eigen_max == pytest.approx(expected, abs=1e-4)


def test_hessian_matches_gradient_differences():
    pot = example_potential(alpha=3.0)
    rng = np.random.default_rng(11)
    for _ in range(12):
        u = rng.uniform(-3.0, 3.0, 2)
        if np.linalg.norm(u - pot.q) < 0.3:
            continue
        H = eval_hessW(pot.well, u)
        step = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = np.empty((2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            fd[:, a] = (eval_gradW(pot.well, u + e) - eval_gradW(pot.well, u - e)) / (
                2.0 * step
            )
        assert np.allclose(H, fd, rtol=1e-5, atol=1e-6)
        assert np.allclose(H, H.T, atol=1e-12)


def test_batched_evaluation_shapes():
    pot = example_potential()
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 2))
    assert eval_W(pot.well, pts).shape == (7,)
    assert eval_gradW(pot.well, pts).shape == (7, 2)
    assert eval_hessW(pot.well, pts).shape == (7, 2, 2)


def test_singularity_guard():
    pot = example_potential()
    with pytest.raises(SingularityHit):
        eval_W(pot.well, pot.q)
    with pytest.raises(SingularityHit):
        eval_gradW(pot.well, pot.q + 1e-12)


def test_check_A_rejects_sign_change():
    with pytest.raises(HypothesisViolation):
        check_A(CoefficientSpec(a_base=1.0, a_amp=2.0, period=1.0))


def test_check_A_constant_coefficient():
    rep = check_A(CoefficientSpec(a_base=2.0, a_amp=0.0, period=1.0))
    assert rep.min_a == pytest.approx(2.0, abs=1e-12)
    assert rep.max_a == pytest.approx(2.0, abs=1e-12)


def test_check_A_accepts_default():
    rep = check_A(CoefficientSpec(a_base=2.0, a_amp=1.0, period=1.0))
    assert rep.min_a == pytest.approx(1.0, abs=1e-4)
    assert rep.max_a == pytest.approx(3.0, abs=1e-4)


def test_check_H2_rejects_positive_curvature(monkeypatch):
    # every well of the family has Hessian -2|q|^-alpha I at 0, so a convex
    # fake stands in for W; check_H2 looks eval_W up at call time
    from homoclinic import potential

    monkeypatch.setattr(potential, "eval_W", lambda spec, u: np.sum(np.asarray(u) ** 2, axis=-1))
    with pytest.raises(HypothesisViolation, match="nonnegative eigenvalue"):
        check_H2(example_potential().well)


def test_check_H2_dimension_three():
    pot = example_potential(dimension=3, alpha=2.0)
    rep = check_H2(pot.well)
    assert rep.eigen_min == pytest.approx(-0.5, abs=1e-4)
    assert rep.eigen_max == pytest.approx(-0.5, abs=1e-4)


def test_check_H3_default_witness_passes(pot):
    rep = check_H3(pot.well, default_witness(pot.well))
    assert rep.min_margin >= 0.0
    assert rep.radius == pytest.approx(0.1)


def test_check_H3_rejects_bad_radius(pot):
    w = default_witness(pot.well)
    w.r = 0.0
    with pytest.raises(ValueError):
        check_H3(pot.well, w)
    w.r = np.linalg.norm(pot.q)  # at |q| the shells would touch the origin
    with pytest.raises(ValueError):
        check_H3(pot.well, w)


def test_check_H3_rejects_inverse_distance_well(monkeypatch):
    # -W ~ 1/s is too weak: every admissible witness gradient near q
    # grows at least like 1/s, so |grad U|^2 ~ 1/s^2 wins; no well of the
    # family is that weak, so a fake W stands in (check_H3 looks eval_W up
    # at call time)
    from homoclinic import potential

    well = example_potential().well
    monkeypatch.setattr(
        potential,
        "eval_W",
        lambda spec, u: -1.0 / np.linalg.norm(np.asarray(u) - spec.q, axis=-1),
    )
    with pytest.raises(HypothesisViolation, match="strong-force barrier fails"):
        check_H3(well, default_witness(well))


def test_check_H3_detects_weak_singularity():
    # with |q| < 1 the well -|u|^2 s^-2 ~ -|q|^2 / s^2 near q is dominated
    # by |grad ln s|^2 = 1 / s^2, so the log witness cannot certify the barrier
    well = example_potential(q=[0.5, 0.0]).well
    with pytest.raises(HypothesisViolation, match="min margin -7.5"):
        check_H3(well, default_witness(well))


# measured margins; alpha=4 takes the witness's logarithmic far field
@pytest.mark.parametrize(
    "alpha,margin,growth",
    [(2.0, 0.39487085, 1.27803164), (3.0, 1.80887410e-3, 0.21029123), (4.0, 2.80337061e-6, 0.13862944)],
    ids=["2.0", "3.0", "4.0"],
)
def test_check_H4_default_witness_passes(alpha, margin, growth):
    well = example_potential(alpha=alpha).well
    rep = check_H4(well, default_witness(well))
    assert rep.min_margin >= 0.0
    assert rep.min_growth > 0.0
    assert (rep.min_margin, rep.min_growth) == pytest.approx((margin, growth), rel=1e-6)


def test_check_W_negativity(pot):
    rep = check_W_negativity(pot.well)
    assert rep.max_w < 0.0
    assert rep.n_samples > 400


def test_example_family_alpha_bounds():
    with pytest.raises(ValueError):
        SingularPotentialSpec(dimension=2, q=np.array([2.0, 0.0]), alpha=1.5)
    with pytest.raises(ValueError):
        example_potential(alpha=4.5)
