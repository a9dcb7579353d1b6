"""Potential well: values, derivatives, and the closed-form hypothesis gate."""

import gate_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoclinic.errors import HypothesisViolation, SingularityProximity
from homoclinic.potential import (
    PotentialSpec,
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


def test_coefficient_values():
    spec = example_potential(a_base=2.0, a_amp=1.0, period=1.0)
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
    assert eval_W(pot, u) == pytest.approx(-1.0)
    # grad = -2u s^-a + a |u|^2 s^(-a-2) (u - q) = (-2,0) + 2(-1,0)
    g = eval_gradW(pot, u)
    assert np.allclose(g, [-4.0, 0.0], atol=1e-14)


def test_well_values_other_points():
    # alpha = 2, u = (-2, 0): |u|^2 = 4, s = 4, W = -4/16
    pot2 = example_potential(alpha=2.0)
    assert eval_W(pot2, np.array([-2.0, 0.0])) == pytest.approx(-0.25)
    # alpha = 3, u = (1, 0): s = 1 so the power drops out
    pot3 = example_potential(alpha=3.0)
    assert eval_W(pot3, np.array([1.0, 0.0])) == pytest.approx(-1.0)


def test_gradient_matches_value_differences():
    pot = example_potential()
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        u = rng.uniform(-3.0, 3.0, 2)
        if np.linalg.norm(u - pot.q) < 0.5:
            continue
        g = eval_gradW(pot, u)
        step = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = np.empty(2)
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            fd[a] = (eval_W(pot, u + e) - eval_W(pot, u - e)) / (2.0 * step)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)
        checked += 1


def test_well_decreases_toward_singularity():
    # along the open segment 0 -> q both factors push W down, so the
    # directional derivative toward q stays negative
    pot = example_potential()
    qhat = pot.q / np.linalg.norm(pot.q)
    for s in np.linspace(0.1, 1.9, 10):
        g = eval_gradW(pot, s * qhat)
        assert float(g @ qhat) < 0.0


def test_well_vanishes_at_origin():
    pot = example_potential()
    z = np.zeros(2)
    assert eval_W(pot, z) == 0.0
    assert np.all(eval_gradW(pot, z) == 0.0)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_hessian_at_zero_closed_form(alpha):
    # W ~ -|u|^2 |q|^-alpha near 0, so the Hessian is -2 |q|^-alpha I
    pot = example_potential(alpha=alpha)
    expected = -2.0 * 2.0 ** (-alpha)
    H = eval_hessW(pot, np.zeros(2))
    assert np.allclose(H, expected * np.eye(2), atol=1e-12)
    rep = check_H2(pot)
    assert rep["eigen_min"] == pytest.approx(expected, abs=1e-4)
    assert rep["eigen_max"] == pytest.approx(expected, abs=1e-4)


def test_hessian_matches_gradient_differences():
    pot = example_potential(alpha=3.0)
    rng = np.random.default_rng(11)
    for _ in range(12):
        u = rng.uniform(-3.0, 3.0, 2)
        if np.linalg.norm(u - pot.q) < 0.3:
            continue
        H = eval_hessW(pot, u)
        step = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = np.empty((2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            fd[:, a] = (eval_gradW(pot, u + e) - eval_gradW(pot, u - e)) / (
                2.0 * step
            )
        assert np.allclose(H, fd, rtol=1e-5, atol=1e-6)
        assert np.allclose(H, H.T, atol=1e-12)


def test_batched_evaluation_shapes():
    pot = example_potential()
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 2))
    assert eval_W(pot, pts).shape == (7,)
    assert eval_gradW(pot, pts).shape == (7, 2)
    assert eval_hessW(pot, pts).shape == (7, 2, 2)


def test_singularity_guard():
    pot = example_potential()
    with pytest.raises(SingularityProximity):
        eval_W(pot, pot.q)
    with pytest.raises(SingularityProximity):
        eval_gradW(pot, pot.q + 1e-12)


def test_check_A_rejects_sign_change():
    with pytest.raises(HypothesisViolation):
        check_A(example_potential(a_base=1.0, a_amp=2.0, period=1.0))


def test_check_A_constant_coefficient():
    rep = check_A(example_potential(a_base=2.0, a_amp=0.0, period=1.0))
    assert rep["min_a"] == pytest.approx(2.0, abs=1e-12)
    assert rep["max_a"] == pytest.approx(2.0, abs=1e-12)


def test_check_A_accepts_default():
    rep = check_A(example_potential(a_base=2.0, a_amp=1.0, period=1.0))
    assert rep["min_a"] == pytest.approx(1.0, abs=1e-4)
    assert rep["max_a"] == pytest.approx(3.0, abs=1e-4)


def test_check_H2_dimension_three():
    pot = example_potential(dimension=3, alpha=2.0)
    rep = check_H2(pot)
    assert rep["eigen_min"] == pytest.approx(-0.5, abs=1e-4)
    assert rep["eigen_max"] == pytest.approx(-0.5, abs=1e-4)


def test_check_H3_default_witness_passes(pot):
    rep = check_H3(pot, default_witness(pot))
    assert rep["min_margin"] >= 0.0
    assert rep["radius"] == pytest.approx(0.1)


def test_check_H3_rejects_bad_radius(pot):
    w = default_witness(pot)
    w.r = 0.0
    with pytest.raises(ValueError):
        check_H3(pot, w)
    w.r = np.linalg.norm(pot.q)  # at |q| the shells would touch the origin
    with pytest.raises(ValueError):
        check_H3(pot, w)


# exact minima of the barrier margin s^-alpha ((|q| - s)^2 - c^2) over
# 1e-5 <= s <= 0.1: at s = 1e-5 for |q| = 0.5 at alpha = 2, at s = 0.1 for
# the two wells that the old 16 x 16 sampled probe passed (with margins
# 5.162 and 0.1102)
@pytest.mark.parametrize(
    "alpha,q,s,margin",
    [
        (2.0, [0.5, 0.0], 1e-5, -7.5001e9),
        (4.0, [-0.5895, -0.9244], 0.1, -72.48),
        (2.5429, [0.0786, 0.1592, -0.3152], 0.1, -1.803),
    ],
    ids=["q0.5-alpha2", "alpha4", "alpha2.5429-d3"],
)
def test_check_H3_rejects_weak_barriers(alpha, q, s, margin):
    pot = example_potential(alpha=alpha, dimension=len(q), q=q)
    witness = default_witness(pot)
    c = 1.0 if alpha == 2.0 else alpha / 2.0 - 1.0
    exact = s ** -alpha * ((pot.q_norm - s) ** 2 - c * c)
    with pytest.raises(HypothesisViolation, match="strong-force barrier fails") as info:
        check_H3(pot, witness)
    assert info.value.report["min_margin"] == pytest.approx(exact, rel=1e-12)
    assert exact == pytest.approx(margin, rel=1e-3)
    # the dense oracle finds the violation too
    assert gate_oracle.barrier_margin(pot, witness.r) < 0.0


def test_check_H3_detects_weak_singularity():
    # with |q| < 1 the well -|u|^2 s^-2 ~ -|q|^2 / s^2 near q is dominated
    # by |grad ln s|^2 = 1 / s^2, so the log witness cannot certify the barrier
    pot = example_potential(q=[0.5, 0.0])
    with pytest.raises(HypothesisViolation, match="min margin -7.5"):
        check_H3(pot, default_witness(pot))


# closed-form margins, the far end's at alpha 3 and 4 (0.8^2 - 1/4 at the
# near end at alpha 2); alpha=4 takes the witness's logarithmic far field
@pytest.mark.parametrize(
    "alpha,margin,growth",
    [(2.0, 0.39, 1.27803164), (3.0, 1.8083442e-3, 0.21029123), (4.0, 2.8019959e-6, 0.13862944)],
    ids=["2.0", "3.0", "4.0"],
)
def test_check_H4_default_witness_passes(alpha, margin, growth):
    pot = example_potential(alpha=alpha)
    rep = check_H4(pot, default_witness(pot))
    assert rep["min_margin"] >= 0.0
    assert rep["min_growth"] > 0.0
    assert (rep["min_margin"], rep["min_growth"]) == pytest.approx((margin, growth), rel=1e-6)


def test_check_W_negativity(pot):
    # W / |u|^2 = -|u - q|^-alpha peaks on |u| <= 4|q| at u = -4q
    rep = check_W_negativity(pot)
    assert (rep["max_ratio"], rep["radius"]) == (-(10.0**-2), 8.0)


@st.composite
def _any_well(draw):
    """alpha in [2, 4], 0.2 < |q| < 1e4 in any direction of R^2 or R^3,
    and any coefficient, NaN included: the rows below do not read it."""
    d = draw(st.sampled_from([2, 3]))
    direction = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    v = np.array(draw(direction.filter(lambda v: np.linalg.norm(v) > 0.1)))
    q_norm = draw(st.floats(0.2, 1e4, exclude_min=True, exclude_max=True))
    return example_potential(
        alpha=draw(st.floats(2.0, 4.0)),
        dimension=d,
        a_base=draw(st.floats()),
        a_amp=draw(st.floats()),
        q=q_norm * v / np.linalg.norm(v),
    )


# the examples are where a growth taken as a difference of |U_inf| fails:
# just below alpha = 4, (c R0)^b and R0^b round to one value, and at
# alpha = 4 with R0 < 1, |ln rho| falls from R0 to the next shell
@given(pot=_any_well())
@example(pot=example_potential(alpha=float(np.nextafter(4.0, 0.0))))
@example(pot=example_potential(alpha=4.0, q=[0.21, 0.0]))
@settings(max_examples=200, deadline=None)
def test_rows_without_a_reachable_failure(pot):
    # H2's eigenvalue -2|q|^-alpha and W<0's -(5|q|)^-alpha are negative;
    # H4's margin at R0 = 4|q| is R0^(2-alpha) ((4/5)^alpha - k) with
    # (4/5)^alpha >= 0.41 > 1/4 >= k, and the witness grows for every alpha
    assert check_H2(pot)["eigen_max"] < 0.0
    assert check_W_negativity(pot)["max_ratio"] < 0.0
    h4 = check_H4(pot, default_witness(pot))
    assert h4["min_margin"] > 0.0 and h4["min_growth"] > 0.0


def _random_wells(n=300, seed=7):
    """Valid wells: alpha in [2, 4] (every tenth at 2, the next at 4), d 2
    or 3, |q| log-uniform in [0.21, 1000] in a random direction, and a
    random coefficient, positive or not."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        d = int(rng.integers(2, 4))
        v = rng.standard_normal(d)
        q_norm = np.exp(rng.uniform(np.log(0.21), np.log(1000.0)))
        yield example_potential(
            alpha=(2.0, 4.0, float(rng.uniform(2.0, 4.0)))[min(i % 10, 2)],
            dimension=d,
            a_base=float(rng.uniform(-1.0, 3.0)),
            a_amp=float(rng.uniform(-2.0, 2.0)),
            q=q_norm * v / np.linalg.norm(v),
        )


def _report(check, *args):
    """(report, passed) of one gate row, the report taken off a violation."""
    try:
        return check(*args), True
    except HypothesisViolation as exc:
        return exc.report, False


def test_closed_form_gate_matches_dense_sampling():
    # each closed-form margin is an exact minimum over the range the oracle
    # samples, so it lies at or below the sampled one up to rounding (H2's
    # difference quotients add an O((h/|q|)^2) error), and every verdict agrees
    failed = {"A": 0, "H3": 0}
    for pot in _random_wells():
        witness = default_witness(pot)
        a_rep, a_ok = _report(check_A, pot)
        a_min, a_max = gate_oracle.coefficient_range(pot)
        assert a_ok == (a_min > 0.0)
        assert (a_rep["min_a"], a_rep["max_a"]) == pytest.approx(
            (a_min, a_max), rel=1e-12, abs=1e-12
        )
        h2 = check_H2(pot)
        eigs = gate_oracle.hessian_eigenvalues(pot)
        assert (h2["eigen_min"], h2["eigen_max"]) == pytest.approx((eigs[0], eigs[-1]), rel=1e-8)
        assert eigs[-1] < 0.0
        h3, h3_ok = _report(check_H3, pot, witness)
        barrier = gate_oracle.barrier_margin(pot, witness.r)
        assert h3_ok == (barrier >= 0.0)
        assert h3["min_margin"] <= barrier + 1e-12 * abs(barrier)
        h4 = check_H4(pot, witness)
        far, growth = gate_oracle.far_field(pot, witness.R0)
        assert far >= 0.0 and growth > 0.0
        assert h4["min_margin"] <= far + 1e-12 * abs(far)
        assert h4["min_growth"] == pytest.approx(growth, rel=1e-12)
        ratio = check_W_negativity(pot)["max_ratio"]
        sampled = gate_oracle.negativity_ratio(pot)
        assert sampled <= ratio + 1e-12 * abs(ratio) and ratio < 0.0
        failed["A"] += not a_ok
        failed["H3"] += not h3_ok
    # both verdicts occur in the sweep
    assert failed == {"A": 154, "H3": 30}


def test_example_family_alpha_bounds():
    with pytest.raises(ValueError):
        PotentialSpec(q=np.array([2.0, 0.0]), alpha=1.5, a_base=2.0, a_amp=1.0, period=1.0)
    with pytest.raises(ValueError):
        example_potential(alpha=4.5)
