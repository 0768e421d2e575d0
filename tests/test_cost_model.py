"""Cost model: published constants, exact savings, measured-count sanity."""

import random
from fractions import Fraction

import pytest

from gaskit import cost_model
from gaskit.cost_model import (
    EnergyBreakdown,
    csv_header,
    csv_row,
    energy,
    per_user_cost,
)
from calibration import savings_ratio


def test_published_constants():
    assert cost_model.TEM_IN_TMULP == 29
    assert cost_model.TMULP_IN_TMULQ == 41
    assert cost_model.TEM_TMULQ == 29 * 41 == 1189


def test_per_user_cost_examples():
    assert per_user_cost("proposed", 50) == 1189
    assert per_user_cost("proposed", 1) == 1189
    assert per_user_cost("chien", 10) == 6855
    assert per_user_cost("harn", 10) == 1868
    assert per_user_cost("harn", 10, harn_slope="table") == 14 * 10 + 1418 == 1558


def test_per_user_cost_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        per_user_cost("rsa", 10)
    with pytest.raises(ValueError):
        per_user_cost("proposed", 0)
    with pytest.raises(ValueError, match="harn_slope"):
        per_user_cost("harn", 10, harn_slope="bogus")


def test_affine_slopes():
    for scheme, slope in (("harn", 45), ("chien", 7), ("proposed", 0)):
        diffs = {
            per_user_cost(scheme, m + 1) - per_user_cost(scheme, m)
            for m in range(1, 200)
        }
        assert diffs == {slope}


def test_decomposition_matches_totals():
    # the simulator's phase split must reproduce the published formulas
    for m in (1, 10, 50, 200):
        harn_total = (
            cost_model.HARN_RELEASE_BASE
            + cost_model.HARN_LAGRANGE_PER_X * m
            + cost_model.HARN_ACCUM_PER_MSG * m
        )
        assert harn_total == per_user_cost("harn", m)
        chien_total = (
            cost_model.TEM_TMULQ
            + cost_model.CHIEN_LAGRANGE_PER_X * (m - 1)
            + cost_model.CHIEN_VERIFY_TAIL
        )
        assert chien_total == per_user_cost("chien", m)


def test_savings_ratio_examples():
    assert savings_ratio(10) == 1 - Fraction(1189, 6855)
    assert abs(float(savings_ratio(10)) - 0.827) < 0.001
    assert abs(float(savings_ratio(50)) - 0.833) < 0.001
    assert abs(float(savings_ratio(1)) - 0.825) < 0.001


def test_savings_ratio_at_least_80_percent():
    for m in range(1, 1001):
        assert savings_ratio(m) >= Fraction(80, 100)


def test_energy_split_and_proportionality():
    e10 = energy(per_user_cost("proposed", 10), 1e-5, 0, 0)
    e50 = energy(per_user_cost("proposed", 50), 1e-5, 0, 0)
    assert e10.radio_j == 0.0
    assert e10.compute_j == e50.compute_j == 1189 * 1e-5  # constant profile
    assert e10.total_j == e10.compute_j
    # a radio byte, sent or received, costs one T_mul,q
    e = energy(per_user_cost("harn", 10), 1e-5, 100, 900)
    assert e.compute_j == pytest.approx(1868 * 1e-5)
    assert e.radio_j == 100 * 1e-5 + 900 * 1e-5
    assert e.total_j == pytest.approx(e.compute_j + e.radio_j)


def test_energy_validation():
    with pytest.raises(ValueError, match="positive"):
        energy(1189, 0.0, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        energy(1189, 1e-5, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        energy(1189, 1e-5, 0, -1)
    with pytest.raises(ValueError, match="non-negative"):
        energy(-1, 1e-5, 0, 0)


def test_csv_schema():
    assert csv_header() == "scheme,m,tmulq,compute_J,radio_J,total_J,auth_time_s"
    row = csv_row("proposed", 10, 1189, EnergyBreakdown(0.0133, 0.0007), 1.3)
    assert row.split(",") == ["proposed", "10", "1189", "0.0133", "0.0007", "0.014", "1.3"]


def test_measured_scalar_mul_count_within_3x_of_model():
    """One real scalar multiplication on the 160-bit curve stays within 3x
    of the 1189-multiplication estimate (the 29 and 41 are 'roughly')."""
    from gaskit.ec import builtin_curve, scalar_mul
    from gaskit.field import MulCounter

    curve = builtin_curve("secp160r1")
    rng = random.Random(12)
    for _ in range(3):
        k = rng.randrange(1, curve.subgroup_order)
        with MulCounter() as ops:
            scalar_mul(k, curve.generator, curve)
        assert 1189 / 3 <= ops.field_muls <= 1189 * 3


def test_measured_variable_base_count_within_3x_of_model():
    """The same contract for a point other than the generator (the pairwise
    ECDH), which takes the width-4 NAF path: a table of P, 3P, 5P, 7P of
    25 field muls (one affine doubling, 7, and three affine additions, 6
    each, with their shares of the batch inversions), then 8 per a = -3
    doubling, 11 per mixed addition, 4 to return to affine."""
    from gaskit.ec import builtin_curve, scalar_mul
    from gaskit.field import MulCounter

    curve = builtin_curve("secp160r1")
    rng = random.Random(13)
    pt = scalar_mul(rng.randrange(2, curve.subgroup_order), curve.generator, curve)
    for _ in range(3):
        k = rng.randrange(1, curve.subgroup_order)
        with MulCounter() as ops:
            scalar_mul(k, pt, curve)
        digits = []  # width-4 NAF, least significant first
        rest = k
        while rest:
            d = 0
            if rest & 1:
                d = rest % 16 - 16 if rest % 16 > 8 else rest % 16
                rest -= d
            digits.append(d)
            rest //= 2
        doublings = len(digits) - 1
        adds = sum(1 for d in digits if d) - 1
        assert ops.ec_scalar_muls == 1
        assert ops.field_muls == 7 + 3 * 6 + 8 * doublings + 11 * adds + 4
        assert 1189 / 3 <= ops.field_muls <= 1189 * 3


def test_measured_batched_ecdh_count_within_3x_of_model():
    """The same contract for each TEM of a member's batched ECDH: one scalar
    times 29 peers' points in lockstep tallies, per point, 7 per affine
    doubling and 6 per affine addition, each with its share of the step's
    one batch inversion, and 25 for its table of P, 3P, 5P, 7P."""
    from gaskit.ec import _mul_many, builtin_curve, scalar_mul
    from gaskit.field import MulCounter

    curve = builtin_curve("secp160r1")
    rng = random.Random(14)
    pts = [scalar_mul(rng.randrange(2, curve.subgroup_order), curve.generator, curve)
           for _ in range(29)]
    xys = [(pt.x.residue, pt.y.residue) for pt in pts]
    for _ in range(3):
        k = rng.randrange(1, curve.subgroup_order)
        with MulCounter() as ops:
            assert _mul_many(k, xys, curve) is not None
        assert ops.ec_scalar_muls == len(pts)
        assert ops.field_muls % len(pts) == 0
        assert 1189 / 3 <= ops.field_muls / len(pts) <= 1189 * 3
