from __future__ import annotations

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gkpforge import angular
from gkpforge.angular import (
    LADDER_MEMO_SIZE,
    SIXJ_MEMO_SIZE,
    ElectronicChannel,
    HyperfineLevel,
    _twice,
    centroid,
    default_channels,
    hfs_e2_levels,
    parse_half_integer,
    triangle_ok,
    wigner_6j,
)
from gkpforge.errors import ValidationError

from angular_oracle import _CLASSICAL, _reference_6j, _reference_ladder, _regge, _same_float

HALF = Fraction(1, 2)

# frozen against an independent exact-rational Racah evaluation (sympy)
FROZEN_6J = [
    ((Fraction(3, 2), Fraction(3, 2), 2, Fraction(5, 2), Fraction(5, 2), 4), 0.0545544725589981),
    ((1, 2, 3, 4, 5, 6), 0.01762952951159817),
    ((Fraction(3, 2), Fraction(3, 2), 2, Fraction(5, 2), Fraction(5, 2), 1), -0.15275252316519466),
    ((2, 2, 2, 2, 2, 2), -3.0 / 70.0),
    ((Fraction(5, 2), Fraction(5, 2), 2, Fraction(9, 2), Fraction(9, 2), 3), 0.036087515878885354),
    ((3, 3, 2, Fraction(5, 2), Fraction(5, 2), Fraction(5, 2)), -1.0 / 210.0),
]


def _random_valid_sixj(rng: random.Random, max_twice: int = 9):
    while True:
        t = [rng.randint(0, max_twice) for _ in range(6)]
        j = [Fraction(x, 2) for x in t]
        triads = [(j[0], j[1], j[2]), (j[0], j[4], j[5]), (j[3], j[1], j[5]), (j[3], j[4], j[2])]
        if all(triangle_ok(*tr) for tr in triads):
            return j


def _symmetry_variants(j):
    """All 24 classical symmetries: column permutations and swaps of the
    upper/lower pair in any two columns."""
    cols = [(j[0], j[3]), (j[1], j[4]), (j[2], j[5])]
    variants = []
    for perm in itertools.permutations(range(3)):
        permuted = [cols[k] for k in perm]
        for flip in [(), (0, 1), (0, 2), (1, 2)]:
            flipped = [
                (lo, up) if k in flip else (up, lo)
                for k, (up, lo) in enumerate(permuted)
            ]
            variants.append(
                (flipped[0][0], flipped[1][0], flipped[2][0],
                 flipped[0][1], flipped[1][1], flipped[2][1])
            )
    return variants


@pytest.mark.parametrize("args,expected", FROZEN_6J)
def test_wigner_6j_frozen_values(args, expected):
    assert wigner_6j(*args) == pytest.approx(expected, abs=1e-15)


def test_wigner_6j_selection_rule_exact_zero():
    # the (1/2, 1/2, 2) triad cannot close, for every I and F
    for twice_I in range(0, 10):
        for twice_F in range(0, 10):
            I = Fraction(twice_I, 2)
            F = Fraction(twice_F, 2)
            assert wigner_6j(HALF, HALF, 2, I, I, F) == 0.0


def test_wigner_6j_closed_form_zero_column():
    # {j j 0; I I F} = (-1)^(j+I+F) / sqrt((2j+1)(2I+1)) on valid triads
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        tj = rng.randint(1, 9)
        tI = rng.randint(1, 9)
        tF = rng.randint(abs(tj - tI), tj + tI)
        if (tj + tI + tF) % 2:
            continue
        j, I, F = Fraction(tj, 2), Fraction(tI, 2), Fraction(tF, 2)
        expected = (-1) ** int(j + I + F) / math.sqrt((tj + 1) * (tI + 1))
        assert wigner_6j(j, j, 0, I, I, F) == pytest.approx(expected, abs=1e-14)
        checked += 1


def test_wigner_6j_symmetries():
    rng = random.Random(4)
    for _ in range(60):
        j = _random_valid_sixj(rng)
        reference = wigner_6j(*j[:3], *j[3:])
        for variant in _symmetry_variants(list(j)):
            assert wigner_6j(*variant) == pytest.approx(reference, abs=1e-13)


def test_wigner_6j_orthogonality():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        ta, tb, tc = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        td = rng.randint(0, 7)
        if (ta + td) % 2 != (tb + tc) % 2:
            continue
        p_lo, p_hi = max(abs(ta - td), abs(tb - tc)), min(ta + td, tb + tc)
        if p_lo > p_hi:
            continue
        tp = rng.randrange(p_lo, p_hi + 1, 2) if p_hi > p_lo else p_lo
        tq = rng.randrange(p_lo, p_hi + 1, 2) if p_hi > p_lo else p_lo
        a, b, c, d = (Fraction(t, 2) for t in (ta, tb, tc, td))
        p, q = Fraction(tp, 2), Fraction(tq, 2)
        x_lo, x_hi = max(abs(ta - tb), abs(tc - td)), min(ta + tb, tc + td)
        total = 0.0
        tx = x_lo
        while tx <= x_hi:
            x = Fraction(tx, 2)
            total += (tx + 1) * wigner_6j(a, b, x, c, d, p) * wigner_6j(a, b, x, c, d, q)
            tx += 2
        expected = (1.0 / (tp + 1)) if tp == tq else 0.0
        assert total == pytest.approx(expected, abs=1e-13)
        checked += 1


def test_wigner_6j_against_independent_racah_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_6j as oracle

    rng = random.Random(2024)
    for _ in range(25):
        j = _random_valid_sixj(rng, max_twice=8)
        expected = float(oracle(*[sympy.Rational(x.numerator, x.denominator) for x in j]))
        assert wigner_6j(*j) == pytest.approx(expected, abs=1e-14)


def test_wigner_6j_rejects_non_half_integers():
    with pytest.raises(ValidationError):
        wigner_6j(0.3, 1, 1, 1, 1, 1)
    with pytest.raises(ValidationError):
        wigner_6j(-1, 1, 1, 1, 1, 1)
    # a float whose double is not finite is refused, not an OverflowError,
    # and so is a Decimal that float() reads as such or refuses (sNaN)
    for bad in (1e308, -1e308, math.inf, -math.inf, math.nan, Decimal("1e400"), Decimal("NaN"), Decimal("sNaN")):
        with pytest.raises(ValidationError, match="j1"):
            wigner_6j(bad, 1, 1, 1, 1, 1)
        with pytest.raises(ValidationError, match="I"):
            hfs_e2_levels(bad, 1.5, 1.0)


def test_wigner_6j_bit_identical_to_fraction_sum_small():
    mismatches = [
        t for t in itertools.product(range(7), repeat=6)
        if not _same_float(wigner_6j(*(Fraction(x, 2) for x in t)), _reference_6j(*t))
    ]
    assert mismatches == []


def _closing_sixj(rng: random.Random, low: int, high: int):
    """Doubled arguments, each at most high and the largest at least low,
    of a 6j whose four triads close."""
    while True:
        t1, t2, t4, t5 = (rng.randint(0, high) for _ in range(4))
        if (t1 + t2 + t4 + t5) % 2:
            continue
        lo3, hi3 = max(abs(t1 - t2), abs(t4 - t5)), min(t1 + t2, t4 + t5, high)
        lo6, hi6 = max(abs(t1 - t5), abs(t4 - t2)), min(t1 + t5, t4 + t2, high)
        if lo3 > hi3 or lo6 > hi6:
            continue
        t = (t1, t2, rng.randrange(lo3, hi3 + 1, 2), t4, t5, rng.randrange(lo6, hi6 + 1, 2))
        if max(t) >= low:
            return t


def test_wigner_6j_bit_identical_to_fraction_sum_large():
    rng = random.Random(99)
    for _ in range(500):
        t = _closing_sixj(rng, 50, 99)
        assert _same_float(wigner_6j(*(Fraction(x, 2) for x in t)), _reference_6j(*t)), t


# the benchmark's middle size buckets: the largest doubled argument 10-21 and 22-49
@pytest.mark.parametrize("low, high", [(10, 21), (22, 49)])
def test_wigner_6j_bit_identical_to_fraction_sum_in_the_middle_buckets(low, high):
    rng = random.Random(high)
    for _ in range(500):
        t = _closing_sixj(rng, low, high)
        assert _same_float(wigner_6j(*(Fraction(x, 2) for x in t)), _reference_6j(*t)), t


@pytest.mark.parametrize("B", [1.0, -3.7e-5])
def test_hfs_e2_levels_identical_to_fraction_ladder(B):
    for twice_I in range(0, 25):
        for twice_j in range(1, 24):
            I, j = Fraction(twice_I, 2), Fraction(twice_j, 2)
            got = [(lvl.F, lvl.K_casimir, lvl.quadrupole_coefficient, lvl.shift_eV)
                   for lvl in hfs_e2_levels(I, j, B)]
            want = _reference_ladder(I, j, B)
            assert got == want, (I, j)
            assert all(type(x) is Fraction for level in got for x in level[:3])
            assert all(_same_float(g[3], w[3]) for g, w in zip(got, want))


def test_memos_are_bounded_by_their_module_constants():
    assert angular._racah.cache_parameters()["maxsize"] == SIXJ_MEMO_SIZE == 1024
    assert angular._ladder.cache_parameters()["maxsize"] == LADDER_MEMO_SIZE == 256


def test_default_channels_are_built_once():
    assert default_channels() is default_channels()
    assert default_channels() == default_channels.__wrapped__()


def test_a_refused_argument_raises_on_every_call():
    assert wigner_6j(1, 1, 1, 1, 1, 1) == wigner_6j(1.0, 1, 1, 1, 1, 1)
    for bad in (Fraction(1, 3), 1.25, -1):
        for _ in range(3):
            with pytest.raises(ValidationError, match="j1"):
                wigner_6j(bad, 1, 1, 1, 1, 1)
    for _ in range(3):
        with pytest.raises(ValidationError, match="I"):
            hfs_e2_levels(Fraction(2, 3), Fraction(3, 2), 1.0)


def test_symmetric_symbols_are_equal_floats():
    # criterion 08's four permutations and Regge's symmetry: one class, one
    # float, computed once
    rng = random.Random(8)
    for _ in range(250):
        j = _random_valid_sixj(rng, max_twice=8)
        reference = wigner_6j(*j)
        misses = angular._racah.cache_info().misses
        assert [wigner_6j(*g(*j)) for g in (*_CLASSICAL, _regge)] == [reference] * 5
        assert angular._racah.cache_info().misses == misses


def test_ladders_share_their_exact_fields_across_B():
    I, j = Fraction(7, 2), Fraction(5, 2)
    one = hfs_e2_levels(I, j, 1.0)
    misses = angular._ladder.cache_info().misses
    other = hfs_e2_levels(I, j, -3.7e-5)
    assert angular._ladder.cache_info().misses == misses
    assert [(lvl.F, lvl.K_casimir, lvl.quadrupole_coefficient) for lvl in one] == [
        (lvl.F, lvl.K_casimir, lvl.quadrupole_coefficient) for lvl in other]
    assert [lvl.shift_eV for lvl in other] == [-3.7e-5 * float(lvl.quadrupole_coefficient) for lvl in one]
    assert [lvl.weight for lvl in one] == [int(2 * lvl.F + 1) for lvl in one] == [3, 5, 7, 9, 11, 13]


def test_twice_refuses_non_half_integers_and_negatives():
    assert _twice(Fraction(7, 2)) == 7 and _twice(Fraction(3)) == 6
    for bad in (Fraction(1, 3), Fraction(-1, 2), Fraction(-2), -1, -0.5):
        with pytest.raises(ValidationError):
            _twice(bad)


def test_a_bool_is_not_a_half_integer():
    assert wigner_6j(1, 1, 1, 1, 1, 1) == wigner_6j(Fraction(1), 1, 1, 1, 1, 1) != 0.0
    for _ in range(3):  # refused on every call, memos warm or not
        for position, bool_value in itertools.product(range(6), (True, False)):
            args = [1] * 6
            args[position] = bool_value
            with pytest.raises(ValidationError, match=f"j{position + 1} {bool_value} is a bool"):
                wigner_6j(*args)
        with pytest.raises(ValidationError, match="I True is a bool"):
            hfs_e2_levels(True, Fraction(3, 2), 1.0)
        with pytest.raises(ValidationError, match="j True is a bool"):
            hfs_e2_levels(Fraction(5, 2), True, 1.0)
        with pytest.raises(ValidationError, match="j False is a bool"):
            parse_half_integer(False, "j")
        with pytest.raises(ValidationError, match="is a bool"):
            ElectronicChannel(n=2, l=1, j=True, label="2p")
        with pytest.raises(ValidationError, match="is a bool"):
            triangle_ok(True, 1, 1)
    assert parse_half_integer(3, "j") == Fraction(3) and parse_half_integer(Fraction(3, 2), "j") == Fraction(3, 2)


# what is neither a Fraction nor an int must be a real number: numpy's
# bools, a str and None are refused by every entry point that doubles it
NOT_REAL = [np.True_, np.False_, "0.5", "1/2", None]


@pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
def test_a_value_that_is_not_a_real_number_is_refused_by_every_angular_function(bad):
    for _ in range(2):  # refused on every call, memos warm or not
        for position in range(6):
            args = [1] * 6
            args[position] = bad
            with pytest.raises(ValidationError, match=f"j{position + 1} .* not a real number"):
                wigner_6j(*args)
        with pytest.raises(ValidationError, match="I .* not a real number"):
            hfs_e2_levels(bad, Fraction(3, 2), 1.0)
        with pytest.raises(ValidationError, match="j .* not a real number"):
            hfs_e2_levels(Fraction(5, 2), bad, 1.0)
        for position in range(3):
            args = [1] * 3
            args[position] = bad
            with pytest.raises(ValidationError, match="not a real number"):
                triangle_ok(*args)


@pytest.mark.parametrize("bad", [np.True_, np.False_, None], ids=repr)
def test_the_half_integer_parser_refuses_numpy_bools_and_none(bad):
    with pytest.raises(ValidationError, match="cannot parse j"):
        parse_half_integer(bad, "j")
    with pytest.raises(ValidationError, match="cannot parse j"):
        ElectronicChannel(n=2, l=1, j=bad, label="2p")


def test_the_half_integer_parser_still_reads_a_str():
    assert parse_half_integer("0.5", "j") == parse_half_integer("1/2", "j") == HALF
    assert ElectronicChannel(n=2, l=1, j="3/2", label="2p3/2").j == Fraction(3, 2)


@pytest.mark.parametrize("real", [float, np.float64, np.int64, Decimal], ids=lambda real: real.__name__)
def test_real_numbers_keep_their_values(real):
    whole = real is np.int64  # an np.int64 carries only whole arguments
    sixj, ladder = ((2, 4, 4, 2, 4, 2), (6, 4)) if whole else ((3, 2, 3, 4, 5, 2), (7, 5))  # doubled

    def half(t):
        return real(t // 2) if whole else real(t) / 2

    exact = [Fraction(t, 2) for t in sixj]
    assert wigner_6j(*exact) != 0.0
    for position in range(6):
        args = list(exact)
        args[position] = half(sixj[position])
        assert _same_float(wigner_6j(*args), wigner_6j(*exact))
    assert _same_float(wigner_6j(*map(half, sixj)), wigner_6j(*exact))
    I, j = map(half, ladder)
    assert hfs_e2_levels(I, j, 1.0) == hfs_e2_levels(*(Fraction(t, 2) for t in ladder), 1.0)
    assert triangle_ok(I, j, half(2)) is True and triangle_ok(I, j, half(ladder[0] + ladder[1] + 2)) is False


def test_a_level_is_an_immutable_tuple_built_by_keyword():
    level = HyperfineLevel(F=Fraction(3, 2), K_casimir=Fraction(-15, 4), quadrupole_coefficient=Fraction(1, 4))
    assert level.shift_eV == 0.0
    assert level == (Fraction(3, 2), Fraction(-15, 4), Fraction(1, 4), 0.0)
    with pytest.raises(AttributeError):
        level.shift_eV = 1.0
    with pytest.raises(TypeError):
        level[3] = 1.0
    ladder = hfs_e2_levels(Fraction(5, 2), Fraction(3, 2), 0.37)
    assert all(type(lvl) is HyperfineLevel for lvl in ladder)
    assert ladder[0] == tuple(ladder[0]) == (ladder[0].F, ladder[0].K_casimir,
                                             ladder[0].quadrupole_coefficient, ladder[0].shift_eV)


def test_weight_is_two_F_plus_one():
    for twice_F in range(0, 60):
        weight = HyperfineLevel(Fraction(twice_F, 2), Fraction(0), Fraction(0)).weight
        assert weight == twice_F + 1 and type(weight) is int


@pytest.mark.parametrize("B", [0.37, -3.7e-5])
def test_centroid_is_the_left_to_right_weighted_mean(B):
    for twice_I, twice_j in itertools.product(range(25), range(1, 24)):
        levels = hfs_e2_levels(Fraction(twice_I, 2), Fraction(twice_j, 2), B)
        weighted, weights = 0.0, 0
        for level in levels:
            weighted = weighted + int(2 * level.F + 1) * level.shift_eV
            weights = weights + int(2 * level.F + 1)
        assert _same_float(centroid(levels), weighted / weights), (twice_I, twice_j)


def test_rank2_allowed():
    p12 = ElectronicChannel(n=2, l=1, j=HALF, label="2p1/2")
    p32 = ElectronicChannel(n=2, l=1, j=Fraction(3, 2), label="2p3/2")
    assert p12.rank2_sensitive() is False
    assert p32.rank2_sensitive() is True


def test_rank2_selection_matches_sixj_vanishing():
    # rank-2 blindness of j=1/2 is the vanishing of the (j, j, 2) triad
    for channel in default_channels():
        assert channel.rank2_sensitive() is triangle_ok(channel.j, channel.j, 2)


def test_channel_validation():
    with pytest.raises(ValidationError):
        ElectronicChannel(n=2, l=1, j=Fraction(5, 2), label="bad")
    with pytest.raises(ValidationError):
        ElectronicChannel(n=1, l=1, j=HALF, label="bad")


def test_hfs_e2_ladder_structure():
    levels = hfs_e2_levels(Fraction(5, 2), Fraction(3, 2), 1.0)
    assert [lvl.F for lvl in levels] == [1, 2, 3, 4]
    coefficients = [lvl.quadrupole_coefficient for lvl in levels]
    assert coefficients == [
        Fraction(7, 10), Fraction(-1, 10), Fraction(-11, 20), Fraction(1, 4)
    ]


def test_hfs_e2_ladder_spin_half_is_flat():
    for levels in (hfs_e2_levels(HALF, Fraction(3, 2), 1.0), hfs_e2_levels(Fraction(5, 2), HALF, 1.0)):
        assert all(lvl.quadrupole_coefficient == 0 for lvl in levels)
        assert all(lvl.shift_eV == 0.0 for lvl in levels)


def test_trace_identity_exact_rational():
    # (2F+1)-weighted sum of quadrupole coefficients vanishes identically
    for twice_I in range(2, 10):
        for twice_j in range(3, 10):
            I, j = Fraction(twice_I, 2), Fraction(twice_j, 2)
            if I < 1 or j < Fraction(3, 2):
                continue
            levels = hfs_e2_levels(I, j, 1.0)
            weighted = sum((2 * lvl.F + 1) * lvl.quadrupole_coefficient for lvl in levels)
            assert weighted == 0


def test_centroid_cancellation_and_linearity():
    levels = hfs_e2_levels(Fraction(5, 2), Fraction(3, 2), 0.37)
    assert abs(centroid(levels)) < 1e-16

    scalar = 3.5e-5
    shifted = tuple(
        type(lvl)(F=lvl.F, K_casimir=lvl.K_casimir,
                  quadrupole_coefficient=lvl.quadrupole_coefficient,
                  shift_eV=lvl.shift_eV + scalar)
        for lvl in levels
    )
    assert centroid(shifted) == pytest.approx(scalar, rel=1e-12)

    flat = tuple(
        type(lvl)(F=lvl.F, K_casimir=lvl.K_casimir,
                  quadrupole_coefficient=lvl.quadrupole_coefficient, shift_eV=scalar)
        for lvl in levels
    )
    assert centroid(flat) == pytest.approx(scalar, rel=1e-15)


def test_centroid_rejects_empty():
    with pytest.raises(ValidationError):
        centroid(())
