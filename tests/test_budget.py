from __future__ import annotations

import math
import sys

import pytest

from gkpforge.budget import (
    ERA_ELECTROMAGNETIC,
    ERA_METROLOGY,
    chi_bound,
    decay_penalty,
    load_milestones,
    milestone_lookup,
    ramsey_plan,
)
from gkpforge.constants import PLANCK_EV_S
from gkpforge.errors import NumericalError, ValidationError

HALF_LIFE_91 = 930.0  # 15.5 min


def test_chi_bound_exact_reference_value():
    assert chi_bound(1e-13, 2e-21) == 5e7
    assert chi_bound(1e-13, 1e-22) == 1e9
    assert chi_bound(0.0, 2e-21) == 0.0


def test_chi_bound_homogeneous():
    base = chi_bound(3.7e-14, 1.9e-21)
    for a in (1e-3, 2.0, 7.7e5):
        assert chi_bound(a * 3.7e-14, a * 1.9e-21) == pytest.approx(base, rel=1e-12)


def test_chi_bound_domain_errors():
    with pytest.raises(ValidationError):
        chi_bound(1e-13, 0.0)
    with pytest.raises(ValidationError):
        chi_bound(1e-13, -1e-21)
    with pytest.raises(ValidationError):
        chi_bound(-1e-13, 1e-21)


def test_milestone_rows():
    ladder = load_milestones()
    assert len(ladder.rows) == 9
    row = milestone_lookup(1e-14, ladder)
    assert row.dominant_barrier == "TNP"
    assert row.required_advance == "B(E2) to 1% (FRIB γ-spec.)"
    row = milestone_lookup(1e-16, ladder)
    assert row.dominant_barrier == "HFS-2nd order"
    assert row.required_advance == "Qs ratios to 0.01% (muonic atoms)"
    row = milestone_lookup(1e-19, ladder)
    assert row.dominant_barrier == "Statistics"
    assert row.required_advance == "T_R ∼ 10 s"


def test_milestone_era_classification():
    ladder = load_milestones()
    for row in ladder.rows:
        expected = ERA_ELECTROMAGNETIC if row.sensitivity_eV >= 1e-17 else ERA_METROLOGY
        assert row.era == expected
    assert 1e-18 < ladder.era_boundary_eV < 1e-17


def test_milestone_lookup_total_and_monotone():
    ladder = load_milestones()
    previous_index = -1
    # sweep from large to small sensitivity; the row index never decreases
    targets = [10 ** (-13 - k / 7) for k in range(0, 57)]
    for target in targets:
        if not 1e-21 <= target <= 1e-13:
            continue
        row = milestone_lookup(target, ladder)
        index = ladder.rows.index(row)
        assert index >= previous_index
        previous_index = index


def test_milestone_lookup_out_of_range():
    ladder = load_milestones()
    with pytest.raises(ValidationError):
        milestone_lookup(1e-12, ladder)
    with pytest.raises(ValidationError):
        milestone_lookup(1e-22, ladder)


def test_ramsey_decay_limited_optimum():
    plan = ramsey_plan(HALF_LIFE_91, T_R_requested_s=3600.0, repetitions=1)
    assert plan.T_R_opt_s == pytest.approx(HALF_LIFE_91 / (2 * math.log(2)), rel=1e-12)
    assert 11.1 * 60 <= plan.T_R_opt_s <= 11.3 * 60
    assert plan.T_R_s == plan.T_R_opt_s
    assert plan.warning is not None
    assert 2.2e-4 <= plan.per_shot_linewidth_Hz <= 2.5e-4


def test_ramsey_request_below_optimum_kept():
    plan = ramsey_plan(HALF_LIFE_91, T_R_requested_s=100.0, repetitions=1)
    assert plan.T_R_s == 100.0
    assert plan.warning is None
    assert plan.decay_penalty_at_request > 1.0


def test_ramsey_stable_species():
    plan = ramsey_plan(None, T_R_requested_s=1.0, repetitions=10**6)
    assert plan.T_R_s == 1.0
    assert plan.T_R_opt_s is None
    assert plan.per_shot_linewidth_Hz == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    assert plan.campaign_sensitivity_Hz == pytest.approx(1 / (2 * math.pi) / 1000.0, rel=1e-12)
    assert plan.campaign_sensitivity_eV == pytest.approx(plan.campaign_sensitivity_Hz * PLANCK_EV_S, rel=1e-12)


def test_ramsey_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        ramsey_plan(HALF_LIFE_91, 0.0, 1)
    with pytest.raises(ValidationError):
        ramsey_plan(HALF_LIFE_91, 10.0, 0)
    with pytest.raises(ValidationError):
        ramsey_plan(-5.0, 10.0, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_ramsey_rejects_non_finite_times(value):
    with pytest.raises(ValidationError, match="finite"):
        ramsey_plan(None, value, 1)
    with pytest.raises(ValidationError, match="finite"):
        ramsey_plan(value, 10.0, 1)


@pytest.mark.parametrize("T_R, repetitions, field", [
    (3e307, 1, "per_shot_linewidth_Hz"),  # 2 pi T_R overflows, so the linewidth is 0.0
    (1e200, 10**300, "campaign_sensitivity_Hz"),  # 0.0 once divided by sqrt(10**300)
    (1e300, 1, "campaign_sensitivity_eV"),  # subnormal once times h in eV s
])
def test_ramsey_refuses_a_sensitivity_that_underflows(T_R, repetitions, field):
    with pytest.raises(NumericalError, match=f"^{field} underflows"):
        ramsey_plan(None, T_R, repetitions)


def test_ramsey_keeps_sensitivities_at_the_normal_floats():
    plan = ramsey_plan(None, 1e290, 1)
    assert plan.campaign_sensitivity_eV >= sys.float_info.min
    assert plan.campaign_sensitivity_eV == pytest.approx(PLANCK_EV_S / (2 * math.pi * 1e290), rel=1e-12)


def test_decay_penalty_normalization_and_divergence():
    t_opt = HALF_LIFE_91 / (2 * math.log(2))
    assert decay_penalty(t_opt, HALF_LIFE_91) == pytest.approx(1.0, rel=1e-14)
    assert decay_penalty(2 * t_opt, HALF_LIFE_91) > 1.0
    assert decay_penalty(0.5 * t_opt, HALF_LIFE_91) > 1.0
    assert decay_penalty(1e-6, HALF_LIFE_91) > 100.0
    with pytest.raises(ValidationError):
        decay_penalty(0.0, HALF_LIFE_91)
    with pytest.raises(ValidationError):
        decay_penalty(10.0, 0.0)


@pytest.mark.parametrize("T_R, half_life", [(1e300, 1.0), (1.0, 1e-300)])
def test_decay_penalty_is_inf_where_the_exponential_overflows(T_R, half_life):
    assert decay_penalty(T_R, half_life) == math.inf


def test_decay_penalty_minimum_by_finite_difference():
    t_opt = HALF_LIFE_91 / (2 * math.log(2))
    h = 1e-3 * t_opt
    def derivative(t):
        return (decay_penalty(t + h, HALF_LIFE_91) - decay_penalty(t - h, HALF_LIFE_91)) / (2 * h)
    assert derivative(t_opt * (1 - 1e-3)) < 0
    assert derivative(t_opt * (1 + 1e-3)) > 0
    # and the sign change brackets t_opt on a fine grid
    grid = [t_opt * (1 + k * 1e-3) for k in range(-5, 6)]
    signs = [math.copysign(1.0, derivative(t)) for t in grid if abs(t - t_opt) > h]
    assert -1.0 in signs and +1.0 in signs
