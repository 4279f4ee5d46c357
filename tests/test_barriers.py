from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from gkpforge.angular import ElectronicChannel, default_channels
from gkpforge.barriers import (
    SignalModel,
    build_budget,
    hfs_e2_first_order,
    hfs_second_order,
    load_anchors,
    qed_correction,
    signal_band,
    tnp_shift,
)
from gkpforge.errors import ValidationError

P32 = ElectronicChannel(n=2, l=1, j=Fraction(3, 2), label="2p3/2")
P12 = ElectronicChannel(n=2, l=1, j=Fraction(1, 2), label="2p1/2")


def _at_nominal(model, rec) -> float:
    """The shift of rec at the nominal form factor: signal_band over a band
    of that one point."""
    nominal = model.f_tilde_nominal
    [(_, shift)] = signal_band(dataclasses.replace(model, f_tilde_band=(nominal, nominal)), rec, points=1)
    return shift


def test_gravitomagnetic_shift_anchor(mo_chain, anchors):
    model = SignalModel.from_anchors(anchors, mo_chain)
    assert _at_nominal(model, mo_chain.isotope(95)) == pytest.approx(2e-21, rel=1e-12)
    assert _at_nominal(model, mo_chain.isotope(92)) == 0.0


def test_gravitomagnetic_shift_scales_with_lever(mo_chain, anchors):
    model = SignalModel.from_anchors(anchors, mo_chain)
    expected = (6.25 / 97) / (6.25 / 95) * 2e-21
    assert _at_nominal(model, mo_chain.isotope(97)) == pytest.approx(expected, rel=1e-12)


def test_signal_band_spans_two_decades(mo_chain, anchors):
    model = SignalModel.from_anchors(anchors, mo_chain)
    band = signal_band(model, mo_chain.isotope(95), points=7)
    shifts = [s for _, s in band]
    assert min(shifts) == pytest.approx(1e-22, rel=1e-9)
    assert max(shifts) == pytest.approx(1e-20, rel=1e-9)
    assert all(1e-22 * (1 - 1e-9) <= s <= 1e-20 * (1 + 1e-9) for s in shifts)


def test_form_factor_band_enforced(anchors):
    for nominal in (500.0, 0.5):
        with pytest.raises(ValidationError, match="must be positive, finite and contain the nominal"):
            dataclasses.replace(anchors, f_tilde_nominal=nominal)


def test_uncalibrated_model_refused(mo_chain):
    model = SignalModel(baseline_shift_eV=0.0)
    with pytest.raises(ValidationError):
        signal_band(model, mo_chain.isotope(95))


def test_qed_correction():
    model = SignalModel()
    fractional, residual = qed_correction(model, 0.5)
    assert 0.090 <= fractional <= 0.098
    assert residual == pytest.approx(0.5 * fractional * 2e-21, rel=1e-12)
    assert 0.8e-22 <= residual <= 1.1e-22
    assert qed_correction(model, 0.0)[1] == 0.0
    with pytest.raises(ValidationError):
        qed_correction(model, 1.5)


def test_hfs_e2_first_order_linear_in_qs(mo_chain):
    calib = (-0.022, 1e-4)
    shift95 = hfs_e2_first_order(mo_chain.isotope(95), P32, calib)
    assert shift95 == pytest.approx(1e-4, rel=1e-12)
    shift97 = hfs_e2_first_order(mo_chain.isotope(97), P32, calib)
    assert abs(shift97) == pytest.approx(0.255 / 0.022 * 1e-4, rel=1e-12)
    assert shift97 < 0  # opposite quadrupole sign flips the ladder
    assert hfs_e2_first_order(mo_chain.isotope(92), P32, calib) == 0.0


def test_hfs_e2_first_order_rank2_blind_channel(mo_chain):
    with pytest.warns(RuntimeWarning, match="rank-2 blind"):
        value = hfs_e2_first_order(mo_chain.isotope(95), P12, (-0.022, 1e-4))
    assert value == 0.0


def test_hfs_e2_linearity_property(mo_chain):
    calib = (-0.022, 1e-4)
    base = hfs_e2_first_order(mo_chain.isotope(95), P32, calib)
    doubled = hfs_e2_first_order(mo_chain.isotope(95), P32, (-0.022, 2e-4))
    assert doubled == pytest.approx(2 * base, rel=1e-12)


@pytest.mark.parametrize(
    "e_hfs,gap,fraction,raw,subtracted",
    [
        (1e-4, 150.0, 1e-3, (1e-4) ** 2 / 150.0, (1e-4) ** 2 / 150.0 * 1e-3),
        (1e-2, 150.0, 1e-3, (1e-2) ** 2 / 150.0, (1e-2) ** 2 / 150.0 * 1e-3),
        (0.0, 150.0, 1e-3, 0.0, 0.0),
    ],
)
def test_hfs_second_order_values(e_hfs, gap, fraction, raw, subtracted):
    got_raw, got_sub = hfs_second_order(e_hfs, gap, fraction)
    assert got_raw == pytest.approx(raw, rel=1e-12, abs=1e-30)
    assert got_sub == pytest.approx(subtracted, rel=1e-12, abs=1e-30)


def test_hfs_second_order_quadratic_property():
    raw1, _ = hfs_second_order(3e-4, 150.0, 1e-3)
    raw3, _ = hfs_second_order(9e-4, 150.0, 1e-3)
    assert raw3 == pytest.approx(9 * raw1, rel=1e-12)


def test_hfs_second_order_domain_errors():
    with pytest.raises(ValidationError):
        hfs_second_order(1e-4, 0.0, 1e-3)
    with pytest.raises(ValidationError):
        hfs_second_order(1e-4, -1.0, 1e-3)
    with pytest.raises(ValidationError):
        hfs_second_order(1e-4, 150.0, 0.0)


def test_tnp_shift(mo_chain):
    calib = (8.0, 1e-12)
    raw, residual = tnp_shift(mo_chain.isotope(95), calib, 0.10)
    assert raw == pytest.approx(1e-12, rel=1e-12)
    assert residual == pytest.approx(1e-13, rel=1e-12)
    _, projected = tnp_shift(mo_chain.isotope(95), calib, 0.01)
    assert projected == pytest.approx(1e-14, rel=1e-12)
    raw_full, residual_full = tnp_shift(mo_chain.isotope(95), calib, 1.0)
    assert residual_full == raw_full


def test_tnp_linearity_in_be2(mo_chain):
    calib = (8.0, 1e-12)
    raw95, _ = tnp_shift(mo_chain.isotope(95), calib, 0.1)
    raw97, _ = tnp_shift(mo_chain.isotope(97), calib, 0.1)
    assert raw97 == pytest.approx(raw95 * 12.0 / 8.0, rel=1e-12)


def test_tnp_missing_be2_names_isotope(mo_chain):
    from gkpforge.nucdata import IsotopeRecord, Measured

    rec = IsotopeRecord(A=93, Z=42, spin=Fraction(5, 2), parity=+1,
                        r_ch=Measured(4.32), Qs=Measured(0.1))
    with pytest.raises(ValidationError, match="A=93"):
        tnp_shift(rec, (8.0, 1e-12), 0.1)


def test_build_budget_current(mo_chain, anchors):
    budget = build_budget(mo_chain, default_channels(), anchors, scenario="current")
    assert budget.probe_A == 95
    assert budget.dominant == "TNP"
    assert 0.7e-13 <= budget.combined_eV <= 2e-13
    barrier2 = budget.entries[1]
    assert barrier2.current_eV == 0.0 and barrier2.projected_eV == 0.0
    assert budget.entries[0].raw_eV is None  # selection rule row is informational
    assert "j >= 3/2" in budget.entries[0].note
    # combined lies within [max, sum] of the entries
    assert budget.max_current_eV <= budget.combined_current_eV


def test_build_budget_projected(mo_chain, anchors):
    budget = build_budget(mo_chain, default_channels(), anchors, scenario="projected")
    assert 0.7e-14 <= budget.combined_eV <= 2e-14
    assert budget.dominant == "TNP"


def test_budget_monotone_under_scenario(mo_chain, anchors):
    budget = build_budget(mo_chain, default_channels(), anchors)
    assert budget.combined_projected_eV <= budget.combined_current_eV
    assert budget.max_projected_eV <= budget.max_current_eV


def test_budget_zero_anchors(mo_chain, anchors, tmp_path):
    zeroed = dataclasses.replace(anchors, hfs_e2_anchor_eV=0.0, tnp_anchor_eV=0.0)
    budget = build_budget(mo_chain, default_channels(), zeroed)
    assert budget.combined_current_eV == 0.0
    assert budget.combined_projected_eV == 0.0
    assert budget.dominant == "none"
    # a vanishing first order does not excuse a theory fraction outside (0, 1]
    scenarios = {**anchors.scenarios, "current": {**anchors.scenario("current"), "hfs2_theory_fraction": 0.0}}
    with pytest.raises(ValidationError, match="theory_fraction"):
        build_budget(mo_chain, default_channels(), dataclasses.replace(zeroed, scenarios=scenarios))


def test_budget_probe_dependence(mo_chain, anchors):
    # the larger A=97 quadrupole moment pushes the second-order hyperfine
    # residual past the polarizability term, flipping the dominant barrier
    budget97 = build_budget(mo_chain, default_channels(), anchors, probe_A=97)
    assert budget97.probe_A == 97
    assert budget97.dominant == "HFS (2nd)"
    budget95 = build_budget(mo_chain, default_channels(), anchors, probe_A=95)
    assert budget97.combined_current_eV > budget95.combined_current_eV
    # at the crossover the two residuals are equal (|E1| = 1 eV at A=95, so
    # both are fraction / 150 eV) and the earlier barrier is named
    fraction = {"hfs2_theory_fraction": 1e-3, "tnp_knowledge_fraction": 1e-3}
    tied = dataclasses.replace(anchors, hfs_e2_anchor_Qs_b=-0.022, hfs_e2_anchor_eV=1.0,
                               tnp_anchor_BE2_wu=8.0, tnp_anchor_eV=1 / 150,
                               scenarios={"current": fraction, "projected": fraction})
    budget = build_budget(mo_chain, default_channels(), tied, probe_A=95)
    hfs2, tnp = budget.entries[2:]
    assert hfs2.current_eV == tnp.current_eV
    assert budget.dominant == "HFS (2nd)"


def test_budget_refuses_even_even_probe(mo_chain, anchors):
    with pytest.raises(ValidationError, match="A=92 is even-even"):
        build_budget(mo_chain, default_channels(), anchors, probe_A=92)


def test_budget_rejects_unknown_scenario(mo_chain, anchors):
    with pytest.raises(ValidationError):
        build_budget(mo_chain, default_channels(), anchors, scenario="fantasy")


def test_budget_requires_rank2_channel(mo_chain, anchors):
    with pytest.raises(ValidationError):
        build_budget(mo_chain, [P12], anchors)


def test_anchor_loading_missing_file():
    with pytest.raises(ValidationError, match="no-such-anchors"):
        load_anchors("no-such-anchors.json")
