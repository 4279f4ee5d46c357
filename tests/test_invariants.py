"""Relations that the algebra guarantees whatever the data is.

Seeded and quick. Each relation holds for the exact quantities; where
floating point keeps it only approximately, its tolerance is derived
beside it rather than tuned.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import gkpforge.montecarlo as montecarlo
from gkpforge import barriers, budget
from gkpforge.cli import main
from gkpforge.gkp import COLUMN_NAMES, DesignMatrix, build_design, condition_number, condition_numbers
from gkpforge.nucdata import load_bundled_chain, partition

EPS = np.finfo(float).eps
# test_gkp holds the closed form and the SVD to 16 eps kappa of the exact
# kappa of the normalized matrix, against 40-digit SVDs
KAPPA_RTOL_PER_EPS_KAPPA = 16.0


def _shipped_draws(chain, coeffs, monkeypatch, sample_count=4096):
    """The raw (n, 3, 3) designs that kappa_draws conditions for the shipped spec."""
    batches = []

    def record(stack):
        batches.append(stack.copy())
        return condition_numbers(stack)

    monkeypatch.setattr(montecarlo, "condition_numbers", record)
    montecarlo.kappa_draws(chain, coeffs, montecarlo.load_sampling_spec("mo91-sampling-v1"), sample_count)
    return np.concatenate(batches)


def _stacks(chain, coeffs, monkeypatch):
    """Shipped draws, and seeded random designs with columns from 1e-8 to 1e8."""
    rng = np.random.default_rng(16)
    random = rng.normal(size=(2048, 3, 3)) * 10.0 ** rng.uniform(-8, 8, (2048, 1, 3))
    return {"shipped": _shipped_draws(chain, coeffs, monkeypatch), "random": random}


@pytest.mark.parametrize("k", [-40, -3, 5, 60])
@pytest.mark.parametrize("column", range(3))
def test_scaling_a_raw_column_by_a_power_of_two_keeps_every_kappa_bit(mo_chain, coeffs, monkeypatch, k, column):
    # a power of two scales each squared norm, Gram entry and minor of the
    # column exactly, and the normalization divides it out exactly
    for name, stack in _stacks(mo_chain, coeffs, monkeypatch).items():
        scaled = stack.copy()
        scaled[:, :, column] *= 2.0 ** k
        assert condition_numbers(scaled).tobytes() == condition_numbers(stack).tobytes(), name
        # the SVD path: taller stacks, and one design at a time
        tall = np.concatenate([stack[:64], stack[64:128, :1]], axis=1)
        tall_scaled = np.concatenate([scaled[:64], scaled[64:128, :1]], axis=1)
        assert condition_numbers(tall_scaled).tobytes() == condition_numbers(tall).tobytes(), name
        design = DesignMatrix(rows=((1, "t"), (2, "t"), (3, "t")), columns=COLUMN_NAMES, entries=stack[0])
        assert condition_number(design) == condition_number(DesignMatrix(
            rows=design.rows, columns=COLUMN_NAMES, entries=scaled[0]))


def test_scaling_a_shipped_design_column_keeps_its_kappa_bit(frib_chain, coeffs):
    design = build_design(partition(frib_chain)[1], coeffs)
    for k in (-40, -3, 5, 60):
        for column in range(3):
            entries = design.entries.copy()
            entries[:, column] *= 2.0 ** k
            assert condition_number(DesignMatrix(rows=design.rows, columns=design.columns,
                                                 entries=entries)) == condition_number(design)


@pytest.mark.parametrize("order", [(1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
def test_permuting_the_rows_keeps_kappa_within_its_rounding(mo_chain, coeffs, monkeypatch, order):
    # the exact kappa of the normalized matrix does not change under a row
    # permutation (an orthogonal factor on the left); each evaluation lies
    # within 16 eps kappa of it, so two evaluations differ by at most twice that
    for name, stack in _stacks(mo_chain, coeffs, monkeypatch).items():
        kappa = condition_numbers(stack)
        permuted = condition_numbers(stack[:, order, :])
        assert np.isfinite(kappa).all(), name
        assert np.all(np.abs(permuted / kappa - 1.0) <= 2.0 * KAPPA_RTOL_PER_EPS_KAPPA * EPS * kappa), name


def _odd_probes():
    return [(chain, rec.A) for chain in ("mo-chain-v1", "mo-chain-frib-synthetic-v1")
            for rec in partition(load_bundled_chain(chain))[1]]


@pytest.mark.parametrize("chain, probe", _odd_probes())
@pytest.mark.parametrize("scenario", ["current", "projected"])
def test_the_nominal_chi_bound_is_the_band_bound_at_the_nominal_form_factor(capsys, monkeypatch, chain,
                                                                           probe, scenario):
    monkeypatch.setenv("GKPFORGE_TIMESTAMP", "2026-08-09T00:00:00+00:00")
    assert main(["budget", "--chain", chain, "--probe", str(probe), "--scenario", scenario, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    loaded = load_bundled_chain(chain)
    anchors = barriers.load_anchors("mo41-anchors-v1")
    model = barriers.SignalModel.from_anchors(anchors, loaded)
    # the band's first point is its lower edge exactly: a band starting at
    # the nominal form factor gives the signal there
    f_nominal = model.f_tilde_nominal
    nominal_band = barriers.SignalModel(f_nominal, (f_nominal, 10.0 * f_nominal), model.baseline_shift_eV,
                                        model.Z, model.reference_spin_sq_over_mass)
    (f, signal), _ = barriers.signal_band(nominal_band, loaded.isotope(probe), points=2)
    assert f == f_nominal and report["signal_nominal_eV"] == signal
    assert report["chi_bound_nominal"] == budget.chi_bound(report["combined_eV"], signal)
    low, high = report["chi_bound_band"]
    assert low <= report["chi_bound_nominal"] <= high
    for entry in report["entries"]:
        if entry["current_eV"] is not None:
            assert entry["projected_eV"] <= entry["current_eV"]
