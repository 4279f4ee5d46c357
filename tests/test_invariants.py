"""Relations that the algebra guarantees whatever the data is.

Seeded and quick. Each relation holds for the exact quantities; where
floating point keeps it only approximately, its tolerance is derived
beside it rather than tuned.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from gkpforge import barriers, budget
from gkpforge.angular import default_channels
from gkpforge.cli import main
from gkpforge.gkp import (COLUMN_NAMES, DesignMatrix, build_design, condition_number, condition_numbers,
                          precondition, solve_many)
from gkpforge.nucdata import load_bundled_chain, partition

EPS = np.finfo(float).eps
# test_gkp holds the closed form and the SVD to 16 eps kappa of the exact
# kappa of the normalized matrix, against 40-digit SVDs
KAPPA_RTOL_PER_EPS_KAPPA = 16.0


def _stacks(chain, coeffs, shipped_designs):
    """The full designs of 4096 shipped draws, and seeded random designs
    with columns from 1e-8 to 1e8."""
    rng = np.random.default_rng(16)
    random = rng.normal(size=(2048, 3, 3)) * 10.0 ** rng.uniform(-8, 8, (2048, 1, 3))
    return {"shipped": np.concatenate(shipped_designs(chain, coeffs, 4096)[0]), "random": random}


@pytest.mark.parametrize("k", [-40, -3, 5, 60])
@pytest.mark.parametrize("column", range(3))
def test_scaling_a_raw_column_by_a_power_of_two_keeps_every_kappa_bit(mo_chain, coeffs, shipped_designs, k, column):
    # a power of two scales each squared norm, Gram entry and minor of the
    # column exactly, and the normalization divides it out exactly
    for name, stack in _stacks(mo_chain, coeffs, shipped_designs).items():
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
def test_permuting_the_rows_keeps_kappa_within_its_rounding(mo_chain, coeffs, shipped_designs, order):
    # the exact kappa of the normalized matrix does not change under a row
    # permutation (an orthogonal factor on the left); each evaluation lies
    # within 16 eps kappa of it, so two evaluations differ by at most twice that
    for name, stack in _stacks(mo_chain, coeffs, shipped_designs).items():
        kappa = condition_numbers(stack)
        permuted = condition_numbers(stack[:, order, :])
        assert np.isfinite(kappa).all(), name
        assert np.all(np.abs(permuted / kappa - 1.0) <= 2.0 * KAPPA_RTOL_PER_EPS_KAPPA * EPS * kappa), name


def _odd_probes():
    return [(chain, rec.A) for chain in ("mo-chain-v1", "mo-chain-frib-synthetic-v1")
            for rec in partition(load_bundled_chain(chain))[1]]


@pytest.mark.parametrize("chain, probe", _odd_probes())
@pytest.mark.parametrize("scenario", ["current", "projected"])
def test_the_nominal_chi_bound_is_the_band_bound_at_the_nominal_form_factor(capsys, pinned_timestamp, chain,
                                                                           probe, scenario):
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


# ---------------------------------------------------------------------------
# the weighted solve, on the 6-row FRIB design with non-uniform sigma

# unit roundoff, and the backward error of one solve in units of it: the
# SVD solve returns the exact solution of a whitened system whose design
# and rhs are perturbed by at most C_BACKWARD u relative, a constant of
# the size of the design's m n = 18 (LAPACK's bounds are low-degree
# polynomials in the dimensions), not a fitted one
U = EPS / 2
C_BACKWARD = 18.0


@pytest.fixture(scope="module")
def frib_solve(frib_chain, coeffs):
    """The FRIB design, 50 seeded noisy rhs columns and a sigma spread over two decades."""
    design = build_design(partition(frib_chain)[1], coeffs)
    rng = np.random.default_rng(2016)
    sigma = 1e-13 * 10.0 ** rng.uniform(-1, 1, len(design.rows))
    rhs = (design.entries @ [0.1, 1.0, 1e8])[:, None] + sigma[:, None] * rng.normal(size=(len(design.rows), 50))
    return design, rhs, sigma


def _rows(design: DesignMatrix, rows) -> DesignMatrix:
    return DesignMatrix(rows=tuple(design.rows[i] for i in rows), columns=design.columns,
                        entries=design.entries[list(rows)])


def _whitened(design: DesignMatrix, sigma):
    """The singular values of the whitened preconditioned design, largest
    first, and the column norms: y = estimates * norms solves it."""
    pre = precondition(design)
    return np.linalg.svd(pre.entries / sigma[:, None], compute_uv=False), np.asarray(pre.column_norms)


def _covariance_rounding(design: DesignMatrix, sigma) -> float:
    """Bound on the error of one solve's se_y^2 = diag((W^T W)^-1), W the
    whitened design: a relative perturbation d of W moves (W^T W)^-1 by at
    most 2 kappa_w d |(W^T W)^-1| to first order, and |(W^T W)^-1| =
    1 / s_min^2, with d = C_BACKWARD u."""
    sv, _ = _whitened(design, sigma)
    return 2.0 * (sv[0] / sv[-1]) * C_BACKWARD * U / sv[-1] ** 2


@pytest.mark.parametrize("k", [-40, -3, 5, 60])
@pytest.mark.parametrize("column", range(3))
def test_scaling_a_design_column_by_a_power_of_two_scales_its_estimate_and_se(frib_solve, k, column):
    # the column norm takes the factor exactly and the preconditioned
    # design is unchanged, so only that column's division by its norm moves
    design, rhs, sigma = frib_solve
    estimates, errors, kappa = solve_many(design, rhs, sigma)
    entries = design.entries.copy()
    entries[:, column] *= 2.0 ** k
    scaled, scaled_errors, scaled_kappa = solve_many(dataclasses.replace(design, entries=entries), rhs, sigma)
    expected, expected_errors = estimates.copy(), errors.copy()
    expected[column] *= 2.0 ** -k
    expected_errors[column] *= 2.0 ** -k
    assert scaled.tobytes() == expected.tobytes() and scaled_errors.tobytes() == expected_errors.tobytes()
    assert scaled_kappa == kappa


@pytest.mark.parametrize("k", [-40, -3, 5, 60])
def test_scaling_the_rhs_or_sigma_by_a_power_of_two_scales_the_estimates_or_the_ses(frib_solve, k):
    # a power of two passes exactly through the whitening, the SVD's
    # orthogonal factors and the divisions by the singular values
    design, rhs, sigma = frib_solve
    estimates, errors, _ = solve_many(design, rhs, sigma)
    scaled, scaled_errors, _ = solve_many(design, rhs * 2.0 ** k, sigma)
    assert scaled.tobytes() == (estimates * 2.0 ** k).tobytes() and scaled_errors.tobytes() == errors.tobytes()
    scaled, scaled_errors, _ = solve_many(design, rhs, sigma * 2.0 ** k)
    assert scaled.tobytes() == estimates.tobytes() and scaled_errors.tobytes() == (errors * 2.0 ** k).tobytes()


def test_permuting_the_rows_keeps_the_solve_within_its_rounding(frib_solve):
    design, rhs, sigma = frib_solve
    estimates, errors, _ = solve_many(design, rhs, sigma)
    sv, norms = _whitened(design, sigma)
    kappa_w = sv[0] / sv[-1]
    y = estimates * norms[:, None]  # the solution of the whitened system, one column per trial
    residual = np.linalg.norm(rhs / sigma[:, None] - (precondition(design).entries / sigma[:, None]) @ y, axis=0)
    # a row permutation is an orthogonal factor on the left: the exact
    # solution does not move. Each solve is exact for a system perturbed
    # by d = C_BACKWARD u relative in its design and rhs, which moves the
    # least-squares solution of each trial by at most (Higham, Accuracy and
    # Stability of Numerical Algorithms, Theorem 20.1)
    #     |dy| <= kappa_w d / (1 - kappa_w d) (2 + (kappa_w + 1) |r| / (s_max |y|)) |y|,
    # kappa_w the whitened kappa and r the whitened residual; two solves
    # differ by at most twice that. The bound is normwise over each
    # trial's y, the solution's scale: an estimate far below |y| may move
    # by far more than eps relative to itself.
    d = C_BACKWARD * U
    bound = 2.0 * kappa_w * d / (1.0 - kappa_w * d) * (2.0 + (kappa_w + 1.0) * residual / (sv[0] * np.linalg.norm(y, axis=0)))
    bound *= np.linalg.norm(y, axis=0)
    se_y2 = (errors * norms) ** 2
    for order in itertools.islice(itertools.permutations(range(len(design.rows))), 1, None, 7):
        permuted, permuted_errors, _ = solve_many(_rows(design, order), rhs[list(order)], sigma[list(order)])
        assert np.all(np.linalg.norm((permuted - estimates) * norms[:, None], axis=0) <= bound), order
        # se_y^2 is the diagonal of (W^T W)^-1, which the permutation leaves exactly as it is
        assert np.all(np.abs((permuted_errors * norms) ** 2 - se_y2) <= 2.0 * _covariance_rounding(design, sigma))


def test_dropping_a_row_never_lowers_a_standard_error(frib_solve):
    # exactly, dropping row w removes the positive semidefinite w w^T from
    # W^T W, so no diagonal entry of its inverse, se_y^2, can fall; each
    # solve's se_y^2 is within its _covariance_rounding of the exact one
    design, rhs, sigma = frib_solve
    _, errors, _ = solve_many(design, rhs, sigma)
    _, norms = _whitened(design, sigma)
    for drop in range(len(design.rows)):
        keep = [i for i in range(len(design.rows)) if i != drop]
        _, dropped_errors, _ = solve_many(_rows(design, keep), rhs[keep], sigma[keep])
        tolerance = _covariance_rounding(design, sigma) + _covariance_rounding(_rows(design, keep), sigma[keep])
        assert np.all((dropped_errors * norms) ** 2 >= (errors * norms) ** 2 - tolerance), drop


@pytest.mark.parametrize("chain, probe", _odd_probes())
def test_each_barrier_residual_is_linear_in_its_knowledge_fraction(anchors, chain, probe):
    # residual = fraction * raw, one correctly rounded product, with a raw
    # that no fraction changes
    loaded = load_bundled_chain(chain)
    fractions = 1.0 - np.random.default_rng([17, probe]).uniform(0.0, 1.0, 8)  # in (0, 1]
    raws = None
    for fraction in [1.0, *fractions.tolist()]:
        knobs = {**anchors.scenario("current"), "hfs2_theory_fraction": fraction, "tnp_knowledge_fraction": fraction}
        edited = dataclasses.replace(anchors, scenarios={**anchors.scenarios, "current": knobs})
        entries = barriers.build_budget(loaded, default_channels(), edited, probe_A=probe).entries
        hfs2, tnp = (next(e for e in entries if e.name == name) for name in ("III. HFS (2nd)", "IV. TNP"))
        raws = raws or (hfs2.raw_eV, tnp.raw_eV)
        assert (hfs2.raw_eV, tnp.raw_eV) == raws
        assert hfs2.current_eV == fraction * raws[0] and tnp.current_eV == fraction * raws[1]
