"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gkpforge.angular import centroid, hfs_e2_levels, triangle_ok, wigner_6j
from gkpforge.barriers import SignalModel, hfs_second_order, qed_correction, signal_band
from gkpforge.budget import chi_bound, decay_penalty, ramsey_plan
from gkpforge.cli import main
from gkpforge.errors import UnderdeterminedError
from gkpforge.gkp import build_design, extract, precondition
from gkpforge.montecarlo import ParameterSpec, SamplingSpec, injection_recovery, sample_kappa
from gkpforge.nucdata import chain_to_csv, chain_to_json, load_chain, partition


@contextlib.contextmanager
def _criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def test_criterion_01_barrier_numerics():
    with _criterion(1, "second-order HFS residuals reproduce the reference scales"):
        start = time.monotonic()
        raw95, sub95 = hfs_second_order(1e-4, 150.0, 1e-3)
        raw97, _ = hfs_second_order(1e-2, 150.0, 1e-3)
        elapsed = time.monotonic() - start
        assert 6e-11 <= raw95 <= 8e-11
        assert 6e-14 <= sub95 <= 8e-14
        assert 6e-7 <= raw97 <= 8e-7
        assert elapsed < 1e-3


def test_criterion_02_budget_reproduction(capsys):
    with _criterion(2, "budget command reproduces the combined residuals and dominant barrier"):
        start = time.monotonic()
        assert main(["budget", "--format", "json"]) == 0
        current = json.loads(capsys.readouterr().out)
        assert main(["budget", "--scenario", "projected", "--format", "json"]) == 0
        projected = json.loads(capsys.readouterr().out)
        elapsed = time.monotonic() - start
        assert 0.7e-13 <= current["combined_eV"] <= 2e-13
        assert current["dominant"] == "TNP"
        assert 0.7e-14 <= projected["combined_eV"] <= 2e-14
        assert elapsed < 1.0


def test_criterion_03_chi_bound_exact_and_band(mo_chain, anchors):
    with _criterion(3, "coupling bound is exact at the anchor and spans the form-factor band"):
        assert chi_bound(1e-13, 2e-21) == 5e7
        model = SignalModel.from_anchors(anchors, mo_chain)
        band = signal_band(model, mo_chain.isotope(95), points=5)
        signals = [s for _, s in band]
        bound_at_nominal = chi_bound(1e-13, anchors.signal_anchor_eV)
        bound_at_low_end = chi_bound(1e-13, min(signals))
        assert 3e7 <= bound_at_nominal <= 3e8      # ~1e8
        assert 3e8 <= bound_at_low_end <= 3e9      # ~1e9
        assert bound_at_low_end == pytest.approx(1e9, rel=1e-9)


def test_criterion_04_topology_verdicts(capsys):
    with _criterion(4, "solvability enumeration reproduces all four verdicts verbatim"):
        assert main(["solvability"]) == 0
        out = capsys.readouterr().out
        for verdict in ("No (2 < 3)", "Yes (3 = 3)", "Yes (4 > 3)", "Yes (6 ≫ 3)"):
            assert verdict in out


def test_criterion_05_conditioning(mo_chain, coeffs, sampling_spec):
    with _criterion(5, "condition-number statistics land in the target band"):
        start = time.monotonic()
        summary = sample_kappa(mo_chain, coeffs, sampling_spec)  # shipped spec: 1e5 draws
        assert summary.sample_count == 100000
        assert 5.0 <= summary.mean <= 15.0
        assert 1.0 <= summary.std <= 6.0
        # the reference 8.3 +/- 2.4 interval sits inside the p5-p95 band
        assert summary.p5 <= 8.3 - 2.4
        assert summary.p95 >= 8.3 + 2.4

        positive = SamplingSpec(
            parameters=(
                ParameterSpec(name="Qs_91", distribution="uniform", low=0.005, high=1.0,
                              units="b"),
                sampling_spec.parameter("BE2_91"),
            ),
            sample_count=20000,
            seed=sampling_spec.seed,
        )
        from gkpforge.montecarlo import kappa_draws

        kappas, _ = kappa_draws(mo_chain, coeffs, positive)
        assert np.mean(kappas < 100.0) >= 0.99
        elapsed = time.monotonic() - start
        assert elapsed < 30.0


def test_criterion_06_noiseless_recovery(mo_chain, frib_chain, coeffs):
    with _criterion(6, "noiseless recovery is exact for every solvable topology; stable pair refused"):
        start = time.monotonic()
        truth = np.array([1e-7, 1e-7, 1.0])
        _, odd_stable = partition(mo_chain)
        _, odd_frib = partition(frib_chain)
        topologies = [
            (odd_frib, coeffs.subset(["1s-2p3/2"])),  # FRIB: 3 eq, 3 unknowns
            (odd_stable, coeffs),                     # two transitions: 4 eq
            (odd_frib, coeffs),                       # both: 6 eq
        ]
        for odd, used in topologies:
            design = build_design(odd, used)
            rhs = design.entries @ truth
            result = extract(precondition(design), rhs, np.full(len(design.rows), 1e-22))
            recovered = [v for _, v, _ in result.background_estimates] + [result.alpha_manko_hat]
            for got, want in zip(recovered, truth):
                assert abs(got / want - 1.0) <= 1e-10

        stable_design = build_design(odd_stable, coeffs.subset(["1s-2p3/2"]))
        with pytest.raises(UnderdeterminedError):
            extract(stable_design, stable_design.entries @ truth, np.full(2, 1e-22))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0


def test_criterion_07_noisy_recovery(frib_chain, coeffs):
    with _criterion(7, "noisy campaign: 1-sigma coverage and the derived coupling bound"):
        start = time.monotonic()
        stats = injection_recovery(
            frib_chain,
            coeffs.subset(["1s-2p3/2"]),
            {"backgrounds": (1.0, 1.0), "alpha_manko": 0.0},
            noise_eV=1e-13,
            trials=10000,
            seed=20250809,
        )
        elapsed = time.monotonic() - start
        assert 0.62 <= stats.coverage_1sigma <= 0.74
        assert 5e7 / 3 <= stats.chi_bound_median <= 5e7 * 3
        assert elapsed < 60.0


def test_criterion_08_angular_algebra():
    with _criterion(8, "6j symmetries, orthogonality, selection rule, centroid cancellation"):
        start = time.monotonic()
        rng = np.random.default_rng(314159)

        def random_valid(max_twice=8):
            while True:
                t = rng.integers(0, max_twice + 1, size=6)
                j = [Fraction(int(x), 2) for x in t]
                triads = [(j[0], j[1], j[2]), (j[0], j[4], j[5]),
                          (j[3], j[1], j[5]), (j[3], j[4], j[2])]
                if all(triangle_ok(*tr) for tr in triads):
                    return j

        # 250 randomized symmetry inputs: column permutation and double swap
        for _ in range(250):
            a, b, c, d, e, f = random_valid()
            reference = wigner_6j(a, b, c, d, e, f)
            assert abs(wigner_6j(b, a, c, e, d, f) - reference) <= 1e-12
            assert abs(wigner_6j(c, b, a, f, e, d) - reference) <= 1e-12
            assert abs(wigner_6j(a, e, f, d, b, c) - reference) <= 1e-12
            assert abs(wigner_6j(d, e, c, a, b, f) - reference) <= 1e-12

        # 250 randomized orthogonality triples
        checked = 0
        while checked < 250:
            ta, tb = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            tc = int(rng.integers(0, 7))
            td = int(rng.integers(0, 7))
            if (ta + td) % 2 != (tb + tc) % 2:
                continue
            p_lo, p_hi = max(abs(ta - td), abs(tb - tc)), min(ta + td, tb + tc)
            if p_lo > p_hi:
                continue
            choices = list(range(p_lo, p_hi + 1, 2))
            tp = int(choices[rng.integers(0, len(choices))])
            tq = int(choices[rng.integers(0, len(choices))])
            a, b, c, d = (Fraction(t, 2) for t in (ta, tb, tc, td))
            p, q = Fraction(tp, 2), Fraction(tq, 2)
            x_lo, x_hi = max(abs(ta - tb), abs(tc - td)), min(ta + tb, tc + td)
            total = 0.0
            for tx in range(x_lo, x_hi + 1, 2):
                x = Fraction(tx, 2)
                total += (tx + 1) * wigner_6j(a, b, x, c, d, p) * wigner_6j(a, b, x, c, d, q)
            expected = 1.0 / (tp + 1) if tp == tq else 0.0
            assert abs(total - expected) <= 1e-12
            checked += 1

        # the rank-2 selection rule in 6j form, exact zeros
        half = Fraction(1, 2)
        for twice_I in range(0, 10):
            for twice_F in range(0, 10):
                I, F = Fraction(twice_I, 2), Fraction(twice_F, 2)
                assert wigner_6j(half, half, 2, I, I, F) == 0.0

        # quadrupole ladder centroid cancellation across the whole grid
        for twice_I in range(2, 10):
            for twice_j in range(3, 10):
                I, j = Fraction(twice_I, 2), Fraction(twice_j, 2)
                if I < 1 or j < Fraction(3, 2):
                    continue
                assert abs(centroid(hfs_e2_levels(I, j, 1.0))) <= 1e-14

        elapsed = time.monotonic() - start
        assert elapsed < 5.0


def test_criterion_09_ramsey_optimum():
    with _criterion(9, "decay-limited interrogation optimum and per-shot linewidth"):
        start = time.monotonic()
        half_life = 15.5 * 60.0
        plan = ramsey_plan(half_life, T_R_requested_s=1e4, repetitions=1)
        t_opt_min = plan.T_R_opt_s / 60.0
        assert 11.1 <= t_opt_min <= 11.3
        assert 2.2e-4 <= plan.per_shot_linewidth_Hz <= 2.5e-4

        # central finite difference changes sign at the optimum
        t_opt = plan.T_R_opt_s
        h = 1e-3 * t_opt
        def slope(t):
            return (decay_penalty(t + h, half_life) - decay_penalty(t - h, half_life)) / (2 * h)
        grid = [t_opt * (1 + k * 1e-3) for k in range(-4, 5) if k != 0]
        signs = [math.copysign(1.0, slope(t)) for t in grid]
        assert signs[0] == -1.0 and signs[-1] == +1.0
        assert any(s1 < 0 < s2 for s1, s2 in zip(signs, signs[1:]))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0


def test_criterion_10_data_fidelity(mo_chain, tmp_path):
    with _criterion(10, "bundled chain round-trips bit-exactly and matches the reference table"):
        json_path = tmp_path / "chain.json"
        json_path.write_text(chain_to_json(mo_chain), encoding="utf-8")
        assert load_chain(json_path) == mo_chain

        csv_path = tmp_path / "chain.csv"
        csv_path.write_text(chain_to_csv(mo_chain), encoding="utf-8")
        assert load_chain(csv_path).records == mo_chain.records

        reference = {
            92: ("0", 4.315, 0.003, 0.150, None, None, 7.9, 0.3, False, 0.0),
            94: ("0", 4.324, 0.003, 0.151, None, None, 9.3, 0.4, False, 0.078),
            95: ("5/2", 4.330, 0.004, 0.160, -0.022, 0.001, 8.0, 1.0, True, 0.130),
            96: ("0", 4.334, 0.003, 0.172, None, None, 13.0, 0.5, False, 0.164),
            97: ("5/2", 4.336, 0.004, 0.162, 0.255, 0.013, 12.0, 2.0, True, 0.182),
            98: ("0", 4.341, 0.003, 0.168, None, None, 12.2, 0.5, False, 0.225),
            100: ("0", 4.353, 0.003, 0.231, None, None, 15.6, 0.6, False, 0.329),
        }
        assert {r.A for r in mo_chain.records} == set(reference)
        for rec in mo_chain.records:
            spin, r, r_s, b2, qs, qs_s, be2, be2_s, eff, dr2 = reference[rec.A]
            assert str(rec.spin) == spin
            assert (rec.r_ch.value, rec.r_ch.sigma) == (r, r_s)
            assert rec.beta2.value == b2 and rec.beta2.sigma is None
            if qs is None:
                assert rec.Qs is None
            else:
                assert (rec.Qs.value, rec.Qs.sigma) == (qs, qs_s)
            assert (rec.BE2_up.value, rec.BE2_up.sigma) == (be2, be2_s)
            assert rec.BE2_up.effective is eff
            assert rec.delta_r2.value == dr2


def test_criterion_11_qed_correction():
    with _criterion(11, "radiative correction fraction and residual at the reference charge"):
        model = SignalModel(Z=42, baseline_shift_eV=2e-21)
        fractional, residual = qed_correction(model, beta2_variation=0.5)
        assert 0.090 <= fractional <= 0.098
        assert 0.8e-22 <= residual <= 1.1e-22
