from __future__ import annotations

import dataclasses
import math
import re
import resource
from fractions import Fraction

import numpy as np
import pytest

from gkpforge.errors import ValidationError
from gkpforge.gkp import (
    COLUMN_NAMES,
    DesignMatrix,
    TransitionCoefficients,
    ElectronicCoefficients,
    build_design,
    condition_number,
    condition_numbers,
    extract,
    precondition,
    solve_many,
)
import gkpforge.montecarlo as montecarlo
from gkpforge.montecarlo import (
    BLOCK_SIZE,
    KAPPA_BATCH,
    MAX_REJECTION_ROUNDS,
    ParameterSpec,
    SamplingSpec,
    RecoveryStats,
    _block_noise,
    _block_rng,
    _draw_guarded,
    injection_recovery,
    kappa_draws,
    sample_kappa,
    summarize_kappa,
)
from gkpforge.budget import chi_bound
from gkpforge.nucdata import Measured, partition, spin_mass_lever


def _spec(sample_count=2000, seed=77, qs_low=-0.25, qs_high=1.0, be2_low=4.0, be2_high=20.0,
          guard=0.005, be2_scale=1.0):
    return SamplingSpec(
        parameters=(
            ParameterSpec(name="Qs_91", distribution="uniform", low=qs_low, high=qs_high,
                          units="b", exclude_abs_below=guard),
            ParameterSpec(name="BE2_91", distribution="uniform", low=be2_low * be2_scale,
                          high=be2_high * be2_scale, units="W.u."),
        ),
        sample_count=sample_count,
        seed=seed,
    )


def test_parameter_spec_validation():
    with pytest.raises(ValidationError):
        ParameterSpec(name="x", distribution="triangular", low=0, high=1)
    with pytest.raises(ValidationError):
        ParameterSpec(name="x", distribution="uniform", low=1.0, high=0.0)
    with pytest.raises(ValidationError):
        ParameterSpec(name="x", distribution="log-uniform", low=-1.0, high=1.0)
    with pytest.raises(ValidationError):
        ParameterSpec(name="x", distribution="gaussian", mean=0.0, sigma=0.0)
    # rng.uniform would overflow computing high - low
    with pytest.raises(ValidationError, match="parameter 'x': bounds must be ordered with a finite high - low"):
        ParameterSpec(name="x", distribution="uniform", low=-1.5e308, high=1.5e308)
    # a guard band covering the whole support would reject every proposal
    with pytest.raises(ValidationError, match="guard band"):
        ParameterSpec(name="x", distribution="uniform", low=-0.1, high=0.1, exclude_abs_below=0.2)
    with pytest.raises(ValidationError, match="guard band"):
        ParameterSpec(name="x", distribution="log-uniform", low=1.0, high=2.0, exclude_abs_below=2.0)


class _CountingRng:
    """Generator stand-in that fails a test after `limit` normal draws
    instead of letting an unbounded rejection loop hang it."""

    def __init__(self, limit):
        self.calls = 0
        self.limit = limit
        self._rng = np.random.default_rng(0)

    def normal(self, loc, scale, size):
        self.calls += 1
        assert self.calls <= self.limit, "rejection loop did not stop"
        return self._rng.normal(loc, scale, size)


def test_guarded_gaussian_draw_gives_up():
    param = ParameterSpec(name="x", distribution="gaussian", mean=0.0, sigma=1e-3,
                          exclude_abs_below=1.0)
    with pytest.raises(ValidationError, match="guard band"):
        _draw_guarded(param, _CountingRng(limit=100_000), np.empty(8))


@pytest.mark.parametrize("distribution, bounds", [
    ("uniform", {"low": 4.0, "high": 20.0}),
    ("log-uniform", {"low": 1e-3, "high": 1e3}),
    ("gaussian", {"mean": 0.0, "sigma": 1.0}),
])
def test_unguarded_draw_is_the_first_draw(distribution, bounds):
    param = ParameterSpec(name="x", distribution=distribution, **bounds)
    values = np.empty(1000)
    rejected = _draw_guarded(param, _block_rng(7, 3), values)
    assert rejected == 0
    assert np.array_equal(values, param.draw(_block_rng(7, 3), 1000))


class _RecordingRng:
    """Generator wrapper that records the size of every uniform or normal
    draw it is asked for."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args):
            self.sizes.append(args[-1])  # the size, after the bounds or the mean and sigma
            return method(*args)
        return record


def _draw_guarded_full_rescan(param, rng, size):
    """Reference guarded draw that re-tests every value in every round."""
    values = param.draw(rng, size)
    rejected = 0
    for _ in range(MAX_REJECTION_ROUNDS):
        bad = np.abs(values) < param.exclude_abs_below
        count = int(bad.sum())
        if not count:
            return values, rejected
        rejected += count
        values[bad] = param.draw(rng, count)
    raise AssertionError("the reference draw ran out of rounds")


# each band rejects half of its distribution's support
@pytest.mark.parametrize("distribution, bounds, band", [
    ("uniform", {"low": -1.0, "high": 1.0}, 0.5),
    ("log-uniform", {"low": 1e-3, "high": 1e3}, 1.0),
    ("gaussian", {"mean": 0.0, "sigma": 1.0}, 0.6744897501960817),
])
@pytest.mark.parametrize("size", [1, 1024, 5000])
def test_guarded_draw_equals_the_full_rescan(distribution, bounds, band, size):
    param = ParameterSpec(name="x", distribution=distribution, exclude_abs_below=band, **bounds)
    rng, reference_rng = _RecordingRng(_block_rng(7, size)), _RecordingRng(_block_rng(7, size))
    values = np.empty(size)
    rejected = _draw_guarded(param, rng, values)
    expected, expected_rejected = _draw_guarded_full_rescan(param, reference_rng, size)
    assert values.tobytes() == expected.tobytes() and rejected == expected_rejected
    assert rng.sizes == reference_rng.sizes  # the same draws, of the same sizes, in the same order
    assert len(rng.sizes) >= 5 or size == 1  # several rejection rounds ran
    assert rng.rng.random(8).tobytes() == reference_rng.rng.random(8).tobytes()


@pytest.mark.parametrize("distribution, bounds, band", [
    ("uniform", {"low": -1.0, "high": 1.0}, 0.5),
    ("log-uniform", {"low": 1e-3, "high": 1e3}, 1.0),
    ("gaussian", {"mean": 0.0, "sigma": 1.0}, 0.6744897501960817),
])
def test_guarded_draw_fills_only_the_block_it_is_given(distribution, bounds, band):
    """kappa_draws hands each block a slice of one row of its batch: the
    draws land in that slice and nowhere else, with the bits and rejected
    count of the same draw into an array of its own."""
    param = ParameterSpec(name="x", distribution=distribution, exclude_abs_below=band, **bounds)
    batch = np.zeros((2, 3 * BLOCK_SIZE))
    block = batch[1, BLOCK_SIZE:2 * BLOCK_SIZE]
    rejected = _draw_guarded(param, _block_rng(5, 1), block)
    expected = np.empty(BLOCK_SIZE)
    assert rejected == _draw_guarded(param, _block_rng(5, 1), expected) > 0
    assert block.tobytes() == expected.tobytes()
    assert not batch[0].any() and not batch[1, :BLOCK_SIZE].any() and not batch[1, 2 * BLOCK_SIZE:].any()


# the bit patterns of the seed's 32-bit words: one word (0, 1, 2**32 - 1),
# two (2**32, 2**64 - 1), three (2**64 + 1) and five (2**130 + 77)
BLOCK_RNG_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**130 + 77, 20250809]


@pytest.mark.parametrize("seed", BLOCK_RNG_SEEDS)
@pytest.mark.parametrize("block", [0, 1, 97, 1023, 2**20])
def test_block_rng_is_default_rng_of_seed_and_block(seed, block):
    assert _block_rng(seed, block).bit_generator.state == np.random.default_rng([seed, block]).bit_generator.state


def _numpy_guarded_draw(draw, band, rng, size):
    """Guarded draw from draw(rng, n), every value re-tested each round."""
    values = draw(rng, size)
    rejected = 0
    while True:
        bad = np.abs(values) < band
        count = int(bad.sum())
        if not count:
            return values, rejected
        rejected += count
        values[bad] = draw(rng, count)


# each case with numpy's own draw written out; each band rejects part of its
# distribution's support; sigma = 5e-324 rounds every sigma z below one half
# in size to a signed zero, so the zero-mean cases check the +0.0 that
# rng.normal's 0.0 + sigma z gives
DRAWS = [
    ("uniform", {"low": -0.25, "high": 1.0}, 0.1, lambda rng, n: rng.uniform(-0.25, 1.0, n)),
    ("uniform", {"low": 4.0, "high": 20.0}, 5.0, lambda rng, n: rng.uniform(4.0, 20.0, n)),
    ("log-uniform", {"low": 1e-3, "high": 1e3}, 1.0,
     lambda rng, n: np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))),
    ("log-uniform", {"low": 4.0, "high": 20.0}, 6.0,
     lambda rng, n: np.exp(rng.uniform(math.log(4.0), math.log(20.0), n))),
    ("gaussian", {"mean": 0.3, "sigma": 0.4}, 0.05, lambda rng, n: rng.normal(0.3, 0.4, n)),
    ("gaussian", {"mean": 0.0, "sigma": 1.0}, 0.6744897501960817, lambda rng, n: rng.normal(0.0, 1.0, n)),
    ("gaussian", {"mean": 0.0, "sigma": 5e-324}, 0.0, lambda rng, n: rng.normal(0.0, 5e-324, n)),
    ("gaussian", {"mean": -0.0, "sigma": 5e-324}, 0.0, lambda rng, n: rng.normal(-0.0, 5e-324, n)),
]


@pytest.mark.parametrize("distribution, bounds, band, numpy_draw", DRAWS)
@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("size", [1, 1024, 5000])
def test_guarded_draws_are_the_bits_of_numpys_own_draws(distribution, bounds, band, numpy_draw, guarded, size):
    band = band if guarded else 0.0
    param = ParameterSpec(name="x", distribution=distribution, exclude_abs_below=band, **bounds)
    rng, reference_rng = _block_rng(11, size), np.random.default_rng([11, size])
    values = np.full(size, np.nan)
    rejected = _draw_guarded(param, rng, values)
    expected, expected_rejected = _numpy_guarded_draw(numpy_draw, band, reference_rng, size)
    assert values.tobytes() == expected.tobytes() and rejected == expected_rejected  # signed zeros included
    if band == 0.0:
        assert rejected == 0
    elif size > 1:
        assert rejected > 0  # the redraws ran
    assert rng.random(8).tobytes() == reference_rng.random(8).tobytes()
    if bounds.get("sigma") == 5e-324 and math.copysign(1.0, bounds["mean"]) > 0 and size > 1:  # mean +0.0
        zeros = values[values == 0.0]
        assert zeros.size > size // 4 and not np.signbit(zeros).any()


def _unsorted_draws(size: int, rounded: bool) -> np.ndarray:
    rng = np.random.default_rng(size)
    kappas = 1.0 + rng.lognormal(2.0, 1.0, size)
    if rounded:
        kappas = np.round(kappas, 1)
    if size > 1:  # rank-deficient and failed draws, kept out of every statistic
        kappas[::7] = np.inf
        kappas[3::11] = np.nan
    return kappas


# every campaign size up to 300, then large ones
SUMMARY_SIZES = [*range(1, 301), 1_000, 1_001, 20_000, 20_001]


def test_summary_sizes_reach_every_branch_of_the_linear_rule():
    """The finite counts of the sizes tested below reach the clamp to the
    last value (v >= n - 1, at one finite draw), gamma below and from 0.5,
    and odd and even medians."""
    counts = {int(np.isfinite(_unsorted_draws(size, False)).sum()) for size in SUMMARY_SIZES}
    gammas = {((n - 1) * (pct / 100)) % 1 for n in counts - {1} for pct in (5, 95)}
    assert 1 in counts and min(gammas) < 0.5 <= max(gammas)
    assert {n % 2 for n in counts} == {0, 1}


@pytest.mark.parametrize("size", SUMMARY_SIZES)
@pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "ties"])
def test_summary_statistics_equal_numpy_on_unsorted_draws(size, rounded):
    kappas = _unsorted_draws(size, rounded)
    finite = kappas[np.isfinite(kappas)]  # unsorted, in draw order
    summary = summarize_kappa(kappas, 0.0, 1)
    p5, p95 = np.percentile(finite, [5, 95])
    assert (summary.mean, summary.median, summary.p5, summary.p95) == (
        float(finite.mean()), float(np.median(finite)), float(p5), float(p95))
    assert summary.std == (float(finite.std(ddof=1)) if finite.size > 1 else 0.0)


def test_summary_leaves_its_input_untouched(mo_chain, coeffs, sampling_spec):
    kappas, excluded = kappa_draws(mo_chain, coeffs, dataclasses.replace(sampling_spec, sample_count=3000, seed=5))
    kappas[::7] = np.inf
    before = kappas.tobytes()
    summary = summarize_kappa(kappas, excluded, 5)
    assert kappas.tobytes() == before
    finite = kappas[np.isfinite(kappas)]
    assert summary.median == float(np.median(finite))
    assert (summary.p5, summary.p95) == tuple(float(q) for q in np.percentile(finite, [5, 95]))
    assert summary.rank_deficient_fraction == float(np.mean(np.isinf(kappas)))


def _finite_draws(size: int, rounded: bool) -> np.ndarray:
    rng = np.random.default_rng([size, 1])
    kappas = 1.0 + rng.lognormal(2.0, 1.0, size)
    return np.round(kappas, 1) if rounded else kappas


def _assert_numpys_summary(kappas, summary):
    finite = kappas[np.isfinite(kappas)]  # unsorted, in draw order
    p5, p95 = np.percentile(finite, [5, 95])
    assert (summary.mean, summary.median, summary.p5, summary.p95) == (
        float(np.mean(finite)), float(np.median(finite)), float(p5), float(p95))
    assert summary.std == (float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0)


@pytest.mark.parametrize("size", [*range(1, 301), 100_000])
@pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "ties"])
def test_summary_of_finite_draws_equals_numpy_and_reads_them_in_place(size, rounded):
    kappas = _finite_draws(size, rounded)
    kappas.flags.writeable = False  # the summary reads the draws themselves; a write would raise
    summary = summarize_kappa(kappas, 0.0, 1)
    _assert_numpys_summary(kappas, summary)
    assert summary.rank_deficient_fraction == 0.0


@pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "ties"])
def test_summary_of_mixed_draws_equals_numpy_at_the_shipped_size(rounded):
    kappas = _unsorted_draws(100_000, rounded)
    kappas.flags.writeable = False
    summary = summarize_kappa(kappas, 0.0, 1)
    _assert_numpys_summary(kappas, summary)
    assert summary.rank_deficient_fraction == np.count_nonzero(~np.isfinite(kappas)) / kappas.size


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_one_non_finite_draw_is_left_out_of_the_summary(bad):
    kappas = _finite_draws(1001, False)
    kappas[500] = bad
    summary = summarize_kappa(kappas, 0.0, 1)
    _assert_numpys_summary(kappas, summary)
    assert summary.rank_deficient_fraction == 1 / 1001


def test_spec_missing_parameter_rejected(mo_chain, coeffs):
    spec = SamplingSpec(
        parameters=(ParameterSpec(name="Qs_91", distribution="uniform", low=0.0, high=1.0),),
        sample_count=10,
        seed=1,
    )
    with pytest.raises(ValidationError, match="BE2_91"):
        sample_kappa(mo_chain, coeffs, spec)


@pytest.mark.parametrize("name", ["Qs_93", "BE2_93", "qs_91", ""])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_spec_parameter_no_draw_reads_rejected(mo_chain, coeffs, name, position):
    shipped = _spec(sample_count=10, seed=1)
    parameters = list(shipped.parameters)
    parameters.insert(position, ParameterSpec(name=name, distribution="uniform", low=0.0, high=1.0))
    spec = dataclasses.replace(shipped, parameters=tuple(parameters))
    with pytest.raises(ValidationError, match=f"^sampling spec parameter {name!r} is read by no draw"):
        kappa_draws(mo_chain, coeffs, spec)


def test_single_draw_matches_condition_number(mo_chain, coeffs):
    spec = _spec(sample_count=1, seed=123)
    kappas, _ = kappa_draws(mo_chain, coeffs, spec)
    rng = _block_rng(123, 0)
    qs, be2 = np.empty(1), np.empty(1)
    _draw_guarded(spec.parameter("Qs_91"), rng, qs)
    _draw_guarded(spec.parameter("BE2_91"), rng, be2)
    t = coeffs.rank2_transitions()[0]
    rec95, rec97 = mo_chain.isotope(95), mo_chain.isotope(97)
    entries = np.array([
        [t.H_eV_per_b * rec95.Qs.value, t.P_eV_per_wu * rec95.BE2_up.value,
         t.G_eV_per_lever * spin_mass_lever(rec95)],
        [t.H_eV_per_b * rec97.Qs.value, t.P_eV_per_wu * rec97.BE2_up.value,
         t.G_eV_per_lever * spin_mass_lever(rec97)],
        [t.H_eV_per_b * qs[0], t.P_eV_per_wu * be2[0],
         t.G_eV_per_lever * float(Fraction(81, 4) / 91)],
    ])
    m = DesignMatrix(rows=((95, t.label), (97, t.label), (91, t.label)),
                     columns=COLUMN_NAMES, entries=entries)
    assert kappas[0] == pytest.approx(condition_number(precondition(m)), rel=1e-12)


@pytest.mark.parametrize("seed", [123, 20250809])
def test_each_draw_is_the_condition_number_of_its_build_design(mo_chain, frib_chain, coeffs, seed):
    spec = _spec(sample_count=64, seed=seed)
    kappas, _ = kappa_draws(mo_chain, coeffs, spec)
    rng = _block_rng(seed, 0)
    qs, be2 = np.empty(64), np.empty(64)
    _draw_guarded(spec.parameter("Qs_91"), rng, qs)
    _draw_guarded(spec.parameter("BE2_91"), rng, be2)
    first = coeffs.subset([coeffs.rank2_transitions()[0].label])
    designs = [
        build_design((mo_chain.isotope(95), mo_chain.isotope(97),
                      dataclasses.replace(frib_chain.isotope(91), Qs=Measured(q), BE2_up=Measured(b))), first)
        for q, b in zip(qs.tolist(), be2.tolist())
    ]
    expected = condition_numbers(np.stack([d.entries for d in designs]))
    assert kappas.tobytes() == expected.tobytes()


def test_kappa_draws_conditions_only_the_sampled_entries_per_draw(mo_chain, coeffs, sampling_spec, monkeypatch):
    grids = []
    monkeypatch.setattr(montecarlo, "condition_numbers", lambda grid: (grids.append(grid), condition_numbers(grid))[1])
    kappa_draws(mo_chain, coeffs, dataclasses.replace(sampling_spec, sample_count=KAPPA_BATCH + 1))
    # the A = 95 and 97 rows and the A = 91 G I^2/M are floats; H Qs_91 and P B(E2)_91 hold the batch's draws
    for grid, draws in zip(grids, (KAPPA_BATCH, 1), strict=True):
        assert [[np.shape(entry) for entry in row] for row in grid] == [[()] * 3, [()] * 3, [(draws,), (draws,), ()]]


def test_reproducibility_bit_identical(mo_chain, coeffs):
    spec = _spec(sample_count=3000, seed=42)
    first = sample_kappa(mo_chain, coeffs, spec)
    second = sample_kappa(mo_chain, coeffs, spec)
    assert first == second
    different = sample_kappa(mo_chain, coeffs, dataclasses.replace(spec, seed=43))
    assert different.mean != first.mean


def test_unit_rescaling_leaves_kappa_distribution(mo_chain, coeffs):
    # express the strength in milli-units and compensate in the coefficient
    spec = _spec(sample_count=2000, seed=5)
    base, _ = kappa_draws(mo_chain, coeffs, spec)

    scaled_spec = _spec(sample_count=2000, seed=5, be2_scale=1000.0)
    t_scaled = tuple(
        TransitionCoefficients(
            label=t.label,
            H_eV_per_b=t.H_eV_per_b,
            P_eV_per_wu=t.P_eV_per_wu / 1000.0,
            G_eV_per_lever=t.G_eV_per_lever,
            upper_j=t.upper_j,
        )
        for t in coeffs.transitions
    )
    coeffs_scaled = ElectronicCoefficients(name="scaled", transitions=t_scaled)

    # same chain but BE2 values in the new unit
    import gkpforge.nucdata as nd
    records = tuple(
        dataclasses.replace(r, BE2_up=nd.Measured(r.BE2_up.value * 1000.0, r.BE2_up.sigma,
                                                  r.BE2_up.effective) if r.BE2_up else None)
        for r in mo_chain.records
    )
    chain_scaled = nd.IsotopeChain(element=mo_chain.element, reference_A=mo_chain.reference_A,
                                   records=records, provenance={})
    scaled, _ = kappa_draws(chain_scaled, coeffs_scaled, scaled_spec)
    assert np.max(np.abs(scaled / base - 1.0)) <= 1e-10


def test_monotone_concentration(mo_chain, coeffs):
    small, _ = kappa_draws(mo_chain, coeffs, _spec(sample_count=400, seed=9))
    large, _ = kappa_draws(mo_chain, coeffs, _spec(sample_count=40000, seed=9))
    se_small = small.std(ddof=1) / math.sqrt(small.size)
    se_large = large.std(ddof=1) / math.sqrt(large.size)
    ratio = se_small / se_large
    assert 4.0 <= ratio <= 25.0  # ~10x for a 100x sample increase


def test_guard_band_exclusion_reported(mo_chain, coeffs):
    wide_guard = _spec(sample_count=4000, seed=3, guard=0.2)
    summary = sample_kappa(mo_chain, coeffs, wide_guard)
    # guard removes |Qs| < 0.2 from a [-0.25, 1] bracket: ~30% of proposals
    assert 0.15 <= summary.excluded_fraction <= 0.45
    no_guard = sample_kappa(mo_chain, coeffs, _spec(sample_count=4000, seed=3, guard=0.0))
    assert no_guard.excluded_fraction == 0.0


def test_summary_percentiles_ordered(mo_chain, coeffs, sampling_spec):
    summary = sample_kappa(mo_chain, coeffs, dataclasses.replace(sampling_spec, sample_count=5000))
    assert summary.p5 <= summary.median <= summary.p95
    assert summary.rank_deficient_fraction == 0.0
    assert summary.sample_count == 5000


# ---------------------------------------------------------------------------
# injection-recovery

TRUTH_NULL = {"backgrounds": (1.0, 1.0), "alpha_manko": 0.0}


def test_injection_recovery_noiseless_exact(frib_chain, coeffs):
    stats = injection_recovery(frib_chain, coeffs.subset(["1s-2p3/2"]),
                               {"backgrounds": (1e-7, 1e-7), "alpha_manko": 1.0},
                               noise_eV=0.0, trials=50, seed=1)
    assert stats.bias_alpha_manko == pytest.approx(0.0, abs=1e-9)
    assert stats.coverage_1sigma == 1.0
    assert stats.chi_bound_median == 0.0


def test_injection_recovery_coverage_and_bound(frib_chain, coeffs):
    stats = injection_recovery(frib_chain, coeffs.subset(["1s-2p3/2"]), TRUTH_NULL,
                               noise_eV=1e-13, trials=4000, seed=20250809)
    assert 0.60 <= stats.coverage_1sigma <= 0.76
    assert 0.92 <= stats.coverage_2sigma <= 0.985
    # the derived coupling bound equals the amplitude standard error and
    # sits within a factor of a few of residual/signal = 5e7
    assert stats.chi_bound_median == pytest.approx(stats.mean_se_alpha_manko, rel=1e-9)
    assert 5e7 / 3 <= stats.chi_bound_median <= 5e7 * 3
    # null injection: bias much smaller than the statistical spread
    assert abs(stats.bias_alpha_manko) <= 5 * stats.mean_se_alpha_manko / math.sqrt(stats.trials)


def test_null_injection_three_sigma_consistency(frib_chain, coeffs):
    # alpha truth 0 with per-row noise: estimates consistent with zero
    # within 3 sigma for at least 99% of seeded trials
    single = coeffs.subset(["1s-2p3/2"])
    from gkpforge.gkp import build_design, extract

    _, odd = partition(frib_chain)
    design = build_design(odd, single)
    x_true = np.array([1.0, 1.0, 0.0])
    rhs_true = design.entries @ x_true
    sigma = 1e-13
    consistent = 0
    trials = 1000
    for block in range(0, trials, 500):
        rng = np.random.default_rng([31415, block // 500])
        noise = rng.normal(0.0, sigma, (min(500, trials - block), len(design.rows)))
        for eps in noise:
            res = extract(design, rhs_true + eps, np.full(len(design.rows), sigma))
            if abs(res.alpha_manko_hat) <= 3 * res.alpha_manko_se:
                consistent += 1
    assert consistent / trials >= 0.99


def _reference_campaign(design, truth, noise_eV, trials, seed):
    """Per-trial extract loop over the block-seeded noise stream; returns
    the noisy (trials, rows) rhs stack, the estimates and their errors."""
    rhs_true = design.entries @ np.array([*truth["backgrounds"], truth["alpha_manko"]])
    n_rows = len(design.rows)
    rhs = np.concatenate([
        rhs_true + _block_rng(seed, block).normal(0.0, noise_eV, (min(BLOCK_SIZE, trials - start), n_rows))
        for block, start in enumerate(range(0, trials, BLOCK_SIZE))
    ])
    results = [extract(design, row, np.full(n_rows, noise_eV)) for row in rhs]
    return (rhs, np.array([r.alpha_manko_hat for r in results]),
            np.array([r.alpha_manko_se for r in results]))


@pytest.mark.parametrize("labels", [["1s-2p3/2"], None], ids=["3-row", "6-row"])
def test_batched_campaign_matches_per_trial_extract(frib_chain, coeffs, labels):
    # alpha more than 20 standard errors from zero keeps every estimate
    # away from zero, so a relative tolerance measures round-off only
    truth = {"backgrounds": (1.0, 1.0), "alpha_manko": 1e9}
    used = coeffs if labels is None else coeffs.subset(labels)
    _, odd = partition(frib_chain)
    design = build_design(odd, used)
    trials, seed, noise_eV = 1500, 808, 1e-13
    rhs, hats, ses = _reference_campaign(design, truth, noise_eV, trials, seed)

    stats = injection_recovery(frib_chain, used, truth, noise_eV, trials=trials, seed=seed)
    err = np.abs(hats - truth["alpha_manko"])
    assert round(stats.coverage_1sigma * trials) == int(np.sum(err <= ses))
    assert round(stats.coverage_2sigma * trials) == int(np.sum(err <= 2 * ses))
    assert stats.mean_se_alpha_manko == float(ses.mean())
    assert stats.bias_alpha_manko == pytest.approx(hats.mean() - truth["alpha_manko"],
                                                   abs=1e-12 * truth["alpha_manko"])

    estimates, errors, _ = solve_many(design, rhs.T, np.full(len(design.rows), noise_eV))
    np.testing.assert_allclose(estimates[-1], hats, rtol=1e-12, atol=0.0)
    assert np.all(errors[-1] == ses)


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2000])
@pytest.mark.parametrize("scale", [1e-13, 0.0])
def test_block_noise_is_the_concatenated_normal_blocks(trials, scale):
    for seed in (0, 7, 20250809):
        reference = np.concatenate([
            _block_rng(seed, block).normal(0.0, scale, (min(BLOCK_SIZE, trials - start), 3))
            for block, start in enumerate(range(0, trials, BLOCK_SIZE))
        ]).T
        noise = _block_noise(seed, trials, 3, scale)
        assert noise.shape == reference.shape
        assert np.array_equal(noise, reference)
        assert np.array_equal(np.signbit(noise), np.signbit(reference))  # -0.0 == 0.0 above
    if scale == 0.0:
        assert not np.signbit(noise).any()


def _reference_recovery(chain, coeffs, truth, noise_eV, trials, seed, signal_at_chi1_eV=2e-21):
    """injection_recovery as it was first written: the noise blocks drawn
    by rng.normal and concatenated, then added to the truth."""
    design = build_design(partition(chain)[1], coeffs)
    x_true = np.array([*truth["backgrounds"], truth["alpha_manko"]], dtype=float)
    n_rows = len(design.rows)
    noise = np.concatenate([
        _block_rng(seed, block).normal(0.0, noise_eV, (min(BLOCK_SIZE, trials - start), n_rows))
        for block, start in enumerate(range(0, trials, BLOCK_SIZE))
    ])
    sigma = np.full(n_rows, noise_eV if noise_eV > 0 else 1.0)
    estimates, errors, kappa = solve_many(design, (design.entries @ x_true + noise).T, sigma)
    alpha_hats = estimates[-1]
    alpha_ses = np.full(trials, errors[-1])
    truth_alpha = float(truth["alpha_manko"])
    err = np.abs(alpha_hats - truth_alpha)
    if noise_eV > 0:
        cover1 = float(np.mean(err <= alpha_ses))
        cover2 = float(np.mean(err <= 2 * alpha_ses))
        bound = chi_bound(errors[-1] * signal_at_chi1_eV, signal_at_chi1_eV)
    else:
        cover1 = cover2 = 1.0
        bound = 0.0
    return RecoveryStats(
        trials=trials, seed=seed, noise_eV=noise_eV, truth_alpha_manko=truth_alpha,
        bias_alpha_manko=float(alpha_hats.mean() - truth_alpha),
        mean_se_alpha_manko=float(alpha_ses.mean()), coverage_1sigma=cover1, coverage_2sigma=cover2,
        chi_bound_median=bound, condition_number=kappa, rows=n_rows,
    )


@pytest.mark.parametrize("noise_eV", [1e-13, 0.0])
@pytest.mark.parametrize("labels", [["1s-2p3/2"], None], ids=["3-row", "6-row"])
def test_campaign_is_bit_identical_to_the_concatenated_noise(frib_chain, coeffs, labels, noise_eV):
    used = coeffs if labels is None else coeffs.subset(labels)
    for truth in (TRUTH_NULL, {"backgrounds": (1e-7, 2.0), "alpha_manko": 1e9}):
        for seed, trials in ((3, 1), (11, 1025), (4242, 2000)):
            want = _reference_recovery(frib_chain, used, truth, noise_eV, trials, seed)
            got = injection_recovery(frib_chain, used, truth, noise_eV, trials=trials, seed=seed)
            assert repr(got) == repr(want)


def test_injection_recovery_deterministic(frib_chain, coeffs):
    one = injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=300, seed=6)
    two = injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=300, seed=6)
    assert one == two


def test_injection_recovery_unsolvable_refused(mo_chain, coeffs):
    from gkpforge.errors import UnderdeterminedError

    with pytest.raises(UnderdeterminedError):
        injection_recovery(mo_chain, coeffs.subset(["1s-2p3/2"]), TRUTH_NULL,
                           noise_eV=1e-13, trials=10, seed=2)


def test_injection_recovery_rejects_bad_inputs(frib_chain, coeffs):
    with pytest.raises(ValidationError):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, -1.0, trials=10, seed=2)
    with pytest.raises(ValidationError):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=0, seed=2)


@pytest.mark.parametrize("noise_eV", [math.nan, math.inf, -math.inf])
def test_injection_recovery_refuses_non_finite_noise(frib_chain, coeffs, noise_eV):
    with pytest.raises(ValidationError, match="noise must be finite and non-negative"):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, noise_eV, trials=10, seed=2)


@pytest.mark.parametrize("trials", [2.5, 10.0, True, "10", None])
def test_injection_recovery_refuses_a_non_integer_trial_count(frib_chain, coeffs, trials):
    with pytest.raises(ValidationError, match="trials must be an integer"):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=trials, seed=2)


def test_injection_recovery_takes_a_numpy_integer_trial_count(frib_chain, coeffs):
    got = injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=np.int64(300), seed=6)
    assert got == injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=300, seed=6)


@pytest.mark.parametrize("trials", [2**62, 10**15])
def test_injection_recovery_refuses_a_campaign_too_large_to_allocate(frib_chain, coeffs, trials):
    # numpy refuses 2**62 rows of noise by their size and cannot allocate
    # 10**15 (24 PB), so the refusal comes before any memory is touched: the
    # page faults it takes are a few, not one per 4 KiB page of noise
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with pytest.raises(ValidationError, match=re.escape(f"trials {trials} is too large")):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=trials, seed=2)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 1000


# ---------------------------------------------------------------------------
# campaign sizes: one rule for a sampling spec's sample_count and a trial count

@pytest.mark.parametrize("count, rule", [
    (2.5, "must be an integer, got 2.5"),
    (1.0, "must be an integer, got 1.0"),
    (True, "must be an integer, got True"),
    ("3", "must be an integer, got '3'"),
    (0, "must be at least 1"),
    (-3, "must be at least 1"),
], ids=repr)
def test_spec_and_injection_campaign_refuse_a_count_by_one_rule(frib_chain, coeffs, count, rule):
    with pytest.raises(ValidationError, match=re.escape(f"sample_count {rule}")):
        _spec(sample_count=count)
    with pytest.raises(ValidationError, match=re.escape(f"sample_count {rule}")):
        dataclasses.replace(_spec(), sample_count=count)
    with pytest.raises(ValidationError, match=re.escape(f"trials {rule}")):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=count, seed=2)


def test_a_numpy_integer_count_or_seed_is_kept_as_its_int(mo_chain, frib_chain, coeffs):
    spec = _spec(sample_count=np.int64(5), seed=np.uint64(7))
    assert (type(spec.sample_count), spec.sample_count, type(spec.seed), spec.seed) == (int, 5, int, 7)
    assert kappa_draws(mo_chain, coeffs, spec)[0].size == 5
    stats = injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=np.int64(5), seed=6)
    assert (type(stats.trials), stats.trials) == (int, 5)


# ---------------------------------------------------------------------------
# seeds and the block stream

NOT_A_SEED = [-1, -(2**70), np.int64(-2), 2.5, 1.0, np.float64(3.0), True, False, "3", None]


@pytest.mark.parametrize("seed", NOT_A_SEED, ids=repr)
def test_both_campaigns_refuse_a_seed_that_is_not_a_non_negative_integer(mo_chain, frib_chain, coeffs, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        kappa_draws(mo_chain, coeffs, dataclasses.replace(_spec(sample_count=10), seed=seed))
    with pytest.raises(ValidationError, match=re.escape(message)):
        sample_kappa(mo_chain, coeffs, _spec(sample_count=10, seed=seed))
    with pytest.raises(ValidationError, match=re.escape(message)):
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=10, seed=seed)


def test_a_numpy_integer_seed_is_its_int(mo_chain, frib_chain, coeffs):
    spec = _spec(sample_count=1500)
    assert kappa_draws(mo_chain, coeffs, dataclasses.replace(spec, seed=np.uint64(2**64 - 1)))[0].tobytes() == \
        kappa_draws(mo_chain, coeffs, dataclasses.replace(spec, seed=2**64 - 1))[0].tobytes()
    assert injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=50, seed=np.int32(6)) == \
        injection_recovery(frib_chain, coeffs, TRUTH_NULL, 1e-13, trials=50, seed=6)


@pytest.mark.parametrize("seed, n", [(1, 1), (3, 21), (5, 2048), (2**64 + 1, 2048), (2**130 + 77, 3000)])
def test_kappa_draws_sample_the_default_rng_blocks_with_numpys_draws(mo_chain, coeffs, monkeypatch, seed, n):
    """The A=91 factors each batch conditions are block b's draws of
    default_rng([seed, b]) by rng.normal and np.exp(rng.uniform), guarded."""
    spec = SamplingSpec(
        parameters=(ParameterSpec(name="Qs_91", distribution="gaussian", mean=0.3, sigma=0.4, exclude_abs_below=0.05),
                    ParameterSpec(name="BE2_91", distribution="log-uniform", low=4.0, high=20.0)),
        sample_count=n, seed=seed)
    grids = []
    monkeypatch.setattr(montecarlo, "condition_numbers", lambda grid: (grids.append(grid), condition_numbers(grid))[1])
    _, excluded = kappa_draws(mo_chain, coeffs, spec)
    draws = ((lambda rng, k: rng.normal(0.3, 0.4, k), 0.05),
             (lambda rng, k: np.exp(rng.uniform(math.log(4.0), math.log(20.0), k)), 0.0))
    qs, be2, rejected = [], [], 0
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        rng = np.random.default_rng([seed, block])
        for (draw, band), values in zip(draws, (qs, be2)):
            drawn, count = _numpy_guarded_draw(draw, band, rng, min(BLOCK_SIZE, n - start))
            values.append(drawn)
            rejected += count
    t = coeffs.rank2_transitions()[0]
    assert np.concatenate([grid[2][0] for grid in grids]).tobytes() == (np.concatenate(qs) * t.H_eV_per_b).tobytes()
    assert np.concatenate([grid[2][1] for grid in grids]).tobytes() == (np.concatenate(be2) * t.P_eV_per_wu).tobytes()
    assert excluded == rejected / (n + rejected) and (rejected > 0 or n < 100)
