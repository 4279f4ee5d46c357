"""Deterministic-seed Monte Carlo engines.

Two campaigns: conditioning of the radioactive-isotope design matrix with
the unmeasured A=91 parameters sampled from declared brackets, and
injection-recovery of the gravitomagnetic amplitude against per-row noise.

Both are random-number plumbing around gkp, which builds, normalizes and
solves. Each conditioning draw's design is its nuclear factors (Qs,
B(E2), I^2/M), the sampled A=91 ones among them, times the transition's
electronic coefficients (H, P, G), built by gkp.design_entries; kappa
comes from one condition_numbers call per batch of KAPPA_BATCH draws,
a grid of floats but for the arrays of the sampled H Qs_91 and P B(E2)_91. An
injection campaign is one solve_many call over all its trials, which
computes no residual norms, since no campaign statistic reads them.

The random stream is partitioned into fixed-size blocks of BLOCK_SIZE
draws, block b seeded with (seed, b). Results are therefore bit-identical
for a given seed no matter how draws are batched or parallelized, and
per-worker summaries merge by plain index-ordered concatenation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .budget import chi_bound
from .errors import ValidationError
from .gkp import (ElectronicCoefficients, build_design, condition_numbers, design_entries, nuclear_factors,
                  solve_many)
from .nucdata import IsotopeChain, partition
from .resources import json_field, load_validated

__all__ = [
    "ParameterSpec",
    "SamplingSpec",
    "load_sampling_spec",
    "KappaSummary",
    "kappa_draws",
    "summarize_kappa",
    "sample_kappa",
    "RecoveryStats",
    "injection_recovery",
    "BLOCK_SIZE",
    "KAPPA_BATCH",
]

BLOCK_SIZE = 1024
# kappa_draws conditions this many draws per condition_numbers call; each
# draw's kappa depends on that draw alone, so the size moves only numpy's
# per-call overhead. On a 2-core x86-64 host with one BLAS thread, 1e5 draws
# took 25.2, 19.9, 17.5 and 21.3 ms at 2, 4, 8 and 16 RNG blocks per call, for
# +0.9, +1.0, +1.6 and +2.9 MB peak RSS (medians of 40 interleaved rounds)
KAPPA_BATCH = 8 * BLOCK_SIZE

# a guarded draw gives up after this many rejection rounds: a band that
# keeps rejecting for this long leaves (almost) no support to sample
MAX_REJECTION_ROUNDS = 10_000


@dataclass(frozen=True)
class ParameterSpec:
    """Sampling description of one unmeasured parameter."""

    name: str
    distribution: str
    low: float | None = None
    high: float | None = None
    mean: float | None = None
    sigma: float | None = None
    units: str = ""
    exclude_abs_below: float = 0.0

    def __post_init__(self):
        if self.distribution not in ("uniform", "log-uniform", "gaussian"):
            raise ValidationError(
                f"parameter {self.name!r}: unknown distribution {self.distribution!r}"
            )
        if not self.exclude_abs_below >= 0.0:  # a negative guard band would reject nothing
            raise ValidationError(f"parameter {self.name!r}: exclude_abs_below must be non-negative")
        if self.distribution in ("uniform", "log-uniform"):
            if self.low is None or self.high is None:
                raise ValidationError(f"parameter {self.name!r}: bounds required")
            if not math.isfinite(self.high - self.low) or self.low >= self.high:  # inf or nan if either bound is
                raise ValidationError(f"parameter {self.name!r}: bounds must be ordered with a finite high - low")
            if self.distribution == "log-uniform" and self.low <= 0:
                raise ValidationError(f"parameter {self.name!r}: log-uniform needs positive bounds")
            if -self.exclude_abs_below <= self.low and self.high <= self.exclude_abs_below:
                raise ValidationError(f"parameter {self.name!r}: the guard band covers the whole support")
        else:
            if self.mean is None or self.sigma is None or self.sigma <= 0:
                raise ValidationError(f"parameter {self.name!r}: gaussian needs mean and sigma > 0")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.distribution == "uniform":
            values = rng.uniform(self.low, self.high, size)
        elif self.distribution == "log-uniform":
            values = np.exp(rng.uniform(math.log(self.low), math.log(self.high), size))
        else:
            values = rng.normal(self.mean, self.sigma, size)
        return values


@dataclass(frozen=True)
class SamplingSpec:
    parameters: tuple[ParameterSpec, ...]
    sample_count: int
    seed: int
    name: str = ""

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValidationError("sample_count must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")

    def parameter(self, name: str) -> ParameterSpec:
        for p in self.parameters:
            if p.name == name:
                return p
        raise ValidationError(f"sampling spec is missing the parameter {name!r}")


def load_sampling_spec(source: str | Path = "mo91-sampling-v1") -> SamplingSpec:
    """Load a sampling spec from a resource name or a JSON file path (a Path
    is read as given); the spec is shared with every load of the same bytes."""
    return load_validated(source, "sampling spec", "JSON", _sampling_spec_from_json)


def _sampling_spec_from_json(obj: dict, path: Path) -> SamplingSpec:
    where = f"sampling spec {path}"
    params, index_of = [], {}
    for k, p in enumerate(json_field(obj, "parameters", "list", where)):
        context = f"{where}: parameter {k}"
        if type(p) is not dict:
            raise ValidationError(f"{context} is not an object")
        name = json_field(p, "name", "string", context)
        if name in index_of:
            raise ValidationError(f"{context} repeats parameter {index_of[name]}: name {name!r}")
        index_of[name] = k
        params.append(ParameterSpec(
            name=name,
            distribution=json_field(p, "distribution", "string", context),
            low=json_field(p, "low", "number", context, required=False),
            high=json_field(p, "high", "number", context, required=False),
            mean=json_field(p, "mean", "number", context, required=False),
            sigma=json_field(p, "sigma", "number", context, required=False),
            units=json_field(p, "units", "string", context, required=False) or "",
            exclude_abs_below=json_field(p, "exclude_abs_below", "number", context, required=False) or 0.0,
        ))
    return SamplingSpec(
        parameters=tuple(params),
        sample_count=json_field(obj, "sample_count", "integer", where),
        seed=json_field(obj, "seed", "integer", where),
        name=json_field(obj, "name", "string", where, required=False) or "",
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, block])


def _block_noise(seed: int, trials: int, rows: int, scale: float) -> np.ndarray:
    """A C-contiguous (rows, trials) array of normal(0.0, scale) draws,
    block b of BLOCK_SIZE trials from _block_rng(seed, b): the transposed
    bits of the concatenated rng.normal(0.0, scale, (block trials, rows))
    blocks, whose draws fill a (trials, rows) array in place before one
    transposed copy is scaled. normal() returns 0.0 + scale * z, so the
    0.0 is added after scaling: +0.0 where z * 0.0 is -0.0."""
    z = np.empty((trials, rows))
    for block, start in enumerate(range(0, trials, BLOCK_SIZE)):
        _block_rng(seed, block).standard_normal(out=z[start:start + BLOCK_SIZE])
    noise = z.T.copy()
    noise *= scale
    noise += 0.0
    return noise


def _draw_guarded(param: ParameterSpec, rng: np.random.Generator, size: int) -> tuple[np.ndarray, int]:
    """Draw with rejection of the |value| < guard band; returns (values,
    rejected proposal count). Without a band the first draw is returned."""
    values = param.draw(rng, size)
    band = param.exclude_abs_below
    if band <= 0.0:  # |value| < 0 rejects nothing
        return values, 0
    bad = np.flatnonzero(np.abs(values) < band)
    rejected = 0
    for _ in range(MAX_REJECTION_ROUNDS):
        if not bad.size:
            return values, rejected
        rejected += bad.size
        redrawn = param.draw(rng, bad.size)
        values[bad] = redrawn
        bad = bad[np.abs(redrawn) < band]  # only the values just redrawn can be in the band
    raise ValidationError(f"parameter {param.name!r}: the guard band still rejected draws "
                          f"after {MAX_REJECTION_ROUNDS} rounds")


@dataclass(frozen=True)
class KappaSummary:
    """Summary statistics of a condition-number sampling campaign."""

    mean: float
    std: float
    median: float
    p5: float
    p95: float
    rank_deficient_fraction: float
    excluded_fraction: float
    seed: int
    sample_count: int

    def __post_init__(self):
        if not self.p5 <= self.median <= self.p95:
            raise ValidationError("percentiles are not ordered")
        if not 0.0 <= self.rank_deficient_fraction <= 1.0:
            raise ValidationError("rank-deficient fraction outside [0, 1]")


def kappa_draws(chain: IsotopeChain, coeffs: ElectronicCoefficients, spec: SamplingSpec,
                sample_count: int | None = None, seed: int | None = None) -> tuple[np.ndarray, float]:
    """Per-draw condition numbers of the three-odd-isotope design matrix.

    Each draw stacks the sampled A=91 nuclear factors (I = 9/2) under the
    measured A=95 and A=97 ones, over the first rank-2 transition. Returns
    (kappas, guard-band excluded fraction of proposals).
    """
    n = spec.sample_count if sample_count is None else int(sample_count)
    if n < 1:
        raise ValidationError("sample_count must be at least 1")
    seed = spec.seed if seed is None else int(seed)
    sampled = (spec.parameter("Qs_91"), spec.parameter("BE2_91"))  # nuclear factor columns 0 and 1
    transitions = coeffs.rank2_transitions()[:1]
    measured = design_entries([nuclear_factors(chain.isotope(A)) for A in (95, 97)], transitions)  # floats
    draws = np.empty((2, min(n, KAPPA_BATCH)))  # the sampled factors; every batch reuses it

    try:
        kappas = np.empty(n)
    except (ValueError, MemoryError):  # numpy refuses the size, or it cannot be allocated
        raise ValidationError(f"sample_count {n} is too large: its kappa array cannot be allocated") from None
    rejected_total = 0
    for batch_start in range(0, n, KAPPA_BATCH):
        batch = draws[:, :n - batch_start]  # the last batch may be shorter
        for block_start in range(batch_start, batch_start + batch.shape[1], BLOCK_SIZE):
            block_len = min(BLOCK_SIZE, n - block_start)
            rng = _block_rng(seed, block_start // BLOCK_SIZE)
            block = slice(block_start - batch_start, block_start - batch_start + block_len)
            for column, param in enumerate(sampled):
                batch[column, block], rejected = _draw_guarded(param, rng, block_len)
                rejected_total += rejected
        sampled_row = design_entries([(*batch, 81 / (4 * 91))], transitions)  # I = 9/2, as spin_mass_lever rounds
        kappas[batch_start:batch_start + batch.shape[1]] = condition_numbers(measured + sampled_row)

    proposals = n + rejected_total
    excluded_fraction = rejected_total / proposals if proposals else 0.0
    return kappas, excluded_fraction


def summarize_kappa(kappas: np.ndarray, excluded_fraction: float, seed: int) -> KappaSummary:
    """Summary of per-draw condition numbers; statistics run over the
    finite (full-rank) draws.

    kappas is never written: the finite draws are copied once, and mean
    and std are taken on that copy in draw order (their pairwise sums
    depend on it). The summary sorts its one finite copy once, after mean
    and std; percentiles and median read only order statistics, so they
    come out the same from the sorted copy."""
    finite = kappas[np.isfinite(kappas)]
    if finite.size == 0:
        raise ValidationError("every draw was rank deficient; check the sampling bounds")
    mean = float(finite.mean())
    std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
    finite.sort()
    p5, p95 = np.percentile(finite, [5, 95], overwrite_input=True)
    return KappaSummary(
        mean=mean,
        std=std,
        median=float(np.median(finite, overwrite_input=True)),
        p5=float(p5),
        p95=float(p95),
        rank_deficient_fraction=(kappas.size - finite.size) / kappas.size,
        excluded_fraction=float(excluded_fraction),
        seed=int(seed),
        sample_count=int(kappas.size),
    )


def sample_kappa(chain: IsotopeChain, coeffs: ElectronicCoefficients, spec: SamplingSpec,
                 sample_count: int | None = None, seed: int | None = None) -> KappaSummary:
    """Condition-number distribution summary; identical seed gives a
    bit-identical summary."""
    kappas, excluded_fraction = kappa_draws(chain, coeffs, spec, sample_count, seed)
    return summarize_kappa(kappas, excluded_fraction, spec.seed if seed is None else seed)


@dataclass(frozen=True)
class RecoveryStats:
    """Outcome of a seeded injection-recovery campaign."""

    trials: int
    seed: int
    noise_eV: float
    truth_alpha_manko: float
    bias_alpha_manko: float
    mean_se_alpha_manko: float
    coverage_1sigma: float
    coverage_2sigma: float
    chi_bound_median: float
    condition_number: float
    rows: int


def injection_recovery(chain: IsotopeChain, coeffs: ElectronicCoefficients,
                       truth: dict, noise_eV: float, trials: int, seed: int,
                       signal_at_chi1_eV: float = 2e-21) -> RecoveryStats:
    """Inject known amplitudes, add per-row gaussian noise, re-extract.

    truth holds "backgrounds" (pair of amplitudes) and "alpha_manko". The
    trials share one design and one sigma, hence one standard error of
    the gravitomagnetic amplitude and one derived coupling bound: the
    recovered one-sigma energy residual over the nominal signal. A trial
    count that is not an integer (a bool included) or a noise that is not
    finite and non-negative is refused with a ValidationError.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if not (math.isfinite(noise_eV) and noise_eV >= 0):
        raise ValidationError(f"noise must be finite and non-negative, got {noise_eV!r}")
    design = build_design(partition(chain)[1], coeffs)
    x_true = np.array([*truth["backgrounds"], truth["alpha_manko"]], dtype=float)
    n_rows = len(design.rows)

    rhs = _block_noise(seed, trials, n_rows, noise_eV)
    rhs += (design.entries @ x_true)[:, None]
    sigma = np.full(n_rows, noise_eV if noise_eV > 0 else 1.0)
    estimates, errors, kappa = solve_many(design, rhs, sigma)
    alpha_hats = estimates[-1]
    se = errors[-1]

    truth_alpha = float(truth["alpha_manko"])
    err = np.abs(alpha_hats - truth_alpha)
    if noise_eV > 0:
        # an exact count over one correctly rounded division: the bits of
        # the mean of the boolean array
        cover1 = float(np.count_nonzero(err <= se) / trials)
        cover2 = float(np.count_nonzero(err <= 2 * se) / trials)
        bound = chi_bound(se * signal_at_chi1_eV, signal_at_chi1_eV)
    else:
        cover1 = cover2 = 1.0
        bound = 0.0
    return RecoveryStats(
        trials=trials,
        seed=seed,
        noise_eV=noise_eV,
        truth_alpha_manko=truth_alpha,
        bias_alpha_manko=float(alpha_hats.mean() - truth_alpha),
        # a pairwise mean of equal values need not return that value
        mean_se_alpha_manko=float(np.full(trials, se).mean()),
        coverage_1sigma=cover1,
        coverage_2sigma=cover2,
        chi_bound_median=bound,
        condition_number=kappa,
        rows=n_rows,
    )
