"""Deterministic-seed Monte Carlo engines.

Two campaigns: conditioning of the radioactive-isotope design matrix with
the unmeasured A=91 parameters sampled from declared brackets, and
injection-recovery of the gravitomagnetic amplitude against per-row noise.

Both are random-number plumbing around gkp, which builds, normalizes and
solves. Each conditioning draw's design is its nuclear factors (Qs,
B(E2), I^2/M), the sampled A=91 ones among them, times the transition's
electronic coefficients (H, P, G), built by gkp.design_entries; kappa
comes from one condition_numbers call per batch of KAPPA_BATCH draws,
a grid of floats but for the arrays of the sampled H Qs_91 and P B(E2)_91,
whose draws each block writes into the batch's columns.
summarize_kappa works in one scratch buffer: mean and std in draw order,
then the finite kappas sorted there, with p5, median and p95 read by
index, the percentiles by Hyndman & Fan's type-7 linear interpolation
(numpy's default, with its bits). An injection campaign is one solve_many
call over all its trials, which computes no residual norms, since no
campaign statistic reads them.

The random stream is partitioned into fixed-size blocks of BLOCK_SIZE
draws. Block b's generator is PCG64 seeded by the SeedSequence of the
seed's little-endian 32-bit words followed by b, the same stream as
np.random.default_rng([seed, b]); a seed is any non-negative integer.
Results are therefore bit-identical for a given seed no matter how draws
are batched.
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
from .resources import json_entries, json_field, load_validated, refuse_repeat

__all__ = [
    "ParameterSpec",
    "SamplingSpec",
    "load_sampling_spec",
    "KappaSummary",
    "kappa_draws",
    "summarize_kappa",
    "kappa_histogram_csv",
    "sample_kappa",
    "RecoveryStats",
    "injection_recovery",
    "BLOCK_SIZE",
    "KAPPA_BATCH",
]

BLOCK_SIZE = 1024
# kappa_draws conditions this many draws per condition_numbers call; each
# draw's kappa depends on that draw alone, so the size moves only numpy's
# per-call overhead and the size of its scratch arrays. On a 2-core x86-64
# host with one BLAS thread, pinned to one core, the whole in-process
# condition command at the shipped 1e5 draws took 26.3, 21.2, 18.2 and
# 21.6 ms at 2, 4, 8 and 16 RNG blocks per call (medians of 40 interleaved
# rounds), its peak RSS 4.3-4.5 MB over the import up to 8 blocks and
# 5.6 MB at 16
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
        """size draws: rng.uniform, np.exp of rng.uniform on the log bounds,
        or rng.normal."""
        if self.distribution == "gaussian":
            return rng.normal(self.mean, self.sigma, size)
        if self.distribution == "log-uniform":
            return np.exp(rng.uniform(math.log(self.low), math.log(self.high), size))
        return rng.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class SamplingSpec:
    """A conditioning campaign: its sampled parameters, and its size and
    seed, which it alone holds, as ints (dataclasses.replace changes them)."""

    parameters: tuple[ParameterSpec, ...]
    sample_count: int
    seed: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sample_count", _count(self.sample_count, "sample_count"))
        object.__setattr__(self, "seed", _seed(self.seed))

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
    params, first = [], {}
    for k, context, p in json_entries(json_field(obj, "parameters", "list", where), where, "parameter"):
        name = json_field(p, "name", "string", context)
        refuse_repeat(first, name, k, context, "parameter", f"name {name!r}")
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


def _seed(seed) -> int:
    """seed as an int; anything but a non-negative integer (a bool is not
    one) is refused."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _count(count, what: str) -> int:
    """A campaign's size as an int; anything but a positive integer (a bool
    is not one) is refused, naming what it counts."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {count!r}")
    if count < 1:
        raise ValidationError(f"{what} must be at least 1")
    return int(count)


def _empty(shape, size: str) -> np.ndarray:
    """np.empty(shape), or a ValidationError naming the size where numpy
    refuses the shape or cannot allocate it."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError):
        raise ValidationError(f"{size} is too large: its array cannot be allocated") from None


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """A block's generator: PCG64 seeded by the SeedSequence of the seed's
    little-endian 32-bit words followed by the block index, the words numpy
    makes of [seed, block], so this is default_rng([seed, block]) without
    coercing a list. seed must be a non-negative int (shifting a negative
    one right never reaches 0) and block below 2**32."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    words.append(block)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def _block_noise(seed: int, trials: int, rows: int, scale: float) -> np.ndarray:
    """A C-contiguous (rows, trials) array of normal(0.0, scale) draws,
    block b of BLOCK_SIZE trials from _block_rng(seed, b): the transposed
    bits of the concatenated rng.normal(0.0, scale, (block trials, rows))
    blocks, whose draws fill a (trials, rows) array in place before one
    transposed copy is scaled. normal() returns 0.0 + scale * z, so the
    0.0 is added after scaling: +0.0 where z * 0.0 is -0.0."""
    z = _empty((trials, rows), f"trials {trials}")
    for block, start in enumerate(range(0, trials, BLOCK_SIZE)):
        _block_rng(seed, block).standard_normal(out=z[start:start + BLOCK_SIZE])
    noise = z.T.copy()
    noise *= scale
    noise += 0.0
    return noise


def _draw_guarded(param: ParameterSpec, rng: np.random.Generator, out: np.ndarray) -> int:
    """Fill out with param's draws, redrawing each |value| < guard band;
    returns the rejected proposal count. Without a band the first draw
    stands."""
    out[...] = param.draw(rng, out.size)
    band = param.exclude_abs_below
    if band <= 0.0:  # |value| < 0 rejects nothing
        return 0
    bad = (np.abs(out) < band).nonzero()[0]
    rejected = 0
    for _ in range(MAX_REJECTION_ROUNDS):
        if not bad.size:
            return rejected
        rejected += bad.size
        redrawn = param.draw(rng, bad.size)
        out[bad] = redrawn
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


# the A = 91 parameters each draw samples: nuclear factor columns 0 and 1
_SAMPLED = ("Qs_91", "BE2_91")


def kappa_draws(chain: IsotopeChain, coeffs: ElectronicCoefficients,
                spec: SamplingSpec) -> tuple[np.ndarray, float]:
    """Per-draw condition numbers of the three-odd-isotope design matrix:
    spec.sample_count draws from the stream of spec.seed.

    Each draw stacks the sampled A=91 nuclear factors (I = 9/2) under the
    measured A=95 and A=97 ones, over the first rank-2 transition. Returns
    (kappas, guard-band excluded fraction of proposals). A spec parameter
    that no draw reads is refused.
    """
    n, seed = spec.sample_count, spec.seed
    for param in spec.parameters:
        if param.name not in _SAMPLED:
            raise ValidationError(f"sampling spec parameter {param.name!r} is read by no draw, "
                                  f"which samples only {' and '.join(_SAMPLED)}")
    sampled = [spec.parameter(name) for name in _SAMPLED]
    transitions = coeffs.rank2_transitions()[:1]
    measured = design_entries([nuclear_factors(chain.isotope(A)) for A in (95, 97)], transitions)  # floats
    draws = np.empty((2, min(n, KAPPA_BATCH)))  # the sampled factors; every batch reuses it
    kappas = _empty(n, f"sample_count {n}")
    rejected_total = 0
    for batch_start in range(0, n, KAPPA_BATCH):
        batch = draws[:, :n - batch_start]  # the last batch may be shorter
        for block_start in range(batch_start, batch_start + batch.shape[1], BLOCK_SIZE):
            rng = _block_rng(seed, block_start // BLOCK_SIZE)
            block = slice(block_start - batch_start, block_start - batch_start + BLOCK_SIZE)
            for values, param in zip(batch, sampled):
                rejected_total += _draw_guarded(param, rng, values[block])
        sampled_row = design_entries([(*batch, 81 / (4 * 91))], transitions)  # I = 9/2, as spin_mass_lever rounds
        kappas[batch_start:batch_start + batch.shape[1]] = condition_numbers(measured + sampled_row)

    proposals = n + rejected_total
    excluded_fraction = rejected_total / proposals if proposals else 0.0
    return kappas, excluded_fraction


def _percentile(ordered: np.ndarray, pct: float) -> float:
    """The pct-th percentile of an ascending array by Hyndman & Fan's type
    7, numpy's "linear" rule, in numpy's own arithmetic: v = (n - 1) q, i =
    floor(v), gamma = v - i; a + (b - a) gamma below gamma = 0.5 and b - (b
    - a) (1 - gamma) from it, with (a, b) the values at i and i + 1, or the
    last value where v >= n - 1."""
    n = ordered.size
    v = (n - 1) * (pct / 100)
    if v >= n - 1:
        return float(ordered[-1])
    i = math.floor(v)
    a, b = ordered[i:i + 2].tolist()
    gamma = v - i
    return a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)


def summarize_kappa(kappas: np.ndarray, excluded_fraction: float, seed: int) -> KappaSummary:
    """Summary of per-draw condition numbers; statistics run over the
    finite (full-rank) draws.

    kappas is never written. If its sum is finite, so is every draw, and
    the statistics read kappas itself; else the finite draws are copied
    once. One scratch buffer holds the deviations from the mean, squared
    and summed in draw order as numpy's _var does (pairwise sums depend on
    it), then the finite draws, sorted there; the order statistics are
    read from it by index: p5 and p95 by type-7 linear interpolation
    (_percentile), the median as the middle value or the mean (a + b) / 2
    of the two middle values. Each is the bits of np.mean, np.std(ddof=1),
    np.percentile or np.median."""
    finite, total = kappas, np.add.reduce(kappas)
    if not math.isfinite(total):  # some draw is +inf (rank deficient) or nan
        finite = kappas[np.isfinite(kappas)]
        total = np.add.reduce(finite)
    if finite.size == 0:
        raise ValidationError("every draw was rank deficient; check the sampling bounds")
    mean = float(total / finite.size)
    scratch = np.subtract(finite, mean)
    std = 0.0
    if finite.size > 1:
        np.multiply(scratch, scratch, out=scratch)
        std = math.sqrt(np.add.reduce(scratch) / (finite.size - 1))
    np.copyto(scratch, finite)
    scratch.sort()
    half = scratch.size // 2
    median = float(scratch[half]) if scratch.size % 2 else (float(scratch[half - 1]) + float(scratch[half])) / 2
    return KappaSummary(
        mean=mean,
        std=std,
        median=median,
        p5=_percentile(scratch, 5),
        p95=_percentile(scratch, 95),
        rank_deficient_fraction=(kappas.size - finite.size) / kappas.size,
        excluded_fraction=float(excluded_fraction),
        seed=int(seed),
        sample_count=int(kappas.size),
    )


def kappa_histogram_csv(kappas: np.ndarray) -> str:
    """The condition command's csv: np.histogram of the finite κ draws on
    48 log-spaced bins from 1 to 1000, then the finite draws above 1000
    (overflow) and the non-finite ones (+inf, or NaN from a failed draw),
    counted as rank deficient."""
    finite = kappas[np.isfinite(kappas)]
    counts, edges = np.histogram(finite, bins=np.logspace(0.0, 3.0, 49))
    bins = map("{!r},{!r},{}".format, edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    overflow = np.count_nonzero(finite > edges[-1])
    rows = ["bin_left,bin_right,count", *bins, f"{float(edges[-1])!r},inf,{overflow}",
            f"rank_deficient,,{kappas.size - finite.size}"]
    return "\n".join(rows) + "\n"


def sample_kappa(chain: IsotopeChain, coeffs: ElectronicCoefficients, spec: SamplingSpec) -> KappaSummary:
    """Condition-number distribution summary; identical seed gives a
    bit-identical summary."""
    kappas, excluded_fraction = kappa_draws(chain, coeffs, spec)
    return summarize_kappa(kappas, excluded_fraction, spec.seed)


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
    count or seed that is not an integer (a bool included), a trial count
    below 1 or too large to allocate, a negative seed or a noise that is
    not finite and non-negative is refused with a ValidationError.
    """
    seed = _seed(seed)
    trials = _count(trials, "trials")
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
