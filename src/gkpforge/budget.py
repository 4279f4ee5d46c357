"""Sensitivity arithmetic: coupling bounds, milestone ladder, Ramsey plans.

The headline number is the bound on the anomalous gyrogravitational
coupling: the ratio of the residual electromagnetic contamination to the
nominal signal. Ratios are computed in decimal arithmetic on the shortest
representation of the inputs, so decade-scaled values divide without
spurious binary rounding (1e-13 / 2e-21 is exactly 5e7).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .constants import PLANCK_EV_S
from .errors import NumericalError, ValidationError
from .resources import json_entries, json_field, load_validated

__all__ = [
    "chi_bound",
    "chi_bound_from_extraction",
    "Milestone",
    "MilestoneLadder",
    "load_milestones",
    "milestone_lookup",
    "RamseyPlan",
    "ramsey_plan",
    "decay_penalty",
]

ERA_ELECTROMAGNETIC = "electromagnetic subtraction"
ERA_METROLOGY = "quantum metrology"


def chi_bound(residual_eV: float, signal_at_chi1_eV: float) -> float:
    """|chi - 1| bound: residual over nominal signal.

    Dimensionless; homogeneous of degree zero in its arguments.
    """
    residual_eV = float(residual_eV)
    signal_at_chi1_eV = float(signal_at_chi1_eV)
    if signal_at_chi1_eV <= 0:
        raise ValidationError(f"signal must be positive, got {signal_at_chi1_eV!r}")
    if residual_eV < 0:
        raise ValidationError(f"residual must be non-negative, got {residual_eV!r}")
    if residual_eV == 0:
        return 0.0
    return float(Decimal(repr(residual_eV)) / Decimal(repr(signal_at_chi1_eV)))


def chi_bound_from_extraction(result, signal_at_chi1_eV: float) -> float:
    """Coupling bound implied by an extraction's one-sigma amplitude error.

    The recovered amplitude is dimensionless on the chi scale, so the
    bound is the standard error's energy equivalent over the signal.
    """
    return chi_bound(result.alpha_manko_se * signal_at_chi1_eV, signal_at_chi1_eV)


@dataclass(frozen=True)
class Milestone:
    sensitivity_eV: float
    dominant_barrier: str
    required_advance: str
    era: str


@dataclass(frozen=True)
class MilestoneLadder:
    """Ordered sensitivity milestones with the era boundary.

    Rows are strictly decreasing in sensitivity; the boundary between the
    electromagnetic-subtraction and quantum-metrology eras falls between
    the 1e-17 and 1e-18 rows.
    """

    name: str
    rows: tuple[Milestone, ...]
    era_boundary_eV: float

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("milestone ladder has no rows")
        sens = [m.sensitivity_eV for m in self.rows]
        if any(nxt >= prev for prev, nxt in zip(sens, sens[1:])):
            raise ValidationError("milestone sensitivities must be strictly decreasing")
        if sens[-1] <= 0:
            raise ValidationError("milestone sensitivities must be positive")


def load_milestones(source: str | Path = "milestones-v1") -> MilestoneLadder:
    """Load a milestone ladder from a resource name or a JSON file path (a
    Path is read as given); the ladder is shared with every load of the
    same bytes."""
    return load_validated(source, "milestone file", "JSON", _milestones_from_json)


def _milestones_from_json(obj: dict, path: Path) -> MilestoneLadder:
    where = f"milestone file {path}"
    boundary = json_field(obj, "era_boundary_eV", "number", where)
    rows = []
    for _, context, r in json_entries(json_field(obj, "rows", "list", where), where, "row"):
        sensitivity = json_field(r, "sensitivity_eV", "number", context)
        rows.append(Milestone(
            sensitivity_eV=sensitivity,
            dominant_barrier=json_field(r, "dominant_barrier", "string", context),
            required_advance=json_field(r, "required_advance", "string", context),
            era=ERA_ELECTROMAGNETIC if sensitivity > boundary else ERA_METROLOGY,
        ))
    return MilestoneLadder(name=json_field(obj, "name", "string", where, required=False) or "",
                           rows=tuple(rows), era_boundary_eV=boundary)


def milestone_lookup(target_sensitivity_eV: float, ladder: MilestoneLadder) -> Milestone:
    """Ladder row whose sensitivity bin contains the target.

    Bin edges sit at the geometric midpoints between adjacent rows, so a
    target maps to the row nearest in log space. Total and monotone over
    the ladder's sensitivity range.
    """
    top = ladder.rows[0].sensitivity_eV
    bottom = ladder.rows[-1].sensitivity_eV
    if not bottom <= target_sensitivity_eV <= top:
        raise ValidationError(
            f"target sensitivity {target_sensitivity_eV:.3e} eV outside the ladder range "
            f"[{bottom:.1e}, {top:.1e}] eV"
        )
    log_target = math.log10(target_sensitivity_eV)
    return min(ladder.rows, key=lambda row: abs(math.log10(row.sensitivity_eV) - log_target))


@dataclass(frozen=True)
class RamseyPlan:
    """Interrogation plan for one species, possibly decay-limited."""

    half_life_s: float | None
    T_R_requested_s: float
    T_R_s: float
    T_R_opt_s: float | None
    per_shot_linewidth_Hz: float
    repetitions: int
    campaign_sensitivity_Hz: float
    campaign_sensitivity_eV: float
    decay_penalty_at_request: float | None
    warning: str | None = None


def decay_penalty(T_R_s: float, half_life_s: float) -> float:
    """Sensitivity degradation factor of a decaying species, normalized to
    its minimum.

    The per-shot frequency error scales as exp(T/(2 T_opt)) / sqrt(T) with
    T_opt = half_life / (2 ln 2): longer interrogation narrows the line
    but exponentially depletes the survivors. The factor is 1 at T_opt and
    greater than 1 on both sides, and inf where the exponential overflows.
    """
    if T_R_s <= 0 or half_life_s <= 0:
        raise ValidationError("interrogation time and half-life must be positive")
    T_opt = half_life_s / (2.0 * math.log(2.0))
    try:
        value = math.exp(T_R_s / (2.0 * T_opt)) / math.sqrt(T_R_s)
    except OverflowError:
        return math.inf
    minimum = math.exp(0.5) / math.sqrt(T_opt)
    return value / minimum


def ramsey_plan(half_life_s: float | None, T_R_requested_s: float, repetitions: int) -> RamseyPlan:
    """Build a Ramsey interrogation plan.

    Stable species interrogate for the requested time. Decay-limited
    species cap the time at T_opt = half_life / (2 ln 2) and warn when the
    request exceeds the optimum. The per-shot linewidth is 1/(2 pi T_R)
    and the campaign sensitivity divides by sqrt(repetitions). One of them
    below the smallest normal float is refused as a NumericalError.
    """
    if not (math.isfinite(T_R_requested_s) and T_R_requested_s > 0):
        raise ValidationError("requested interrogation time must be positive and finite")
    if repetitions < 1:
        raise ValidationError("repetitions must be at least 1")
    if repetitions > sys.float_info.max:  # math.sqrt would overflow converting it to a float
        raise ValidationError(f"repetitions must be at most {sys.float_info.max:.6g}")
    if half_life_s is not None and not (math.isfinite(half_life_s) and half_life_s > 0):
        raise ValidationError("half-life must be positive and finite (or None for stable)")

    warning = None
    penalty = None
    if half_life_s is None:
        T_opt = None
        T_R = T_R_requested_s
    else:
        T_opt = half_life_s / (2.0 * math.log(2.0))
        T_R = min(T_R_requested_s, T_opt)
        penalty = decay_penalty(T_R_requested_s, half_life_s)
        if T_R_requested_s > T_opt:
            warning = (
                f"requested T_R = {T_R_requested_s:.6g} s exceeds the decay-limited optimum "
                f"{T_opt:.6g} s (penalty factor {penalty:.6g}); the plan uses the optimum"
            )
    linewidth = 1.0 / (2.0 * math.pi * T_R)
    campaign_hz = linewidth / math.sqrt(repetitions)
    sensitivities = {
        "per_shot_linewidth_Hz": linewidth,
        "campaign_sensitivity_Hz": campaign_hz,
        "campaign_sensitivity_eV": campaign_hz * PLANCK_EV_S,
    }
    # an infinite one is left to the report writer's non-finite refusal
    for name, value in sensitivities.items():
        if value < sys.float_info.min:
            raise NumericalError(f"{name} underflows to {value!r}, below the smallest normal float")
    return RamseyPlan(
        half_life_s=half_life_s,
        T_R_requested_s=T_R_requested_s,
        T_R_s=T_R,
        T_R_opt_s=T_opt,
        repetitions=repetitions,
        decay_penalty_at_request=penalty,
        warning=warning,
        **sensitivities,
    )
