"""Calibrated scaling laws: gravitomagnetic signal and the barrier hierarchy.

The toolkit deliberately does not solve atomic structure. Every physical
law here is implemented as (stated parameter dependence) x (calibration
anchor), where the anchors are shipped as data with provenance strings.
This reproduces the reference numerology exactly while leaving every
input upgradeable to ab initio values.

Barrier bookkeeping, for one probe isotope and one rank-2 channel:

  I.   selection rule        resolved structurally (use j >= 3/2)
  II.  first-order E2 HFS    linear in Qs, cancelled exactly by centroiding
  III. second-order mixing   quadratic in the first-order scale, divided by
                             the fine-structure gap; survives as the theory
                             subtraction error
  IV.  tensor polarizability linear in B(E2); survives as the nuclear-data
                             knowledge error

The combined residual is the plain sum of the surviving terms (the
conservative choice for order-of-magnitude budgets); the maximum is also
reported for transparency.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .angular import ElectronicChannel
from .budget import chi_bound
from .constants import FINE_STRUCTURE_ALPHA, z_alpha_squared
from .errors import ValidationError
from .nucdata import IsotopeChain, IsotopeRecord, spin_mass_lever
from .resources import freeze, json_entries, json_field, load_validated

__all__ = [
    "SignalModel",
    "AnchorSet",
    "load_anchors",
    "signal_band",
    "qed_correction",
    "hfs_e2_first_order",
    "hfs_second_order",
    "tnp_shift",
    "BarrierEntry",
    "BarrierBudget",
    "build_budget",
]


@dataclass(frozen=True)
class AnchorSet:
    """Calibration anchors read from a configuration file; scenarios are
    kept as a read-only mapping."""

    name: str
    Z: int
    probe_A: int
    signal_anchor_eV: float
    f_tilde_nominal: float
    f_tilde_band: tuple[float, float]
    hfs_e2_anchor_Qs_b: float
    hfs_e2_anchor_eV: float
    tnp_anchor_BE2_wu: float
    tnp_anchor_eV: float
    fs_gap_eV: float
    scenarios: Mapping
    metrological_floor_eV: float

    def __post_init__(self):
        object.__setattr__(self, "scenarios", freeze(self.scenarios))
        if not 1 <= self.Z < 1 / FINE_STRUCTURE_ALPHA:
            raise ValidationError(f"anchor set {self.name!r}: Z = {self.Z} is outside [1, 1/alpha)")
        # the anchors that divide: a zero or subnormal one overflows the ratio;
        # a signal and a B(E2) are magnitudes, while a quadrupole moment has a sign
        for name in ("signal_anchor_eV", "hfs_e2_anchor_Qs_b", "tnp_anchor_BE2_wu", "f_tilde_nominal"):
            value = getattr(self, name)
            if not abs(value) >= sys.float_info.min:
                raise ValidationError(f"anchor set {self.name!r}: {name} must be nonzero and not subnormal")
            if value < 0 and name in ("signal_anchor_eV", "tnp_anchor_BE2_wu"):
                raise ValidationError(f"anchor set {self.name!r}: {name} must be positive, got {value!r}")
        if not self.fs_gap_eV >= sys.float_info.min:
            raise ValidationError(f"anchor set {self.name!r}: fs_gap_eV must be positive and not subnormal")
        band_lo, band_hi = self.f_tilde_band
        if not 0 < band_lo <= self.f_tilde_nominal <= band_hi < math.inf:
            raise ValidationError(
                f"anchor set {self.name!r}: the f_tilde band {self.f_tilde_band} must be positive, "
                f"finite and contain the nominal {self.f_tilde_nominal}"
            )

    def scenario(self, name: str) -> Mapping:
        if name not in self.scenarios:
            raise ValidationError(
                f"anchor set {self.name!r} has no scenario {name!r} (known: {sorted(self.scenarios)})"
            )
        return self.scenarios[name]


def load_anchors(source: str | Path = "mo41-anchors-v1") -> AnchorSet:
    """Load an anchor set from a resource name or a JSON file path (a Path
    is read as given); the set is shared with every load of the same bytes."""
    return load_validated(source, "anchor file", "JSON", _anchors_from_json)


def _anchors_from_json(obj: dict, path: Path) -> AnchorSet:
    where = f"anchor file {path}"
    signal = json_field(obj, "signal_anchor", "object", where)
    f_tilde = json_field(obj, "f_tilde", "object", where)
    hfs_e2 = json_field(obj, "hfs_e2_anchor", "object", where)
    tnp = json_field(obj, "tnp_anchor", "object", where)
    band = json_field(f_tilde, "band_raw", "list", f"{where}: f_tilde")
    if len(band) != 2:
        raise ValidationError(f"{where}: f_tilde has band_raw = {band!r}, expected two numbers")
    scenarios = {}
    for name, context, knobs in json_entries(json_field(obj, "scenarios", "object", where), where, "scenario"):
        theory = json_field(knobs, "hfs2_theory_fraction", "number", context)
        if not 0.0 < theory <= 1.0:
            raise ValidationError(f"{context}: hfs2_theory_fraction must lie in (0, 1], got {theory!r}")
        knowledge = json_field(knobs, "tnp_knowledge_fraction", "number", context)
        if not 0.0 <= knowledge <= 1.0:
            raise ValidationError(f"{context}: tnp_knowledge_fraction must lie in [0, 1], got {knowledge!r}")
        scenarios[name] = {**knobs, "hfs2_theory_fraction": theory, "tnp_knowledge_fraction": knowledge}
    return AnchorSet(
        name=json_field(obj, "name", "string", where),
        Z=json_field(obj, "Z", "integer", where),
        probe_A=json_field(obj, "probe_A", "integer", where),
        signal_anchor_eV=json_field(signal, "anchor_output_eV", "number", f"{where}: signal_anchor"),
        f_tilde_nominal=json_field(f_tilde, "nominal_raw", "number", f"{where}: f_tilde"),
        f_tilde_band=tuple(json_field({"band_raw": edge}, "band_raw", "number", f"{where}: f_tilde")
                           for edge in band),
        hfs_e2_anchor_Qs_b=json_field(hfs_e2, "anchor_input_Qs_b", "number", f"{where}: hfs_e2_anchor"),
        hfs_e2_anchor_eV=json_field(hfs_e2, "anchor_output_eV", "number", f"{where}: hfs_e2_anchor"),
        tnp_anchor_BE2_wu=json_field(tnp, "anchor_input_BE2_wu", "number", f"{where}: tnp_anchor"),
        tnp_anchor_eV=json_field(tnp, "anchor_output_eV", "number", f"{where}: tnp_anchor"),
        fs_gap_eV=json_field(obj, "fs_gap_eV", "number", where),
        scenarios=scenarios,
        metrological_floor_eV=json_field(obj, "metrological_floor_eV", "number", where),
    )

@dataclass(frozen=True)
class SignalModel:
    """Gravitomagnetic signal scaling model at chi = 1, anchored at one
    reference isotope.

    The full prefactor (contact density, R_N^(2 gamma' - 1) power law with
    gamma' = sqrt(4 - (Z alpha)^2), rank-2 projection sqrt(5/7),
    gravitational constants) is absorbed into baseline_shift_eV, which is
    the shift of the reference isotope at the nominal form factor. Form
    factors are on the raw plausibility scale; signal_band scales the
    baseline by f / f_tilde_nominal across f_tilde_band.
    """

    f_tilde_nominal: float = 20.0
    f_tilde_band: tuple[float, float] = (1.0, 100.0)
    baseline_shift_eV: float = 2e-21
    Z: int = 42
    reference_spin_sq_over_mass: float = 6.25 / 95.0

    @property
    def calibrated(self) -> bool:
        return self.baseline_shift_eV > 0

    @classmethod
    def from_anchors(cls, anchors: AnchorSet, chain: IsotopeChain) -> "SignalModel":
        return cls(
            f_tilde_nominal=anchors.f_tilde_nominal,
            f_tilde_band=anchors.f_tilde_band,
            baseline_shift_eV=anchors.signal_anchor_eV,
            Z=anchors.Z,
            reference_spin_sq_over_mass=spin_mass_lever(chain.isotope(anchors.probe_A)),
        )


def signal_band(model: SignalModel, rec: IsotopeRecord, points: int = 9) -> list[tuple[float, float]]:
    """(f_tilde, shift) pairs over the form-factor band, log-spaced, where
    the spin-quadrupole level shift of rec in eV is
    (f_tilde / nominal) * (I^2/M) / (I_ref^2/M_ref) * baseline, exactly zero
    for an even-even isotope (I = 0).

    The first and last form factors are the band's edges exactly, and none
    lies outside them. With the nominal calibration the reference isotope
    spans about [1e-22, 1e-20] eV across the two-decade band.
    """
    if not model.calibrated:
        raise ValidationError("signal model is not calibrated (baseline_shift_eV <= 0)")
    lo, hi = model.f_tilde_band
    inside = [min(lo * (hi / lo) ** (k / (points - 1)), hi) for k in range(1, points - 1)]
    f_tildes = [lo, *inside, hi][:max(points, 0)]
    return [(f, signal_shift(model, rec, f)) for f in f_tildes]


def signal_shift(model: SignalModel, rec: IsotopeRecord, f_tilde: float) -> float:
    """The spin-quadrupole level shift of rec in eV at one form factor:
    (f_tilde / nominal) * (I^2/M) / (I_ref^2/M_ref) * baseline."""
    lever_ratio = spin_mass_lever(rec) / model.reference_spin_sq_over_mass
    return (f_tilde / model.f_tilde_nominal) * lever_ratio * model.baseline_shift_eV


def qed_correction(model: SignalModel, beta2_variation: float) -> tuple[float, float]:
    """Radiative-correction budget of the signal itself.

    Returns (fractional_correction, residual_eV): the fractional size of
    the radiative correction to the contact density, (Z alpha)^2 (about 9%
    at Z = 42), and the uncancelled absolute residual obtained when a
    fraction beta2_variation of that correction fails to track across the
    chain. The residual rides on the signal and sits orders below every
    electromagnetic barrier.
    """
    if not 0.0 <= beta2_variation <= 1.0:
        raise ValidationError(f"beta2_variation must lie in [0, 1], got {beta2_variation!r}")
    fractional = z_alpha_squared(model.Z)
    residual = beta2_variation * fractional * model.baseline_shift_eV
    return fractional, residual


def hfs_e2_first_order(rec: IsotopeRecord, channel: ElectronicChannel,
                       calib: tuple[float, float]) -> float:
    """First-order electric-quadrupole hyperfine scale of one isotope, eV.

    Linear in the spectroscopic quadrupole moment: E_ref * Qs / Q_ref with
    calib = (Q_ref in b, E_ref in eV). Zero for I = 0 (no moment), and
    zero with a rank-2-blind warning for j = 1/2 channels.
    """
    q_ref, e_ref = calib
    if q_ref == 0:
        raise ValidationError("HFS-E2 anchor quadrupole moment must be nonzero")
    if not channel.rank2_sensitive():
        warnings.warn(
            f"channel {channel.label!r} is rank-2 blind (j = {channel.j}); first-order "
            "quadrupole shift is identically zero",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    if rec.Qs is None:
        return 0.0
    return e_ref * rec.Qs.value / q_ref


def hfs_second_order(E_hfs_eV: float, fs_gap_eV: float, theory_fraction: float) -> tuple[float, float]:
    """Second-order hyperfine mixing residual across the fine structure.

    raw = E_hfs^2 / fs_gap is the centroid shift surviving first-order
    cancellation; subtracted = theory_fraction * raw is what survives
    subtraction of the calculable part at the stated theory accuracy.
    """
    if fs_gap_eV <= 0:
        raise ValidationError(f"fine-structure gap must be positive, got {fs_gap_eV!r}")
    if not 0.0 < theory_fraction <= 1.0:
        raise ValidationError(f"theory_fraction must lie in (0, 1], got {theory_fraction!r}")
    raw = E_hfs_eV * E_hfs_eV / fs_gap_eV
    return raw, theory_fraction * raw


def tnp_shift(rec: IsotopeRecord, calib: tuple[float, float],
              knowledge_fraction: float) -> tuple[float, float]:
    """Tensor nuclear polarizability shift and its knowledge residual, eV.

    The polarizability scales with the quadrupole transition strength, not
    with the static moment: raw = E_ref * B(E2) / B(E2)_ref with
    calib = (B(E2)_ref in W.u., E_ref in eV). The residual is the raw
    shift times the fractional B(E2) knowledge.
    """
    be2_ref, e_ref = calib
    if be2_ref <= 0:
        raise ValidationError("TNP anchor B(E2) must be positive")
    if rec.BE2_up is None:
        raise ValidationError(f"isotope A={rec.A} has no B(E2) entry; cannot evaluate the TNP shift")
    if not 0.0 <= knowledge_fraction <= 1.0:
        raise ValidationError(f"knowledge_fraction must lie in [0, 1], got {knowledge_fraction!r}")
    raw = e_ref * rec.BE2_up.value / be2_ref
    return raw, knowledge_fraction * raw


@dataclass(frozen=True)
class BarrierEntry:
    name: str
    scaling: str
    raw_eV: float | None
    current_eV: float | None
    projected_eV: float | None
    note: str = ""


@dataclass(frozen=True)
class BarrierBudget:
    """Per-barrier residuals for one probe isotope and the |chi - 1|
    bounds they give. The fields, in order, are the budget report but its
    manifest. combined_eV and dominant belong to the budget's own scenario;
    signal_band_eV holds the probe's (f_tilde, signal) at five form
    factors, chi_bound_band the (lowest, highest) bound over them, and the
    QED fields the signal's radiative correction, half of it untracked.
    """

    scenario: str
    probe_A: int
    channel: str
    entries: tuple[BarrierEntry, ...]
    combined_current_eV: float
    combined_projected_eV: float
    max_current_eV: float
    max_projected_eV: float
    combined_eV: float
    dominant: str
    signal_nominal_eV: float
    chi_bound_nominal: float
    chi_bound_band: tuple[float, float]
    signal_band_eV: tuple[tuple[float, float], ...]
    qed_fractional_correction: float
    qed_residual_eV: float


def build_budget(chain: IsotopeChain, channels, anchors: AnchorSet,
                 scenario: str = "current", probe_A: int | None = None) -> BarrierBudget:
    """Assemble the four-barrier budget for one probe isotope, its signal
    figures and chi bounds from one SignalModel.

    The selection-rule barrier is informational (resolved by channel
    choice); the first-order quadrupole barrier is cancelled exactly by
    centroid extraction; the second-order and polarizability residuals are
    evaluated per scenario and combined by plain summation.
    """
    if scenario not in ("current", "projected"):
        raise ValidationError(f"scenario must be 'current' or 'projected', got {scenario!r}")
    probe_A = anchors.probe_A if probe_A is None else probe_A
    probe = chain.isotope(probe_A)
    if probe.spin == 0:
        raise ValidationError(f"probe A={probe_A} is even-even (I = 0) and carries no rank-2 signal")
    rank2_channels = [c for c in channels if c.rank2_sensitive()]
    if not rank2_channels:
        raise ValidationError("no rank-2-sensitive channel (j >= 3/2) available for the budget")
    channel = rank2_channels[0]

    hfs1_raw = abs(hfs_e2_first_order(probe, channel, (anchors.hfs_e2_anchor_Qs_b, anchors.hfs_e2_anchor_eV)))
    tnp_calib = anchors.tnp_anchor_BE2_wu, anchors.tnp_anchor_eV
    hfs2, tnp = {}, {}  # each scenario's residual
    for name in ("current", "projected"):
        knobs = anchors.scenario(name)
        hfs2_raw, hfs2[name] = hfs_second_order(hfs1_raw, anchors.fs_gap_eV, knobs["hfs2_theory_fraction"])
        tnp_raw, tnp[name] = tnp_shift(probe, tnp_calib, knobs["tnp_knowledge_fraction"])

    entries = (  # name, scaling, raw, current and projected residuals, note
        BarrierEntry("I. Selection rule", "", None, None, None, "Resolved: use j >= 3/2"),
        BarrierEntry("II. HFS-E2 (1st)", "Qs", hfs1_raw, 0.0, 0.0,
                     "centroid extraction cancels the first order exactly"),
        BarrierEntry("III. HFS (2nd)", "Qs^2", hfs2_raw, hfs2["current"], hfs2["projected"],
                     "theory subtraction residual"),
        BarrierEntry("IV. TNP", "B(E2)", tnp_raw, tnp["current"], tnp["projected"],
                     "transition-strength knowledge residual"),
    )

    def _combine(column) -> tuple[float, float, str]:
        """Sum, peak and peak barrier (numeral stripped) of one scenario's
        residuals, one per entry; a tie goes to the earlier entry."""
        live = [(e.name, v) for e, v in zip(entries, column) if v]
        name, peak = max(live, key=lambda nv: nv[1], default=("none", 0.0))
        return sum((v for _, v in live), 0.0), peak, name.split(". ", 1)[-1]

    # (sum, peak, dominant barrier) of each scenario
    totals = {name: _combine(getattr(e, f"{name}_eV") for e in entries) for name in ("current", "projected")}
    combined, _, dominant = totals[scenario]

    model = SignalModel.from_anchors(anchors, chain)
    signal_nominal = signal_shift(model, probe, anchors.f_tilde_nominal)
    band = tuple(signal_band(model, probe, points=5))
    band_bounds = [chi_bound(combined, s) for _, s in band]
    qed_fraction, qed_residual = qed_correction(model, beta2_variation=0.5)
    return BarrierBudget(
        scenario=scenario,
        probe_A=probe_A,
        channel=channel.label,
        entries=entries,
        combined_current_eV=totals["current"][0],
        combined_projected_eV=totals["projected"][0],
        max_current_eV=totals["current"][1],
        max_projected_eV=totals["projected"][1],
        combined_eV=combined,
        dominant=dominant,
        signal_nominal_eV=signal_nominal,
        chi_bound_nominal=chi_bound(combined, signal_nominal),
        chi_bound_band=(min(band_bounds), max(band_bounds)),
        signal_band_eV=band,
        qed_fractional_correction=qed_fraction,
        qed_residual_eV=qed_residual,
    )
