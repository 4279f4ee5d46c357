"""Generalized King Plot rank-2 extraction.

The right-hand side must arrive already reduced: no code here subtracts
the even-even hyperplane. Its per-(isotope, transition) rank-2 anomaly
has three terms, each a nuclear factor of the isotope (nuclear_factors)
times an electronic coefficient of the transition: H Qs (static
quadrupole background), P B(E2) (dynamic polarizability, alpha_T taken
proportional to B(E2)) and G I^2/M (gravitomagnetic). design_entries
builds every design, one row per (odd isotope, rank-2 transition), with
columns [qs_background, alpha_t_background, gravitomagnetic].

Raw columns span many decades, so all solving happens on the
column-normalized (preconditioned) matrix; estimates and covariances are
scaled back through the stored column norms. Underdetermined or
numerically rank-deficient systems are refused rather than regularized:
silently pseudo-inverting a degenerate extraction is exactly the failure
mode this analysis exists to prevent.

load_rhs reads the rows of an rhs file, one (delta, sigma) per (isotope,
transition), and extract_rows solves them over the odd isotopes and
transitions they name: the extract command's report.

condition_numbers takes raw designs and returns the kappa of each one's
column-normalized matrix A. For 3x3 designs A is never built: its Gram
matrix has a unit diagonal, so a closed form reads kappa off the raw Gram
entries and one raw triple product, within a few eps * kappa * sigma1 /
sigma2 in its trusted region (condition_numbers gives the algebra and the
bound), taking a grid's shared entries as floats, once per call. Everything
else, and every single design, is normalized and takes the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .angular import RANK2_MIN_J, ElectronicChannel
from .errors import (
    NumericalError,
    RankDeficiencyError,
    UnderdeterminedError,
    ValidationError,
)
from .budget import chi_bound_from_extraction
from .nucdata import IsotopeChain, IsotopeRecord, json_spin, partition, spin_mass_lever
from .resources import json_entries, json_field, load_json, load_validated, refuse_repeat
from .topology import Topology, solvability_verdict, solvable  # re-exported: numpy-free counting

__all__ = [
    "COLUMN_NAMES",
    "TransitionCoefficients",
    "ElectronicCoefficients",
    "load_coefficients",
    "alpha_t_uncertainty",
    "Topology",
    "solvable",
    "solvability_verdict",
    "DesignMatrix",
    "nuclear_factors",
    "design_entries",
    "build_design",
    "normalize_columns",
    "precondition",
    "condition_numbers",
    "condition_number",
    "Estimate",
    "ExtractionResult",
    "solve_many",
    "extract",
    "load_rhs",
    "Extraction",
    "extract_rows",
    "RANK_DEFICIENCY_RTOL",
]

COLUMN_NAMES = ("qs_background", "alpha_t_background", "gravitomagnetic")

# a transition's electronic coefficients (H, P, G), one per column
_COEFFICIENT_FIELDS = ("H_eV_per_b", "P_eV_per_wu", "G_eV_per_lever")

# sigma_min below this multiple of machine epsilon x sigma_max counts as
# numerically rank deficient
RANK_DEFICIENCY_RTOL = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class TransitionCoefficients:
    """Electronic coefficients of one transition (common to all isotopes)."""

    label: str
    H_eV_per_b: float
    P_eV_per_wu: float
    G_eV_per_lever: float
    upper_j: Fraction = Fraction(3, 2)

    def rank2_sensitive(self) -> bool:
        """Barrier (i) on the upper state alone: the coefficients file carries no channel."""
        return self.upper_j >= RANK2_MIN_J

    def __post_init__(self):
        for name in _COEFFICIENT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"transition {self.label!r}: {name} must be finite")
        if not self.rank2_sensitive() and any(getattr(self, name) != 0.0 for name in _COEFFICIENT_FIELDS):
            raise ValidationError(
                f"transition {self.label!r} has a j < 3/2 upper state and must have zero rank-2 coefficients"
            )


@dataclass(frozen=True)
class ElectronicCoefficients:
    name: str
    transitions: tuple[TransitionCoefficients, ...]
    alpha_t_convention: str = ""

    def __post_init__(self):
        if not any(t.rank2_sensitive() for t in self.transitions):
            raise ValidationError("at least one rank-2-sensitive transition is required")

    def rank2_transitions(self) -> tuple[TransitionCoefficients, ...]:
        return tuple(t for t in self.transitions if t.rank2_sensitive())

    def subset(self, labels: Sequence[str]) -> "ElectronicCoefficients":
        known = {t.label: t for t in self.transitions}
        missing = [lab for lab in labels if lab not in known]
        if missing:
            raise ValidationError(f"unknown transition labels {missing} (known: {sorted(known)})")
        return ElectronicCoefficients(
            name=self.name,
            transitions=tuple(known[lab] for lab in labels),
            alpha_t_convention=self.alpha_t_convention,
        )


def load_coefficients(source: str | Path = "mo41-coeffs-v1") -> ElectronicCoefficients:
    """Load electronic coefficients from a resource name or a JSON file path
    (a Path is read as given); they are shared with every load of the same
    bytes."""
    return load_validated(source, "coefficients file", "JSON", _coefficients_from_json)


def _coefficients_from_json(obj: dict, path: Path) -> ElectronicCoefficients:
    where = f"coefficients file {path}"
    transitions, first = [], {}
    for k, context, t in json_entries(json_field(obj, "transitions", "list", where), where, "transition"):
        label = json_field(t, "label", "string", context)
        refuse_repeat(first, label, k, context, "transition", f"label {label!r}")
        upper = json_field(t, "upper", "object", context)
        upper_context = f"{context} upper"
        n = json_field(upper, "n", "integer", upper_context)
        l = json_field(upper, "l", "integer", upper_context)
        j = json_spin(upper, "j", upper_context)
        try:
            ElectronicChannel(n=n, l=l, j=j, label=label)
        except ValidationError as exc:
            raise ValidationError(f"{where}: upper state of {exc}") from None
        coefficients = {name: json_field(t, name, "number", context) for name in _COEFFICIENT_FIELDS}
        transitions.append(TransitionCoefficients(label=label, upper_j=j, **coefficients))
    return ElectronicCoefficients(
        name=json_field(obj, "name", "string", where),
        transitions=tuple(transitions),
        alpha_t_convention=json_field(obj, "alpha_t_convention", "string", where, required=False) or "",
    )


# fragmented odd-isotope strengths are summed multiplet values, known to
# roughly this relative accuracy when no explicit sigma is given
EFFECTIVE_BE2_DEFAULT_REL = 0.15

# non-separable nuclear/electronic coupling corrections leave the
# polarizability factorization accurate to about this relative level
FACTORIZATION_REL = 1e-6


def alpha_t_uncertainty(rec: IsotopeRecord, factorization_rel: float = FACTORIZATION_REL) -> float:
    """Relative uncertainty of the polarizability proxy of one isotope.

    Quadrature of the B(E2) knowledge and the factorization error. Records
    flagged effective (fragmented multiplet strengths) without an explicit
    sigma fall back to the nominal fragmented-strength accuracy.
    """
    if rec.BE2_up is None or rec.BE2_up.value == 0:
        raise ValidationError(f"isotope A={rec.A} has no usable B(E2) entry")
    if rec.BE2_up.sigma is not None:
        knowledge = rec.BE2_up.sigma / abs(rec.BE2_up.value)
    elif rec.BE2_up.effective:
        knowledge = EFFECTIVE_BE2_DEFAULT_REL
    else:
        knowledge = 0.0
    return math.hypot(knowledge, factorization_rel)


# ---------------------------------------------------------------------------
# design matrix

@dataclass(frozen=True)
class DesignMatrix:
    """Rank-2 design matrix; the right-hand side is passed to the solve.

    rows: (mass number, transition label) per equation. entries are in eV
    per unknown-unit. When preconditioned is True every stored column has
    unit Euclidean norm and column_norms holds the original norms.
    """

    rows: tuple[tuple[int, str], ...]
    columns: tuple[str, ...]
    entries: np.ndarray
    preconditioned: bool = False
    column_norms: tuple[float, ...] = ()

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (len(self.rows), len(self.columns)):
            raise ValidationError(
                f"entry block shape {entries.shape} does not match "
                f"{len(self.rows)} rows x {len(self.columns)} columns"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def nuclear_factors(rec: IsotopeRecord) -> tuple[float, float, float]:
    """(Qs, B(E2), I^2/M) of one odd isotope, the polarizability taken
    proportional to B(E2); refuses an even-even isotope and a missing Qs
    or B(E2)."""
    if rec.spin == 0:
        raise ValidationError(f"isotope A={rec.A} is even-even and carries no rank-2 observable")
    if rec.Qs is None:
        raise ValidationError(f"isotope A={rec.A} is missing its quadrupole moment")
    if rec.BE2_up is None:
        raise ValidationError(f"isotope A={rec.A} has no B(E2) entry for the polarizability proxy")
    return rec.Qs.value, rec.BE2_up.value, spin_mass_lever(rec)


def design_entries(nuclear, transitions: Sequence[TransitionCoefficients]) -> list[list]:
    """The design grid, isotope-major, of a list of nuclear factor rows,
    each factor a float or an (n,) array of draws, times the transitions'
    (H, P, G) as floats: a float factor gives a float entry, as a
    condition_numbers grid holds. The column-norm check refuses overflow."""
    electronic = [[float(getattr(t, name)) for name in _COEFFICIENT_FIELDS] for t in transitions]
    with np.errstate(over="ignore"):
        return [[factor * e for factor, e in zip(row, hpg)] for row in nuclear for hpg in electronic]


def build_design(odd_isotopes: Sequence[IsotopeRecord], coeffs: ElectronicCoefficients) -> DesignMatrix:
    """The design over (odd isotope) x (rank-2 transition) from the
    isotopes' nuclear factors; the right-hand side is passed to the solve."""
    if not odd_isotopes:
        raise ValidationError("no odd isotopes supplied")
    transitions = coeffs.rank2_transitions()
    entries = design_entries([nuclear_factors(rec) for rec in odd_isotopes], transitions)
    rows = tuple((rec.A, t.label) for rec in odd_isotopes for t in transitions)
    return DesignMatrix(rows=rows, columns=COLUMN_NAMES, entries=entries)


def normalize_columns(stack: np.ndarray, columns: Sequence[str]):
    """Scale every column of a (..., rows, cols) stack to unit Euclidean
    norm; returns the stack and its (..., cols) norms (np.linalg.norm's
    bits). A column whose squared norm, the sum the closed form of
    condition_numbers also takes, is zero or not finite in any matrix is
    refused before dividing: as a rank deficiency where it is all zero
    there, else as a NumericalError."""
    with np.errstate(over="ignore"):
        squared = np.add.reduce(stack * stack, axis=-2)
    bad = ~((squared > 0.0) & (squared < np.inf))  # zero, inf or nan
    if bad.any():
        k = int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))
        if np.any(stack[..., k][bad[..., k]] != 0.0):
            raise NumericalError(f"column {columns[k]!r} has a norm outside the floating-point range: "
                                 "an entry or its square overflows, or the squares underflow")
        raise RankDeficiencyError(f"column {columns[k]!r} is identically zero")
    norms = np.sqrt(squared)
    return stack / norms[..., None, :], norms


def precondition(m: DesignMatrix) -> DesignMatrix:
    """Scale every column to unit Euclidean norm, keeping the originals.

    Normalization separates the geometric independence of the isotope
    parameter vectors from raw unit amplification. Already-preconditioned
    input passes through unchanged.
    """
    if m.preconditioned:
        return m
    entries, norms = normalize_columns(m.entries, m.columns)
    return replace(m, entries=entries, preconditioned=True,
                   column_norms=tuple(float(n) for n in norms))


# the closed form is trusted only where the eigenvalues l1 > l2 > l3 of
# the normalized Gram matrix are at least this far apart relative to l1 ...
CLOSED_FORM_GAP_RTOL = 1e-4
# ... l2 is at least this fraction of l1 (det(A) has an absolute error of
# ~eps * sigma1^3, so kappa's relative error grows as eps * kappa *
# sigma1 / sigma2; here sigma2 >= 0.1 sigma1) ...
CLOSED_FORM_MIN_L2_RTOL = 1e-2
# ... kappa stays below this, far from the rank-deficiency threshold ...
CLOSED_FORM_MAX_KAPPA = 1e8
# ... and every squared raw column norm lies in this range (~1e-181 to
# 1e181): no raw product overflows or loses bits that kappa reads to underflow
CLOSED_FORM_SQUARED_NORM_RANGE = (2.0 ** -600, 2.0 ** 600)


def _svd_condition_numbers(normalized: np.ndarray) -> np.ndarray:
    """kappa of column-normalized matrices (sigma_max >= 1); +inf if rank deficient."""
    sv = np.linalg.svd(normalized, compute_uv=False)
    deficient = sv[..., -1] < RANK_DEFICIENCY_RTOL * sv[..., 0]
    return np.divide(sv[..., 0], sv[..., -1], out=np.full(deficient.shape, np.inf), where=~deficient)


def _designs(designs, draws: np.ndarray) -> np.ndarray:
    """The (len(draws), 3, 3) designs at the indices draws of a stack or a grid."""
    if not isinstance(designs, (list, tuple)):
        return designs[draws]
    entries = [np.asarray(e)[draws] if np.ndim(e) else np.full(len(draws), e) for row in designs for e in row]
    return np.stack(entries, axis=-1).reshape(-1, 3, 3)


def _grid_entries(designs) -> tuple[list[list[np.ndarray]], int]:
    """The entries a[row][col] of a grid as float arrays, and its draw count
    n; anything else is refused with a ValidationError naming the contract."""
    try:
        a = [[np.asarray(entry, dtype=float) for entry in row] for row in designs]
    except (TypeError, ValueError):  # a row that is not a sequence, an entry that is not a number
        a = []
    shapes = {entry.shape for row in a for entry in row} - {()}  # those of the per-draw entries
    if [len(row) for row in a] != [3, 3, 3] or [len(shape) for shape in shapes] != [1]:
        raise ValidationError("a design grid is 3 rows of 3 entries, each a float that every draw shares "
                              "or an (n,) array, one at least, all arrays of the same n")
    (n,), = shapes
    return a, n


def _op(ufunc, x, y, out):
    """ufunc(x, y) of two grid entries: into out if either is per draw, else one float."""
    return ufunc(x, y, out=out) if x.ndim or y.ndim else ufunc(x, y)


def _dot3(x, y, out, tmp):
    """x[0] y[0] + x[1] y[1] + x[2] y[2] of two length-3 sequences of grid entries, summed in
    this fixed order into out, what shared entries alone give as one float; tmp is scratch."""
    head = _op(np.add, _op(np.multiply, x[0], y[0], out), _op(np.multiply, x[1], y[1], tmp), out)
    return _op(np.add, head, _op(np.multiply, x[2], y[2], tmp), out)


def _cross(x, y, out, tmp):
    """The cross product x × y of two length-3 sequences of grid entries into the rows of out."""
    return [_op(np.subtract, _op(np.multiply, x[i], y[j], row), _op(np.multiply, x[j], y[i], tmp), row)
            for row, (i, j) in zip(out, ((1, 2), (2, 0), (0, 1)))]


def _closed_form_condition_numbers(designs) -> tuple[np.ndarray, np.ndarray]:
    """kappa of the column-normalized matrix of every design of an (n, 3, 3)
    stack or a grid by condition_numbers' closed form, and the mask of its
    trusted region, which NaN fails; a zero or non-finite column norm of a
    draw out of range is refused as normalize_columns refuses it. In-place
    updates keep the plain expressions' association, so kappa has their bits."""
    if not isinstance(designs, (list, tuple)):  # an (n, 3, 3) stack: its draws-last (3, 3, n) grid
        designs = np.ascontiguousarray(np.transpose(designs, (1, 2, 0)), dtype=float)
    a, n = _grid_entries(designs)  # a[row][col]; read only
    cols = list(zip(*a))  # cols[col][row]
    t, u = np.empty(n), np.empty(n)  # scratch
    with np.errstate(all="ignore"):
        s = [_dot3(col, col, out, t) for col, out in zip(cols, np.empty((3, n)))]  # s_k = R_kk
        low, high = CLOSED_FORM_SQUARED_NORM_RANGE
        in_range = True  # every draw, as two reductions per column find in the common case
        if not all(low <= x.min(initial=high) and x.max(initial=low) <= high for x in s):  # an empty stack passes
            in_range = np.logical_and.reduce(np.broadcast_arrays(*((low <= x) & (x <= high) for x in s)))
            normalize_columns(_designs(a, np.flatnonzero(~in_range)), COLUMN_NAMES)  # refuses a zero or non-finite norm
        norms = [np.sqrt(x, out=x) if x.ndim else np.sqrt(x) for x in s]
        g = np.empty((3, n))  # g_ij = R_ij / (n_i n_j)
        for out, (i, j) in zip(g, ((0, 1), (0, 2), (1, 2))):
            np.divide(_dot3(cols[i], cols[j], out, t), _op(np.multiply, norms[i], norms[j], t), out=out)
        g01, g02, g12 = g
        # l1 by the trigonometric form on B = G - I
        q = np.multiply(g01, g01)
        q += np.multiply(g02, g02, out=t)
        q += np.multiply(g12, g12, out=t)
        p = np.divide(q, 3.0)
        np.sqrt(p, out=p)
        # phi = arccos(clip(det(B) / (2 p^3), -1, 1)) / 3
        phi = np.multiply(g01, g02)
        phi *= g12
        phi /= np.power(p, 3, out=t)
        np.clip(phi, -1.0, 1.0, out=phi)
        np.arccos(phi, out=phi)
        phi /= 3.0
        # l1 = 1 + (2 p) cos(phi)
        l1 = np.cos(phi)
        l1 *= np.multiply(p, 2.0, out=t)
        l1 += 1.0
        # l2 l3 = det(A)^2 / l1 and l2 + l3 = (c - l2 l3) / l1
        prod23 = _dot3(_cross(a[0], a[1], g, t), a[2], np.empty(n), t)  # det(D); g is spent
        prod23 /= _op(np.multiply, _op(np.multiply, norms[0], norms[1], t), norms[2], t)  # det(A)
        prod23 *= prod23
        prod23 /= l1
        sum23 = np.subtract(3.0, q, out=q)  # c
        sum23 -= prod23
        sum23 /= l1
        # l2 - l3 from the quadratic's discriminant, except where the
        # spectrum is clustered (spread p below l2 + l3): there from the
        # trigonometric form
        gap23 = np.multiply(sum23, sum23)
        gap23 -= np.multiply(prod23, 4.0, out=t)
        np.maximum(gap23, 0.0, out=gap23)
        np.sqrt(gap23, out=gap23)
        clustered = np.flatnonzero(p < sum23)
        gap23[clustered] = 2.0 * math.sqrt(3.0) * p[clustered] * np.sin(phi[clustered])
        l2 = gap23
        l2 += sum23
        l2 *= 0.5
        l3 = prod23
        l3 /= l2
        kappa = np.divide(l1, l3)
        np.sqrt(kappa, out=kappa)
        margin = np.multiply(l1, CLOSED_FORM_GAP_RTOL, out=t)
        trusted = l2 >= np.multiply(l1, CLOSED_FORM_MIN_L2_RTOL, out=u)
        trusted &= np.subtract(l1, l2, out=u) >= margin
        trusted &= np.subtract(l2, l3, out=u) >= margin
        trusted &= kappa < CLOSED_FORM_MAX_KAPPA
        trusted &= in_range
    return kappa, trusted


def condition_numbers(designs) -> np.ndarray:
    """sigma_max / sigma_min of the column-normalized matrix A of every raw
    design D of a (..., rows, cols) stack or a grid; +inf where sigma_min
    falls below the rank-deficiency threshold. A column whose norm is zero
    or not finite in any design is refused as normalize_columns refuses it.

    3x3 designs never build A. D's Gram matrix R gives the squared column
    norms s_k = R_kk and A's Gram entries g_ij = R_ij / sqrt(s_i s_j),
    whose diagonal is exactly 1. So the eigenvalues l1 >= l2 >= l3 of A^T
    A follow from q = g01^2 + g02^2 + g12^2: l1 by the cubic's
    trigonometric form with mean 1, spread p = sqrt(q / 3) and det(G - I)
    = 2 g01 g02 g12; l2 l3 = det(A)^2 / l1 with det(A) = det(D) / sqrt(s0
    s1 s2); and l2 + l3 = (c - l2 l3) / l1 with c = 3 - q, the
    Cauchy-Binet sum of A's squared 2x2 minors. Then kappa = sqrt(l1 / l3).

    In the trusted region (eigenvalue gaps >= CLOSED_FORM_GAP_RTOL * l1,
    l2 >= CLOSED_FORM_MIN_L2_RTOL * l1, kappa < CLOSED_FORM_MAX_KAPPA, every
    s_k in CLOSED_FORM_SQUARED_NORM_RANGE) kappa's relative error is, to
    first order, det(A)'s few eps * kappa * sigma1 / sigma2 with sigma2 >=
    0.1 sigma1, plus the few eps / l2 that c's absolute error gives l2.
    Against 40-digit SVDs the adversarial families of tests/test_gkp.py
    stay within 4 eps * kappa (held to 16), and the shipped draws within
    2.1e-13 of LAPACK. The full designs of the draws outside it, other
    shapes and single matrices are normalized and take the SVD, so every
    rank-deficiency verdict comes from it.

    A grid is a list or tuple of three rows of three entries [row][col],
    each a float that every draw shares or an (n,) array, one at least; any
    other list or tuple is refused with a ValidationError. An (n, 3, 3)
    stack enters as its draws-last (3, 3, n) array, read without a copy if
    C-contiguous. No input is written. Every dot product is a
    fixed-order sum (x0 y0 + x1 y1) + x2 y2, never einsum, whose order
    depends on its operands' strides and length; what shared entries alone
    give, as the measured part of a Gram entry, is one float per call. So a
    design's kappa depends on it alone, bit for bit, not on its stack,
    layout or shared entries.
    """
    if not isinstance(designs, (list, tuple)):
        designs = np.asarray(designs)
        if designs.ndim != 3 or designs.shape[1:] != (3, 3):
            return _svd_condition_numbers(normalize_columns(designs, COLUMN_NAMES)[0])
    kappa, trusted = _closed_form_condition_numbers(designs)
    if not trusted.all():
        untrusted = np.flatnonzero(~trusted)
        kappa[untrusted] = _svd_condition_numbers(normalize_columns(_designs(designs, untrusted), COLUMN_NAMES)[0])
    return kappa


def _refuse_underdetermined(m: DesignMatrix) -> None:
    n_rows, n_cols = m.shape
    if n_rows < n_cols:
        n_trans = max(len({label for _, label in m.rows}), 1)
        raise UnderdeterminedError(
            f"underdetermined topology: {n_rows} equations for {n_cols} unknowns. With "
            f"{n_trans} rank-2 transition(s) the counting condition requires "
            f"N_odd >= {math.ceil(n_cols / n_trans)}; in the single-transition case this is the "
            "N_odd >= 3 requirement."
        )


def condition_number(m: DesignMatrix) -> float:
    """sigma_max / sigma_min of the (preconditioned) design matrix.

    Returns +inf when sigma_min falls below the rank-deficiency threshold.
    Underdetermined matrices are rejected; check solvability first.
    """
    _refuse_underdetermined(m)
    return float(_svd_condition_numbers(precondition(m).entries))


class Estimate(NamedTuple):
    """One background amplitude and its standard error."""

    name: str
    value: float
    se: float


@dataclass(frozen=True)
class ExtractionResult:
    """Weighted least-squares extraction of the rank-2 amplitudes."""

    alpha_manko_hat: float
    alpha_manko_se: float
    background_estimates: tuple[Estimate, ...]
    condition_number: float
    residual_norm_eV: float


def _solve(m: DesignMatrix, rhs_stack, sigma):
    """The weighted solve behind solve_many and extract, and the one owner
    of their input checks; returns the preconditioned design, the
    (cols, trials) solutions y of the preconditioned system and
    solve_many's three values. Division is correctly rounded and each
    product sums over the rows in the same order, so the solve keeps the
    bits of the trials-first expression (((rhs / sigma) @ u) / s) @ vt / norms."""
    rhs_stack = np.ascontiguousarray(rhs_stack, dtype=float)
    if rhs_stack.ndim != 2 or rhs_stack.shape[0] != len(m.rows):
        raise ValidationError(
            f"the rhs stack has shape {rhs_stack.shape}; expected ({len(m.rows)}, trials), "
            "one value per design row in each trial"
        )
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(m.rows),) or not (np.isfinite(sigma) & (sigma > 0)).all():
        raise ValidationError("sigma must provide one positive, finite uncertainty per row")

    _refuse_underdetermined(m)
    pre = precondition(m)
    kappa = float(_svd_condition_numbers(pre.entries))
    if math.isinf(kappa):
        raise RankDeficiencyError(
            "design matrix is numerically rank deficient; the isotope parameter "
            "vectors are not linearly independent"
        )

    norms = np.asarray(pre.column_norms)
    # overflow, and s*s underflowing to zero, are reported below as a
    # NumericalError, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        whitened = pre.entries / sigma[:, None]
        if not np.isfinite(whitened).all():  # LAPACK's SVD may never return on an inf entry
            raise NumericalError("the row-whitened design matrix overflowed; check the rhs uncertainties")
        u, s, vt = np.linalg.svd(whitened, full_matrices=False)
        if s[-1] < RANK_DEFICIENCY_RTOL * s[0]:
            raise RankDeficiencyError(
                "the row-whitened design matrix is numerically rank deficient; "
                "check the spread of the rhs uncertainties"
            )
        y = vt.T @ ((u.T @ (rhs_stack / sigma[:, None])) / s[:, None])
        s2 = s * s
        cov_y = (vt.T / s2) @ vt
        estimates = y / norms[:, None]
        errors = np.sqrt(np.diag(cov_y / np.outer(norms, norms)))
    # an overflowing s*s turns the standard errors into 0.0, and one that
    # underflows to zero turns them into inf
    if not (np.isfinite(s2).all() and np.isfinite(errors).all() and np.isfinite(estimates).all()):
        raise NumericalError(
            "the weighted solve left the floating-point range: the squared whitened singular "
            "values overflowed or underflowed, or the estimates are not finite; check the "
            "scale of the rhs values and uncertainties"
        )
    return pre, y, estimates, errors, kappa


def solve_many(m: DesignMatrix, rhs_stack, sigma):
    """Weighted least squares of one design against a (rows, trials) rhs
    stack, one column per trial, sharing the per-row one-sigma sigma; any
    other rhs shape is refused with a ValidationError.

    One SVD of the row-whitened preconditioned system solves every trial;
    estimates and covariance are scaled back through the column norms.
    Refuses underdetermined systems and numerically rank-deficient ones:
    the rank test runs on the preconditioned design, whose kappa is
    returned, and on the singular values of the row-whitened system that
    is solved. sigma must be positive and finite in every row. Raises
    NumericalError when the whitened design overflows, when its squared
    singular values overflow or underflow to zero, or when an estimate is
    not finite. Returns (estimates (cols, trials), standard errors
    (cols,), kappa); residual norms are left to extract, the one caller
    that reports them.
    """
    return _solve(m, rhs_stack, sigma)[2:]


def extract(m: DesignMatrix, rhs, sigma) -> ExtractionResult:
    """Weighted least-squares extraction of one right-hand side, one value
    per design row, with its per-row one-sigma sigma; see solve_many. Adds
    the residual norm in eV, |rhs - A_pre y| over the preconditioned
    design and its solution, and raises NumericalError when it is not
    finite. A lone rhs takes numpy's matrix-vector product, so its
    estimates can differ in the last bits from the same rhs solved inside
    a stack of two or more, which all agree with each other."""
    rhs_stack = np.asarray(rhs, dtype=float)[..., None]
    pre, y, estimates, errors, kappa = _solve(m, rhs_stack, sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(rhs_stack.T - y.T @ pre.entries.T, axis=-1)[0])
    if not math.isfinite(residual):
        raise NumericalError(
            "the residual norm is not finite; check the scale of the rhs values and uncertainties"
        )
    backgrounds = tuple(
        Estimate(name, float(estimates[k, 0]), float(errors[k]))
        for k, name in enumerate(m.columns[:-1])
    )
    return ExtractionResult(
        alpha_manko_hat=float(estimates[-1, 0]),
        alpha_manko_se=float(errors[-1]),
        background_estimates=backgrounds,
        condition_number=kappa,
        residual_norm_eV=residual,
    )


# ---------------------------------------------------------------------------
# extraction from rhs rows

def load_rhs(path: Path) -> dict[tuple[int, str], tuple[float, float]]:
    """The rows of an rhs file as {(A, transition): (delta_eV, sigma_eV)};
    a repeated (A, transition) is refused."""
    rows = json_field(load_json(path, "rhs file"), "rows", "list", f"rhs file {path}")
    if not rows:
        raise ValidationError(f"rhs file {path} must contain a non-empty 'rows' list")
    by_key, first = {}, {}
    for k, context, row in json_entries(rows, f"rhs file {path}", "row"):
        key = json_field(row, "A", "integer", context), json_field(row, "transition", "string", context)
        delta = json_field(row, "delta_eV", "number", context)
        sigma = json_field(row, "sigma_eV", "number", context)
        if sigma <= 0:
            raise ValidationError(f"{context} has non-positive sigma_eV")
        refuse_repeat(first, key, k, context, "row", f"A={key[0]}, transition {key[1]!r}")
        by_key[key] = delta, sigma
    return by_key


@dataclass(frozen=True)
class Extraction(ExtractionResult):
    """extract_rows' result, whose fields are the extract report but its manifest."""

    rows: tuple[tuple[int, str], ...]
    design: dict  # the solved preconditioned design's fields, with its rhs and rhs_sigma
    chi_bound: float
    signal_at_chi1_eV: float
    alpha_t_convention: str


def extract_rows(chain: IsotopeChain, coeffs: ElectronicCoefficients, rhs_rows: dict,
                 signal_at_chi1_eV: float) -> Extraction:
    """extract on load_rhs's rows over the chain's odd isotopes and the
    transitions they name, with the chi bound at the signal given. Refuses
    an absent isotope, an unknown transition, a design row without an rhs
    row, what extract refuses, then unused rhs rows: an underdetermined
    design, which no rhs edit cures, comes first; unused rows are of
    transitions blind to rank 2."""
    _, odd = partition(chain)
    rhs_isotopes = sorted({A for A, _ in rhs_rows})
    odd_used = [rec for rec in odd if rec.A in rhs_isotopes]
    missing = set(rhs_isotopes) - {rec.A for rec in odd_used}
    if missing:
        raise ValidationError(f"rhs references isotopes absent from the chain's odd subset: {sorted(missing)}")
    design = build_design(odd_used, coeffs.subset(sorted({transition for _, transition in rhs_rows})))
    missing_rows = [key for key in design.rows if key not in rhs_rows]
    if missing_rows:
        raise ValidationError(f"rhs file lacks entries for design rows: {missing_rows}")
    rhs, sigma = np.array([rhs_rows[key] for key in design.rows]).T
    pre = precondition(design)
    result = extract(pre, rhs, sigma)
    unused_rows = sorted(set(rhs_rows).difference(design.rows))
    if unused_rows:
        raise ValidationError(f"rhs file has entries that no design row uses: {unused_rows}")
    entries = {"entries": pre.entries.tolist(), "rhs": rhs.tolist(), "rhs_sigma": sigma.tolist()}
    return Extraction(**vars(result), rows=design.rows, design={**vars(pre), **entries},
                      chi_bound=chi_bound_from_extraction(result, signal_at_chi1_eV),
                      signal_at_chi1_eV=signal_at_chi1_eV, alpha_t_convention=coeffs.alpha_t_convention)
