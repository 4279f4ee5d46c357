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
    ConfigurationError,
    NumericalError,
    RankDeficiencyError,
    UnderdeterminedError,
    ValidationError,
)
from .nucdata import IsotopeRecord, json_spin, spin_mass_lever
from .resources import json_field, load_validated
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
    "RANK_DEFICIENCY_RTOL",
]

COLUMN_NAMES = ("qs_background", "alpha_t_background", "gravitomagnetic")

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
        for name in ("H_eV_per_b", "P_eV_per_wu", "G_eV_per_lever"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"transition {self.label!r}: {name} must be finite")
        if not self.rank2_sensitive() and any(
            getattr(self, n) != 0.0 for n in ("H_eV_per_b", "P_eV_per_wu", "G_eV_per_lever")
        ):
            raise ValidationError(
                f"transition {self.label!r} has a j < 3/2 upper state and must have zero rank-2 coefficients"
            )


@dataclass(frozen=True)
class ElectronicCoefficients:
    name: str
    transitions: tuple[TransitionCoefficients, ...]
    provenance: str = ""
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
            raise ConfigurationError(f"unknown transition labels {missing} (known: {sorted(known)})")
        return ElectronicCoefficients(
            name=self.name,
            transitions=tuple(known[lab] for lab in labels),
            provenance=self.provenance,
            alpha_t_convention=self.alpha_t_convention,
        )


def load_coefficients(source: str | Path = "mo41-coeffs-v1") -> ElectronicCoefficients:
    """Load electronic coefficients from a resource name or a JSON file path
    (a Path is read as given); they are shared with every load of the same
    bytes."""
    return load_validated(source, "coefficients file", "JSON", _coefficients_from_json)


def _coefficients_from_json(obj: dict, path: Path) -> ElectronicCoefficients:
    where = f"coefficients file {path}"
    transitions = []
    for k, t in enumerate(json_field(obj, "transitions", "list", where)):
        context = f"{where}: transition {k}"
        if type(t) is not dict:
            raise ValidationError(f"{context} is not an object")
        label = json_field(t, "label", "string", context)
        upper = json_field(t, "upper", "object", context)
        upper_context = f"{context} upper"
        n = json_field(upper, "n", "integer", upper_context)
        l = json_field(upper, "l", "integer", upper_context)
        j = json_spin(upper, "j", upper_context)
        try:
            ElectronicChannel(n=n, l=l, j=j, label=label)
        except ValidationError as exc:
            raise ValidationError(f"{where}: upper state of {exc}") from None
        transitions.append(TransitionCoefficients(
            label=label,
            H_eV_per_b=json_field(t, "H_eV_per_b", "number", context),
            P_eV_per_wu=json_field(t, "P_eV_per_wu", "number", context),
            G_eV_per_lever=json_field(t, "G_eV_per_lever", "number", context),
            upper_j=j,
        ))
    return ElectronicCoefficients(
        name=json_field(obj, "name", "string", where),
        transitions=tuple(transitions),
        provenance=json_field(obj, "provenance", "string", where, required=False) or "",
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


def design_entries(nuclear: np.ndarray, transitions: Sequence[TransitionCoefficients]) -> np.ndarray:
    """(..., isotopes * transitions, 3) design entries, isotope-major, of a
    (..., isotopes, 3) stack of nuclear factors: one broadcast product by
    the transitions' (H, P, G), laid out like its input (a draws-last
    stack gives a draws-last view). Overflow is left to normalize_columns."""
    electronic = np.array([(t.H_eV_per_b, t.P_eV_per_wu, t.G_eV_per_lever) for t in transitions])
    with np.errstate(over="ignore"):
        return (nuclear[..., :, None, :] * electronic).reshape(*nuclear.shape[:-2], -1, 3)


def build_design(odd_isotopes: Sequence[IsotopeRecord], coeffs: ElectronicCoefficients) -> DesignMatrix:
    """The design over (odd isotope) x (rank-2 transition) from the
    isotopes' nuclear factors; the right-hand side is passed to the solve."""
    if not odd_isotopes:
        raise ValidationError("no odd isotopes supplied")
    transitions = coeffs.rank2_transitions()
    nuclear = np.array([nuclear_factors(rec) for rec in odd_isotopes])
    rows = tuple((rec.A, t.label) for rec in odd_isotopes for t in transitions)
    return DesignMatrix(rows=rows, columns=COLUMN_NAMES, entries=design_entries(nuclear, transitions))


def normalize_columns(stack: np.ndarray, columns: Sequence[str]):
    """Scale every column of a (..., rows, cols) stack to unit Euclidean
    norm; returns the stack and its (..., cols) norms. A column whose norm
    is zero or not finite in any matrix is refused before dividing: as a
    rank deficiency where it is all zero there, else as a NumericalError."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(stack, axis=-2)
    bad = ~((norms > 0.0) & (norms < np.inf))  # zero, inf or nan
    if bad.any():
        k = int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))
        if np.any(stack[..., k][bad[..., k]] != 0.0):
            raise NumericalError(f"column {columns[k]!r} has a norm outside the floating-point range: "
                                 "an entry or its square overflows, or the squares underflow")
        raise RankDeficiencyError(f"column {columns[k]!r} is identically zero")
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


# the closed form is trusted only where the Gram eigenvalues l1 > l2 > l3
# are at least this far apart relative to l1 ...
CLOSED_FORM_GAP_RTOL = 1e-4
# ... l2 is at least this fraction of l1 (det(A) from cofactors has an
# absolute error of ~eps * sigma1^3, so kappa's relative error grows as
# eps * kappa * sigma1 / sigma2; here sigma2 >= 0.1 sigma1) ...
CLOSED_FORM_MIN_L2_RTOL = 1e-2
# ... and kappa stays below this, far from the rank-deficiency threshold
CLOSED_FORM_MAX_KAPPA = 1e8


def _svd_condition_numbers(stack: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(stack, compute_uv=False)
    # kappa inf, without dividing by zero; an all-zero matrix has sigma_max 0
    deficient = (sv[..., -1] < RANK_DEFICIENCY_RTOL * sv[..., 0]) | (sv[..., 0] == 0.0)
    return np.divide(sv[..., 0], sv[..., -1], out=np.full(deficient.shape, np.inf), where=~deficient)


def _dot3(x, y, out, tmp):
    """out = x[0] y[0] + x[1] y[1] + x[2] y[2], elementwise, summed in this
    fixed order; tmp is scratch."""
    np.multiply(x[0], y[0], out=out)
    out += np.multiply(x[1], y[1], out=tmp)
    out += np.multiply(x[2], y[2], out=tmp)
    return out


def _cross(x, y, out, tmp):
    """out = the cross product x × y of two length-3 sequences of arrays;
    tmp is scratch."""
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(x[i], y[j], out=out[k])
        out[k] -= np.multiply(x[j], y[i], out=tmp)
    return out


def _closed_form_condition_numbers(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kappa = sqrt(l1 / l3) of an (n, 3, 3) stack from the eigenvalues
    l1 >= l2 >= l3 of G = A^T A, and the mask of matrices inside the
    trusted region. NaN fails every comparison, so non-finite matrices
    fall outside it.

    Every quantity is updated in place in arrays of its own, never in the
    input, and every sum keeps the association of the plain expression
    (x0 y0 + x1 y1) + x2 y2, so kappa is bit-identical to evaluating the
    formulas one numpy expression at a time."""
    a = np.ascontiguousarray(stack.transpose(1, 2, 0))  # a[row, col] holds n draws; read only
    cols = a.transpose(1, 0, 2)  # cols[col, row]
    n = a.shape[-1]
    t, u = np.empty(n), np.empty(n)  # scratch
    with np.errstate(all="ignore"):
        g = np.empty((6, n))
        for out, (i, j) in zip(g, ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
            _dot3(cols[i], cols[j], out, t)
        # l1: largest root of the characteristic cubic by the trigonometric
        # form, written on the deviator B = G - m I (the cubic's own
        # coefficients would cancel when the spectrum is clustered)
        m = np.add(g[0], g[1])
        m += g[2]
        m /= 3.0
        g[:3] -= m
        b00, b11, b22, g01, g02, g12 = g
        p = np.multiply(b00, b00)
        p += np.multiply(b11, b11, out=t)
        p += np.multiply(b22, b22, out=t)
        np.multiply(g01, g01, out=u)
        u += np.multiply(g02, g02, out=t)
        u += np.multiply(g12, g12, out=t)
        u *= 2.0
        p += u
        p /= 6.0
        np.sqrt(p, out=p)
        # det(B) = b00 (b11 b22 - g12^2) - g01 (g01 b22 - g12 g02) + g02 (g01 g12 - b11 g02)
        det_b = np.multiply(b11, b22)
        det_b -= np.multiply(g12, g12, out=t)
        det_b *= b00
        np.multiply(g01, b22, out=u)
        u -= np.multiply(g12, g02, out=t)
        u *= g01
        det_b -= u
        np.multiply(g01, g12, out=u)
        u -= np.multiply(b11, g02, out=t)
        u *= g02
        det_b += u
        # phi = arccos(clip(det(B) / (2 p^3), -1, 1)) / 3
        phi = det_b
        phi /= np.multiply(np.power(p, 3, out=t), 2.0, out=t)
        np.clip(phi, -1.0, 1.0, out=phi)
        np.arccos(phi, out=phi)
        phi /= 3.0
        # l1 = m + (2 p) cos(phi)
        l1 = m
        l1 += np.multiply(np.cos(phi, out=t), np.multiply(p, 2.0, out=u), out=t)
        # l2 l3 = det(A)^2 / l1 and l2 + l3 = (c - l2 l3) / l1, with c the
        # sum of the squared 2x2 minors of A (Cauchy-Binet): sums of
        # non-negative terms, so the small eigenvalues keep SVD's resolution
        minors = np.empty((3, 3, n))
        for out, (i, j) in zip(minors, ((0, 1), (0, 2), (1, 2))):
            _cross(a[i], a[j], out, t)
        prod23 = _dot3(minors[0], a[2], np.empty(n), t)  # det(A)
        prod23 *= prod23
        prod23 /= l1
        sum23 = _dot3(minors[0], minors[0], np.empty(n), t)  # c
        sum23 += _dot3(minors[1], minors[1], u, t)
        sum23 += _dot3(minors[2], minors[2], u, t)
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
    return kappa, trusted


def condition_numbers(stack: np.ndarray) -> np.ndarray:
    """sigma_max / sigma_min of every matrix in a (..., rows, cols) stack
    of preconditioned matrices; +inf where sigma_min falls below the
    rank-deficiency threshold, an all-zero matrix included.

    (n, 3, 3) stacks take a closed form:
    kappa = sqrt(l1 / l3) from the eigenvalues of G = A^T A, with l1 the
    largest root of the characteristic cubic (trigonometric form) and
    l2, l3 from l2 l3 = det(A)^2 / l1 and the Cauchy-Binet sum of squared
    2x2 minors, so sigma_min keeps the SVD's absolute resolution instead
    of the squared kappa of an eigensolver on G. Matrices outside the
    trusted region (eigenvalue gaps below CLOSED_FORM_GAP_RTOL * l1, l2
    below CLOSED_FORM_MIN_L2_RTOL * l1, kappa >= CLOSED_FORM_MAX_KAPPA, or
    anything non-finite) take the SVD, so every rank-deficiency verdict
    comes from it. Single matrices, non-square designs and other stack
    shapes take the SVD throughout.

    The closed form works on draws-last storage: a stack that is the
    (n, 3, 3) view of a C-contiguous (3, 3, n) array (each entry's n
    values contiguous) is read without a copy, and any other stack is
    copied into that layout once; the input is never written. The
    formulas are evaluated in place, each quantity updated in an array of
    its own, and every dot product, Gram entry and squared minor is a
    fixed-order three-term sum, (x0 y0 + x1 y1) + x2 y2, of elementwise
    products. The sin of the trigonometric l2 - l3 is taken only where the
    spectrum is clustered. einsum is avoided because its summation
    order depends on the strides and length of its operands (a one-matrix
    stack sums differently from a long one), and so a matrix's kappa
    depends on that matrix alone, bit for bit, not on the stack around it
    or on its layout.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1:] != (3, 3):
        return _svd_condition_numbers(stack)
    kappa, trusted = _closed_form_condition_numbers(stack)
    if not trusted.all():
        kappa[~trusted] = _svd_condition_numbers(stack[~trusted])
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
    return float(condition_numbers(precondition(m).entries))


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
    kappa = float(condition_numbers(pre.entries))
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
