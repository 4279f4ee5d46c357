"""Isotope-chain nuclear parameter tables: ingestion, validation, serving.

A chain is an immutable, validated sequence of isotope records sharing one
element. Measured quantities carry their one-sigma uncertainties; the
canonical text form is parenthetical notation, "4.315(3)" meaning
4.315 +/- 0.003 with the uncertainty applying to the last quoted digits.
Effective (fragmented-multiplet) quadrupole strengths of odd isotopes are
flagged with a leading tilde, "~8(1)", and the flag survives round trips.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from .angular import _ascii_number, parse_half_integer
from .errors import ValidationError
from .resources import freeze, json_field, load_validated, refuse_repeat, resource_path

__all__ = [
    "Measured",
    "IsotopeRecord",
    "IsotopeChain",
    "parse_measured",
    "format_measured",
    "parse_spin",
    "json_spin",
    "load_chain",
    "load_bundled_chain",
    "partition",
    "spin_mass_lever",
    "chain_to_csv",
    "chain_to_json",
]

_ELEMENT_SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr"
).split()


def element_symbol(Z: int) -> str:
    if 1 <= Z <= len(_ELEMENT_SYMBOLS):
        return _ELEMENT_SYMBOLS[Z - 1]
    return f"Z{Z}"


@dataclass(frozen=True)
class Measured:
    """A measured quantity: central value, optional 1-sigma, optional
    effective/fragmented flag (odd-isotope summed quadrupole strengths)."""

    value: float
    sigma: float | None = None
    effective: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValidationError(f"measured value {self.value!r} is not finite")
        if self.sigma is not None and not math.isfinite(self.sigma):
            raise ValidationError(f"uncertainty {self.sigma!r} is not finite")
        if self.sigma is not None and self.sigma < 0:
            raise ValidationError(f"negative uncertainty {self.sigma!r}")


_PAREN_RE = re.compile(r"^(~?)([+-]?)(\d+)(?:\.(\d+))?(?:\((\d+)\))?$", re.ASCII)


def parse_measured(text: str, *, context: str = "") -> Measured:
    """Parse parenthetical uncertainty notation.

    "4.315(3)" -> 4.315 +/- 0.003; "0.150" -> 0.150 with no uncertainty;
    "~8(1)" -> 8 +/- 1 flagged effective. The uncertainty digits apply to
    the last quoted decimal places.
    """
    token = text.strip()
    m = _PAREN_RE.match(token)
    where = f" in {context}" if context else ""
    if m is None:
        raise ValidationError(f"cannot parse measured value {text!r}{where}")
    effective = m.group(1) == "~"
    sign = -1.0 if m.group(2) == "-" else 1.0
    int_part, frac_part, unc_digits = m.group(3), m.group(4) or "", m.group(5)
    value = sign * float(f"{int_part}.{frac_part}" if frac_part else int_part)
    sigma = None
    if unc_digits is not None:
        # decimal-string construction keeps round trips bit-exact
        sigma = float(f"{int(unc_digits)}e-{len(frac_part)}")
    try:  # a cell of 400 digits reads as inf
        return Measured(value=value, sigma=sigma, effective=effective)
    except ValidationError as exc:
        raise ValidationError(f"{exc}{where}") from None


def format_measured(m: Measured) -> str:
    """Inverse of parse_measured; reconstructs the parenthetical form."""
    if m.sigma is None or m.sigma == 0.0:
        text = repr(m.value)
    else:
        sig = Decimal(repr(m.sigma)).normalize()
        exponent = sig.as_tuple().exponent
        decimals = max(0, -int(exponent))
        digits = int(sig.scaleb(decimals))
        if float(f"{digits}e-{decimals}") != m.sigma:
            raise ValidationError(f"uncertainty {m.sigma!r} has no parenthetical form")
        text = f"{m.value:.{decimals}f}({digits})"
    return ("~" + text) if m.effective else text


def parse_spin(text: str | float | Fraction) -> Fraction:
    """Parse a spin as an exact non-negative half-integer Fraction."""
    return parse_half_integer(text, "spin")


@dataclass(frozen=True)
class IsotopeRecord:
    """One nucleus of the chain."""

    A: int
    Z: int
    spin: Fraction
    parity: int
    r_ch: Measured
    beta2: Measured | None = None
    Qs: Measured | None = None
    BE2_up: Measured | None = None
    delta_r2: Measured | None = None
    half_life_s: float | None = None

    def __post_init__(self):
        tag = f"isotope A={self.A}"
        if self.Z < 1 or self.A < self.Z:
            raise ValidationError(f"{tag}: requires A >= Z >= 1 (got A={self.A}, Z={self.Z})")
        if self.parity not in (+1, -1):
            raise ValidationError(f"{tag}: parity must be +1 or -1, got {self.parity!r}")
        # a half-integer in [0, A], checked in integers
        if self.spin.denominator > 2 or not 0 <= self.spin.numerator <= self.spin.denominator * self.A:
            raise ValidationError(f"{tag}: spin must be a non-negative half-integer no larger than A")
        if self.r_ch.value <= 0:
            raise ValidationError(f"{tag}: charge radius must be positive")
        if self.Qs is not None and self.spin < 1:
            raise ValidationError(
                f"{tag}: spectroscopic quadrupole moment given for I={self.spin} < 1"
            )
        if self.Qs is None and self.spin >= 1:
            raise ValidationError(f"{tag}: I={self.spin} >= 1 requires a quadrupole moment entry")
        if self.half_life_s is not None and not 0 < self.half_life_s < math.inf:
            raise ValidationError(f"{tag}: half-life must be positive and finite when given")

    @property
    def is_even_even(self) -> bool:
        return self.spin == 0

    @property
    def stable(self) -> bool:
        return self.half_life_s is None


def spin_mass_lever(rec: IsotopeRecord) -> float:
    """Spin-squared-over-mass lever I^2 / M_N in 1/u.

    This is the per-isotope factor multiplying the gravitomagnetic
    coupling in the rank-2 decomposition; even-even isotopes give zero.
    With I = p/q, int true division of p*p by q*q*A is correctly rounded:
    the float of the exact rational, without building a Fraction.
    """
    p, q = rec.spin.numerator, rec.spin.denominator
    return p * p / (q * q * rec.A)


@dataclass(frozen=True)
class IsotopeChain:
    """Validated, immutable isotope chain of a single element; provenance
    is kept as a read-only mapping."""

    element: str
    reference_A: int
    records: tuple[IsotopeRecord, ...]
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.records:
            raise ValidationError("chain has no isotope records")
        zs = {r.Z for r in self.records}
        if len(zs) != 1:
            raise ValidationError(f"chain mixes elements: Z values {sorted(zs)}")
        seen = set()
        for r in self.records:
            if r.A in seen:
                raise ValidationError(f"duplicate mass number A={r.A}")
            seen.add(r.A)
        if self.reference_A not in seen:
            raise ValidationError(f"reference isotope A={self.reference_A} not present in chain")
        refs = [r.A for r in self.records if r.delta_r2 is not None and r.delta_r2.value == 0.0]
        if refs != [self.reference_A]:
            raise ValidationError(
                f"exactly the reference isotope must have delta_r2 = 0; found zeros at {refs}"
            )
        object.__setattr__(self, "records", tuple(sorted(self.records, key=lambda r: r.A)))
        object.__setattr__(self, "provenance", freeze(self.provenance))

    @property
    def Z(self) -> int:
        return self.records[0].Z

    def isotope(self, A: int) -> IsotopeRecord:
        for r in self.records:
            if r.A == A:
                return r
        raise ValidationError(f"chain has no isotope A={A}")

    def with_isotope(self, rec: IsotopeRecord) -> "IsotopeChain":
        """New chain with one isotope appended (revalidates)."""
        return IsotopeChain(
            element=self.element,
            reference_A=self.reference_A,
            records=self.records + (rec,),
            provenance=self.provenance,
        )


def partition(chain: IsotopeChain) -> tuple[tuple[IsotopeRecord, ...], tuple[IsotopeRecord, ...]]:
    """Split into (even-even, odd) subsets, ordering by mass number.

    Even-even isotopes (I = 0) calibrate the rank-2-blind hyperplane; odd
    isotopes (I > 0) carry every rank-2 observable.
    """
    even_even = tuple(r for r in chain.records if r.is_even_even)
    odd = tuple(r for r in chain.records if not r.is_even_even)
    return even_even, odd


# ---------------------------------------------------------------------------
# loading / serialization

# an isotope record's measured fields, in file order; r_ch is the required one
_MEASURED_FIELDS = ("r_ch", "beta2", "Qs", "BE2_up", "delta_r2")

_CSV_COLUMNS = ["A", "Z", "I", "parity", *_MEASURED_FIELDS, "half_life_s"]


def _record(read_measured, source: dict, ctx: str, **fields) -> IsotopeRecord:
    """The isotope record of both chain formats: fields, and each measured
    field in turn as read_measured(source, key, ctx, required) reads it
    from a CSV row or a JSON object."""
    for key in _MEASURED_FIELDS:
        fields[key] = read_measured(source, key, ctx, key == "r_ch")
    return IsotopeRecord(**fields)


def _measured_from_cell(row: dict, key: str, ctx: str, required: bool) -> Measured | None:
    """A parenthetical CSV cell; an empty optional cell is absent."""
    token = row[key].strip()
    if not token and not required:
        return None
    return parse_measured(token, context=f"{ctx} field {key}")


def _record_from_csv_row(row: dict, lineno: int) -> IsotopeRecord:
    ctx = f"row {lineno}"
    # csv.DictReader fills the cells missing from a short row with None
    missing = [column for column in _CSV_COLUMNS if row[column] is None]
    if missing:
        raise ValidationError(f"{ctx}: fewer cells than the header; no value for field {missing[0]}")
    # ... and files the extra cells of a long row under the key None
    if None in row:
        raise ValidationError(f"{ctx}: {len(row[None])} more cells than the header")
    try:
        A = int(_ascii_number(row["A"]))
        Z = int(_ascii_number(row["Z"]))
        parity = int(_ascii_number(row["parity"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{ctx}: bad integer field ({exc})") from exc
    spin = json_spin(row, "I", ctx)  # a cell is a string to it
    half_life = row["half_life_s"].strip()
    try:
        half_life_s = float(_ascii_number(half_life)) if half_life else None
    except ValueError:
        raise ValidationError(f"{ctx} field half_life_s: {half_life!r} is not a number") from None
    return _record(_measured_from_cell, row, ctx, A=A, Z=Z, spin=spin, parity=parity, half_life_s=half_life_s)


def _chain_from_csv_text(text: str) -> IsotopeChain:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValidationError("CSV chain file is empty")
    missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValidationError(f"CSV chain header is missing columns {missing}")
    repeated = [c for k, c in enumerate(reader.fieldnames) if c in reader.fieldnames[:k]]
    if repeated:  # csv.DictReader would read the last of them
        raise ValidationError(f"CSV chain header repeats the column {repeated[0]!r}")
    records, first = [], {}
    for lineno, row in enumerate(reader, start=2):
        record = _record_from_csv_row(row, lineno)
        refuse_repeat(first, record.A, lineno, f"row {lineno}", "row", f"mass number A={record.A}")
        records.append(record)
    if not records:
        raise ValidationError("CSV chain file has a header but no rows")
    reference = [r.A for r in records if r.delta_r2 is not None and r.delta_r2.value == 0.0]
    if len(reference) != 1:
        raise ValidationError(
            f"CSV chain must contain exactly one delta_r2 = 0 reference row; found {reference}"
        )
    return IsotopeChain(
        element=element_symbol(records[0].Z),
        reference_A=reference[0],
        records=tuple(records),
        provenance={},
    )


def json_spin(obj: dict, key: str, context: str) -> Fraction:
    """A spin field of a JSON data file or a CSV chain row: a string such as
    "5/2", or a number. A value that is not a half-integer is refused
    naming the context and the key."""
    kind = "number" if type(obj.get(key)) in (int, float) else "string"
    value = json_field(obj, key, kind, context)
    try:
        return parse_spin(value)
    except ValidationError as exc:
        raise ValidationError(f"{context} field {key}: {exc}") from None


def _measured_from_json(iso: dict, key: str, ctx: str, required: bool) -> Measured | None:
    obj = json_field(iso, key, "object", ctx, required)
    if obj is None:
        return None
    context = f"{ctx} field {key}"
    return Measured(
        value=json_field(obj, "value", "number", context),
        sigma=json_field(obj, "sigma", "number", context, required=False),
        effective="effective" in obj and json_field(obj, "effective", "boolean", context),
    )


def _chain_from_json_obj(obj: dict) -> IsotopeChain:
    records, first = [], {}
    for k, iso in enumerate(json_field(obj, "isotopes", "list", "JSON chain")):
        context = f"JSON chain isotope record {k}"
        if type(iso) is not dict:
            raise ValidationError(f"{context} is not an object")
        A = json_field(iso, "A", "integer", context)
        refuse_repeat(first, A, k, context, "record", f"mass number A={A}")
        ctx = f"isotope A={A}"
        records.append(_record(
            _measured_from_json, iso, ctx,
            A=A,
            Z=json_field(iso, "Z", "integer", ctx),
            spin=json_spin(iso, "I", ctx),
            parity=json_field(iso, "parity", "integer", ctx),
            half_life_s=json_field(iso, "half_life_s", "number", ctx, required=False),
        ))
    return IsotopeChain(
        element=json_field(obj, "element", "string", "JSON chain"),
        reference_A=json_field(obj, "reference_A", "integer", "JSON chain"),
        records=tuple(records),
        provenance=json_field(obj, "provenance", "object", "JSON chain", required=False) or {},
    )


def _naming_the_file(parse):
    """parse(content) as a load_validated validator whose refusals name the
    chain file."""
    def validate(content, path) -> IsotopeChain:
        try:
            return parse(content)
        except ValidationError as exc:
            raise ValidationError(f"chain file {str(path)!r}: {exc}") from None
    return validate


_CHAIN_VALIDATORS = {"csv": _naming_the_file(_chain_from_csv_text),
                   "json": _naming_the_file(_chain_from_json_obj)}


def load_chain(source: str | Path) -> IsotopeChain:
    """Load and validate an isotope chain, CSV or JSON as the file's suffix
    says, from a resource name or a file path (a Path is read as given).
    The chain is shared with every load of the same bytes."""
    p = resource_path(source) if isinstance(source, str) else source
    fmt = p.suffix.lstrip(".").lower()
    try:
        if fmt not in _CHAIN_VALIDATORS:
            raise ValidationError(f"unknown chain format {fmt!r} (expected csv or json)")
        return load_validated(p, "chain file", fmt.upper(), _CHAIN_VALIDATORS[fmt])
    except ValidationError:
        if p.exists():  # stat only on the refusal path
            raise
        raise ValidationError(f"chain file {str(p)!r} does not exist") from None


# the name the gkpbench workloads load their chains by
load_bundled_chain = load_chain


def _measured_to_json(m: Measured | None):
    if m is None:
        return None
    obj = {"value": m.value}
    if m.sigma is not None:
        obj["sigma"] = m.sigma
    if m.effective:
        obj["effective"] = True
    return obj


def chain_to_json(chain: IsotopeChain) -> str:
    isotopes = [
        {
            "A": r.A,
            "Z": r.Z,
            "I": str(r.spin),
            "parity": r.parity,
            **{key: _measured_to_json(getattr(r, key)) for key in _MEASURED_FIELDS},
            "half_life_s": r.half_life_s,
        }
        for r in chain.records
    ]
    return json.dumps(
        {
            "element": chain.element,
            "reference_A": chain.reference_A,
            "provenance": chain.provenance,
            "isotopes": isotopes,
        },
        indent=2,
        default=dict,  # the read-only provenance mappings
    )


def chain_to_csv(chain: IsotopeChain) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in chain.records:
        measured = [getattr(r, key) for key in _MEASURED_FIELDS]
        writer.writerow([
            r.A,
            r.Z,
            str(r.spin),
            f"{r.parity:+d}",
            *("" if m is None else format_measured(m) for m in measured),
            repr(r.half_life_s) if r.half_life_s is not None else "",
        ])
    return buf.getvalue()
