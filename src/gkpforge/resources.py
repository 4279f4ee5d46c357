"""Bundled data resources and lookup by stable resource name.

Every shipped dataset is addressable by a versioned name. The environment
variable GKPFORGE_DATA_DIR redirects lookup to an external directory that
must contain files with the same basenames, which lets deployments pin or
override the bundled tables without reinstalling.

Every data file is read through read_text, which refuses (ValidationError)
a file that cannot be opened or decoded. JSON files go on through load_json
and json_field, which refuse what is not a JSON object, NaN and Infinity,
and fields of the wrong type; range checks belong to the dataclass that
owns the value.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from importlib import resources as _importlib_resources
from math import isfinite
from pathlib import Path

from .errors import ConfigurationError, ValidationError

ENV_DATA_DIR = "GKPFORGE_DATA_DIR"

RESOURCE_FILES = {
    "mo-chain-v1": "mo_chain_v1.json",
    "mo-chain-frib-synthetic-v1": "mo_chain_frib_synthetic_v1.json",
    "mo41-anchors-v1": "mo41_anchors_v1.json",
    "mo41-coeffs-v1": "mo41_coeffs_v1.json",
    "mo91-sampling-v1": "mo91_sampling_v1.json",
    "milestones-v1": "milestones_v1.json",
    "synthetic-rhs-noiseless-v1": "synthetic_rhs_noiseless_v1.json",
}


@functools.cache
def _bundled_data_dir() -> Path:
    """The package's data directory; the install does not move while the
    process runs, so it is resolved once."""
    return Path(str(_importlib_resources.files("gkpforge") / "data"))


def resource_path(name: str) -> Path:
    """Resolve a resource name (or a direct file path) to a local path."""
    if name in RESOURCE_FILES:
        basename = RESOURCE_FILES[name]
        override = os.environ.get(ENV_DATA_DIR)
        if override:
            candidate = Path(override) / basename
            if candidate.exists():
                return candidate
        path = _bundled_data_dir() / basename
        if not path.exists():
            raise ConfigurationError(f"bundled resource {name!r} is missing its data file {basename!r}")
        return path
    path = Path(name)
    if not path.exists():
        raise ConfigurationError(
            f"{name!r} is neither a known resource name ({', '.join(sorted(RESOURCE_FILES))}) nor an existing file"
        )
    return path


def schema_path(schema_name: str) -> Path:
    """Path of a shipped JSON schema (report validation)."""
    return _bundled_data_dir() / "schemas" / f"{schema_name}.json"


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# json_field kinds: the exact types json.loads produces for each (so a
# boolean is neither an integer nor a number), and how a refusal names it
_KINDS = {
    "integer": ((int,), "an integer"),
    "number": ((float, int), "a number"),
    "string": ((str,), "a string"),
    "boolean": ((bool,), "a boolean"),
    "object": ((dict,), "an object"),
    "list": ((list,), "a list"),
}
_FLOAT_MAX = sys.float_info.max


def _refuse_constant(name: str):
    raise ValidationError(f"has a non-finite number ({name})")


def _name_non_finite(pairs: list) -> dict:
    """object_pairs_hook that refuses, by its key, a value that is NaN or
    Infinity or a list holding one."""
    for key, value in pairs:
        for item in value if type(value) is list else (value,):
            if type(item) is float and not isfinite(item):
                raise ValidationError(f"has a non-finite {key}")
    return dict(pairs)


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_text(path: str | Path, what: str, kind: str) -> str:
    """The UTF-8 text of a data file; a file that cannot be opened or
    decoded is refused, named by what ("chain file", ...) and its kind
    ("JSON", "CSV")."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} {str(path)!r} cannot be read as {kind}: {exc}") from exc


def load_json(path: str | Path, what: str) -> dict:
    """The JSON object in a data file; what ("chain file", ...) names the
    file in refusals. NaN and Infinity literals are refused."""
    where = f"{what} {str(path)!r}"
    text = read_text(path, what, "JSON")
    try:
        obj = _DECODER.decode(text)
    except ValidationError as exc:
        try:  # decode again, keeping the literal, to name the key that holds it
            json.loads(text, object_pairs_hook=_name_non_finite)
        except ValidationError as named:
            exc = named
        raise ValidationError(f"{where} {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{where} cannot be read as JSON: {exc}") from exc
    if type(obj) is not dict:
        raise ValidationError(f"{where} must hold a JSON object")
    return obj


def json_field(obj: dict, key: str, kind: str, context: str, required: bool = True):
    """obj[key] checked by exact type against a kind of _KINDS; a number
    must also be finite and comes back as a float. None when an optional
    key is absent or null."""
    value = obj.get(key)
    if kind == "number":
        if type(value) is float:
            if isfinite(value):  # 1e400 parses to inf without reaching parse_constant
                return value
        elif type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    elif type(value) in _KINDS[kind][0]:
        return value
    if value is None and not required:
        return None
    if key not in obj:
        raise ValidationError(f"{context} is missing the {key!r} key")
    raise ValidationError(f"{context} has {key} = {value!r}, expected {_KINDS[kind][1]}")
