"""Bundled data resources and lookup by stable resource name.

Every shipped dataset is addressable by a versioned name. The environment
variable GKPFORGE_DATA_DIR redirects lookup to an external directory that
must contain files with the same basenames, which lets deployments pin or
override the bundled tables without reinstalling.

Every data file is opened once per load, by _read: it reads the bytes,
takes their sha256 and decodes the text from those same bytes, and refuses
(ValidationError) a file that cannot be opened or decoded. JSON files go
on through load_json and json_field, which refuse what is not a JSON
object, NaN and Infinity, and fields of the wrong type; range checks
belong to the dataclass that owns the value.

The data loaders go through load_validated, which memoizes the validated
object on (validator, sha256 of the bytes read): a file whose bytes were
already validated in this process gives back the same immutable object
without being parsed again, whatever its path or mtime. Only successes
are kept, and at most MEMO_SIZE of them. sha256_of gives the digest of the
bytes that the last load of a path parsed, so a report's manifest records
the bytes behind its numbers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from collections import OrderedDict
from collections.abc import Mapping
from math import isfinite
from pathlib import Path
from types import MappingProxyType

from .errors import ValidationError

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
    """The package's data directory, beside this module (gkpforge is a
    regular package, so this is the path importlib.resources would give);
    the install does not move while the process runs, so it is resolved once."""
    return Path(__file__).parent / "data"


@functools.cache
def _bundled_path(basename: str) -> Path:
    """The bundled data file of a basename, built once per basename; whether
    it exists is asked on every lookup."""
    return _bundled_data_dir() / basename


def resource_path(name: str) -> Path:
    """Resolve a resource name (or a direct file path) to a local path."""
    if name in RESOURCE_FILES:
        basename = RESOURCE_FILES[name]
        override = os.environ.get(ENV_DATA_DIR)
        if override:
            candidate = Path(override) / basename
            if candidate.exists():
                return candidate
        path = _bundled_path(basename)
        if not path.exists():
            raise ValidationError(f"bundled resource {name!r} is missing its data file {basename!r}")
        return path
    path = Path(name)
    if not path.exists():
        raise ValidationError(
            f"{name!r} is neither a known resource name ({', '.join(sorted(RESOURCE_FILES))}) nor an existing file"
        )
    return path


def schema_path(schema_name: str) -> Path:
    """Path of a shipped JSON schema (report validation)."""
    return _bundled_data_dir() / "schemas" / f"{schema_name}.json"


# validated objects by (validator, sha256 of the bytes), and the sha256 of
# the bytes each path last gave a load; both least recently used first
MEMO_SIZE = 32
_validated: OrderedDict = OrderedDict()
_parsed_digests: OrderedDict = OrderedDict()


def _remember(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    memo.move_to_end(key)
    if len(memo) > MEMO_SIZE:
        memo.popitem(last=False)


def sha256_of(path: str | Path) -> str:
    """sha256 of the bytes that the last load of path parsed; the file is
    hashed only when nothing has loaded it."""
    digest = _parsed_digests.get(os.fspath(path))
    if digest is not None:
        return digest
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


def _read(path: str | Path, what: str, kind: str) -> tuple[str, str]:
    """The UTF-8 text of a data file and the sha256 of its bytes, from one
    read, which sha256_of then reports for path; a file that cannot be
    opened or decoded is refused, named by what ("chain file", ...) and its
    kind ("JSON", "CSV")."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} {str(path)!r} cannot be read as {kind}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    _remember(_parsed_digests, os.fspath(path), digest)
    if "\r" in text:  # the newlines open() gives in text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, digest


def load_json(path: str | Path, what: str) -> dict:
    """The JSON object in a data file; what ("chain file", ...) names the
    file in refusals. NaN and Infinity literals are refused."""
    return _json_object(_read(path, what, "JSON")[0], f"{what} {str(path)!r}")


def load_validated(source: str | Path, what: str, kind: str, validate):
    """validate(content, path) for a data file, where content is the file's
    JSON object (kind "JSON") or its text (kind "CSV"). A str source is
    resolved by resource_path; a Path is one a caller already resolved and
    is read as given, so an input is resolved once per request. The result
    is kept on (validate, sha256 of the bytes read) and given back while
    those bytes stay the same, so it must be immutable; a refusal is not
    kept."""
    path = source if isinstance(source, Path) else resource_path(source)
    text, digest = _read(path, what, kind)
    key = (validate, digest)
    obj = _validated.get(key)
    if obj is None:
        content = _json_object(text, f"{what} {str(path)!r}") if kind == "JSON" else text
        obj = validate(content, path)
    _remember(_validated, key, obj)
    return obj


def _json_object(text: str, where: str) -> dict:
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


def freeze(value):
    """A read-only copy of a JSON value: objects become mapping proxies and
    lists tuples, all the way down."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: freeze(item) for key, item in value.items()})
    if type(value) is list:
        return tuple(freeze(item) for item in value)
    return value


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
