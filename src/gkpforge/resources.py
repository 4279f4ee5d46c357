"""Bundled data resources and lookup by stable resource name.

Every shipped dataset is addressable by a versioned name. The environment
variable GKPFORGE_DATA_DIR redirects lookup to an external directory that
must contain files with the same basenames, which lets deployments pin or
override the bundled tables without reinstalling.
"""

from __future__ import annotations

import functools
import hashlib
import os
from importlib import resources as _importlib_resources
from pathlib import Path

from .errors import ConfigurationError

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
