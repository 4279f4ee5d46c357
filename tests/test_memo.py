"""The data loaders' read path: one read per load, a memo keyed on the
loader and the sha256 of the bytes read, and manifests that hash the bytes
that were parsed."""

from __future__ import annotations

import builtins
import collections
import dataclasses
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gkpforge import resources
from gkpforge.barriers import load_anchors
from gkpforge.cli import main
from gkpforge.nucdata import chain_to_csv, chain_to_json, load_bundled_chain, load_chain
from gkpforge.resources import resource_path

CHAIN = resource_path("mo-chain-v1").read_bytes()
# the same chain with the probe's (A = 95) B(E2) raised, at the same size
EDITED = CHAIN.replace(b'"BE2_up": {"value": 8.0,', b'"BE2_up": {"value": 9.0,')

pytestmark = pytest.mark.usefixtures("pinned_timestamp")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _budget(capsys, *argv) -> dict:
    assert main(["budget", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_same_size_rewrite_with_the_old_mtime_is_read_afresh(capsys, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_bytes(CHAIN)
    before = _budget(capsys, "--chain", str(chain))
    stat = chain.stat()
    assert len(EDITED) == len(CHAIN)
    chain.write_bytes(EDITED)
    os.utime(chain, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert chain.stat().st_mtime_ns == stat.st_mtime_ns and chain.stat().st_size == stat.st_size
    after = _budget(capsys, "--chain", str(chain))
    assert after["combined_eV"] != before["combined_eV"]
    assert before["manifest"]["inputs"]["chain"]["sha256"] == _sha256(CHAIN)
    assert after["manifest"]["inputs"]["chain"]["sha256"] == _sha256(EDITED)


def test_a_file_made_invalid_is_refused_on_every_request(capsys, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_bytes(CHAIN)
    _budget(capsys, "--chain", str(chain))
    chain.write_bytes(CHAIN.replace(b'"reference_A": 92', b'"reference_A": 93'))
    for _ in range(2):
        assert main(["budget", "--chain", str(chain)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"chain file '{chain}': reference isotope A=93 not present in chain" in captured.err


def test_the_data_dir_override_is_resolved_on_every_request(capsys, tmp_path, monkeypatch):
    (tmp_path / "mo_chain_v1.json").write_bytes(EDITED)
    bundled = _budget(capsys)
    monkeypatch.setenv(resources.ENV_DATA_DIR, str(tmp_path))
    overridden = _budget(capsys)
    assert overridden["manifest"]["inputs"]["chain"] == {
        "path": str(tmp_path / "mo_chain_v1.json"), "sha256": _sha256(EDITED)}
    assert overridden["combined_eV"] != bundled["combined_eV"]
    monkeypatch.delenv(resources.ENV_DATA_DIR)
    assert _budget(capsys) == bundled


def test_the_memo_holds_no_more_than_its_bound(tmp_path):
    for k in range(resources.MEMO_SIZE + 5):
        path = tmp_path / f"chain_{k}.json"
        path.write_bytes(CHAIN + b" " * k)
        load_chain(path)
        assert len(resources._validated) <= resources.MEMO_SIZE
        assert len(resources._parsed_digests) <= resources.MEMO_SIZE
    assert len(resources._validated) == resources.MEMO_SIZE


def test_equal_bytes_share_one_object_per_loader(tmp_path):
    first, second, as_csv = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "a.csv"
    first.write_bytes(CHAIN)
    second.write_bytes(CHAIN)
    as_csv.write_text(chain_to_csv(load_chain(first)), encoding="utf-8")
    assert load_chain(first) is load_chain(second) is load_bundled_chain("mo-chain-v1")
    assert load_chain(as_csv) is not load_chain(first)
    assert load_chain(as_csv).records == load_chain(first).records


def _counting_opens(monkeypatch) -> collections.Counter:
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.fspath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return opened


def test_extract_opens_each_input_once_and_hashes_the_bytes_it_parsed(capsys, tmp_path, monkeypatch):
    rhs = tmp_path / "rhs.json"
    rhs.write_bytes(resource_path("synthetic-rhs-noiseless-v1").read_bytes())
    argv = ["extract", "--chain", "mo-chain-frib-synthetic-v1", "--rhs", str(rhs), "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    memo = list(resources._validated)
    # a new rhs file each request, as in a noisy campaign: the memo keeps its entries
    rhs.write_bytes(rhs.read_bytes() + b"\n")
    with monkeypatch.context() as patched:
        opened = _counting_opens(patched)
        assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(resources._validated) == memo
    inputs = report["manifest"]["inputs"]
    assert sorted(inputs) == ["anchors", "chain", "coeffs", "rhs"]
    assert {role: opened[entry["path"]] for role, entry in inputs.items()} == dict.fromkeys(inputs, 1)
    for entry in inputs.values():
        assert entry["sha256"] == _sha256(Path(entry["path"]).read_bytes())


@pytest.mark.parametrize("argv", [
    ["budget"],
    ["milestones", "--target", "1e-15"],
    ["condition", "--samples", "64"],
    ["extract", "--rhs", str(resource_path("synthetic-rhs-noiseless-v1"))],
])
def test_each_input_is_resolved_once_per_request(capsys, monkeypatch, argv):
    argv = [*argv, "--format", "json"]
    assert main(argv) == 0  # imports, the parser and the memo are warm from here on
    capsys.readouterr()
    resolved, stats = [], []
    real_resource_path, real_stat = resources.resource_path, os.stat

    def counting_resource_path(name):
        resolved.append(name)
        return real_resource_path(name)

    def counting_stat(path, *args, **kwargs):
        stats.append(os.fspath(path))
        return real_stat(path, *args, **kwargs)

    with monkeypatch.context() as patched:
        for module in [m for name, m in sys.modules.items() if name.startswith("gkpforge")]:
            if getattr(module, "resource_path", None) is real_resource_path:
                patched.setattr(module, "resource_path", counting_resource_path)
        patched.setattr(os, "stat", counting_stat)
        assert main(argv) == 0
    inputs = json.loads(capsys.readouterr().out)["manifest"]["inputs"]
    assert len(resolved) == len(inputs)
    assert sorted(stats) == sorted(entry["path"] for entry in inputs.values())


def test_the_manifest_hashes_the_bytes_parsed_not_a_later_write(capsys, tmp_path, monkeypatch):
    chain = tmp_path / "chain.json"
    chain.write_bytes(CHAIN)
    read = resources._read

    def read_then_rewrite(path, what, kind):
        text_and_digest = read(path, what, kind)
        if Path(path) == chain:
            chain.write_bytes(EDITED)
        return text_and_digest

    with monkeypatch.context() as patched:
        patched.setattr(resources, "_read", read_then_rewrite)
        report = _budget(capsys, "--chain", str(chain))
    assert chain.read_bytes() == EDITED
    assert report["manifest"]["inputs"]["chain"]["sha256"] == _sha256(CHAIN)
    assert report["combined_eV"] == _budget(capsys)["combined_eV"]


def test_shared_objects_are_read_only():
    chain, anchors = load_bundled_chain("mo-chain-v1"), load_anchors()
    for mapping in (chain.provenance, anchors.scenarios, anchors.scenario("current")):
        with pytest.raises(TypeError):
            mapping["added"] = "by a caller"
    with pytest.raises(TypeError):
        anchors.scenarios["current"]["tnp_knowledge_fraction"] = 0.5
    stored = json.loads(resource_path("mo-chain-v1").read_text(encoding="utf-8"))
    fresh = load_bundled_chain("mo-chain-v1")
    assert dict(fresh.provenance) == stored["provenance"]
    assert json.loads(chain_to_json(fresh))["provenance"] == stored["provenance"]
    assert load_anchors().scenario("current")["tnp_knowledge_fraction"] == 0.10
    extended = fresh.with_isotope(dataclasses.replace(fresh.isotope(95), A=91, delta_r2=None))
    assert extended.provenance == fresh.provenance


def test_nested_provenance_is_frozen_and_serialized(tmp_path):
    stored = json.loads(CHAIN)
    stored["provenance"]["sources"] = {"r_ch": ["compilation", 2013]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(stored), encoding="utf-8")
    chain = load_chain(path)
    with pytest.raises(TypeError):
        chain.provenance["sources"]["r_ch"] = "edited"
    assert chain.provenance["sources"]["r_ch"] == ("compilation", 2013)
    assert json.loads(chain_to_json(chain))["provenance"] == stored["provenance"]
