#!/usr/bin/env bash
# Diff a golden case through the real entry point, `python -m gkpforge.cli`:
# its stdout in every format, and the files that --out writes.
#
#     GKPFORGE_TIMESTAMP=2026-08-09T00:00:00+00:00 bash tests/same_as_golden.sh <case> <command> [flags...]
#
# Run from the repository root with gkpforge importable. In the flags,
# <data> stands for the bundled data directory and <golden> for
# tests/golden; paths into either are compared as <data> and <golden>, as
# tests/test_golden.py writes them.
set -eo pipefail
name=$1; shift
data=$(python -c "from gkpforge.resources import resource_path; print(resource_path('mo-chain-v1').parent)")
golden=$(cd tests/golden && pwd -P)
args=()
for arg in "$@"; do
  arg=${arg//<data>/$data}
  args+=("${arg//<golden>/$golden}")
done
placeholders=(-e "s#$data#<data>#g" -e "s#$golden#<golden>#g")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for fmt in json csv table; do
  python -m gkpforge.cli "${args[@]}" --format "$fmt" | sed "${placeholders[@]}" | diff -u "tests/golden/$name/stdout.$fmt" -
done
python -m gkpforge.cli "${args[@]}" --format json --out "$tmp/$name" > /dev/null
sed -i "${placeholders[@]}" "$tmp/$name"/*
diff -ru "tests/golden/$name/out" "$tmp/$name"
