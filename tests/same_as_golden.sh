#!/usr/bin/env bash
# Diff a golden case through the real entry point, `python -m gkpforge.cli`:
# its stdout in every format, and the files that --out writes.
#
#     GKPFORGE_TIMESTAMP=2026-08-09T00:00:00+00:00 bash tests/same_as_golden.sh <case> <command> [flags...]
#
# Run from the repository root with gkpforge importable; paths into the
# bundled data directory are compared as <data>, as tests/test_golden.py
# writes them.
set -eo pipefail
golden=$1; shift
data=$(python -c "from gkpforge.resources import resource_path; print(resource_path('mo-chain-v1').parent)")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for fmt in json csv table; do
  python -m gkpforge.cli "$@" --format "$fmt" | sed "s#$data#<data>#g" | diff -u "tests/golden/$golden/stdout.$fmt" -
done
python -m gkpforge.cli "$@" --format json --out "$tmp/$golden" > /dev/null
sed -i "s#$data#<data>#g" "$tmp/$golden"/*
diff -ru "tests/golden/$golden/out" "$tmp/$golden"
