#!/bin/sh
# Regenerates docs/api-golden.txt: the checked-in `go doc` output for the
# public inferlet-facing packages. CI regenerates and diffs it, so any
# change to the exported surface of api/ or inferlet/ is a deliberate,
# reviewed artifact — run this script and commit the diff alongside the
# API change.
set -eu
cd "$(dirname "$0")/.."
out=docs/api-golden.txt
{
  echo "# Public API surface (generated by scripts/apigolden.sh — do not edit)"
  for pkg in ./api ./inferlet; do
    echo
    echo "===== go doc $pkg ====="
    go doc -all "$pkg"
  done
} > "$out"
echo "wrote $out"
