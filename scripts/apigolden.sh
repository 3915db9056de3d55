#!/bin/sh
# Regenerates docs/api-golden.txt: the checked-in `go doc` output for the
# public inferlet-facing packages, then for every struct whose fields a
# deployment sets or reads (pie.Config, pie.Stats and the structs behind
# pie's aliases). CI regenerates and diffs it, so any change to the exported
# surface of api/ or inferlet/, and every settable value added or removed,
# is a deliberate, reviewed artifact — run this script and commit the diff
# alongside the change.
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
  echo
  echo "===== configuration surface ====="
  for sym in pie.Config pie.Stats \
    pie/internal/cluster.ScalerConfig pie/internal/cluster.HealthConfig \
    pie/internal/cluster.ShedConfig pie/internal/cluster.FaultPlan \
    pie/internal/ilm.RetryPolicy; do
    echo
    echo "----- go doc $sym -----"
    go doc "$sym"
  done
} > "$out"
echo "wrote $out"
