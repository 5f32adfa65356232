#!/usr/bin/env bash
# E20 metrics-plane overhead guard.
#
# Runs the BM_MetricsOverhead section of kernel_throughput at 100k sensors in
# all three observability states (0 = registry off, 1 = registry on,
# 2 = registry + flight recorder), computes ticks-per-second from the
# repetition medians, and fails if either enabled state costs more than the
# tolerance below the disabled state. All three modes execute the identical
# event stream in the same process, so their ratio isolates the
# instrumentation cost from the machine, with no committed baseline needed:
# mode 0 IS the baseline, measured in the same run.
#
# Usage: check_metrics_overhead.sh [--bench PATH] [--out CSV] [--tolerance PCT]
set -euo pipefail

bench=build/bench/kernel_throughput
out=metrics_overhead_100k.csv
tolerance=3

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bench) bench=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --tolerance) tolerance=$2; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

[[ -x $bench ]] || { echo "benchmark binary not found: $bench" >&2; exit 2; }

"$bench" --benchmark_filter='BM_MetricsOverhead/100000/' \
  --benchmark_min_time=0.01 --benchmark_repetitions=3 \
  --benchmark_format=csv > "$out"

# google-benchmark CSV: items_per_second (column 7) is executed events per
# second of sim.run() wall time, i.e. ticks/sec.
off=$(awk -F, '/BM_MetricsOverhead\/100000\/0\/.*_median/ {gsub(/"/,""); print $7}' "$out")
on=$(awk -F, '/BM_MetricsOverhead\/100000\/1\/.*_median/ {gsub(/"/,""); print $7}' "$out")
flightrec=$(awk -F, '/BM_MetricsOverhead\/100000\/2\/.*_median/ {gsub(/"/,""); print $7}' "$out")
[[ -n $off && -n $on && -n $flightrec ]] || {
  echo "could not parse medians from $out" >&2; exit 2;
}

awk -v off="$off" -v on="$on" -v fr="$flightrec" -v tol="$tolerance" 'BEGIN {
  floor = off * (1 - tol / 100)
  printf "ticks/sec at 100k sensors: off %.0f, registry %.0f, registry+flightrec %.0f\n", \
    off, on, fr
  printf "registry overhead %.2f%%, +flightrec overhead %.2f%%, tolerance %d%%\n", \
    (1 - on / off) * 100, (1 - fr / off) * 100, tol
  if (on < floor || fr < floor) {
    printf "FAIL: metrics plane costs more than %d%% of hot-loop throughput\n", tol
    exit 1
  }
  print "OK: within tolerance"
}'
