#!/usr/bin/env bash
# Compares every committed golden under tests/goldens/ with a fresh run of
# the binaries in BUILD_DIR:
#   default_<A>.csv                  sensrep_cli, 4 robots, 8000 s
#   delivery_<cfg>_<A>.csv           the same at 3000 s with each radio config
#   timeseries_<A>.csv               8000 s under robot faults, sampled timelines
#   data_yield_{repaired,unrepaired} examples/data_yield 8000
#   scale10k_<cfg>_<A>.csv           10k sensors, 200 robots, 2000 s
#   serve_smoke.txt                  sensrep_serve on tests/scripts/serve_smoke.cmds
# Every output goes to a fresh temporary directory (sensrep_cli --csv appends
# to an existing file). Exits non-zero after listing every mismatch.
#
# Usage: tools/check_goldens.sh BUILD_DIR      (run from the repository root)
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
goldens=tests/goldens
cli=$build/tools/sensrep_cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
check() {  # check GOT WANT
  if cmp -s "$1" "$2"; then
    echo "ok   $2"
  else
    echo "FAIL $2"
    failed=1
  fi
}

algorithms="centralized fixed dynamic"

for a in $algorithms; do
  "$cli" --algorithm=$a --robots=4 --duration=8000 --seed=2026 --quiet \
    --csv="$out/default-$a.csv"
  check "$out/default-$a.csv" $goldens/default_$a.csv
done

declare -A delivery=(
  [loss]="--loss=0.05"
  [burst_partition]="--chaos-burst=0.08,0.3,0.5 --chaos-partition=1000,1500,0,0,200,200"
  [collisions]="--collisions"
  [jitter_dup]="--chaos-jitter=0.2,0.004 --chaos-dup=0.2"
  [arq_faults]="--loss=0.1 --robot-mtbf=1500 --robot-mttr=500 --reliable-reports"
)
for c in loss burst_partition collisions jitter_dup arq_faults; do
  for a in $algorithms; do
    # shellcheck disable=SC2086  # the flag set splits on purpose
    "$cli" --algorithm=$a --robots=4 --duration=3000 --seed=2026 --quiet \
      ${delivery[$c]} --csv="$out/delivery-$c-$a.csv"
    check "$out/delivery-$c-$a.csv" $goldens/delivery_${c}_$a.csv
  done
done

for a in $algorithms; do
  "$cli" --algorithm=$a --robots=4 --duration=8000 --seed=2026 --quiet \
    --robot-mtbf=1500 --robot-mttr=500 --timeseries-out="$out/timeseries-$a.csv"
  check "$out/timeseries-$a.csv" $goldens/timeseries_$a.csv
done

"$build/examples/data_yield" 8000 "$out/data_yield" > /dev/null
check "$out/data_yield_repaired.csv" $goldens/data_yield_repaired.csv
check "$out/data_yield_unrepaired.csv" $goldens/data_yield_unrepaired.csv

declare -A scale=(
  [default]=""
  [loss]="--loss=0.05"
  [faults]="--robot-mtbf=1500 --robot-mttr=500"
)
for c in default loss faults; do
  for a in $algorithms; do
    # shellcheck disable=SC2086
    "$cli" --algorithm=$a --robots=200 --duration=2000 --seed=2026 --quiet \
      ${scale[$c]} --csv="$out/scale10k-$c-$a.csv"
    check "$out/scale10k-$c-$a.csv" $goldens/scale10k_${c}_$a.csv
  done
done

# The JSONL sink is part of the recipe: it adds jsonl_dropped= to `status`.
"$build/tools/sensrep_serve" --algorithm=dynamic --robots=4 --seed=7 \
  --telemetry-period=200 --telemetry-jsonl="$out/serve_smoke.jsonl" \
  < tests/scripts/serve_smoke.cmds > "$out/serve_smoke.txt"
check "$out/serve_smoke.txt" $goldens/serve_smoke.txt

exit $failed
