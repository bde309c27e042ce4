#!/bin/sh
# Feeds the malformed-input corpus through the real tool binaries and
# asserts every case exits with the usage exit code (3): a structured
# parse error, never a crash, hang, or sanitizer abort.  One legal edge
# value (--balance 1.5) must instead run to a clean exit 0.
#
#   tests/corpus/run_corpus.sh <mlsc_report> <mlsc_map> [<mlsc_serve>
#                              [<bench_churn>]]
#
# Run it against a -DMLSC_SANITIZE=address,undefined build to turn the
# corpus into a memory-safety gate for the parse paths.
set -u

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
  echo "usage: $0 <mlsc_report-binary> <mlsc_map-binary> [<mlsc_serve-binary> [<bench_churn-binary>]]" >&2
  exit 2
fi
report=$1
map=$2
serve=${3:-}
churn=${4:-}
corpus=$(dirname "$0")
fail=0

expect_usage_error() {
  # $1 = label, rest = command
  label=$1
  shift
  "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "FAIL: $label exited $rc (want 3)" >&2
    fail=1
  else
    echo "ok: $label"
  fi
}

# Malformed JSON documents through the run-record reader.
for doc in "$corpus"/json/*.json; do
  expect_usage_error "mlsc_report $(basename "$doc")" "$report" "$doc"
done

# Deep nesting, generated here rather than committed: the parser must
# report its depth cap instead of overrunning the stack.
deep=$(mktemp)
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "[" }' > "$deep"
expect_usage_error "mlsc_report deep-nesting" "$report" "$deep"
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "["
             for (i = 0; i < 100000; i++) printf "]" }' > "$deep"
expect_usage_error "mlsc_report deep-nesting-balanced" "$report" "$deep"
rm -f "$deep"

# Malformed fault-spec strings through the CLI.
while IFS= read -r spec; do
  [ -n "$spec" ] || continue
  expect_usage_error "mlsc_map --faults='$spec'" \
    "$map" --workload hf --size-factor 0.0625 --faults="$spec"
done < "$corpus"/faults/specs.txt

# Balance thresholds: a negative or NaN BThres is a usage error; one
# above 1 is legal (its lower bound saturates at 0) and must map cleanly.
expect_usage_error "mlsc_map --balance -0.1" \
  "$map" --workload hf --size-factor 0.0625 --balance -0.1
expect_usage_error "mlsc_map --balance nan" \
  "$map" --workload hf --size-factor 0.0625 --balance nan
# Scheduler weights: negative or non-finite ones are usage errors.
expect_usage_error "mlsc_map --alpha nan" \
  "$map" --workload hf --size-factor 0.0625 --scheme sched --alpha nan
expect_usage_error "mlsc_map --alpha inf" \
  "$map" --workload hf --size-factor 0.0625 --scheme sched --alpha inf
expect_usage_error "mlsc_map --alpha -1 --beta 2" \
  "$map" --workload hf --size-factor 0.0625 --scheme sched --alpha -1 --beta 2
expect_usage_error "mlsc_map --beta -inf" \
  "$map" --workload hf --size-factor 0.0625 --scheme sched --beta -inf
"$map" --workload hf --size-factor 0.0625 --balance 1.5 >/dev/null 2>&1
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: mlsc_map --balance 1.5 exited $rc (want 0)" >&2
  fail=1
else
  echo "ok: mlsc_map --balance 1.5"
fi

# Values that would wrap or overflow when stored: a readahead depth
# past 2^32-1, and a cache size of 0 MiB or one whose bytes exceed 2^64.
expect_usage_error "mlsc_map --readahead 4294967296" \
  "$map" --workload hf --size-factor 0.0625 --readahead 4294967296
for mib in 0 17592186044416; do
  expect_usage_error "mlsc_map --cache-mib $mib" \
    "$map" --workload hf --size-factor 0.0625 --cache-mib "$mib"
done

# Malformed serve event streams (unknown event types, duplicate ids,
# negative client counts, broken schema headers / JSON / fault specs).
if [ -n "$serve" ]; then
  for doc in "$corpus"/serve/*.jsonl; do
    expect_usage_error "mlsc_serve $(basename "$doc")" \
      "$serve" --events "$doc" --clients 8 --io 4 --storage 2
  done
  # Iteration-chunk caps outside 1..2^32-1 are misuse, not a silent "one
  # chunk per nest".  The stream is valid, so only the cap can fail it.
  events=$(mktemp)
  printf '%s\n' '{"schema": "mlsc-serve-event-v1"}' \
    '{"at_ms": 1, "event": "register", "id": "w0", "workload": "hf", "size_factor": 0.0625, "clients": 2}' \
    > "$events"
  for cap in 0 4294967296; do
    expect_usage_error "mlsc_serve --max-chunks $cap" \
      "$serve" --events "$events" --clients 8 --io 4 --storage 2 \
      --max-chunks "$cap"
  done
  rm -f "$events"
fi
if [ -n "$churn" ]; then
  for cap in 0 4294967296; do
    expect_usage_error "bench_churn --max-chunks=$cap" \
      "$churn" --max-chunks="$cap" --json=/dev/null
  done
  # A thread count past kMaxThreads (1024) is refused before any thread
  # starts.
  expect_usage_error "bench_churn --threads=1025" \
    "$churn" --threads=1025 --json=/dev/null
fi

if [ "$fail" -ne 0 ]; then
  echo "corpus: FAILURES above" >&2
  exit 1
fi
echo "corpus: all inputs rejected cleanly"
