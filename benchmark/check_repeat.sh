#!/usr/bin/env bash
# Run the benchmark in two sets on the same tree (every workload, untraced,
# the run length of BENCHMARK.json; each set is `runs` runs on consecutive
# seeds, the same seeds in both sets) and fail if the median of any
# end-to-end metric in the second set is worse than in the first by more
# than its own bound, or if a run of the second set prints another store hash
# than the same seed did in the first. Prints every metric's difference, so a
# bound that is too tight shows. One run a set is not enough on a shared box:
# single runs of the same code differ by up to 45 % there.
#
#   benchmark/check_repeat.sh [seed] [runs]        (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0x5167c044}"
runs="${2:-3}"
out=benchmark/out/check_repeat
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/manic-benchmark"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in 1 2; do
  for w in $workloads; do
    for ((i = 0; i < runs; i++)); do
      echo "set $set: $w run $((i + 1))/$runs" >&2
      "$bin" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 >"$out/$w.$set.$i.txt"
    done
  done
done

python3 - "$out" "$runs" <<'PY'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':<14} {'metric':<12} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
for w in (w["name"] for w in bench["workloads"]):
    sets = []
    for s in (1, 2):
        results, hashes = [], []
        for i in range(runs):
            lines = open(f"{out}/{w}.{s}.{i}.txt").read().splitlines()
            r = json.loads(lines[-1])
            if not r["correct"] or r["failed"]:
                print(f"{w} set {s} run {i}: correct={r['correct']} failed={r['failed']}")
                failed = True
            results.append(r)
            hashes.append([l for l in lines if "hash" in l and l.startswith("#")])
        sets.append((results, hashes))
    if sets[0][1] != sets[1][1]:
        print(f"{w}: hashes differ between the two sets:\n  {sets[0][1]}\n  {sets[1][1]}")
        failed = True
    for m in bench["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in results)
                for results, _ in sets)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = ""
        if worse > m["bound"]:
            flag, failed = "  <-- beyond its bound", True
        print(f"{w:<14} {m['name']:<12} {a:>14.6g} {b:>14.6g} {worse:>+9.1%} {m['bound']:>6.0%}{flag}")
sys.exit(1 if failed else 0)
PY
