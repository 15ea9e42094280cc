#!/usr/bin/env bash
# Snapshots the serving benchmark: runs every perfbench workload over N
# seeds at --trace 0 and writes, per workload, the median, q1, q3, n and
# per-seed values of each end-to-end metric, next to perfbench's host
# stamp, as JSON.
#
#   scripts/bench_snapshot.sh [-n SEEDS] [-s FIRST_SEED] [-t SECONDS]
#                             [-b BASELINE_CHECKOUT] [-l BASELINE_LABEL]
#                             [-o OUT]
#
# Defaults: 5 seeds from 301, 15 s windows, OUT = BENCH_perfbench.json at
# the repo root. With -b, each run of this checkout is paired with the same
# run of BASELINE_CHECKOUT (for example a `git archive` of the parent
# commit), the pair's order alternating by seed so host drift hits both
# sides alike; the baseline's numbers go under "baseline". A run that
# fails, times out or reports "correct": false makes the script exit 1
# after writing what it has. Each checkout builds perfbench into its own
# .bench_build/ on first use.
set -u
cd "$(dirname "$0")/.."
root=$(pwd)

seeds=5 first_seed=301 seconds=15 baseline="" baseline_label="" out=""
while getopts "n:s:t:b:l:o:" opt; do
  case "$opt" in
    n) seeds=$OPTARG ;;
    s) first_seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    b) baseline=$(cd "$OPTARG" && pwd) || exit 2 ;;
    l) baseline_label=$OPTARG ;;
    o) out=$OPTARG ;;
    *) sed -n '2,17p' "$0"; exit 2 ;;
  esac
done
out=${out:-$root/BENCH_perfbench.json}
[ -n "$baseline" ] && baseline_label=${baseline_label:-$(basename "$baseline")}
label=$(git describe --always --dirty 2>/dev/null || echo "working tree")
workloads="mixed-resident box-spill hot-pipelined scatter-4shard"

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# Appends "SIDE<TAB>STAMP<TAB>RESULT" for one run; the stamp is the first
# line of perfbench's stdout and the result its last.
run_one() {
  local side=$1 dir=$2 workload=$3 seed=$4 output
  output=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" \
             --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null)
  printf '%s\t%s\t%s\n' "$side" "$(head -n 1 <<<"$output")" \
    "$(tail -n 1 <<<"$output")" >>"$runs"
  echo "bench_snapshot: $side $workload seed $seed: $(tail -n 1 <<<"$output" |
    cut -c1-120)" >&2
}

for workload in $workloads; do
  for ((seed = first_seed; seed < first_seed + seeds; ++seed)); do
    if [ -z "$baseline" ]; then
      run_one tree "$root" "$workload" "$seed"
    elif ((seed % 2 == 0)); then
      run_one tree "$root" "$workload" "$seed"
      run_one baseline "$baseline" "$workload" "$seed"
    else
      run_one baseline "$baseline" "$workload" "$seed"
      run_one tree "$root" "$workload" "$seed"
    fi
  done
done

python3 - "$runs" "$out" "$label" "$baseline_label" "$seconds" \
  "$first_seed" "$seeds" <<'EOF'
import json
import statistics
import sys

runs_path, out_path, label, baseline_label, seconds, first, n = sys.argv[1:]
HOST_KEYS = ("nproc", "simd_tier", "build_type", "compiler")
RUN_KEYS = ("workload", "seed", "seconds", "trace")


def summarize(values):
    """Quartiles of one metric; `values` keeps the runs in seed order, so
    a reader can pair tree and baseline runs seed by seed."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


sides, host, ok = {}, None, True
with open(runs_path) as f:
    for line in f:
        side, stamp, result = line.rstrip("\n").split("\t")
        try:
            stamp = json.loads(stamp)["stamp"]
            result = json.loads(result)
        except (ValueError, KeyError):
            print("bench_snapshot: a %s run printed no result" % side,
                  file=sys.stderr)
            ok = False
            continue
        ok = ok and result["correct"]
        host = host or {k: stamp[k] for k in HOST_KEYS}
        w = sides.setdefault(side, {}).setdefault(stamp["workload"], {
            "stamp": {k: v for k, v in stamp.items()
                      if k not in HOST_KEYS and k not in RUN_KEYS},
            "seeds": [], "correct": True, "attempted": 0, "failed": 0,
            "values": {}})
        w["seeds"].append(stamp["seed"])
        w["correct"] = w["correct"] and result["correct"]
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            w["values"].setdefault(name, []).append(metric["value"])


def workloads(side):
    out = {}
    for name, w in sides.get(side, {}).items():
        values = w.pop("values")
        w["metrics"] = {m: summarize(v) for m, v in values.items()}
        out[name] = w
    return out


snapshot = {
    "host": host,
    "config": {"seconds": float(seconds), "trace": 0,
               "seeds": list(range(int(first), int(first) + int(n)))},
    "tree": {"label": label, "workloads": workloads("tree")},
}
if "baseline" in sides:
    snapshot["baseline"] = {"label": baseline_label,
                            "workloads": workloads("baseline")}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print("bench_snapshot: wrote %s" % out_path, file=sys.stderr)
sys.exit(0 if ok else 1)
EOF
