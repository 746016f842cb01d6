#!/usr/bin/env bash
# Regenerate BENCH_hotpath.json from a Release build of bench/perf_hotpath.
# Run from the repository root.
#
# The committed file holds two kinds of rows:
#   - live rows (bench: "fabric", "placement", "sim", "erasure", "hash",
#     "fig2_ddbag"): rewritten by this script from a fresh run on this
#     machine;
#   - baseline rows (bench suffixed "_prepr"): the pre-optimization
#     numbers captured when the hot-path work landed. They are *preserved*
#     verbatim so the speedup over the original implementation stays
#     readable in the file, and scripts/check.sh --perf has a fixed
#     reference for regression checks.
#
# Wall-clock values are machine-dependent; compare rows only within one
# machine's history.
#
#   scripts/bench_perf.sh [--prepr RUN.json BENCH...]
#
# --prepr records new baseline rows before the splice: every row of the
# named BENCHes in RUN.json -- a perf_hotpath output measured on the
# commit *before* an optimization, on this machine -- is stored as
# "<bench>_prepr", replacing any baseline row with the same name.
set -euo pipefail

out=BENCH_hotpath.json
prepr_run=""
prepr_benches=""
if [[ "${1:-}" == "--prepr" ]]; then
  [[ $# -ge 3 ]] || { echo "usage: $0 [--prepr RUN.json BENCH...]" >&2; exit 2; }
  prepr_run=$2
  shift 2
  prepr_benches="$*"
fi
tmp=$(mktemp)
trap 'rm -f "$tmp" "$out.new"' EXIT

echo "== Release build =="
cmake -B build-perf -G Ninja -DCMAKE_BUILD_TYPE=Release -DMEMFSS_WERROR=OFF
cmake --build build-perf --target perf_hotpath

echo "== bench run =="
./build-perf/bench/perf_hotpath "$tmp"

# Splice: fresh live rows + preserved *_prepr baseline rows.
python3 - "$tmp" "$out" "$prepr_run" "$prepr_benches" <<'EOF'
import json, sys
fresh_path, out_path, prepr_run, prepr_benches = sys.argv[1:5]
fresh = json.load(open(fresh_path))
try:
    old = json.load(open(out_path))
except FileNotFoundError:
    old = []
baseline = [r for r in old if r["bench"].endswith("_prepr")]
if prepr_run:
    wanted = prepr_benches.split()
    new = [dict(r, bench=r["bench"] + "_prepr")
           for r in json.load(open(prepr_run)) if r["bench"] in wanted]
    if {r["bench"] for r in new} != {b + "_prepr" for b in wanted}:
        sys.exit(f"{prepr_run}: missing rows for some of {wanted}")
    names = {(r["bench"], r["metric"]) for r in new}
    baseline = [r for r in baseline
                if (r["bench"], r["metric"]) not in names] + new
rows = fresh + baseline
with open(out_path + ".new", "w") as f:
    f.write("[\n")
    f.write(",\n".join(
        '  {"bench": "%s", "metric": "%s", "value": %.6g, '
        '"unit": "%s", "seed": %d}'
        % (r["bench"], r["metric"], r["value"], r["unit"], r["seed"])
        for r in rows))
    f.write("\n]\n")
EOF
mv "$out.new" "$out"
echo "== wrote $out =="
