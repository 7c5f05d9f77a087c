#!/usr/bin/env bash
# Runs every bench driver (bench/bench_*.cpp) and records BENCH_core.json
# at the repository root, so successive PRs accumulate a perf trajectory
# for the simulator hot paths and a record of the paper's claims.
#
#   scripts/bench_core.sh [--smoke] [common bench args...]
#
# Six benches contribute:
#   bench_frontier   seed-path (dense) core vs frontier core, single runs
#   bench_batch      per-trial scalar sweep vs 64-lane batched sweep
#   bench_shard      scalar single run vs sharded single run (ShardedSimulator)
#   bench_scenarios  recovery SLAs under fault adversaries (scalar fallback)
#   bench_graph_tier in-RAM CSR vs mmap BMCSR vs shard-local reordered
#                    copies, plus the streamed bounded-memory build row
#   bench_paper      Figures 3 and 5 and the Theorem 1 family with their
#                    log2 n / (log2 n)^2 fits; exits 1 (failing this
#                    script) when a gated paper claim fails
# bench_frontier and bench_batch run at n in BENCH_SIZES (default
# "1000 10000 100000"); bench_shard runs at n in SHARD_SIZES (default
# "100000 1000000" — sharding targets large single runs); bench_scenarios
# runs at n in FAULT_SIZES (default "1000 10000" — scenario rows run on the
# scalar simulator, so huge n would dominate the wall clock);
# bench_graph_tier runs at n in GRAPH_TIER_SIZES (default "100000 1000000"
# — tier costs only show at sizes where the adjacency outgrows cache).
# bench_paper runs once at its own sizes (it sweeps n itself).
# Positional args are forwarded to the four n-sized timing drivers
# (frontier, batch, shard, scenarios), so use them only for flags all of
# those accept (--avg-degree, --reps, --seed); driver-specific flags go in
# FRONTIER_ARGS / BATCH_ARGS / SHARD_ARGS / FAULT_ARGS / GRAPH_TIER_ARGS /
# PAPER_ARGS (e.g. BATCH_ARGS="--trials=128", SHARD_ARGS="--shards=1,2,4,8").
# The script-owned --n/--git-rev/--out are appended last, so they win over
# anything forwarded.  The merged JSON is { header, frontier: [...],
# batch: [...], shard: [...], faults: [...], graph_tier: [...],
# paper: [...] } (one per-n report each, one report for paper); every
# report records the git revision and compiler it was built with.
#
# --smoke (must be the first argument) is the CI mode: one tiny size
# (n=256), one rep, short tails, bench_paper at k <= 48 and n <= 100, and
# the merged JSON goes to ${build_dir}/BENCH_core_smoke.json instead of
# clobbering the committed perf record — the point is exercising every
# driver row and the merge logic on every PR, plus feeding
# scripts/check_bench_regression.py, not producing publishable numbers.  BENCH_SIZES/BENCH_OUT still override.
#
# Builds the bench targets if needed (cmake -B build -S . must have been
# configured, or this script configures it).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"

smoke=0
if [[ "${1:-}" == "--smoke" ]]; then
  smoke=1
  shift
fi

if (( smoke )); then
  sizes="${BENCH_SIZES:-256}"
  # Larger than the other smoke lanes: at n=256 the sharded rows measure
  # nothing but barrier latency, which made the warn-only comparison
  # against the committed 100k/1M rows pure noise.
  shard_sizes="${SHARD_SIZES:-20000}"
  fault_sizes="${FAULT_SIZES:-256}"
  graph_tier_sizes="${GRAPH_TIER_SIZES:-20000}"
  merged_default="${build_dir}/BENCH_core_smoke.json"
  smoke_args=(--reps=1 --tail-rounds=32)
  # bench_graph_tier has no tail workload, so no --tail-rounds; a tiny
  # streaming budget forces the multi-chunk fill path even at smoke n.
  graph_tier_smoke_args=(--reps=1 --budget-mb=1)
  # Same sizes as the bench_paper_smoke ctest: its gates hold at this seed.
  paper_smoke_args=(--ks=8,16,32,48 --trials=64
                    --fig3-ns=20,50,100 --fig5-ns=20,50,100 --grid-sides=8,12)
else
  sizes="${BENCH_SIZES:-1000 10000 100000}"
  shard_sizes="${SHARD_SIZES:-100000 1000000}"
  fault_sizes="${FAULT_SIZES:-1000 10000}"
  graph_tier_sizes="${GRAPH_TIER_SIZES:-100000 1000000}"
  merged_default="${repo_root}/BENCH_core.json"
  smoke_args=()
  graph_tier_smoke_args=()
  paper_smoke_args=()
fi
merged="${BENCH_OUT:-${merged_default}}"

if [[ ! -d "${build_dir}" ]]; then
  cmake -B "${build_dir}" -S "${repo_root}"
fi
cmake --build "${build_dir}" --target bench_frontier bench_batch bench_shard \
  bench_scenarios bench_graph_tier bench_paper -j

git_rev="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
out_dir="${build_dir}/bench_reports"
mkdir -p "${out_dir}"

# Word-split once and join explicitly: tr-ing the raw string would emit
# invalid JSON ([1000,,10000]) for irregular whitespace in BENCH_SIZES.
# shellcheck disable=SC2206
size_list=(${sizes})
sizes_json="$(IFS=,; echo "${size_list[*]}")"
# shellcheck disable=SC2206
shard_size_list=(${shard_sizes})
# shellcheck disable=SC2206
fault_size_list=(${fault_sizes})
# shellcheck disable=SC2206
graph_tier_size_list=(${graph_tier_sizes})

# Intentionally word-split driver-specific extras.
# shellcheck disable=SC2206
frontier_extra=(${FRONTIER_ARGS:-})
# shellcheck disable=SC2206
batch_extra=(${BATCH_ARGS:-})
# shellcheck disable=SC2206
shard_extra=(${SHARD_ARGS:-})
# shellcheck disable=SC2206
fault_extra=(${FAULT_ARGS:-})
# shellcheck disable=SC2206
graph_tier_extra=(${GRAPH_TIER_ARGS:-})
# shellcheck disable=SC2206
paper_extra=(${PAPER_ARGS:-})

frontier_reports=()
batch_reports=()
shard_reports=()
fault_reports=()
for n in "${size_list[@]}"; do
  frontier_out="${out_dir}/frontier_n${n}.json"
  batch_out="${out_dir}/batch_n${n}.json"
  "${build_dir}/bench/bench_frontier" ${smoke_args[@]+"${smoke_args[@]}"} "$@" \
      ${frontier_extra[@]+"${frontier_extra[@]}"} \
      --n="${n}" --git-rev="${git_rev}" --out="${frontier_out}"
  "${build_dir}/bench/bench_batch" ${smoke_args[@]+"${smoke_args[@]}"} "$@" \
      ${batch_extra[@]+"${batch_extra[@]}"} \
      --n="${n}" --git-rev="${git_rev}" --out="${batch_out}"
  frontier_reports+=("${frontier_out}")
  batch_reports+=("${batch_out}")
done
for n in "${shard_size_list[@]}"; do
  shard_out="${out_dir}/shard_n${n}.json"
  "${build_dir}/bench/bench_shard" ${smoke_args[@]+"${smoke_args[@]}"} "$@" \
      ${shard_extra[@]+"${shard_extra[@]}"} \
      --n="${n}" --git-rev="${git_rev}" --out="${shard_out}"
  shard_reports+=("${shard_out}")
done
for n in "${fault_size_list[@]}"; do
  fault_out="${out_dir}/faults_n${n}.json"
  "${build_dir}/bench/bench_scenarios" ${smoke_args[@]+"${smoke_args[@]}"} "$@" \
      ${fault_extra[@]+"${fault_extra[@]}"} \
      --n="${n}" --git-rev="${git_rev}" --out="${fault_out}"
  fault_reports+=("${fault_out}")
done
# bench_graph_tier takes no --tail-rounds, so it gets its own smoke args
# and none of the forwarded positionals that could carry tail flags.
graph_tier_reports=()
for n in "${graph_tier_size_list[@]}"; do
  graph_tier_out="${out_dir}/graph_tier_n${n}.json"
  "${build_dir}/bench/bench_graph_tier" \
      ${graph_tier_smoke_args[@]+"${graph_tier_smoke_args[@]}"} \
      ${graph_tier_extra[@]+"${graph_tier_extra[@]}"} \
      --n="${n}" --git-rev="${git_rev}" --out="${graph_tier_out}"
  graph_tier_reports+=("${graph_tier_out}")
done
paper_out="${out_dir}/paper.json"
"${build_dir}/bench/bench_paper" ${paper_smoke_args[@]+"${paper_smoke_args[@]}"} \
    ${paper_extra[@]+"${paper_extra[@]}"} \
    --git-rev="${git_rev}" --out="${paper_out}"

emit_section() {  # $1 = section name, rest = report files
  local name="$1"; shift
  printf '  "%s": [\n' "${name}"
  local i=0
  for report in "$@"; do
    sed 's/^/    /' "${report}"
    i=$((i + 1))
    if (( i < $# )); then printf '    ,\n'; fi
  done
  printf '  ]'
}
{
  printf '{\n  "bench": "bench_core",\n  "git_rev": "%s",\n  "sizes": [%s],\n' \
    "${git_rev}" "${sizes_json}"
  emit_section frontier "${frontier_reports[@]}"
  printf ',\n'
  emit_section batch "${batch_reports[@]}"
  printf ',\n'
  emit_section shard "${shard_reports[@]}"
  printf ',\n'
  emit_section faults "${fault_reports[@]}"
  printf ',\n'
  emit_section graph_tier "${graph_tier_reports[@]}"
  printf ',\n'
  emit_section paper "${paper_out}"
  printf '\n}\n'
} > "${merged}"
echo "perf record written to ${merged}"
