#!/usr/bin/env bash
# Interleaved before/after benchmark of one workload: this checkout
# (head) against an earlier commit (base), run alternately on the same
# machine so that drift in the host's speed hits both sides alike.
#
#   make bench-compare W=convoy_2m PAIRS=10            # base HEAD~1
#   W=mixed_2m PAIRS=3 BASE=main SEED=11 bash scripts/bench_compare.sh
#
# Variables: W (workload, default convoy_2m), PAIRS (default 10),
# BASE (commit, default HEAD~1), SEED (seed of the first pair, default
# 1; pair i uses SEED+i-1 on both sides).
#
# BASE is checked out in a git worktree under .bench_build/. Each pair
# runs `bash bench/run.sh --workload $W --seed <seed> --trace 0` once in
# each tree, swapping which side goes first from pair to pair. The
# script then prints, for each end-to-end metric, how many pairs head
# won, and ends with `bench/run.sh -compare`, whose exit status it
# keeps: non-zero when any metric is worse than base beyond its bound.
# A run that fails its output checks stops the script. Too slow for
# `make ci` (2×PAIRS runs of about half a minute each, plus setup).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
W="${W:-convoy_2m}"
PAIRS="${PAIRS:-10}"
BASE="${BASE:-HEAD~1}"
SEED="${SEED:-1}"

work="$root/.bench_build/compare"
tree="$work/base"
mkdir -p "$work"
if [ -e "$tree" ]; then
	git worktree remove --force "$tree"
fi
git worktree add --detach "$tree" "$BASE" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
echo "# bench-compare: $W, $PAIRS pairs from seed $SEED, base $BASE ($(git rev-parse --short "$BASE")) vs this checkout"

# run <side> <pair> <seed>: one untraced run of $W in that side's tree.
run() {
	local dir="$root"
	if [ "$1" = base ]; then
		dir="$tree"
	fi
	(cd "$dir" && bash bench/run.sh --workload "$W" --seed "$3" --trace 0 \
		-out "$work/$1-$2.json" >"$work/$1-$2.log")
}

bases="" heads=""
for ((i = 1; i <= PAIRS; i++)); do
	seed=$((SEED + i - 1))
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		run "$side" "$i" "$seed"
	done
	echo "pair $i (seed $seed, $order) done"
	bases="${bases:+$bases,}$work/base-$i.json"
	heads="${heads:+$heads,}$work/head-$i.json"
done

# Pairs won by head on each lower-is-better end-to-end metric, read
# from the runs' `workload metric value ...` lines.
for m in primary_rel secondary_rel peak_mb setup_s; do
	won=0
	for ((i = 1; i <= PAIRS; i++)); do
		b=$(awk -v m="$m" '$2 == m { print $3 }' "$work/base-$i.log")
		h=$(awk -v m="$m" '$2 == m { print $3 }' "$work/head-$i.log")
		if awk -v b="$b" -v h="$h" 'BEGIN { exit !(h < b) }'; then
			won=$((won + 1))
		fi
	done
	echo "$W $m: head lower in $won of $PAIRS pairs"
done

bash bench/run.sh -compare "$bases" "$heads"
