#!/usr/bin/env bash
# Runs the benchmark of record in alternating pairs, a parent commit against
# the working tree, and prints one table row per end-to-end metric that
# BENCHMARK.json names. Run from the repository root:
#
#   scripts/perf-pairs.sh [--smoke] PARENT WORKLOAD SEED...
#
# PARENT is any commit git can name; it is exported with `git archive` under
# .bench_build/pairs/. For each seed, `perfbench/run.sh --workload WORKLOAD
# --seed SEED --seconds 35 --trace 0` runs once in the parent tree and once
# in the working tree, the parent first on odd seeds. Each row reads: parent
# median (q1–q3), change median (q1–q3), change/parent, the parent's spread
# (q3−q1)/median, and the pairs in which the change was better. The raw
# result lines and logs stay in .bench_build/pairs/.
#
# --smoke runs perfbench's tiny inputs for one second per run, which checks
# the script, not the code. The script exits non-zero when a run is
# incorrect or prints no result.
set -euo pipefail

seconds=35
smoke=()
if [[ ${1:-} == --smoke ]]; then
	seconds=1
	smoke=(--smoke)
	shift
fi
if (($# < 3)); then
	echo "usage: scripts/perf-pairs.sh [--smoke] PARENT WORKLOAD SEED..." >&2
	exit 2
fi
parent=$1
workload=$2
shift 2
seeds=("$@")

root=$(pwd)
if [[ ! -f $root/BENCHMARK.json || ! -f $root/perfbench/run.sh ]]; then
	echo "perf-pairs: run from the repository root" >&2
	exit 2
fi
sha=$(git rev-parse --verify --quiet "$parent^{commit}") || {
	echo "perf-pairs: unknown commit $parent" >&2
	exit 2
}
out=$root/.bench_build/pairs
tree=$out/parent-$sha
if [[ ! -d $tree ]]; then
	rm -rf "$tree.tmp"
	mkdir -p "$tree.tmp"
	git archive "$sha" | tar -x -C "$tree.tmp"
	mv "$tree.tmp" "$tree"
fi

# run DIR SIDE SEED runs perfbench once in DIR and keeps its result line in
# $out/WORKLOAD-SEED-SIDE.json; a missing or incorrect result is fatal.
run() {
	local dir=$1 side=$2 seed=$3
	local res=$out/$workload-$seed-$side.json
	echo "perf-pairs: $workload seed $seed $side" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 "${smoke[@]}") >"$res.out" 2>"$res.log" || true
	tail -n 1 "$res.out" >"$res"
	if ! jq -e '.correct == true' "$res" >/dev/null 2>&1; then
		echo "perf-pairs: $workload seed $seed $side: no correct result (see $res.log)" >&2
		exit 1
	fi
}

for seed in "${seeds[@]}"; do
	if ((seed % 2)); then
		run "$tree" parent "$seed"
		run "$root" change "$seed"
	else
		run "$root" change "$seed"
		run "$tree" parent "$seed"
	fi
done

echo "$workload, seeds ${seeds[*]}: parent ${sha:0:12}, change = working tree"
echo "| metric | parent | change | change/parent | parent spread | change better |"
echo "|---|---|---|---|---|---|"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" |
	while read -r name better; do
		for seed in "${seeds[@]}"; do
			p=$(jq -r --arg m "$name" '.metrics[$m].value // empty' "$out/$workload-$seed-parent.json")
			c=$(jq -r --arg m "$name" '.metrics[$m].value // empty' "$out/$workload-$seed-change.json")
			if [[ -n $p && -n $c ]]; then
				echo "$p $c"
			fi
		done | awk -v name="$name" -v better="$better" '
			# quart returns the q-quantile of the sorted array v[1..n],
			# interpolating linearly between order statistics.
			function quart(v, n, q,   h, i) {
				h = (n - 1) * q + 1
				i = int(h)
				return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
			}
			function isort(v, n,   i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
						t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
					}
			}
			{
				n++
				p[n] = $1; c[n] = $2
				if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1))
					won++
			}
			END {
				if (n == 0) exit
				isort(p, n); isort(c, n)
				pm = quart(p, n, 0.5); cm = quart(c, n, 0.5)
				printf "| `%s` | %.5g (%.5g–%.5g) | %.5g (%.5g–%.5g) | %s | %s | %d/%d |\n",
					name, pm, quart(p, n, 0.25), quart(p, n, 0.75),
					cm, quart(c, n, 0.25), quart(c, n, 0.75),
					pm == 0 ? "n/a" : sprintf("%.3f", cm / pm),
					pm == 0 ? "n/a" : sprintf("%.3f", (quart(p, n, 0.75) - quart(p, n, 0.25)) / pm),
					won, n
			}'
	done
