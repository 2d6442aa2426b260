#!/usr/bin/env bash
# Paired parent/head runs of one bench/ workload, the standing rule of every
# perf PR: N seeds, per seed one 18 s untraced run in each tree, the order
# flipped each seed; every run is printed, then per end-to-end metric the two
# medians, the relative change, the parent's interquartile range and in how
# many pairs head was better. It only calls bench/run.sh in the two trees.
#
#   scripts/bench-pairs.sh <parent checkout> <workload> <pairs> [first seed]
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 <parent checkout> <workload> <pairs> [first seed]" >&2; exit 2; }
parent=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
workload=$2 pairs=$3 first=${4:-1}
metrics="latency_ms_q1 throughput_per_s_q3 setup_s"

field() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1"; }

# one <tree> <side> <seed>: run the cell, print and record its last-line JSON.
rows=""
one() {
	local json
	json=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --seconds 18 --trace 0 2>/dev/null | tail -n 1) || true
	local row="$2 $3"
	for m in $metrics; do row+=" $(field "$json" "$m")"; done
	row+=" $(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' <<<"$json") $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$json")"
	echo "$workload $row"
	rows+="$row"$'\n'
}

echo "$workload: $pairs pairs, seeds $first..$((first + pairs - 1)), parent $(git -C "$parent" rev-parse --short HEAD) vs head $(git -C "$head" rev-parse --short HEAD)$(git -C "$head" diff --quiet HEAD || echo +dirty)"
echo "workload side seed $metrics correct failed"
for ((seed = first; seed < first + pairs; seed++)); do
	if ((seed % 2)); then
		one "$parent" parent "$seed"; one "$head" head "$seed"
	else
		one "$head" head "$seed"; one "$parent" parent "$seed"
	fi
done

# Quantiles by linear interpolation between order statistics; "better" is
# lower for every metric but throughput.
awk -v metrics="$metrics" -v workload="$workload" '
function quant(a, n, q,    h, lo) { h = (n - 1) * q + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function sorted(src, n, dst,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
NF > 0 && NF < 7 { bad++ }
NF >= 7 { for (k = 1; k <= 3; k++) v[$1, $2, k] = $(2 + k); seen[$2] = 1; if ($6 != "true" || $7 != 0) bad++ }
END {
	nm = split(metrics, name, " ")
	for (k = 1; k <= nm; k++) {
		n = 0; wins = 0
		for (s in seen) if ((("parent", s, k) in v) && (("head", s, k) in v)) {
			n++; p[n] = v["parent", s, k]; h[n] = v["head", s, k]
			if (name[k] ~ /throughput/ ? h[n] > p[n] : h[n] < p[n]) wins++
		}
		if (n == 0) { print workload, name[k], "no complete pair"; continue }
		sorted(p, n, ps); sorted(h, n, hs)
		pm = quant(ps, n, 0.5); hm = quant(hs, n, 0.5)
		printf "%s %s: parent median %.6g, head median %.6g (%+.1f %%), parent IQR %.4g, head better in %d/%d pairs\n", \
			workload, name[k], pm, hm, 100 * (hm - pm) / pm, quant(ps, n, 0.75) - quant(ps, n, 0.25), wins, n
	}
	if (bad) { printf "%s: %d run(s) incorrect, failed or missing\n", workload, bad; exit 1 }
}' <<<"$rows"
