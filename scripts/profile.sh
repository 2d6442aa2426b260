#!/usr/bin/env bash
# CPU profile of one bench/ workload, summarised as the before/after table a
# perf change quotes: one 10 s untraced run under -cpuprofile, then
#   - CPU use: sampled CPU time over the profile's wall time;
#   - where the samples ran: under tensor.ParallelRows workers (the kernels'
#     row goroutines), on rank or main goroutines (everything else a
#     workload calls, serial by construction), or in the runtime's own
#     background work (GC mark workers and the rest with no caller in the
#     program);
#   - the top 8 functions by flat samples.
# It only calls bench/run.sh of its own tree; the profile is kept in
# .profile/ at the checkout root for `go tool pprof`.
#
#   scripts/profile.sh <workload> [seed]
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <workload> [seed]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
workload=$1 seed=${2:-1}
mkdir -p "$root/.profile"
prof="$root/.profile/$workload-seed$seed.pprof"
bash "$root/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 -cpuprofile "$prof" >/dev/null
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
top=$(go tool pprof -top -nodecount=8 "$prof" 2>/dev/null)

echo "$workload seed $seed, profile $prof"
sed -n 's/^Duration: \([^,]*\), Total samples = \([^ ]*\) (\([^)]*\)).*/CPU use \3 (\2 sampled over \1)/p' <<<"$top"
# -traces prints one block per distinct stack: its sampled time on the first
# line, then the frames, leaf first; a dashed line closes the block.
go tool pprof -traces "$prof" 2>/dev/null | awk '
function ms(v) { if (v ~ /ms$/) return v + 0; if (v ~ /us$/) return v / 1000; if (v ~ /ns$/) return v / 1e6; return v * 1000 }
/^-+\+-+$/ { flush(); next }
NF >= 2 && $1 ~ /^[0-9.]+(ns|us|ms|s)$/ { flush(); v = ms($1); frames = $2; next }
v > 0 { frames = frames " " $1 }
function flush() {
	if (v <= 0) return
	if (frames ~ /tensor\.ParallelRows\.func/) w += v
	else if (frames ~ /llama4d\/|main\./) r += v
	else b += v
	v = 0; frames = ""
}
END {
	flush(); t = w + r + b
	if (t == 0) { print "no samples"; exit 1 }
	printf "samples: ParallelRows workers %.2f s (%.1f %%), rank/main goroutines %.2f s (%.1f %%), runtime background %.2f s (%.1f %%)\n", \
		w / 1000, 100 * w / t, r / 1000, 100 * r / t, b / 1000, 100 * b / t
}'
echo "top 8 by flat samples:"
awk '/^ *flat  *flat%/ { on = 1 } on' <<<"$top"
