#!/usr/bin/env bash
# The reachability ledger: builds every shipped program with coverage,
# runs a fixed list of shipped runs, and prints each function outside
# cmd/, examples/ and benchmark/ that none of them ran. DESIGN.md's
# "Reachability" section names the test or run that needs each one.
#
# It checks itself first: every flag a CLI's -h lists is passed by some
# run below or named in `undrivable`. Gates nothing; exits 1 only when a
# build, a run or that check fails.
#
#	bash scripts/reach.sh            # from anywhere; takes about a minute
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
cov=$work/cov bin=$work/bin
mkdir -p "$cov" "$bin"
export GOCOVERDIR=$cov
cd "$root"

clis=(sdso-game sdso-bench sdso-check sdso-node)
examples=(quickstart tankgame nbody whiteboard)
for c in "${clis[@]}"; do go build -cover -coverpkg=./... -o "$bin/$c" "./cmd/$c"; done
for e in "${examples[@]}"; do go build -cover -coverpkg=./... -o "$bin/$e" "./examples/$e"; done
(cd benchmark && go build -cover -coverpkg=sdso/... -o "$bin/benchmark" .)

# Flags no fixed run can drive. -join needs a game still in progress when
# the restarted node dials in, and a loopback mesh finishes in ~10 ms;
# the rejoin chaos tests drive its code (DESIGN.md, "Reachability").
declare -A undrivable=([sdso-node]="-join")
declare -A passed
run() { # run CLI ARGS...: runs one shipped run quietly, recording its flags
	local c=$1
	shift
	passed[$c]+=" $* "
	"$bin/$c" "$@" >"$work/out" 2>&1 || {
		echo "reach: $c $* failed:" >&2
		tail -20 "$work/out" >&2
		exit 1
	}
}

for c in "${clis[@]}"; do
	"$bin/$c" -h 2>&1 | grep -oE '^  -[a-z-]+' | tr -d ' ' >"$work/flags.$c" || true
done

# sdso-game: every protocol, and once with every display and game flag.
for p in BSYNC MSYNC MSYNC2 EC LRC CAUSAL CENTRAL; do
	run sdso-game -protocol "$p" -teams 4 -ticks 60
done
run sdso-game -protocol MSYNC2 -show -race=false -range 3 -seed 2 -teams 6 -ticks 40

# sdso-bench: every figure at one seed and a short horizon.
for f in 5 6 7 8 blocking datasize quorum delta interest shard resilience; do
	run sdso-bench -fig "$f" -seeds 1 -ticks 40
done
run sdso-bench -fig 5 -extensions -range 3 -workers 1 -seeds 1 -ticks 40 \
	-cpuprofile "$work/cpu.prof" -memprofile "$work/mem.prof"

# sdso-check: plain, with interest, and one schedule replayed.
run sdso-check -seed 7 -schedules 8 -ticks 40 -fault-every 4
run sdso-check -protocols BSYNC,MSYNC,MSYNC2 -interest -seed 7 -schedules 4 -ticks 40
run sdso-check -protocols QUORUM -quorum-f 1 -teams 3 -repro 9 -ticks 32 -v

# sdso-node: a 3-node loopback mesh, plain and with every resilience flag.
mesh() { # mesh BASEPORT FLAGS...
	local base=$1 peers=127.0.0.1:$1,127.0.0.1:$(($1 + 1)),127.0.0.1:$(($1 + 2)) pids=()
	shift
	for id in 1 2; do
		"$bin/sdso-node" -id $id -peers "$peers" "$@" >"$work/node$id" 2>&1 &
		pids+=($!)
	done
	run sdso-node -id 0 -peers "$peers" "$@"
	for p in "${pids[@]}"; do wait "$p" || { echo "reach: node mesh $* failed" >&2; exit 1; }; done
}
mesh 17811 -protocol MSYNC2 -ticks 60 -seed 3 -range 1 -race
mesh 17821 -protocol BSYNC -ticks 60 -reconnect -heartbeat 200ms -heartbeat-misses 3 \
	-sendq $((8 << 20)) -sendq-frames 4096 -grace 2s -incarnation 1

for e in "${examples[@]}"; do "$bin/$e" >"$work/out" 2>&1 || { echo "reach: example $e failed" >&2; exit 1; }; done
go test -cover -coverpkg=./... . -args -test.gocoverdir="$cov" >"$work/out" 2>&1 || {
	echo "reach: public-API tests failed" >&2
	tail -20 "$work/out" >&2
	exit 1
}
# The benchmark's children inherit GOCOVERDIR.
(cd benchmark && for t in 0 1; do
	"$bin/benchmark" -workload all -seconds 1 -trace $t >"$work/bench$t" 2>&1 || {
		echo "reach: benchmark -trace $t failed" >&2
		exit 1
	}
done)

# The self-check: a flag no run passes leaves its code out of the ledger.
bad=0
for c in "${clis[@]}"; do
	while read -r f; do
		[[ " ${passed[$c]} ${undrivable[$c]:-} " == *" $f"[\ =]* ]] && continue
		echo "reach: $c $f is passed by no run and not named undrivable" >&2
		bad=1
	done <"$work/flags.$c"
done
((bad == 0)) || exit 1

# cover -func resolves files in this module only, so the benchmark's own
# package lines go before it reads the profile.
go tool covdata textfmt -i="$cov" -o "$work/all.txt"
grep -v '^sdso/benchmark/' "$work/all.txt" >"$work/root.txt"
go tool cover -func="$work/root.txt" | grep -vE '^sdso/(cmd|examples)/' | grep -v '^total:' >"$work/func"
unreached=$(grep -cE '[[:space:]]0\.0%$' "$work/func" || true)
grep -E '[[:space:]]0\.0%$' "$work/func" | awk '{print $1, $2}' | sed 's|^sdso/||'
awk -F'[ ]' 'NR > 1 && $1 !~ /^sdso\/(cmd|examples|benchmark)\// {
	split($1, a, ":"); key = a[1] ":" a[2]; n[key] = $2; if ($3 > 0) hit[key] = 1
} END { for (k in n) { all += n[k]; if (!(k in hit)) dead += n[k] }
	printf "statements: %d of %d never ran (%.1f %%)\n", dead, all, 100 * dead / all }' "$work/all.txt"
echo "functions: $unreached of $(wc -l <"$work/func") never ran"
