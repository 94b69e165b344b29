#!/bin/sh
# flexsnoop_sim --trace-in with traces of another core count: a trace
# saved from barnes (32 cores) replayed on the mini machine (8 cores)
# must be rejected with exit status 1 and a message naming the file and
# both core counts, instead of aborting on runSimulation's assert.
#
# usage: trace_in_core_mismatch.sh PATH/TO/flexsnoop_sim
sim="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

"$sim" --workloads barnes --algorithms lazy --refs 20 --warmup 0 \
    --trace-out "$dir/barnes.trace" > /dev/null 2>&1 || exit 1
"$sim" --workloads mini --algorithms lazy \
    --trace-in "$dir/barnes.trace" > "$dir/out.txt" 2>&1
status=$?
cat "$dir/out.txt"
if [ "$status" -ne 1 ]; then
    echo "expected exit status 1, got $status"
    exit 1
fi
want="traces have 32 cores, but the planned mini machine has 8"
grep -qF "$dir/barnes.trace: $want" "$dir/out.txt"
