#!/bin/sh
# flexsnoop_sim --trace-out with several workloads: each workload's
# traces go to their own file, "_<workload>" inserted before the
# extension, and replaying each file with --trace-in under its own
# workload prints the same result row as the fresh run.
#
# usage: trace_out_per_workload.sh PATH/TO/flexsnoop_sim
sim="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

"$sim" --workloads mini,specweb --algorithms lazy --refs 300 --warmup 50 \
    --trace-out "$dir/sweep.trace" > "$dir/fresh.txt" 2>&1 || {
    cat "$dir/fresh.txt"
    exit 1
}
status=0
for w in mini specweb; do
    file="$dir/sweep_$w.trace"
    if [ ! -s "$file" ]; then
        echo "no trace file for $w: expected $file"
        ls "$dir"
        exit 1
    fi
    "$sim" --workloads "$w" --algorithms lazy --trace-in "$file" \
        > "$dir/replay_$w.txt" 2>&1 || {
        cat "$dir/replay_$w.txt"
        exit 1
    }
    fresh=$(grep "^$w " "$dir/fresh.txt")
    replay=$(grep "^$w " "$dir/replay_$w.txt")
    if [ -z "$fresh" ] || [ "$fresh" != "$replay" ]; then
        echo "$w: replayed row differs from the fresh run"
        echo "  fresh:  $fresh"
        echo "  replay: $replay"
        status=1
    fi
done
if [ -e "$dir/sweep.trace" ]; then
    echo "unexpected unsuffixed $dir/sweep.trace"
    status=1
fi
exit $status
