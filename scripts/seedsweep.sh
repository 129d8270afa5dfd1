#!/usr/bin/env bash
# Behaviour diff across seeds. Runs the three golden serializers
# (serializeRun, serializeFaultedRun, serializeRetrainDeferralRun) for
# seeds 1-40 on two revisions and prints, for each of the 120 runs,
# whether revision B's output is identical to A's, reordered (the same
# lines in another order), or changed, then the totals:
#
#   bash scripts/seedsweep.sh <rev-A> <rev-B>
#
# Run it from inside the repository. Each revision is exported with git
# archive into a temporary directory, and this tree's
# internal/experiments/seedsweep_test.go is copied in, so a revision
# that predates the test can be swept too. The script fails only if a
# side fails to build or run; a changed run is a finding to explain,
# not an error.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 <rev-A> <rev-B>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# sweep REV NAME: the sorted "sweep <scenario> <seed> <raw> <sorted>"
# lines of REV, in $tmp/NAME.txt.
sweep() {
	local dir=$tmp/$2
	mkdir -p "$dir"
	git -C "$root" archive "$1" | tar -x -C "$dir"
	cp "$root/internal/experiments/seedsweep_test.go" "$dir/internal/experiments/"
	if ! (cd "$dir" && go test -tags seedsweep -run '^TestSeedSweep$' -count=1 -v ./internal/experiments/) >"$dir.log" 2>&1; then
		cat "$dir.log" >&2
		echo "seedsweep: revision $1 failed to build or run" >&2
		exit 1
	fi
	grep '^sweep ' "$dir.log" | sort -k2,2 -k3,3n >"$tmp/$2.txt"
}

sweep "$1" a
sweep "$2" b
echo "seed sweep: $1 -> $2"
join -j1 <(awk '{print $2"/"$3, $4, $5}' "$tmp/a.txt" | sort) \
	<(awk '{print $2"/"$3, $4, $5}' "$tmp/b.txt" | sort) |
	sort -t/ -k1,1 -k2,2n |
	awk '{
		r = ($2 == $4) ? "identical" : ($3 == $5) ? "reordered" : "changed"
		n[r]++; total++
		printf "%-12s %s\n", $1, r
	}
	END {
		printf "identical %d, reordered %d, changed %d, of %d runs\n", n["identical"], n["reordered"], n["changed"], total
		if (total != 120) { print "seedsweep: expected 120 runs" > "/dev/stderr"; exit 1 }
	}'
