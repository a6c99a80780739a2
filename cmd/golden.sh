#!/usr/bin/env bash
# golden.sh runs a fixed set of ptdump and numactl invocations and diffs
# each output against cmd/{ptdump,numactl}/testdata/<name>.golden. The
# outputs are deterministic, so any byte of difference is a behaviour
# change. It also checks that ptdump rejects a malformed -tiers string
# with exit status 1 and an error line, not a panic.
#
# Usage, from the repo root:
#
#	bash cmd/golden.sh           # compare
#	bash cmd/golden.sh -update   # rewrite the golden files
set -euo pipefail

update=0
[[ "${1:-}" == "-update" ]] && update=1

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/ptdump ./cmd/numactl

fail=0
check() {
	local tool=$1 name=$2
	shift 2
	local golden="cmd/$tool/testdata/$name.golden"
	if ((update)); then
		mkdir -p "cmd/$tool/testdata"
		"$bin/$tool" "$@" >"$golden"
		echo "wrote $golden"
	elif ! "$bin/$tool" "$@" | diff -u "$golden" -; then
		echo "FAIL: $tool $* differs from $golden" >&2
		fail=1
	fi
}

check ptdump default -interval 2000 -snapshots 2
check ptdump wm-gups-thp-replicate -scenario wm -workload GUPS -thp -interval 2000 -snapshots 2 -replicate
check ptdump tiers-ptnode -tiers cxl@0,nvm@1 -ptnode 4 -interval 2000 -snapshots 2
check ptdump geometry-victima -hardware victima -geometry
check ptdump geometry-x8664la57 -hardware x8664la57 -geometry
check ptdump faults-replicate -replicate -faults "poison-pt:r10:p0:n1;offline:r70:n2" -interval 2000 -snapshots 3

check numactl gups -ops 3000 GUPS
check numactl memcached-all-repl -all -ops 3000 -pgtablerepl all Memcached
check numactl btree-interleave-thp -interleave -thp -ops 3000 -r 0,2 BTree
check numactl xsbench-cpunode2 -all -cpunodebind 2 -ops 2000 XSBench

if ((!update)); then
	status=0
	out=$("$bin/ptdump" -tiers bogus 2>&1) || status=$?
	if ((status != 1)) || [[ -z "$out" ]] || grep -q panic <<<"$out"; then
		echo "FAIL: ptdump -tiers bogus: want exit 1 with an error line, got exit $status:" >&2
		echo "$out" >&2
		fail=1
	fi
fi
exit $fail
