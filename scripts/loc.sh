#!/bin/sh
# Size report for ROADMAP item 4 ("lines removed, flags removed"):
# non-test Go lines per internal/* and cmd/* package, flag definitions
# per command, the store.Config field count, and the `map[` declarations
# per file in the packages one simulated access runs through (a map
# there costs a hash and a probe per access; the ones left are reached
# per page fault or per report). Run from anywhere.
cd "$(dirname "$0")/.." || exit 1
echo "non-test Go lines per package:"
find internal cmd -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u | while read -r d; do
	printf '  %6d  %s\n' "$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$d"
done
echo "flag definitions per command:"
for d in cmd/*/; do
	printf '  %6d  %s\n' "$(cat "$d"*.go | grep -c 'flag\.[A-Z][A-Za-z0-9]*("')" "${d%/}"
done
printf 'store.Config fields: %d\n' "$(sed -n '/^type Config struct {/,/^}/p' internal/store/store.go |
	grep -cE '^	[A-Z][A-Za-z]* +[^ ]')"
echo "map[ declarations in the simulator's per-access packages (none may be reached per access):"
for f in internal/mee/mee.go internal/mee/wqueue.go internal/mee/epoch.go internal/mee/readview.go \
	$(find internal/cache internal/cpu internal/sim internal/kernel -name '*.go' ! -name '*_test.go' | sort); do
	printf '  %6d  %s\n' "$(grep -v '^[[:space:]]*//' "$f" | grep -c 'map\[')" "$f"
done
