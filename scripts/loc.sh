#!/bin/sh
# Size report for ROADMAP item 4 ("lines removed, flags removed"):
# non-test Go lines per internal/* and cmd/* package, flag definitions
# per command, and the store.Config field count. Run from anywhere.
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
