#!/usr/bin/env bash
# Fails when an alternative of a `go test -run '...'` pattern in a workflow
# names no test of the packages on its line (go test -list). A test that is
# renamed or deleted would otherwise drop out of its CI step silently.
# Run from the repository root: bash .github/check-run-patterns.sh
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}
declare -A listed # package -> its tests, one a line
status=0
while IFS= read -r line; do
	pattern=${line#*-run \'}
	pattern=${pattern%%\'*}
	[[ $pattern == '^$' ]] && continue # a fuzz step runs no test on purpose
	pkgs=$(grep -oE '(^|[[:space:]])\./[^[:space:]]+' <<<"$line" | sed 's/^[[:space:]]*//' | tr '\n' ' ' || true)
	pkgs=${pkgs% }
	[[ -z $pkgs ]] && continue
	for pkg in $pkgs; do
		[[ -v listed[$pkg] ]] || listed[$pkg]=$(go test -list '.*' "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
	done
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		found=
		for pkg in $pkgs; do
			if grep -qE -- "${alt%%/*}" <<<"${listed[$pkg]}"; then
				found=1
			fi
		done
		if [[ -z $found ]]; then
			echo "$workflow: -run alternative '$alt' matches no test in $pkgs" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$workflow")
exit $status
