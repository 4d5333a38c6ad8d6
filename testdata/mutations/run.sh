#!/usr/bin/env bash
# Runs the mutation ledger. Each *.diff in this directory is a deliberate
# defect whose header lists, under "Must fail", a package and the tests in
# it that must catch the defect:
#
#	Must fail (go test -count=1):
#	  ./internal/noc      TestSpecOpenLoop TestArbitrationDigests
#
# For each diff the script copies the working tree (tracked and untracked
# files, ignored ones left out) to a temporary directory, applies the diff
# there and runs every listed test on its own. It fails when a diff no
# longer applies, when a mutant does not build, when a listed test does not
# exist (a rename), or when a listed test passes with the mutant in place
# (the mutant survived).
set -uo pipefail

root=$(git rev-parse --show-toplevel) || exit 1
cd "$root" || exit 1
timeout=10m
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failed=0
for d in "$root"/testdata/mutations/*.diff; do
	name=$(basename "$d" .diff)
	tree="$tmp/$name"
	mkdir "$tree"
	git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$tree"
	if ! (cd "$tree" && git apply "$d"); then
		echo "FAIL $name: the diff no longer applies"
		failed=1
		rm -rf "$tree"
		continue
	fi
	cases=$(awk '/^Must fail/ { on = 1; next } on && /^  / { print; next } { on = 0 }' "$d")
	if [ -z "$cases" ]; then
		echo "FAIL $name: the header names no test that must fail"
		failed=1
	fi
	while read -r pkg tests; do
		[ -n "$pkg" ] || continue
		for t in $tests; do
			out=$(cd "$tree" && go test -count=1 -timeout "$timeout" -run "^${t}\$" "$pkg" 2>&1)
			code=$?
			if grep -q '\[build failed\]\|\[setup failed\]' <<<"$out"; then
				echo "FAIL $name: $pkg does not build with the mutant"
				failed=1
			elif [ $code -eq 0 ] && grep -q '\[no tests to run\]' <<<"$out"; then
				echo "FAIL $name: $pkg has no test $t"
				failed=1
			elif [ $code -eq 0 ]; then
				echo "FAIL $name: survived $pkg $t"
				failed=1
			elif ! grep -q -- "--- FAIL: $t\b\|^panic: " <<<"$out"; then
				echo "FAIL $name: $pkg $t exited $code without failing a test"
				failed=1
			else
				echo "ok   $name: killed by $pkg $t"
			fi
		done
	done <<<"$cases"
	rm -rf "$tree"
done
exit $failed
