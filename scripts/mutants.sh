#!/bin/sh
# Runs the committed mutants: each scripts/mutants/*.patch breaks one rule
# the code keeps, and a named test must catch it. A check proves itself by
# a mutant here; a test may be deleted only while every mutant is still
# caught without it.
#
#   scripts/mutants.sh               every scripts/mutants/*.patch
#   scripts/mutants.sh P.patch ...   those patches only
#
# A patch is a diff against the tree (git apply) behind a header:
#
#   # packages: ./internal/core              the packages to test
#   # run: ^TestWaitedRecordRecyclesOnce$    a go test -run pattern
#   # expect: handles                        text the failure must print
#   # from: <change>: release keeps live     the change that recorded it
#                                             and the mutation
#
# For each patch the script unpacks `git archive HEAD` (the committed tree,
# not the working tree) into a temp directory, applies the patch, and
# requires the mutated tree to compile and the named tests to fail printing
# the expected text. Once per distinct (packages, run) pair it runs the same
# tests on the unmutated tree, which must pass. It exits 1 if any patch does
# not apply, does not compile, survives, fails without the expected text, or
# names tests that fail unmutated. Every tree is unpacked at the same path,
# so the build cache serves the packages a patch does not touch.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- scripts/mutants/*.patch

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
git archive HEAD >"$tmp/head.tar"

# unpack replaces $tree with a fresh copy of HEAD.
unpack() {
	rm -rf "$tree"
	mkdir "$tree"
	tar -x -C "$tree" -f "$tmp/head.tar"
}

# field PATCH NAME prints the value of the header line "# NAME: value".
field() {
	sed -n "s/^# $2: //p" "$1" | head -n 1
}

bad=0
n=0
: >"$tmp/pairs"
for patch; do
	n=$((n + 1))
	name=$(basename "$patch" .patch)
	pkgs=$(field "$patch" packages)
	run=$(field "$patch" run)
	expect=$(field "$patch" expect)
	if [ -z "$pkgs" ] || [ -z "$run" ] || [ -z "$expect" ] || [ -z "$(field "$patch" from)" ]; then
		echo "FAIL $name: header needs packages, run, expect and from"
		bad=$((bad + 1))
		continue
	fi
	printf '%s\t%s\n' "$pkgs" "$run" >>"$tmp/pairs"
	unpack
	abs=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
	if ! (cd "$tree" && git apply "$abs") >"$tmp/out" 2>&1; then
		echo "FAIL $name: does not apply"
		sed 's/^/    /' "$tmp/out"
		bad=$((bad + 1))
		continue
	fi
	# shellcheck disable=SC2086 # pkgs is a list of packages
	if ! (cd "$tree" && go test -count=1 -run '^$' $pkgs) >"$tmp/out" 2>&1; then
		echo "FAIL $name: does not compile"
		head -n 15 "$tmp/out" | sed 's/^/    /'
		bad=$((bad + 1))
		continue
	fi
	# shellcheck disable=SC2086
	if (cd "$tree" && go test -count=1 -timeout 5m -run "$run" $pkgs) >"$tmp/out" 2>&1; then
		echo "FAIL $name: survived ($run in $pkgs passed)"
		bad=$((bad + 1))
		continue
	fi
	if ! grep -qF -- "$expect" "$tmp/out"; then
		echo "FAIL $name: caught, but the output lacks \"$expect\""
		head -n 15 "$tmp/out" | sed 's/^/    /'
		bad=$((bad + 1))
		continue
	fi
	echo "ok   $name"
done

# The named tests pass unmutated, so each catch is the mutant's.
unpack
sort -u "$tmp/pairs" | while IFS="$(printf '\t')" read -r pkgs run; do
	# shellcheck disable=SC2086
	if ! (cd "$tree" && go test -count=1 -timeout 5m -run "$run" $pkgs) >"$tmp/out" 2>&1; then
		echo "FAIL unmutated: $run in $pkgs fails"
		head -n 15 "$tmp/out" | sed 's/^/    /'
		echo x >>"$tmp/cleanfail"
	else
		echo "ok   unmutated: $run in $pkgs"
	fi
done
[ ! -e "$tmp/cleanfail" ] || bad=$((bad + $(wc -l <"$tmp/cleanfail")))

echo "$n mutants, $bad failures"
[ "$bad" -eq 0 ]
