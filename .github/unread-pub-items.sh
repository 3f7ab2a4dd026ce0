#!/usr/bin/env bash
# Sweep for public items that only tests read.
#
# Every `pub fn|struct|enum|trait|type|const NAME` in the non-test code
# of `crates/*/src` must be named by non-test code somewhere in
# `crates/*/src`, `crates/*/benches`, `src`, `examples` or
# `benchmark/src` (the `figures` and micro-bench binaries live under
# `crates/bench/src/bin`). The item's own definition line, `use` items
# and comments do not count as naming it. Non-test code is each file
# cut at its first `#[cfg(test)]`, which CI keeps directly above
# `mod tests`.
#
# Names are matched as whole identifiers, not resolved: a name that
# another item shares (`new`, `len`, …) counts as read whichever item
# the reader means, and an item's own `impl` block or body names it
# too, so a shared name can hide a dead item — but it never fails the
# sweep.
#
# Exceptions are listed in `unread-pub-items.allow` beside this file,
# one name per line followed by its reason; a listed name that no
# longer names a public item fails the sweep too. The script prints
# every finding and exits 1 if there is one, 0 otherwise.
#
# Run from anywhere: `.github/unread-pub-items.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Non-test code with comments and `use` items dropped. A definition
# line loses the name it defines (printed to `defs` when the file is a
# library source) but keeps the types it names.
# shellcheck disable=SC2016
strip='
FNR == 1 { cut = 0; in_use = 0; lib = (FILENAME ~ /^crates\/[^\/]+\/src\//) }
cut { next }
/#\[cfg\(test\)\]/ { cut = 1; next }
/^[ \t]*\/\// { next }
in_use { if ($0 ~ /;/) in_use = 0; next }
/^[ \t]*(pub(\([a-z]+\))? )?use / { if ($0 !~ /;/) in_use = 1; next }
{
  sub(/[ \t]\/\/ .*$/, "")
  if (match($0, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/)) {
    def = substr($0, RSTART, RLENGTH)
    name = def
    sub(/.* /, "", name)
    if (lib) print FILENAME ":" FNR ": " name > defs
    $0 = substr($0, 1, RSTART + RLENGTH - 1 - length(name)) substr($0, RSTART + RLENGTH)
  }
  print
}'

find crates/*/src crates/*/benches src examples benchmark/src -name '*.rs' 2>/dev/null | sort |
  xargs awk -v defs="$scratch/defs" "$strip" |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$scratch/read"
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' .github/unread-pub-items.allow | awk '{ print $1 }' | sort -u >"$scratch/allowed"

status=0
while IFS= read -r line; do
  name=${line##* }
  if ! grep -qxF "$name" "$scratch/read" && ! grep -qxF "$name" "$scratch/allowed"; then
    echo "unread outside tests: $line"
    status=1
  fi
done <"$scratch/defs"
sed 's/.* //' "$scratch/defs" | sort -u >"$scratch/defined"
for name in $(comm -23 "$scratch/allowed" "$scratch/defined"); do
  echo "allowlisted but not a public item: $name"
  status=1
done
exit $status
