#!/usr/bin/env sh
# Fails if a library translation unit reaches no shipped binary.
#
#   tools/check_dead_units.sh <build-dir>
#
# For each member of <build-dir>/src/*/libsce_*.a, collects its strong
# global definitions (nm types T, D, B, R) and requires at least one of
# them to be defined in some executable under <build-dir>/bench,
# <build-dir>/tools or <build-dir>/examples.  The libraries are static
# archives, so a member no executable defines a symbol of was never
# linked: its only users are tests.  The archives are read instead of
# the loose objects because an incremental tree keeps the objects of
# deleted sources; CMake rewrites an archive from scratch.
#
# A member listed in KEEP below is exempt, each with its reason.
set -eu
export LC_ALL=C

BUILD_DIR="${1:?usage: $0 <build-dir>}"

KEEP='
libsce_nn.a(avgpool.cpp.o) AvgPool2D: a layer with pinned ContractFixtures rows whose pooling kernels register at static init in every binary, so deleting it waits for layout-independent addresses (ROADMAP item 1)
libsce_nn.a(dropout.cpp.o) Dropout: a layer with pinned ContractFixtures rows; waits with AvgPool2D
libsce_uarch.a(trace.cpp.o) TeeSink: the virtual-path reference that MachineDispatch and CrossModel compare against
'

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for exe in "$BUILD_DIR"/bench/* "$BUILD_DIR"/tools/* "$BUILD_DIR"/examples/*; do
  [ -f "$exe" ] && [ -x "$exe" ] || continue
  nm --defined-only -g "$exe" | awk '$2 ~ /^[TDBR]$/ { print $3 }'
done | sort -u > "$work/linked"
if [ ! -s "$work/linked" ]; then
  echo "check_dead_units: no executables under $BUILD_DIR" >&2
  exit 1
fi

# One "archive(member) symbol" line per strong definition.
for lib in "$BUILD_DIR"/src/*/libsce_*.a; do
  nm -A --defined-only -g "$lib" |
    awk -v lib="$lib" -v name="$(basename "$lib")" '$2 ~ /^[TDBR]$/ {
      sub(/:[0-9a-f]+$/, "", $1)
      print name "(" substr($1, length(lib) + 2) ") " $3
    }'
done | sort -k2,2 > "$work/defined"

cut -d' ' -f1 "$work/defined" | sort -u > "$work/members"
if [ ! -s "$work/members" ]; then
  echo "check_dead_units: no library archives under $BUILD_DIR/src" >&2
  exit 1
fi
join -1 2 -2 1 -o 1.1 "$work/defined" "$work/linked" | sort -u > "$work/live"
comm -23 "$work/members" "$work/live" > "$work/dead"

status=0
while read -r member; do
  reason="$(printf '%s\n' "$KEEP" |
    awk -v m="$member" '$1 == m { sub(/^[^ ]+ /, ""); print }')"
  if [ -n "$reason" ]; then
    echo "check_dead_units: $member is linked into no binary; kept: $reason"
  else
    echo "check_dead_units: $member is linked into no binary" >&2
    status=1
  fi
done < "$work/dead"
exit "$status"
