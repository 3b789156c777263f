#!/bin/sh
# In-process A/B of a parent commit against this tree.
#
# Usage: tools/ab/run.sh PARENT_REF WORKLOAD WORKDIR [PASSES] [SEED]
#
# Exports PARENT_REF with git archive into WORKDIR and builds its src/ and
# perfbench's library with their namespaces renamed (aoci -> aoci_parent,
# perfbench -> perfbench_parent). Builds this tree's beside it, links both
# into WORKDIR/ab, and runs the perfbench workload WORKLOAD (paper-grid,
# serve-shared or cache-churn) for PASSES passes (default 5) at SEED
# (default 1); Driver.cpp says what it prints. Later runs reuse WORKDIR's
# builds. Needs cmake, a C++20 compiler and git.
set -eu
if [ $# -lt 3 ]; then
  sed -n '4,12p' "$0" >&2
  exit 2
fi
REF=$1 WORKLOAD=$2 PASSES=${4:-5} SEED=${5:-1}
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
mkdir -p "$3"
WORK=$(cd "$3" && pwd)
PARENT=$WORK/parent-$(git -C "$ROOT" rev-parse --short "$REF")
FLAGS="-std=c++20 -O3 -DNDEBUG"

# build_side NAME TREE DEFINES: TREE's perfbench library and Side.cpp.
build_side() {
  cmake -S "$2/perfbench" -B "$WORK/build-$1" -DCMAKE_BUILD_TYPE=Release \
    "-DCMAKE_CXX_FLAGS=$3" > "$WORK/build-$1.log"
  cmake --build "$WORK/build-$1" --target perfbench_lib -j 4 \
    >> "$WORK/build-$1.log"
  c++ $FLAGS $3 -DAB_SIDE="$1Side" -I"$ROOT/tools/ab" -I"$2/src" \
    -I"$2/perfbench" -c "$ROOT/tools/ab/Side.cpp" -o "$WORK/side-$1.o"
}

if [ ! -d "$PARENT" ]; then
  mkdir "$PARENT.tmp"
  git -C "$ROOT" archive "$REF" | tar -x -C "$PARENT.tmp"
  mv "$PARENT.tmp" "$PARENT"
  rm -rf "$WORK/build-parent"
fi
build_side parent "$PARENT" "-Daoci=aoci_parent -Dperfbench=perfbench_parent"
build_side change "$ROOT" ""
c++ $FLAGS -c "$ROOT/tools/ab/Driver.cpp" -o "$WORK/driver.o"
c++ "$WORK/driver.o" "$WORK/side-parent.o" "$WORK/side-change.o" \
  -Wl,--start-group $(find "$WORK/build-parent" "$WORK/build-change" \
  -name '*.a') -Wl,--end-group -pthread -o "$WORK/ab"
exec "$WORK/ab" "$WORKLOAD" "$PASSES" "$SEED"
