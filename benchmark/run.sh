#!/usr/bin/env bash
# The one command of the benchmark. Builds the harness offline (cargo if
# a registry answers, plain rustc against the in-repo stubs otherwise),
# then hands every argument to it. See benchmark/README.md.
#
#   bash benchmark/run.sh                                   # whole suite
#   bash benchmark/run.sh --seed 2 --quick --only bert_tcp_q4
#   bash benchmark/run.sh --check                           # suite twice, PASS/FAIL per bound
#   bash benchmark/run.sh --selftest                        # harness unit tests
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, JSON last line
set -euo pipefail

BENCH=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$BENCH")
cd "$ROOT"
[[ -f Cargo.toml && -d crates ]] || {
  echo "benchmark/run.sh: $ROOT is not the cgx repository (no Cargo.toml/crates): nothing to measure" >&2
  exit 2
}

T=${CARGO_TARGET_DIR:-benchmark/target}
BIN=$T/cgx-benchmark
SOURCES=(crates/*/src crates/*/Cargo.toml benchmark/src benchmark/Cargo.toml benchmark/run.sh)
[[ ! -d .verify/stubs ]] || SOURCES+=(.verify/stubs)
EDITION=$(sed -n 's/^edition = "\(.*\)"/\1/p' Cargo.toml | head -1)
RUSTC=(rustc --edition "${EDITION:-2021}" -C opt-level=3)

# Names under `[dependencies]` of a manifest, one per line.
deps_of() {
  awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$1"
}

declare -A DIR DONE
for m in crates/*/Cargo.toml; do
  DIR[$(sed -n 's/^name = "\(.*\)"/\1/p' "$m" | head -1)]=$(dirname "$m")
done

# Builds package $1 and, first, what its manifest depends on. A workspace
# crate comes from its directory; a third-party crate from its stub in
# .verify/stubs/; a name with neither is left for rustc to complain about
# if any source really uses it (no source uses `parking_lot`).
build_lib() {
  local name=$1 crate=${1//-/_} src dep
  local -a ext=()
  [[ -z ${DONE[$name]:-} ]] || return 0
  DONE[$name]=1
  if [[ -n ${DIR[$name]:-} ]]; then
    src=${DIR[$name]}/src/lib.rs
    for dep in $(deps_of "${DIR[$name]}/Cargo.toml"); do
      build_lib "$dep"
      [[ ! -f $LIB/lib${dep//-/_}.rlib ]] || ext+=(--extern "${dep//-/_}=$LIB/lib${dep//-/_}.rlib")
    done
  elif [[ -f .verify/stubs/$crate.rs ]]; then
    src=.verify/stubs/$crate.rs
  else
    return 0
  fi
  echo "  rustc $crate" >&2
  "${RUSTC[@]}" --cap-lints allow --crate-type rlib --crate-name "$crate" "$src" -L "$LIB" "${ext[@]}" -o "$LIB/lib$crate.rlib"
}

# Compiles benchmark/src/main.rs to $1 with extra rustc flags $2.. .
build_harness() {
  local out=$1 dep
  shift
  local -a ext=()
  for dep in $(deps_of benchmark/Cargo.toml); do
    build_lib "$dep"
    ext+=(--extern "${dep//-/_}=$LIB/lib${dep//-/_}.rlib")
  done
  "${RUSTC[@]}" "$@" --crate-name cgx_benchmark benchmark/src/main.rs -L "$LIB" "${ext[@]}" -o "$out"
}

build() {
  local start=$SECONDS path
  mkdir -p "$T"
  if cargo build --release --offline --manifest-path benchmark/Cargo.toml >"$T/cargo.log" 2>&1; then
    path=cargo
    cp "$T/release/cgx-benchmark" "$BIN"
  else
    echo "benchmark: cargo cannot resolve offline ($(grep -m1 '^error' "$T/cargo.log")); building with rustc + .verify/stubs" >&2
    path=rustc-stubs
    LIB=$T/rustc-stubs
    rm -rf "$LIB"
    mkdir -p "$LIB"
    build_harness "$BIN.new"
    mv "$BIN.new" "$BIN"
  fi
  printf 'build_path=%s\nbuild_s=%s\n' "$path" $((SECONDS - start)) >"$T/build_info"
}

if [[ ! -x $BIN || -n $(find "${SOURCES[@]}" -newer "$BIN" -print -quit) ]]; then
  build
fi

if [[ ${1:-} == --selftest ]]; then
  if grep -q '^build_path=cargo' "$T/build_info"; then
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml
  fi
  LIB=$T/rustc-stubs
  for dep in $(deps_of benchmark/Cargo.toml); do DONE[$dep]=1; done # rlibs are fresh: built above or unchanged since
  build_harness "$T/cgx-benchmark-tests" --test
  exec "$T/cgx-benchmark-tests"
fi

exec "$BIN" "$@"
