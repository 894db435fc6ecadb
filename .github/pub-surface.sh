#!/usr/bin/env bash
# Every `pub` name of a library crate is named by some file outside that
# crate: another crate's sources or tests, a binary (the crate's own
# included), benchmark/src, the root package's src/, tests/ or examples/.
# The crate's own tests/ and in-file test modules are not callers. It
# matches by name, outside comments, so an item whose name is common stays
# unseen; rustc's dead_code lint takes over once an item is pub(crate).
#
#   bash .github/pub-surface.sh     # prints each unnamed item, exits 1 on any
set -euo pipefail
cd "$(dirname "$0")/.."

# Names kept `pub` though no file outside names them: "crate name  reason".
# A type that a kept signature exposes stays public (rustc's
# private_interfaces lint); so do two fields that struct-update syntax
# needs, and two items that only tests reach but that stay on purpose.
allow='
cgx-adaptive PlanRecord            field PlanUpdate::record
cgx-adaptive KMeansResult          returned by kmeans
cgx-bench AdaptiveOutcome          returned by adaptive_compression_for
cgx-bench AdaptationEpoch          field SessionReport::epochs
cgx-bench Cgx                      returned by CgxBuilder::build
cgx-bench CloudOffer               taken by cost_efficiency, returned by table4_offers
cgx-bench CostEfficiency           returned by cost_efficiency
cgx-bench Estimate                 returned by estimate and estimate_fp32
cgx-bench RegisteredLayer          returned by Cgx::layers
cgx-bench SessionReport            returned by simulate_adaptive_session
cgx-collectives Handle             returned by CommEngine::submit
cgx-engine PerLayerMismatch        returned by LayerCompression::validate
cgx-engine TrainReport             returned by train_data_parallel and train_local_sgd
cgx-engine TrainableModel          bound of train_rank and local_sgd_rank
cgx-engine momentum                TrainConfig is built as { .., ..TrainConfig::new(..) }, which needs every field public
cgx-engine accumulation            as momentum
cgx-net ClusterReport              returned by ProcessCluster::run_supervised
cgx-net RankExit                   field ClusterReport::exits
cgx-net WireStats                  returned by TcpTransport::wire_stats
cgx-net run_reference_shm          the shm reference oracle the launch and adaptive parity tests compare against
cgx-obs MetricValue                field MetricsSnapshot::values
cgx-serve ServeError               returned by ServeNode::attach
cgx-serve sent_bytes               read by the qos_properties fairness test
cgx-simnet GpuSpec                 returned by GpuModel::spec
cgx-simnet LinkKind                field Link::kind
cgx-simnet RunStats                returned by des::run
cgx-simnet TraceEvent              returned by simulate_step_traced
'

# `pub` items, fields and re-exported names of the files given, outside
# `#[cfg(test)]` items and modules, as "file:line name".
pub_names() {
  awk '
    FNR == 1 { skip = 0; pending = 0; stmt = "" }
    skip { if ($0 ~ "^" indent "}") skip = 0; next }
    /^ *#\[cfg\(test\)\]/ { pending = 1; match($0, /^ */); indent = substr($0, 1, RLENGTH); next }
    pending && /^ *#\[/ { next }
    pending {
      pending = 0
      if ($0 ~ /^ *(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/) skip = 1
      next
    }
    stmt != "" || /^ *pub use / {
      stmt = stmt " " $0
      if (stmt !~ /;/) next
      sub(/^ *pub use /, "", stmt); gsub(/[{};,]/, " ", stmt)
      n = split(stmt, w, /[ \t]+/)
      for (i = 1; i <= n; i++) {
        if (w[i] == "" || w[i] == "as") continue
        if (w[i + 1] == "as") continue
        k = split(w[i], seg, "::"); if (seg[k] != "" && seg[k] != "self") print FILENAME ":" FNR " " seg[k]
      }
      stmt = ""; next
    }
    match($0, /^ *pub (const |unsafe |async |extern "C" )*(fn|struct|enum|trait|type|const|static|mod|union) [A-Za-z_][A-Za-z0-9_]*/) {
      s = substr($0, RSTART, RLENGTH); sub(/.* /, "", s); print FILENAME ":" FNR " " s; next
    }
    match($0, /^ *pub [a-z_][a-z0-9_]* *:/) {
      s = substr($0, RSTART, RLENGTH); sub(/^ *pub /, "", s); sub(/ *:$/, "", s); print FILENAME ":" FNR " " s
    }
  ' "$@"
}

status=0
for dir in crates/*/; do
  crate=${dir%/}
  [ -f "$crate/src/lib.rs" ] || continue
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$crate/Cargo.toml" | head -1)
  lib_files=$(find "$crate/src" -name '*.rs' -not -path "$crate/src/bin/*" | sort)
  outside=$( (find crates src tests examples benchmark/src -name '*.rs' \
      -not -path "$crate/src/*" -not -path "$crate/tests/*" -not -path '*/target/*'
    find "$crate/src/bin" -name '*.rs' 2>/dev/null || true) | sort)
  named=$(sed 's://.*$::' $outside | grep -ow '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
  allowed=$(printf '%s\n' "$allow" | awk -v c="$name" '$1 == c { print $2 }')
  while read -r at item; do
    [ -n "$item" ] || continue
    if ! grep -qxF "$item" <<<"$named" && ! grep -qxF "$item" <<<"$allowed"; then
      echo "$at: \`pub $item\` is named by no file outside $name"
      status=1
    fi
  done < <(pub_names $lib_files)
done
exit $status
