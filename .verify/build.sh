#!/bin/bash
# Offline verification: compile the workspace crates against stub bytes /
# crossbeam rlibs with plain rustc (the container cannot reach a cargo
# registry). Usage: bash .verify/build.sh
set -euo pipefail
cd "$(dirname "$0")/.."
V=.verify
L=$V/lib
mkdir -p "$L"
RUSTC="rustc --edition 2021 -O -L $L"

echo "== stubs"
$RUSTC --crate-type rlib --crate-name bytes $V/stubs/bytes.rs -o "$L/libbytes.rlib" -A dead_code
$RUSTC --crate-type rlib --crate-name crossbeam $V/stubs/crossbeam.rs -o "$L/libcrossbeam.rlib" -A dead_code
rustc --edition 2021 --crate-type proc-macro --crate-name serde_derive $V/stubs/serde_derive.rs \
  -o "$L/libserde_derive.so" -A dead_code
$RUSTC --crate-type rlib --crate-name serde $V/stubs/serde.rs \
  --extern serde_derive="$L/libserde_derive.so" -o "$L/libserde.rlib" -A dead_code
$RUSTC --crate-type rlib --crate-name criterion $V/stubs/criterion.rs \
  -o "$L/libcriterion.rlib" -A dead_code
$RUSTC --crate-type rlib --crate-name proptest $V/stubs/proptest.rs \
  -o "$L/libproptest.rlib" -A dead_code

echo "== cgx_tensor"
$RUSTC --crate-type rlib --crate-name cgx_tensor crates/tensor/src/lib.rs -o "$L/libcgx_tensor.rlib"

echo "== cgx_obs"
$RUSTC --crate-type rlib --crate-name cgx_obs crates/obs/src/lib.rs -o "$L/libcgx_obs.rlib"

echo "== cgx_compress"
$RUSTC --crate-type rlib --crate-name cgx_compress crates/compress/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$L/libcgx_compress.rlib"

echo "== cgx_collectives"
$RUSTC --crate-type rlib --crate-name cgx_collectives crates/collectives/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" --extern crossbeam="$L/libcrossbeam.rlib" \
  -o "$L/libcgx_collectives.rlib"

echo "== cgx_models"
$RUSTC --crate-type rlib --crate-name cgx_models crates/models/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" -o "$L/libcgx_models.rlib"

echo "== cgx_simnet"
$RUSTC --crate-type rlib --crate-name cgx_simnet crates/simnet/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern serde="$L/libserde.rlib" \
  -o "$L/libcgx_simnet.rlib"

echo "== cgx_adaptive"
$RUSTC --crate-type rlib --crate-name cgx_adaptive crates/adaptive/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" \
  -o "$L/libcgx_adaptive.rlib"

echo "== cgx_engine"
$RUSTC --crate-type rlib --crate-name cgx_engine crates/engine/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" --extern cgx_adaptive="$L/libcgx_adaptive.rlib" \
  -o "$L/libcgx_engine.rlib"

echo "== cgx_core"
$RUSTC --crate-type rlib --crate-name cgx_core crates/core/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_simnet="$L/libcgx_simnet.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_adaptive="$L/libcgx_adaptive.rlib" \
  -o "$L/libcgx_core.rlib"

echo "== cgx_net"
$RUSTC --crate-type rlib --crate-name cgx_net crates/net/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$L/libcgx_net.rlib"

echo "== cgx_qnccl"
$RUSTC --crate-type rlib --crate-name cgx_qnccl crates/qnccl/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$L/libcgx_qnccl.rlib"

echo "== cgx_serve"
$RUSTC --crate-type rlib --crate-name cgx_serve crates/serve/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$L/libcgx_serve.rlib"

echo "== unit test binaries"
$RUSTC --test --crate-name cgx_tensor_tests crates/tensor/src/lib.rs \
  -o "$V/test_tensor"
$RUSTC --test --crate-name cgx_obs_tests crates/obs/src/lib.rs \
  -o "$V/test_obs"
$RUSTC --test --crate-name cgx_compress_tests crates/compress/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$V/test_compress"
$RUSTC --test --crate-name cgx_collectives_tests crates/collectives/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" --extern crossbeam="$L/libcrossbeam.rlib" \
  -o "$V/test_collectives"
$RUSTC --test --crate-name cgx_qnccl_tests crates/qnccl/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$V/test_qnccl"
$RUSTC --test --crate-name cgx_adaptive_tests crates/adaptive/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" \
  -o "$V/test_adaptive"
$RUSTC --test --crate-name cgx_engine_tests crates/engine/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" --extern cgx_adaptive="$L/libcgx_adaptive.rlib" \
  -o "$V/test_engine"
$RUSTC --test --crate-name fused_training crates/qnccl/tests/fused_training.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_qnccl="$L/libcgx_qnccl.rlib" \
  --extern cgx_engine="$L/libcgx_engine.rlib" \
  -o "$V/test_fused_training"
$RUSTC --test --crate-name engine_stress crates/collectives/tests/engine_stress.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$V/test_engine_stress"
$RUSTC --test --crate-name chaos crates/collectives/tests/chaos.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$V/test_chaos"
$RUSTC --test --crate-name obs_properties crates/collectives/tests/obs_properties.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_obs="$L/libcgx_obs.rlib" \
  -o "$V/test_obs_properties"
$RUSTC --test --crate-name cgx_net_tests crates/net/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$V/test_net"
$RUSTC --test --crate-name transport_conformance crates/collectives/tests/transport_conformance.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$V/test_transport_conformance"
$RUSTC --test --crate-name tcp_conformance crates/net/tests/tcp_conformance.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/test_tcp_conformance"
$RUSTC --test --crate-name launch_parity crates/net/tests/launch_parity.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/test_launch_parity"
$RUSTC --test --crate-name net_chaos crates/net/tests/net_chaos.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/test_net_chaos"
$RUSTC --test --crate-name net_backoff_properties crates/net/tests/backoff_properties.rs \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern proptest="$L/libproptest.rlib" \
  -o "$V/test_net_backoff_properties"
$RUSTC --test --crate-name adaptive_parity crates/net/tests/adaptive_parity.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/test_adaptive_parity"
$RUSTC --test --crate-name budget_properties crates/adaptive/tests/budget_properties.rs \
  --extern cgx_adaptive="$L/libcgx_adaptive.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern proptest="$L/libproptest.rlib" \
  -o "$V/test_budget_properties"
$RUSTC --test --crate-name cgx_serve_tests crates/serve/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_obs="$L/libcgx_obs.rlib" \
  --extern bytes="$L/libbytes.rlib" \
  -o "$V/test_serve"
$RUSTC --test --crate-name serve_conformance crates/serve/tests/serve_conformance.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  --extern cgx_serve="$L/libcgx_serve.rlib" --extern bytes="$L/libbytes.rlib" \
  -o "$V/test_serve_conformance"
$RUSTC --test --crate-name qos_properties crates/serve/tests/qos_properties.rs \
  --extern cgx_serve="$L/libcgx_serve.rlib" --extern proptest="$L/libproptest.rlib" \
  -o "$V/test_qos_properties"
$RUSTC --test --crate-name tenancy crates/serve/tests/tenancy.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  --extern cgx_engine="$L/libcgx_engine.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_serve="$L/libcgx_serve.rlib" --extern bytes="$L/libbytes.rlib" \
  -o "$V/test_tenancy"

$RUSTC --test --crate-name cgx_simnet_tests crates/simnet/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern serde="$L/libserde.rlib" \
  -o "$V/test_simnet"
$RUSTC --test --crate-name cgx_core_tests crates/core/src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_simnet="$L/libcgx_simnet.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_adaptive="$L/libcgx_adaptive.rlib" \
  -o "$V/test_core"
$RUSTC --test --crate-name recommend crates/core/tests/recommend.rs \
  --extern cgx_core="$L/libcgx_core.rlib" --extern cgx_simnet="$L/libcgx_simnet.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" \
  -o "$V/test_recommend"
$RUSTC --crate-type rlib --crate-name cgx src/lib.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_simnet="$L/libcgx_simnet.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_adaptive="$L/libcgx_adaptive.rlib" --extern cgx_core="$L/libcgx_core.rlib" \
  --extern cgx_qnccl="$L/libcgx_qnccl.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" --extern cgx_serve="$L/libcgx_serve.rlib" \
  -o "$L/libcgx.rlib"
$RUSTC --test --crate-name simnet_properties tests/simnet_properties.rs \
  --extern cgx="$L/libcgx.rlib" --extern proptest="$L/libproptest.rlib" \
  -o "$V/test_simnet_properties"

echo "== pipeline_report bin"
$RUSTC --crate-name pipeline_report crates/bench/src/bin/pipeline_report.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  -o "$V/pipeline_report"

echo "== chaos_report bin"
$RUSTC --crate-type rlib --crate-name cgx_bench crates/bench/src/lib.rs -o "$L/libcgx_bench.rlib"
$RUSTC --crate-name chaos_report crates/bench/src/bin/chaos_report.rs \
  --extern cgx_bench="$L/libcgx_bench.rlib" --extern cgx_tensor="$L/libcgx_tensor.rlib" \
  --extern cgx_compress="$L/libcgx_compress.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  -o "$V/chaos_report"

echo "== obs_report bin"
$RUSTC --crate-name obs_report crates/bench/src/bin/obs_report.rs \
  --extern cgx_bench="$L/libcgx_bench.rlib" --extern cgx_tensor="$L/libcgx_tensor.rlib" \
  --extern cgx_compress="$L/libcgx_compress.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" \
  -o "$V/obs_report"

echo "== cgx_launch bin"
$RUSTC --crate-name cgx_launch crates/net/src/bin/cgx_launch.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/cgx_launch"

echo "== chaos_net_report bin"
$RUSTC --crate-name chaos_net_report crates/bench/src/bin/chaos_net_report.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_net="$L/libcgx_net.rlib" --extern bytes="$L/libbytes.rlib" \
  -o "$V/chaos_net_report"

echo "== net_report bin"
$RUSTC --crate-name net_report crates/bench/src/bin/net_report.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_engine="$L/libcgx_engine.rlib" \
  --extern cgx_net="$L/libcgx_net.rlib" \
  -o "$V/net_report"

echo "== adaptive_live_report bin"
$RUSTC --crate-name adaptive_live_report crates/bench/src/bin/adaptive_live_report.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_engine="$L/libcgx_engine.rlib" --extern cgx_core="$L/libcgx_core.rlib" \
  -o "$V/adaptive_live_report"

echo "== des bench (criterion stub compile check)"
$RUSTC --crate-name des_bench crates/bench/benches/des.rs \
  --extern cgx_simnet="$L/libcgx_simnet.rlib" --extern criterion="$L/libcriterion.rlib" \
  -o "$V/des_bench"

echo "== cgx_serve bin"
$RUSTC --crate-name cgx_serve_bin crates/serve/src/bin/cgx_serve.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  --extern cgx_engine="$L/libcgx_engine.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_obs="$L/libcgx_obs.rlib" --extern cgx_serve="$L/libcgx_serve.rlib" \
  -o "$V/cgx_serve"

echo "== tenant_report bin"
$RUSTC --crate-name tenant_report crates/bench/src/bin/tenant_report.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_collectives="$L/libcgx_collectives.rlib" --extern cgx_net="$L/libcgx_net.rlib" \
  --extern cgx_engine="$L/libcgx_engine.rlib" --extern cgx_models="$L/libcgx_models.rlib" \
  --extern cgx_serve="$L/libcgx_serve.rlib" --extern bytes="$L/libbytes.rlib" \
  -o "$V/tenant_report"

echo "== sim_sweep bin"
$RUSTC --crate-name sim_sweep crates/bench/src/bin/sim_sweep.rs \
  --extern cgx_tensor="$L/libcgx_tensor.rlib" --extern cgx_compress="$L/libcgx_compress.rlib" \
  --extern cgx_simnet="$L/libcgx_simnet.rlib" --extern cgx_collectives="$L/libcgx_collectives.rlib" \
  --extern cgx_models="$L/libcgx_models.rlib" --extern cgx_core="$L/libcgx_core.rlib" \
  -o "$V/sim_sweep"

echo "BUILD OK"
