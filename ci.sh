#!/usr/bin/env bash
# Tier-1 verification + lint gate. Run from the repo root.
#
# All third-party deps are vendored path crates (see vendor/), so the build
# needs no network; --offline makes that explicit, but some cargo versions
# reject it when the lockfile predates vendoring. That is decided once,
# here, and every cargo command then runs once: a red test is reported, not
# run again without the flag.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "+ $*"
    "$@"
}

offline=--offline
if ! cargo --offline metadata --format-version 1 >/dev/null 2>&1; then
    echo "cargo refuses --offline here; running without it"
    offline=
fi
cargo_offline() {
    run cargo $offline "$@"
}

# No code outside vendor/ may use the rayon API: the parallelism inside a
# node is one model replica per thread, and the vendored sequential shim
# waits only for its manifest lines to go.
if git grep -nE '\brayon::|\.par_[a-z_]+\(' -- '*.rs' ':!vendor/'; then
    echo "ci.sh: .rs file(s) outside vendor/ name rayon:: or call a par_* method" >&2
    exit 1
fi

# A dead peer travels as a `Result<_, CommError>` value from the receive
# that sees it to the process edge. No product code may raise it as a panic
# payload, print it from a panic hook or catch an unwind to get it back.
if git grep -nE 'panic_any|set_hook|take_hook|catch_unwind|downcast(_ref)?::<CommError>' \
    -- '*.rs' ':!vendor/' ':!benchmark/' ':!*/tests/*'; then
    echo "ci.sh: .rs file(s) outside vendor/, benchmark/ and tests raise, hook or catch panics" >&2
    exit 1
fi

# A launched collective advances on the calling thread (every call into the
# runtime moves the rank's parked cursors), so the rank runtime starts none.
if git grep -nE 'thread::(spawn|Builder|scope)' -- 'crates/collectives/src/runtime/'; then
    echo "ci.sh: crates/collectives/src/runtime/ starts a thread" >&2
    exit 1
fi

# The trainer's state lives in one value whose methods take `&mut self`, so
# no trainer function needs a long parameter list to carry it.
if git grep -nF '#[allow(clippy::too_many_arguments)]' -- 'crates/trainer/src'; then
    echo "ci.sh: crates/trainer/src allows clippy::too_many_arguments" >&2
    exit 1
fi

# dcnn-dimd and dcnn-trainer are held to the house style (rustfmt.toml): any
# diff `cargo fmt` would make there fails the gate, printed.
if ! cargo fmt -p dcnn-dimd -p dcnn-trainer -- --check; then
    echo "ci.sh: crates/dimd or crates/trainer is not rustfmt-clean; run cargo fmt -p dcnn-dimd -p dcnn-trainer" >&2
    exit 1
fi

cargo_offline build --release --workspace
cargo_offline test -q --workspace
# The DCC1 codec's exhaustive sweeps — the pixel conversion on all 2^32
# floats, every window of a 128x128 record — take minutes unoptimised and
# seconds optimised, so they are ignored in debug builds and run here.
cargo_offline test -q --release -p dcnn-dimd -- --include-ignored
# The GEMM kernels' "dispatched arm == portable arm == the written-out loop,
# bit for bit" (crates/tensor/tests/kernel_bits.rs, proptests.rs) is a
# statement about optimised code generation — vector width, unrolling,
# whether a tile stays in registers — so it is checked on the optimised
# build too.
cargo_offline test -q --release -p dcnn-tensor
# Dead-step elimination's "owned bits == the full allreduce's" sweep runs
# every algorithm up to 16 ranks and rests on elementwise float sums, so it
# is checked against optimised code generation too.
cargo_offline test -q --release -p dcnn-collectives --test plan_prune
# The gradient path's "no block of 64 KiB or more per step after warm-up"
# guard counts the allocations of the code that ships, so it runs against
# the optimised build as well as the debug one above.
cargo_offline test -q --release -p dcnn-trainer --test step_allocations
# The process-level equivalences — TCP processes == threads, sharded ==
# replicated, tuned == fixed, service-backed == in-process, and the SIGKILL,
# fleet and storm cases — are asserted by tests/transport_process.rs and
# tests/data_plane_process.rs, which ran against the debug binaries above;
# run them against the release binaries too.
cargo_offline test -q --release -p dist-cnn --test transport_process --test data_plane_process

# Repo-benchmark smoke: build the standalone benchmark/ package against this
# tree and run one quick repetition of every workload, untraced and traced
# (~1 min). run.sh exits non-zero when the build breaks or a workload's
# checks (loss reference, counters) fail.
run bash benchmark/run.sh --quick
# benchmark/Cargo.lock records every workspace crate's dependency list and
# run.sh builds without --locked, so a dependency line moved anywhere in the
# workspace rewrites that tracked file silently.
if ! git diff --quiet -- benchmark/Cargo.lock; then
    echo "ci.sh: the benchmark build rewrote the tracked benchmark/Cargo.lock:" >&2
    git --no-pager diff --stat -- benchmark/Cargo.lock >&2
    exit 1
fi

# The three multi-process smokes that follow (release dcnn-launch, real TCP
# processes) each make an assertion no Rust test makes — a wall-clock or
# parent-process observation. Every other process-level equivalence is a
# tests/*_process.rs test, run twice above.

# Overlap-engine smoke: the same epoch trained blocking (bucket bytes 0)
# and bucketed (4 KiB buckets, many nonblocking allreduces in flight) must
# report bitwise-identical loss lines at two ranks, and the bucketed run
# must prove actual overlap via its in-flight high-water mark.
echo "+ bucketed-epoch bitwise smoke (blocking vs DCNN_BUCKET_BYTES=4096)"
blocking_out=$(DCNN_BUCKET_BYTES=0 ./target/release/dcnn-launch --ranks 2 --workload bucketed-epoch)
bucketed_out=$(DCNN_BUCKET_BYTES=4096 ./target/release/dcnn-launch --ranks 2 --workload bucketed-epoch)
echo "$blocking_out" | sed 's/^/  blocking: /'
echo "$bucketed_out" | sed 's/^/  bucketed: /'
if [ "$(echo "$blocking_out" | grep '^epoch ')" != "$(echo "$bucketed_out" | grep '^epoch ')" ]; then
    echo "ci.sh: bucketed epoch diverged from blocking epoch" >&2
    exit 1
fi
hwm=$(echo "$bucketed_out" | sed -n 's/^inflight_hwm=//p')
if [ -z "$hwm" ] || [ "$hwm" -lt 2 ]; then
    echo "ci.sh: expected >=2 bucket reduces in flight, saw '${hwm:-none}'" >&2
    exit 1
fi

# Backward-hook overlap smoke: the overlap-epoch workload trained three
# ways over real TCP processes — blocking, drain (buckets launched after
# backward), hooked (buckets launched mid-backprop) — must produce
# bitwise-identical epoch lines, and the hooked schedule must hide strictly
# more reduce time than drain. The fraction is a wall-clock measurement, so
# allow a few attempts before declaring the scheduler broken.
echo "+ overlap-epoch three-way smoke (blocking vs drain vs hooked)"
overlap_ok=0
for attempt in 1 2 3; do
    blocking_out=$(DCNN_BUCKET_BYTES=0 ./target/release/dcnn-launch --ranks 2 --workload overlap-epoch)
    drain_out=$(DCNN_BUCKET_BYTES=16384 DCNN_OVERLAP_MODE=drain ./target/release/dcnn-launch --ranks 2 --workload overlap-epoch)
    hooked_out=$(DCNN_BUCKET_BYTES=16384 DCNN_OVERLAP_MODE=hooked ./target/release/dcnn-launch --ranks 2 --workload overlap-epoch)
    if [ "$(echo "$blocking_out" | grep '^epoch ')" != "$(echo "$drain_out" | grep '^epoch ')" ]; then
        echo "ci.sh: drain overlap epoch diverged from blocking epoch" >&2
        exit 1
    fi
    if [ "$(echo "$blocking_out" | grep '^epoch ')" != "$(echo "$hooked_out" | grep '^epoch ')" ]; then
        echo "ci.sh: hooked overlap epoch diverged from blocking epoch" >&2
        exit 1
    fi
    drain_frac=$(echo "$drain_out" | sed -n 's/^overlap_frac=//p')
    hooked_frac=$(echo "$hooked_out" | sed -n 's/^overlap_frac=//p')
    echo "  attempt $attempt: drain overlap_frac=$drain_frac hooked overlap_frac=$hooked_frac"
    if awk -v h="$hooked_frac" -v d="$drain_frac" 'BEGIN { exit !(h > d) }'; then
        overlap_ok=1
        break
    fi
done
if [ "$overlap_ok" -ne 1 ]; then
    echo "ci.sh: hooked schedule never beat drain on overlap_frac" >&2
    exit 1
fi

# Fault-injection smoke: a 2-rank training run over real TCP processes,
# with rank 1 armed to abort() right after optimizer step 2 (mid-epoch 0).
# No DCNN_RECV_TIMEOUT_MS is set: the survivor must fail fast on the bare
# EOF alone, exit nonzero with a structured report naming the dead peer,
# and never panic: the failure comes back as a value, so neither a raw
# backtrace nor a `panicked at` line may appear. `timeout` bounds the whole
# launch so a propagation regression fails CI instead of wedging it.
echo "+ fault-injection smoke (kill-after-step=2@1 over TCP processes)"
fault_status=0
fault_out=$(DCNN_FAULT=kill-after-step=2@1 timeout 30 \
    ./target/release/dcnn-launch --ranks 2 --workload fault-epoch 2>&1) || fault_status=$?
echo "$fault_out" | sed 's/^/  fault: /'
if [ "$fault_status" -eq 0 ]; then
    echo "ci.sh: fault-injection run exited 0 despite a killed rank" >&2
    exit 1
fi
if [ "$fault_status" -eq 124 ]; then
    echo "ci.sh: fault-injection run hung (timeout): survivors never detected the dead peer" >&2
    exit 1
fi
if ! echo "$fault_out" | grep -q "peer rank 1 is dead"; then
    echo "ci.sh: survivor did not report 'peer rank 1 is dead'" >&2
    exit 1
fi
if echo "$fault_out" | grep -q "stack backtrace"; then
    echo "ci.sh: fault report contains a raw panic backtrace" >&2
    exit 1
fi
if echo "$fault_out" | grep -q "panicked at"; then
    echo "ci.sh: the survivor panicked instead of returning the peer failure" >&2
    exit 1
fi
# Each rank writes every heartbeat in one call, so on the shared stderr a
# `dcnn-fault:` line that is not one whole heartbeat means two ranks' lines
# were interleaved mid-line.
torn_fault=$(echo "$fault_out" | grep 'dcnn-fault:' | grep -Ev \
    '^dcnn-fault: rank [0-9]+( step [0-9]+ \(epoch [0-9]+ it [0-9]+\)|: kill-after-step=[0-9]+: aborting now)$' \
    || true)
if [ -n "$torn_fault" ]; then
    echo "ci.sh: fault heartbeat lines are not whole:" >&2
    echo "$torn_fault" >&2
    exit 1
fi

# Kernel-pair smoke: time each hot-path kernel against the code it replaced,
# interleaved in one run, and assert the BENCH_<date>.json report is
# written — dcnn-perf exits 1 naming any pair that reads below the floor
# set beside it in crates/bench/src/perf.rs.
rm -rf target/bench-smoke
run ./target/release/dcnn-perf --quick --out target/bench-smoke
if ! ls target/bench-smoke/BENCH_*.json >/dev/null 2>&1; then
    echo "ci.sh: dcnn-perf did not write a BENCH_<date>.json report" >&2
    exit 1
fi

# Scenario-matrix evaluation smoke: a tiny {ring, multicolor:2, auto} ×
# {4 KiB, 256 KiB} × {fused, 64 KiB hooked, 64 KiB drain} matrix over both
# the threaded fabric and real 2-rank TCP processes (dcnn-eval re-launches
# dcnn-launch per TCP cell), so the trainer's GradStream hooked and drain
# paths and auto's decision step run over sockets too. DCNN_FAULT is
# exported around the sweep: a cell is described by its spec alone, so no
# clean cell may see it. Asserts
# every row carries the dcnn-eval-v1 schema, no cell failed, the fused,
# hooked and drain rows of each (algo, payload, transport) reduced to the
# same bits, the report names a winner for each of the four size classes,
# and the simnet discrepancy artifact exists.
echo "+ eval matrix smoke (dcnn-eval, threads + 2-rank tcp, ambient DCNN_FAULT)"
rm -rf target/eval-smoke
export DCNN_FAULT=drop-link=0:1
run ./target/release/dcnn-eval --algos ring,multicolor:2,auto --worlds 2 \
    --payloads 4096,262144 --bucketings fused,65536:hooked,65536:drain \
    --transports threads,tcp --iters 2 \
    --out target/eval-smoke --launch ./target/release/dcnn-launch
unset DCNN_FAULT
rows=$(ls target/eval-smoke/cell-*.json 2>/dev/null | wc -l)
if [ "$rows" -ne 36 ]; then
    echo "ci.sh: expected 36 eval rows in target/eval-smoke, found $rows" >&2
    exit 1
fi
if grep -L '"schema": "dcnn-eval-v1"' target/eval-smoke/cell-*.json | grep -q .; then
    echo "ci.sh: eval row(s) missing the dcnn-eval-v1 schema tag:" >&2
    grep -L '"schema": "dcnn-eval-v1"' target/eval-smoke/cell-*.json >&2
    exit 1
fi
if grep -q '"error": "' target/eval-smoke/cell-*.json; then
    echo "ci.sh: eval cell(s) failed:" >&2
    grep -h -e '"id": ' -e '"error": "' target/eval-smoke/cell-*.json >&2
    exit 1
fi
# One "algo/wN/pBYTES/transport fingerprint" line per row, the bucketing
# segment of the id dropped: 12 distinct lines means each group's fused,
# hooked and drain rows agree.
fingerprints=$(for f in target/eval-smoke/cell-*.json; do
    id=$(sed -n 's/^  "id": "\(.*\)",$/\1/p' "$f")
    fp=$(sed -n 's/^  "fingerprint": \([0-9]*\),$/\1/p' "$f")
    echo "$(echo "$id" | awk -F/ '{ print $1 "/" $2 "/" $3 "/" $5 }') $fp"
done | sort -u)
if [ "$(echo "$fingerprints" | wc -l)" -ne 12 ]; then
    echo "ci.sh: fused, hooked and drain eval cells disagree on the reduced bits:" >&2
    echo "$fingerprints" >&2
    exit 1
fi
for class in \
    'transport=tcp world=2 payload=4096' \
    'transport=tcp world=2 payload=262144' \
    'transport=threads world=2 payload=4096' \
    'transport=threads world=2 payload=262144'; do
    if ! grep -q "^winner $class" target/eval-smoke/report.md; then
        echo "ci.sh: eval report names no winner for '$class'" >&2
        cat target/eval-smoke/report.md >&2
        exit 1
    fi
done
if [ ! -s target/eval-smoke/discrepancy.json ]; then
    echo "ci.sh: dcnn-eval wrote no discrepancy.json artifact" >&2
    exit 1
fi
rm -rf target/eval-smoke

# Lint gate: warnings are errors. Clippy may be absent on minimal
# toolchains; skip (loudly) rather than fail the whole gate.
if cargo clippy --version >/dev/null 2>&1; then
    cargo_offline clippy --workspace --all-targets -- -D warnings
else
    echo "cargo clippy not installed; skipping lint gate"
fi

echo "ci.sh: all checks passed"
