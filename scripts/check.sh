#!/bin/sh
# Tier-1.5 gate, split into composable stages so CI jobs and local runs
# share one entry point.
#
#   sh scripts/check.sh                 # every stage
#   sh scripts/check.sh fmt vet lint    # just those stages
#   sh scripts/check.sh test            # race-enabled tests + coverage gate
#
# Stages: fmt vet lint build benchmod test allocs chaos durability overload vuln
# lint is ctxfirst plus the one-surface guard (the typed naming surface
# is spelled in internal/core/op.go and by providers, nowhere else) and
# the error-text guard (no product code classifies an error by its
# message; failures cross the wire as rpc status codes), the one-pool
# guard (no reference count outside internal/connpool), the one-lease
# guard (no renewal schedule outside internal/lease), and the
# one-goroutine guard (internal/jgroups/channel.go is one event loop: no
# lock or condition variable, one go statement).
# allocs is the per-commit real-number gate (operations as values, rpc
# codec + per-call metrics, hdns request codec, DIT search, dnssp
# opens, pooled hdnssp opens, hdns lease scan); wall-clock costs are
# measured by bench/run.sh (see bench/README.md), not gated here.
set -e

# Minimum statement coverage for internal/obs (enforced by the test stage:
# the observability layer is what every future perf claim cites, so its
# own correctness bar stays high).
OBS_COVER_MIN=85

stage_fmt() {
    echo "== gofmt =="
    # Scoped to tracked files: vendored or generated trees that may appear
    # later are not ours to format and must not fail the gate.
    unformatted=$(gofmt -l $(git ls-files '*.go'))
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

stage_vet() {
    echo "== go vet =="
    go vet ./...
}

stage_lint() {
    echo "== lint: ctxfirst =="
    go run ./scripts/lint/ctxfirst $(git ls-files '*.go')
    echo "== lint: one typed surface (a decorator embeds core.OpContext and writes Do) =="
    if git ls-files 'internal/*.go' 'cmd/*.go' | grep -v -e '_test\.go$' -e '^internal/core/op\.go$' -e '^internal/provider/' |
        xargs grep -n '^func (.*) ListBindings(' /dev/null; then
        echo "a non-provider type hand-writes the naming surface; embed core.OpContext or core.BatchOpContext" >&2
        exit 1
    fi
    echo "== lint: failures are classified by type, never by their text =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/' |
        xargs grep -nE -e 'Error\(\) *[!=]=' -e '[!=]= *[A-Za-z0-9_.]*\.Error\(\)' \
            -e '\.Msg *[!=]=' -e '[!=]= *[A-Za-z0-9_.]*\.Msg([^A-Za-z0-9_]|$)' \
            -e 'strings\.(Contains|HasPrefix|HasSuffix|EqualFold)\([^,]*\.Error\(\)' /dev/null; then
        echo "an error is classified by its message; return a core error (an rpc status on the wire) and use errors.Is/errors.As" >&2
        exit 1
    fi
    echo "== lint: one connection pool (reference counts live in internal/connpool) =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/connpool/' |
        xargs grep -nE 'refs *(\+\+|--)' /dev/null; then
        echo "a hand-kept reference count; pool the connection with internal/connpool" >&2
        exit 1
    fi
    echo "== lint: one lease renewal rule (the schedule lives in internal/lease) =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/lease/' |
        xargs grep -nE 'lease *\/ *[28]([^0-9]|$)' /dev/null | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//'; then
        echo "a hand-written renewal schedule; renew with lease.Renew and track loops with lease.Set" >&2
        exit 1
    fi
    echo "== lint: one protocol goroutine (the jgroups channel is one event loop) =="
    ch=internal/jgroups/channel.go
    if grep -nE 'sync\.(Cond|Mutex|RWMutex)|\.(R?Lock|Wait)\(\)' "$ch"; then
        echo "$ch guards protocol state with a lock or condition; post the work to the loop (Channel.post) instead" >&2
        exit 1
    fi
    gos=$(grep -cE '^[[:space:]]*go [A-Za-z_(]' "$ch" || true)
    if [ "$gos" -ne 1 ]; then
        echo "$ch has $gos go statements; the loop (go c.run()) is the only one — run callbacks on it" >&2
        exit 1
    fi
}

stage_build() {
    echo "== go build (incl. examples) =="
    go build ./...
    go build ./examples/...
}

stage_benchmod() {
    # bench/ is a module of its own (replace gondi => ../), so the root
    # go build/vet/test ./... never compile it: a changed signature in a
    # layer's public functions would break the benchmark unseen.
    echo "== nested benchmark module: vet + generator hygiene tests =="
    (cd bench && go vet . && go test -count=1 .)
}

stage_test() {
    echo "== cache coherence conformance (-race) =="
    go test -race -run 'CacheCoherence' ./internal/provider/ptest/

    echo "== obs metering conformance (-race) =="
    go test -race -run 'ObsConformance' ./internal/provider/ptest/

    echo "== go test -race (writes coverage.out) =="
    test_log=$(mktemp)
    # Stream the log even when the suite fails (set -e would otherwise
    # discard it before it is printed).
    if ! go test -race -coverprofile=coverage.out ./... >"$test_log" 2>&1; then
        cat "$test_log"
        rm -f "$test_log"
        exit 1
    fi
    cat "$test_log"

    echo "== internal/obs coverage gate (>= ${OBS_COVER_MIN}%) =="
    obs_cover=$(sed -n 's/^ok.*gondi\/internal\/obs.*coverage: \([0-9.]*\)%.*/\1/p' "$test_log")
    rm -f "$test_log"
    if [ -z "$obs_cover" ]; then
        echo "could not determine internal/obs coverage" >&2
        exit 1
    fi
    if ! awk -v c="$obs_cover" -v m="$OBS_COVER_MIN" 'BEGIN { exit !(c+0 >= m+0) }'; then
        echo "internal/obs coverage ${obs_cover}% below the ${OBS_COVER_MIN}% gate" >&2
        exit 1
    fi
    echo "internal/obs coverage: ${obs_cover}%"
}

stage_allocs() {
    # Operations as values must stay free: a typed call through
    # OpContext -> a decorator's Do -> core.Do -> the inner typed method
    # puts an Op and a Result on the stack and nothing on the heap.
    echo "== core.Op round trip zero-alloc gate =="
    go test -count=1 -run 'TestOpContextLookupZeroAlloc' ./internal/core/

    # Wire-path allocation gate: the rpc frame codec must encode and
    # decode with zero steady-state allocations (testing.AllocsPerRun)
    # or every call on the hot path pays the GC back.
    echo "== rpc codec zero-alloc gate =="
    go test -count=1 -run 'TestFrameCodecZeroAlloc' ./internal/rpc/

    # One uncached hdns lookup pays the request codec four times and the
    # rpc client's per-method metrics once: the hand codec's whole share
    # is <= 12 allocations, and so is a loopback Call with obs on (its
    # labelled instruments are resolved once per method, not per call).
    echo "== hdns request codec + rpc per-call metrics alloc gates =="
    go test -count=1 -run 'TestLookupWireAllocs' ./internal/hdns/
    go test -count=1 -run 'TestCallMetricsResolvedOnce' ./internal/rpc/

    # O(operation) gates: a base-object search must allocate the same in
    # a 10-entry and a 10 000-entry DIT (the children index, not a scan),
    # and 200 sequential dns:// opens must leave at most one resolver
    # socket and read loop alive (the resolver pool, not one per open).
    echo "== DIT search + dnssp open alloc gates =="
    go test -count=1 -run 'TestDITBaseSearchAllocsIndependentOfSize' ./internal/ldapsrv/
    go test -count=1 -run 'TestOpensShareOneResolver' ./internal/provider/dnssp/

    # InitialContext opens the provider for every URL name, so a warm
    # pooled hdnssp.Open (+ Close) is on every hdns operation's path: <= 6.
    echo "== pooled provider open alloc gate =="
    go test -count=1 -run 'TestPooledOpenAllocs' ./internal/provider/hdnssp/

    # The hdns lease reaper scans on every 500 ms tick: 0 allocations on
    # a store that holds no lease, <= 4 with one due among 10 000 entries.
    echo "== hdns lease scan alloc gate =="
    go test -count=1 -run 'TestReapScanAllocs' ./internal/hdns/

    # Codec fuzz targets over their checked-in seed corpora: the frame
    # reader, the WAL record codec and the hdns request codec (whose
    # target also feeds the hdns WAL op decoder) must reject exactly and
    # recover from torn tails. Deterministic here; set
    # CHECK_FUZZ_TIME=10s to actually explore locally.
    echo "== frame + WAL record + snapshot container + hdns wire fuzz seeds =="
    go test -count=1 -run 'FuzzReadFrame' ./internal/rpc/
    go test -count=1 -run 'FuzzWALRecord' ./internal/wal/
    go test -count=1 -run 'FuzzSnapshotDecode|FuzzHDNSWire' ./internal/hdns/
    if [ -n "$CHECK_FUZZ_TIME" ]; then
        echo "== fuzzing for $CHECK_FUZZ_TIME each =="
        go test -count=1 -run '^$' -fuzz 'FuzzReadFrame' -fuzztime "$CHECK_FUZZ_TIME" ./internal/rpc/
        go test -count=1 -run '^$' -fuzz 'FuzzWALRecord' -fuzztime "$CHECK_FUZZ_TIME" ./internal/wal/
        go test -count=1 -run '^$' -fuzz 'FuzzSnapshotDecode' -fuzztime "$CHECK_FUZZ_TIME" ./internal/hdns/
        go test -count=1 -run '^$' -fuzz 'FuzzHDNSWire' -fuzztime "$CHECK_FUZZ_TIME" ./internal/hdns/
    fi
}

stage_chaos() {
    # Deterministic fault drills: the schedules are scripted (fixed
    # cut/heal points, seeded injectors), so a failure here is a real
    # robustness regression, not flake.
    echo "== chaos conformance: typed failures, no hangs, no leaks (-race) =="
    go test -race -count=1 -run 'FaultConformance' ./internal/provider/ptest/
    echo "== virtual synchrony: one total order, views in the stream (-race, -cpu 1,2,8) =="
    go test -race -count=20 -cpu 1,2,8 -run 'TestTotalOrder$|TestJoinUnderTraffic$' ./internal/jgroups/
    go test -race -count=20 -cpu 1,2,8 -run 'TestConcurrentRebindsConvergeOnVirtualSynchrony$' ./internal/hdns/
    echo "== partition/crash-rejoin + crashed-lock-holder drills (-race) =="
    go test -race -count=1 -run 'TestChaosPartitionCrashRejoin' ./internal/hdns/
    go test -race -count=1 -run 'TestCrashedLockHolderDoesNotWedgeBind' ./internal/provider/jinisp/
    go test -race -count=1 ./internal/fault/ ./internal/lock/
    echo "== shard drills: routing stability, rebalance, partial failure, WAL restart (-race) =="
    go test -race -count=1 -run 'TestHDNSShardConformance' ./internal/provider/ptest/
    go test -race -count=1 -run 'TestWALCrashRestartReplay|TestWALCompactionKeepsTail|TestRouterBatchPartialFailureTypedPerItem' ./internal/hdns/
    echo "== sync drills: cross-registry convergence + origin-outage mirror fallback (-race) =="
    go test -race -count=1 -run 'SyncConformance|TestDNSSyncCursorSkipsIdleCycles' ./internal/provider/ptest/
    go test -race -count=1 -run 'TestChaosOriginCutMidStreamMirrorKeepsServing|TestFallback' ./internal/sync/
}

stage_durability() {
    # Durability under storage faults: seeded disk-fault injection, the
    # crash-point matrix (power loss at every durability boundary of
    # append/rotate/snapshot/prune, restart must lose no acked write),
    # scrub/quarantine classification, and the corrupted-replica
    # auto-repair loop against a live 2-group world.
    echo "== disk fault injector + WAL scrub/quarantine (-race) =="
    go test -race -count=1 ./internal/fault/ ./internal/wal/
    echo "== crash-point matrix + quarantine/repair drills (-race) =="
    go test -race -count=1 -run 'TestCrashPointMatrix|TestOpenQuarantines|TestCleanShutdownMarkerRoundTrip|TestCorruptNodeRepairsViaStateTransfer|TestSealedWALSurfacesStorageUnavailable' ./internal/hdns/
    echo "== durability conformance: crash safety + replica-driven repair (-race) =="
    go test -race -count=1 -run 'TestHDNSDurabilityConformance' ./internal/provider/ptest/
}

stage_vuln() {
    # Vulnerability + static-analysis gate. Runs unconditionally (its
    # own CI job; no skip knob reaches it). govulncheck is not
    # vendored: when the binary is absent locally the scan is skipped
    # with a notice — CI installs it — but go vet always runs, so the
    # stage never silently no-ops.
    echo "== go vet (vuln stage) =="
    go vet ./...
    echo "== govulncheck =="
    gvc=$(command -v govulncheck || true)
    [ -n "$gvc" ] || { [ -x "$(go env GOPATH)/bin/govulncheck" ] && gvc="$(go env GOPATH)/bin/govulncheck"; } || true
    if [ -n "$gvc" ]; then
        "$gvc" ./...
    else
        echo "govulncheck not installed; skipping scan (go install golang.org/x/vuln/cmd/govulncheck@latest)"
    fi
}

stage_overload() {
    # Overload contract at reduced scale: every daemon sheds typed and
    # drains (admission conformance) and the jgroups send window holds a
    # slow consumer's buffers bounded.
    echo "== admission conformance: shed typed, never hang, drain (-race) =="
    go test -race -count=1 -run 'AdmissionConformance' ./internal/provider/ptest/
    echo "== bounded-buffer storm (-race) =="
    go test -race -count=1 -run 'TestBoundedBufferStormSurvives' ./internal/jgroups/
}

if [ $# -eq 0 ]; then
    stage_fmt
    stage_vet
    stage_lint
    stage_build
    stage_benchmod
    stage_test
    stage_allocs
    stage_chaos
    stage_durability
    stage_overload
    stage_vuln
else
    for s in "$@"; do
        case "$s" in
            fmt|vet|lint|build|benchmod|test|allocs|chaos|durability|overload|vuln) "stage_$s" ;;
            *)
                echo "unknown stage: $s (stages: fmt vet lint build benchmod test allocs chaos durability overload vuln)" >&2
                exit 2
                ;;
        esac
    done
fi

echo "OK"
