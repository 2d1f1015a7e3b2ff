#!/bin/sh
# Tier-1.5 gate, split into composable stages so CI jobs and local runs
# share one entry point.
#
#   sh scripts/check.sh                 # every stage
#   sh scripts/check.sh fmt vet lint    # just those stages
#   sh scripts/check.sh test            # race-enabled tests + coverage gate
#
# Stages: fmt vet lint build benchmod test allocs chaos durability overload figures vuln
# lint is ctxfirst plus the one-surface guard (the typed naming surface
# is spelled in internal/core/op.go and by providers, nowhere else) and
# the error-text guard (no product code classifies an error by its
# message; failures cross the wire as rpc status codes), the one-pool
# guard (no reference count outside internal/connpool), the one-lease
# guard (no renewal schedule outside internal/lease), the
# one-goroutine guard (internal/jgroups/channel.go is one event loop: no
# lock or condition variable, one go statement), the one-data-path
# guard (both jgroups stacks deliver the coordinator's one sequence: no
# per-sender bimodal path), the one-helper-set guard (length-prefix append/take helpers live in internal/wire, which
# imports no gondi package; internal/core keeps one gob fallback pair),
# the hdns replication guard (no gob in internal/hdns outside the
# decode-only legacy snapshot reader, no gob encoder at all; no
# time.After timer per write), the one-op-layout guard (no Req type:
# an hdns request is an Op), the
# one-persistence-mode guard (a durable hdns replica is always snapshot
# + WAL and boots through wal.Scrub: no clean-shutdown marker, no
# Log.Replay, no snapshot-only or WAL-only branch), the one-hdns-client-
# call guard (hdns.Client sends every op through Do/DoMany, the rpc
# method taken from Op.Kind by one table: no typed Bind, Unbind, Rename,
# List, CreateCtx, DestroyCtx, ModAttrs, Search, RenewLease, BindMany or
# callMany method), the
# registrar protocol guard (no gob in internal/jini or internal/jxta),
# the no-mirror guard (the sync engine and its seams stay deleted:
# clients read live deployments, never a private copy), and the
# one-pipeline guard (no server admits or meters a request by hand:
# .Admit( and the gondi_server_request* metrics appear only in
# internal/serverutil, whose Stage serves every server's requests),
# the one-cost-model guard (the calibrated 2005 cost model is imported
# only by internal/costmodel and the figure harness, internal/benchmark:
# servers are charged by their pipeline stage, never by hand), the
# one-LDAP-codec guard (no ber.Packet tree or ber.Decode: LDAP messages
# are appended into one buffer and read in place), the one-search-rule
# guard (no provider parses a search filter or sorts its results or
# bindings: core.Search and core.ListResult do), the
# one-name-resolution-rule guard (no provider builds a continuation or
# walks a name's prefixes: core.Resolve does, over a provider's probe),
# the one-root-table guard (internal/cache opens no root of its own:
# it decorates the InitialContext's held roots, and core composes every
# middleware one way, with no ChainedMiddleware type assertion), and the
# one-event-rule guard (no provider builds a naming event: core.EventFor
# and core.WatchLoss do; the cache flushes no root on an event), and the
# one-root-rule guard (every name resolves at a held root, and core.Open
# is the one constructor: no ContextViewer, InitialFactory,
# NewInitialContext or WrapContext in non-test Go outside bench/).
# allocs is the per-commit real-number gate (operations as values, Errf,
# name-resolution walk, rpc codec + per-call metrics, hdns request +
# replication frame codecs, jini registrar codec, bound-value codec, DIT
# search, dnssp opens, root opens per authority, pooled hdnssp opens,
# cached lookups, hdns lease scan, server pipeline stage, dns shed answer, LDAP message
# codec); wall-clock costs are measured by bench/run.sh (see
# bench/README.md), not gated here. figures runs the calibrated Figure
# 2-7 shape tests and ablations, which skip under -race and so run in no
# other stage.
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
    echo "== lint: one typed surface (providers and decorators embed a core adapter and write Do) =="
    if git ls-files 'internal/*.go' 'cmd/*.go' | grep -v -e '_test\.go$' -e '^internal/core/op\.go$' |
        xargs grep -n '^func (.*) ListBindings(' /dev/null; then
        echo "a type hand-writes the naming surface; embed core.OpContext, core.EventOpContext or core.BatchOpContext and write Do" >&2
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
    echo "== lint: one jgroups data path (the coordinator sequences every message, on both stacks) =="
    if git ls-files 'internal/jgroups/*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'kDataBimodal|senderState|peerAckB|sendSeqB|handleBimodalData' /dev/null; then
        echo "internal/jgroups has a second, per-sender data path; send through the coordinator's sequence (Channel.emit) and repair gaps by NAK or gossip" >&2
        exit 1
    fi
    echo "== lint: one helper set (length-prefix helpers live in internal/wire) =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/wire/' |
        xargs grep -nE '^func (\([^)]*\) )?([aA]ppend|[tT]ake)[A-Za-z]*(Uvarint|Varint|String|Strings|Bytes|Attrs|Bool)\(' /dev/null; then
        echo "a length-prefix append/take helper outside internal/wire; call the one in internal/wire" >&2
        exit 1
    fi
    if git ls-files 'internal/wire/*.go' | xargs grep -n '"gondi/' /dev/null; then
        echo "internal/wire imports a gondi package; it stays a leaf every codec can call" >&2
        exit 1
    fi
    codec=internal/core/codec.go
    encs=$(grep -o 'gob\.NewEncoder' "$codec" | wc -l)
    decs=$(grep -o 'gob\.NewDecoder' "$codec" | wc -l)
    if git ls-files 'internal/core/*.go' | grep -v -e '_test\.go$' -e "^$codec\$" |
        xargs grep -nE 'gob\.New(En|De)coder' /dev/null || [ "$encs" -ne 1 ] || [ "$decs" -ne 1 ]; then
        echo "internal/core builds a gob codec outside $codec's one fallback pair ($encs encoders, $decs decoders there); tag the value in $codec" >&2
        exit 1
    fi
    echo "== lint: hdns replication is binary and a write stops its timer =="
    if git ls-files 'internal/hdns/*.go' | grep -v -e '_test\.go$' -e '^internal/hdns/snapgob\.go$' |
        xargs grep -n 'encoding/gob' /dev/null ||
        git ls-files 'internal/hdns/*.go' | grep -v '_test\.go$' | xargs grep -n 'gob\.NewEncoder' /dev/null; then
        echo "internal/hdns uses gob outside snapgob.go's decode-only legacy snapshot reader; encode with internal/wire (walrec.go holds the op layout)" >&2
        exit 1
    fi
    echo "== lint: one op layout (an hdns request is an Op in walrec.go's layout) =="
    if git ls-files 'internal/hdns/*.go' | xargs grep -nE 'type Req struct|\*Req\b' /dev/null; then
        echo "internal/hdns declares a request type of its own; a request is an Op (store.go) encoded by appendReq" >&2
        exit 1
    fi
    if git ls-files 'internal/hdns/*.go' | grep -v '_test\.go$' | xargs grep -n 'time\.After(' /dev/null; then
        echo "internal/hdns arms a time.After timer, which stays live until it fires; use time.NewTimer and Stop it" >&2
        exit 1
    fi
    echo "== lint: one persistence mode (a durable hdns replica is snapshot + WAL, booted by one scrub) =="
    if git ls-files 'internal/hdns/*.go' 'internal/wal/*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'cleanMarkerName|CleanMarker|[.)] ?Replay\(|snapshot-only|log == nil' /dev/null; then
        echo "a second persistence mode or boot path in internal/hdns or internal/wal; a durable replica always keeps snapshot + WAL (a memory-only node has no persister) and every boot runs wal.Scrub" >&2
        exit 1
    fi
    echo "== lint: one hdns client call (Client.Do/DoMany, the method taken from Op.Kind by node.go's methods table) =="
    if git ls-files 'internal/hdns/*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'func \(c \*Client\) (Bind|Unbind|Rename|List|CreateCtx|DestroyCtx|ModAttrs|Search|RenewLease|BindMany|callMany)\(' /dev/null; then
        echo "internal/hdns spells an operation as a typed Client method; send an Op through Client.Do or DoMany (only Watch, and Lookup/LookupMany/Rebind for bench/ladder.go, stay)" >&2
        exit 1
    fi
    echo "== lint: the jini registrar and jxta rendezvous protocols are binary =="
    if git ls-files 'internal/jini/*.go' 'internal/jxta/*.go' | grep -v '_test\.go$' |
        xargs grep -n 'encoding/gob' /dev/null; then
        echo "internal/jini or internal/jxta uses gob; encode with internal/wire (jini/wirecodec.go, jxta/wirecodec.go)" >&2
        exit 1
    fi
    echo "== lint: no mirror engine (clients read the live deployment) =="
    if [ -d internal/sync ] || git ls-files '*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'gondi/internal/sync"|WithMirrorFallback|RegisterFallbackFactory|SyncCursor|MirrorEvent' /dev/null; then
        echo "the mirror/sync engine was deleted (DESIGN.md \"Cross-registry synchronization\"); federate the live registry instead" >&2
        exit 1
    fi
    echo "== lint: no namespace sharding (one replica group per hdns authority) =="
    if [ -d internal/shard ] || git ls-files '*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'gondi/internal/shard"|hdns\.Router|NewRouter|CrossShardRenameError|shard\.groups' /dev/null; then
        echo "namespace sharding was deleted (DESIGN.md \"Namespace sharding\"); split a namespace with a federation link to another group's hdns:// URL" >&2
        exit 1
    fi
    echo "== lint: one server request pipeline (admission and server metrics live in internal/serverutil) =="
    if git ls-files 'internal/*.go' 'cmd/*.go' | grep -v -e '_test\.go$' -e '^internal/serverutil/' -e '^internal/admission/' |
        xargs grep -nE '\.Admit\(|gondi_server_request' /dev/null; then
        echo "a server admits or meters a request by hand; serve it through a serverutil.Stage (serverutil.HandleRPC for rpc methods)" >&2
        exit 1
    fi
    echo "== lint: one cost model (calibrated service times are charged by the pipeline stage) =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/costmodel/' -e '^internal/benchmark/' |
        xargs grep -n '"gondi/internal/costmodel"' /dev/null; then
        echo "a package outside the figure harness imports internal/costmodel; take a serverutil.Costs and let the pipeline stage charge it" >&2
        exit 1
    fi
    echo "== lint: one search rule (SearchControls is read in internal/core/search.go) =="
    if git ls-files 'internal/provider/*.go' | grep -v -e '_test\.go$' -e '^internal/provider/ptest/' |
        xargs grep -nE 'filter\.Parse\(|^func sort(Results|Bindings)\(' /dev/null; then
        echo "a provider parses a filter or orders results itself; offer its entries to a core.Search (core.ListResult sorts a listing)" >&2
        exit 1
    fi
    echo "== lint: one name-resolution rule (core.Resolve walks a name's prefixes) =="
    if git ls-files 'internal/provider/*.go' | grep -v '_test\.go$' |
        xargs grep -nE '&core\.CannotProceedError\{|^func \(c \*Context\) (boundary|checkPrefixes|prefixBoundary|contextBoundary)' /dev/null; then
        echo "a provider builds a continuation or walks a name's prefixes itself; give core.Resolve a probe of one name" >&2
        exit 1
    fi
    echo "== lint: one root table (the cache wraps the InitialContext's held roots) =="
    if git ls-files 'internal/cache/*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'core\.OpenURL\(|rootCall|opening' /dev/null ||
        git ls-files 'internal/core/*.go' | grep -v '_test\.go$' |
        xargs grep -n 'ChainedMiddleware)' /dev/null; then
        echo "the cache opens or holds roots of its own, or core tells middleware kinds apart; decorate the root next returns in Cache.OpenURLNext and compose every core.Middleware one way" >&2
        exit 1
    fi
    echo "== lint: one event rule (core.EventFor decides what a watch sees) =="
    if git ls-files 'internal/provider/*.go' | grep -v '_test\.go$' |
        xargs grep -n 'core\.NamingEvent{' /dev/null ||
        sed -n '/^func (r \*root) onEvent(/,/^}/p' internal/cache/root.go | grep -n 'flushAll()'; then
        echo "a provider builds its own naming event, or the cache flushes a root on an event; report the change to core.EventFor (core.WatchLoss reports a lost watch) and invalidate the event's names" >&2
        exit 1
    fi
    echo "== lint: one root rule (every name resolves at a held root) =="
    if git ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/' |
        xargs grep -nE 'ContextViewer|InitialFactory|NewInitialContext|WrapContext' /dev/null; then
        echo "a second way to reach a context or build an InitialContext; resolve the name at a held root (plain names at EnvProviderURL, a junction's URL path prefixed onto the remaining name) and build with core.Open" >&2
        exit 1
    fi
    echo "== lint: one LDAP codec (messages are appended and read in place) =="
    if git ls-files '*.go' | grep -v '_test\.go$' |
        xargs grep -nE 'ber\.Packet|ber\.Decode\(' /dev/null; then
        echo "the BER packet tree was deleted; append with ber.Builder and read in place with ber.Reader (internal/ldapsrv/proto.go)" >&2
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

    echo "== event rule and event-driven invalidation (-race) =="
    go test -race -run 'TestProviderEventRule|TestCachedRenameEvictsOnlyItsNames|TestCachedJiniUnbindEvictsOnlyItsName' .

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
    # OpContext -> a decorator's Do -> core.Do -> the inner context
    # puts an Op and a Result on the stack and nothing on the heap.
    echo "== core.Op round trip zero-alloc gate =="
    go test -count=1 -run 'TestOpContextLookupZeroAlloc' ./internal/core/

    # Providers answer Do: a memsp Lookup through the adapter's typed
    # method or through core.Do costs no more than the hand-written
    # Lookup did (5 allocations).
    echo "== provider Do alloc gate =="
    go test -count=1 -run 'TestLookupAllocs' ./internal/provider/memsp/

    # Labelling a failure costs its *NamingError and nothing more: Errf
    # finds a wrapped *CannotProceedError without errors.As's target.
    echo "== core.Errf one-alloc gate =="
    go test -count=1 -run 'TestErrfAllocs' ./internal/core/

    # The name-resolution walk runs after every failed operation and on
    # federated_mix's dns -> hdns hop: keeping an answer costs nothing,
    # and continuing costs the *CannotProceedError and its AltName text.
    echo "== core.Resolve walk alloc gate =="
    go test -count=1 -run 'TestResolveAllocs' ./internal/core/

    # Wire-path allocation gate: the rpc frame codec must encode and
    # decode with zero steady-state allocations (testing.AllocsPerRun)
    # or every call on the hot path pays the GC back.
    echo "== rpc codec zero-alloc gate =="
    go test -count=1 -run 'TestFrameCodecZeroAlloc' ./internal/rpc/

    # One uncached hdns lookup pays the request codec four times and the
    # rpc client's per-method metrics once: the hand codec's whole share
    # is <= 12 allocations, and so is a loopback Call with obs on (its
    # labelled instruments are resolved once per method, not per call).
    # Every replica decodes every write's replication frame: a one-op
    # frame decodes in <= 12 allocations and encodes in <= 1.
    echo "== hdns request + replication frame codec, rpc per-call metrics alloc gates =="
    go test -count=1 -run 'TestLookupWireAllocs|TestReplFrameAllocs' ./internal/hdns/
    go test -count=1 -run 'TestCallMetricsResolvedOnce' ./internal/rpc/

    # Every Jini provider lookup and each register read of a strict bind
    # is one ID lookup against the LUS: encoding its request or response
    # costs <= 1 allocation, decoding the request <= 2 and a one-item
    # response <= 14.
    echo "== jini registrar codec alloc gate =="
    go test -count=1 -run 'TestRegistrarCodecAllocs' ./internal/jini/

    # Every provider lookup decodes its bound value: a string costs <= 2
    # allocations to decode (its copy and its interface box) and 1 to
    # encode.
    echo "== bound-value codec alloc gate =="
    go test -count=1 -run 'TestValueCodecAllocs' ./internal/core/

    # O(operation) gates: a base-object search must allocate the same in
    # a 10-entry and a 10 000-entry DIT (the children index, not a scan),
    # and 200 sequential dns:// opens must leave at most one resolver
    # socket and read loop alive (the resolver pool, not one per open).
    echo "== DIT search + dnssp open alloc gates =="
    go test -count=1 -run 'TestDITBaseSearchAllocsIndependentOfSize' ./internal/ldapsrv/
    go test -count=1 -run 'TestOpensShareOneResolver' ./internal/provider/dnssp/

    # An InitialContext opens a provider root once per scheme://authority
    # (again only when the root reports itself dead) and closes each once:
    # 1 000 lookups and 2-hop continuations open each authority once, and
    # 8 concurrent first uses open it once, under -race. Every new root
    # pays a warm pooled hdnssp.Open (+ Close): <= 6.
    echo "== root open count + pooled provider open alloc gates =="
    go test -race -count=1 -run 'TestInitialContextOpensOncePerAuthority' ./internal/core/
    go test -count=1 -run 'TestPooledOpenAllocs' ./internal/provider/hdnssp/

    # The cache decorates those held roots: a cached URL lookup through
    # core.Open(WithCache) over memsp, with no obs middleware, costs no
    # more than when the cache opened roots of its own (10 allocations).
    echo "== cached lookup alloc gate =="
    go test -count=1 -run 'TestCachedLookupAllocs' ./internal/cache/

    # The hdns lease reaper scans on every 500 ms tick: 0 allocations on
    # a store that holds no lease, <= 4 with one due among 10 000 entries.
    echo "== hdns lease scan alloc gate =="
    go test -count=1 -run 'TestReapScanAllocs' ./internal/hdns/

    # Every request of every server passes one pipeline stage: Serve is
    # free without a controller or Costs and costs no more than Admit
    # with one. A shed DNS query allocates its decode, the shed and its
    # busy answer, never the answer it was refused.
    echo "== server pipeline stage + dns shed alloc gates =="
    go test -count=1 -run 'TestStageServeAllocs' ./internal/serverutil/
    go test -count=1 -run 'TestShedQueryAllocs' ./internal/dnssrv/

    # Every LDAP message is appended into one buffer and read in place:
    # encoding any request or response the client or server sends costs
    # <= 2 allocations, and a base-object Conn.Search round trip over
    # loopback, client and server together, <= 100. The golden bytes
    # pin the wire format and with it Figure 7's charged byte counts.
    echo "== ldap message codec alloc gate =="
    go test -count=1 -run 'TestLDAPMessageAllocs|TestLDAPGoldenBytes' ./internal/ldapsrv/

    # Every DNS message is appended into one buffer and its names are
    # read in place: a one-question query decodes in <= 2 allocations
    # and a TXT answer in <= 6, and a loopback Query, client and server
    # together, costs <= 11. The golden bytes pin the wire format.
    echo "== dns message codec + exchange alloc gates =="
    go test -count=1 -run 'TestDecodeMessageAllocs|TestDNSExchangeAllocs|TestDNSWireGolden' ./internal/dnssrv/

    # Codec fuzz targets over their checked-in seed corpora: the frame
    # reader, the WAL record codec, the hdns request codec (whose target
    # also feeds the hdns WAL op and replication frame decoders), the
    # jini registrar codec, the bound-value codec, the LDAP message codec
    # and the DNS message codec must reject exactly and recover from torn
    # tails. Deterministic here;
    # set CHECK_FUZZ_TIME=10s to actually explore locally.
    echo "== frame + WAL record + snapshot container + hdns wire + jini wire + bound-value + ldap message + dns message fuzz seeds =="
    go test -count=1 -run 'FuzzReadFrame' ./internal/rpc/
    go test -count=1 -run 'FuzzWALRecord' ./internal/wal/
    go test -count=1 -run 'FuzzSnapshotDecode|FuzzHDNSWire' ./internal/hdns/
    go test -count=1 -run 'FuzzJiniWire' ./internal/jini/
    go test -count=1 -run 'FuzzValue' ./internal/core/
    go test -count=1 -run 'FuzzLDAPMessage' ./internal/ldapsrv/
    go test -count=1 -run 'FuzzDNSMessage' ./internal/dnssrv/
    if [ -n "$CHECK_FUZZ_TIME" ]; then
        echo "== fuzzing for $CHECK_FUZZ_TIME each =="
        go test -count=1 -run '^$' -fuzz 'FuzzReadFrame' -fuzztime "$CHECK_FUZZ_TIME" ./internal/rpc/
        go test -count=1 -run '^$' -fuzz 'FuzzWALRecord' -fuzztime "$CHECK_FUZZ_TIME" ./internal/wal/
        go test -count=1 -run '^$' -fuzz 'FuzzSnapshotDecode' -fuzztime "$CHECK_FUZZ_TIME" ./internal/hdns/
        go test -count=1 -run '^$' -fuzz 'FuzzHDNSWire' -fuzztime "$CHECK_FUZZ_TIME" ./internal/hdns/
        go test -count=1 -run '^$' -fuzz 'FuzzJiniWire' -fuzztime "$CHECK_FUZZ_TIME" ./internal/jini/
        go test -count=1 -run '^$' -fuzz 'FuzzValue' -fuzztime "$CHECK_FUZZ_TIME" ./internal/core/
        go test -count=1 -run '^$' -fuzz 'FuzzLDAPMessage' -fuzztime "$CHECK_FUZZ_TIME" ./internal/ldapsrv/
        go test -count=1 -run '^$' -fuzz 'FuzzDNSMessage' -fuzztime "$CHECK_FUZZ_TIME" ./internal/dnssrv/
    fi
}

stage_chaos() {
    # Deterministic fault drills: the schedules are scripted (fixed
    # cut/heal points, seeded injectors), so a failure here is a real
    # robustness regression, not flake.
    echo "== chaos conformance: typed failures, no hangs, no leaks (-race) =="
    go test -race -count=1 -run 'FaultConformance' ./internal/provider/ptest/
    echo "== one total order on both stacks, views in the stream (-race, -cpu 1,2,8) =="
    go test -race -count=20 -cpu 1,2,8 -run 'TestTotalOrder$|TestJoinUnderTraffic$' ./internal/jgroups/
    go test -race -count=20 -cpu 1,2,8 -run 'TestConcurrentRebindsConverge$|TestRandomOpsReplicaConvergence$' ./internal/hdns/
    echo "== partition/crash-rejoin + crashed-lock-holder drills (-race) =="
    go test -race -count=1 -run 'TestChaosPartitionCrashRejoin' ./internal/hdns/
    go test -race -count=1 -run 'TestCrashedLockHolderDoesNotWedgeBind' ./internal/provider/jinisp/
    go test -race -count=1 ./internal/fault/ ./internal/lock/
    echo "== WAL restart (-race) =="
    go test -race -count=1 -run 'TestWALCrashRestartReplay|TestWALCompactionKeepsTail' ./internal/hdns/
}

stage_durability() {
    # Durability under storage faults: seeded disk-fault injection, the
    # crash-point matrix (power loss at every durability boundary of
    # append/rotate/snapshot/prune, restart must lose no acked write),
    # scrub/quarantine classification, and the corrupted-replica
    # auto-repair loop against a live replica group.
    echo "== disk fault injector + WAL scrub/quarantine (-race) =="
    go test -race -count=1 ./internal/fault/ ./internal/wal/
    echo "== crash-point matrix + quarantine/repair drills (-race) =="
    go test -race -count=1 -run 'TestCrashPointMatrix|TestEveryDurableConfig|TestWriteBurstCompacts|TestOpenQuarantines|TestCleanShutdownMarkerRoundTrip|TestCorruptNodeRepairsViaStateTransfer|TestUndecodableStateTransferRepairsNothing|TestSealedWALSurfacesStorageUnavailable|TestSnapshotGolden|TestStoreSnapshotRoundTrip|TestStoreDeterminism|TestGobSnapshotStillLoads' ./internal/hdns/
    echo "== durability conformance: crash safety + replica-driven repair (-race) =="
    go test -race -count=1 -run 'TestHDNSDurabilityConformance' ./internal/provider/ptest/
}

stage_figures() {
    # The paper's Figures 2-7 and the ablations on the calibrated cost
    # model: curve-shape assertions (who wins, where the knees fall).
    # Timing-calibrated, so they skip under -race and the test stage
    # never runs them. About two minutes on two cores.
    echo "== calibrated figure shapes + ablations =="
    go test -count=1 -run 'TestFig|TestAblation|TestFederationDepth' ./internal/benchmark/
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
    stage_figures
    stage_vuln
else
    for s in "$@"; do
        case "$s" in
            fmt|vet|lint|build|benchmod|test|allocs|chaos|durability|overload|figures|vuln) "stage_$s" ;;
            *)
                echo "unknown stage: $s (stages: fmt vet lint build benchmod test allocs chaos durability overload figures vuln)" >&2
                exit 2
                ;;
        esac
    done
fi

echo "OK"
