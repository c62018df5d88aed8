#!/bin/sh
# loadtest.sh: drive the fault-injecting load harness (cmd/loadgen)
# against a locally-built deobserver and assert the overload SLOs.
#
# Two modes:
#
#   sh scripts/loadtest.sh          full mixed-flood run (make loadtest):
#       a deliberately small server (1 worker, short queue, quotas on,
#       aggressive shed high-water) is flooded with the default traffic
#       mix — light, duplicated, heavy base64 payloads, oversize bodies,
#       mid-body disconnects, slow-loris, quota key floods — and the
#       run fails unless light traffic survives: success rate above the
#       floor, p99 under the SLO, zero light 5xx. The JSON report lands
#       in $BENCHJSON (default BENCH_pr6.json). The report must show
#       quota 429s; heavy shedding is then probed deterministically: six
#       requests whose bodies never arrive hold admission tokens, and one
#       heavy script must be shed (503 ErrShed with Retry-After, one more
#       rejected["shed-heavy"] in /statsz).
#
#   sh scripts/loadtest.sh smoke    seconds-scale CI gate (make
#       loadtest-smoke): light+dup traffic only against a default-config
#       server; asserts full success and a loose p99. Proves the harness
#       and the serving path end to end without a long soak.
#
# Requires the go toolchain, curl and mkfifo; run from the repository
# root.
set -eu

GO="${GO:-go}"
MODE="${1:-full}"
BENCHJSON="${BENCHJSON:-BENCH_pr6.json}"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
HOLDS=""

cleanup() {
    [ -z "$HOLDS" ] || kill $HOLDS 2>/dev/null || true
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "loadtest: FAIL: $1" >&2
    [ -f "$WORKDIR/server.out" ] && tail -n 20 "$WORKDIR/server.out" | sed 's/^/loadtest:   server: /' >&2
    exit 1
}

echo "loadtest: building deobserver and loadgen"
"$GO" build -o "$WORKDIR/deobserver" ./cmd/deobserver
"$GO" build -o "$WORKDIR/loadgen" ./cmd/loadgen

if [ "$MODE" = "smoke" ]; then
    # Default-config server: no quotas, default shed threshold. Light
    # traffic only must be answered cleanly.
    "$WORKDIR/deobserver" -addr 127.0.0.1:0 >"$WORKDIR/server.out" 2>&1 &
else
    # A small server so a mixed flood actually saturates it: one
    # worker, short queue, a tight per-tenant quota (5 rps, burst 10 —
    # ordinary tenants stay under it, the quota-buster key does not),
    # and heavy requests shed once half the admission window is
    # occupied (slow-loris holds push occupancy over the line).
    "$WORKDIR/deobserver" -addr 127.0.0.1:0 \
        -workers 1 -queue 12 \
        -quota-rps 5 -quota-burst 10 -quota-buckets 64 \
        -heavy-cost 32768 -shed-highwater 0.5 \
        -max-script 1048576 -timeout 5s \
        >"$WORKDIR/server.out" 2>&1 &
fi
SERVER_PID=$!

ADDR=""
i=0
while [ $i -lt 50 ]; do
    ADDR="$(sed -n 's/^deobserver listening on //p' "$WORKDIR/server.out" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before binding"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || fail "no listen line within 5s"
echo "loadtest: server up on $ADDR ($MODE mode)"

if [ "$MODE" = "smoke" ]; then
    "$WORKDIR/loadgen" -url "http://$ADDR" \
        -qps 60 -duration 3s -workers 32 \
        -mix 'light=3,dup=1' -seed 1 \
        -assert-light-success 0.99 -assert-light-p99 2s -assert-max-light-5xx 0 \
        || fail "smoke SLO assertions failed"
else
    # The full flood. SLO floors: under a mixed hostile flood on a
    # saturated 1-worker server, light traffic (spread over 24 ordinary
    # tenants) must still succeed at least 70% of the time (the rest
    # are honest 429s with Retry-After, never 5xx), with served-light
    # p99 within 2s.
    "$WORKDIR/loadgen" -url "http://$ADDR" \
        -qps 120 -duration 12s -workers 96 -tenants 24 \
        -seed 1 -json "$BENCHJSON" \
        -assert-light-success 0.7 -assert-light-p99 2s -assert-max-light-5xx 0 \
        || fail "flood SLO assertions failed (report: $BENCHJSON)"

    # The flood must also have exercised the quota defense: the report
    # has to show quota 429s, or the run proved nothing.
    grep -q '"quota"' "$BENCHJSON" || fail "report missing quota rejections"
    echo "loadtest: quota rejections present in $BENCHJSON"

    # Heavy shedding, probed on a held window rather than left to the
    # flood's timing. The window holds 13 tokens (1 worker + queue 12)
    # and sheds heavy work at ceil(0.5 x 13) = 7. Six requests whose
    # bodies never arrive hold six (the server takes a token before it
    # reads a body); a heavy script holding the seventh must be shed.
    field() { curl -sS "http://$ADDR/statsz" | grep -o "\"$1\":[0-9]*" | head -n1 | cut -d: -f2; }
    wait_in_flight() {
        i=0
        while [ "$(field in_flight)" != "$1" ]; do
            [ $i -lt 100 ] || fail "in_flight never read $1 (last $(field in_flight))"
            sleep 0.1
            i=$((i + 1))
        done
    }
    wait_in_flight 0
    mkfifo "$WORKDIR/hold"
    for i in 1 2 3 4 5 6; do
        curl -sS -o /dev/null -X POST -T - -H 'Content-Type: application/json' \
            -H "X-Api-Key: hold-$i" "http://$ADDR/v1/deobfuscate" <"$WORKDIR/hold" &
        HOLDS="$HOLDS $!"
    done
    exec 3>"$WORKDIR/hold" # the held bodies' writer: open, silent
    wait_in_flight 6
    SHED_BEFORE="$(field shed-heavy)"
    awk 'BEGIN { printf "{\"script\":\"Write-Host "; for (i = 0; i < 40000; i++) printf "x"; print "\"}" }' \
        >"$WORKDIR/heavy.json"
    CODE="$(curl -sS -o "$WORKDIR/shed.json" -D "$WORKDIR/shed.hdr" -w '%{http_code}' \
        -H 'Content-Type: application/json' -H 'Expect:' -H 'X-Api-Key: heavy-probe' \
        --data-binary @"$WORKDIR/heavy.json" "http://$ADDR/v1/deobfuscate")" \
        || fail "heavy probe request failed"
    [ "$CODE" = "503" ] || fail "heavy probe on a held window returned $CODE: $(cat "$WORKDIR/shed.json")"
    grep -q '"name":"ErrShed"' "$WORKDIR/shed.json" || fail "heavy probe body: $(cat "$WORKDIR/shed.json")"
    grep -qi '^Retry-After:' "$WORKDIR/shed.hdr" || fail "shed response without Retry-After"
    SHED_AFTER="$(field shed-heavy)"
    [ "$SHED_AFTER" = "$((${SHED_BEFORE:-0} + 1))" ] \
        || fail "rejected[shed-heavy] went from ${SHED_BEFORE:-0} to ${SHED_AFTER:-0}, want one more"
    exec 3>&- # end the held bodies; their requests answer 400 and release
    wait $HOLDS
    HOLDS=""
    echo "loadtest: heavy request shed on a held window (503 ErrShed + Retry-After)"
fi

# Graceful shutdown still works after the flood.
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
[ "$EXIT" = "0" ] || fail "server exited $EXIT after SIGTERM"
grep -q 'deobserver stopped' "$WORKDIR/server.out" || fail "no clean-stop line after SIGTERM"
SERVER_PID=""
echo "loadtest: graceful shutdown after flood ok"
echo "loadtest: PASS ($MODE)"
