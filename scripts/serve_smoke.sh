#!/bin/sh
# serve_smoke.sh: end-to-end smoke test of the deobserver binary.
#
# Builds deobserver, starts it on an ephemeral port, round-trips one
# obfuscated script through POST /v1/deobfuscate, checks /healthz,
# /statsz and /metrics, then sends SIGTERM and verifies a graceful exit
# (drain + "deobserver stopped" on stdout, exit code 0).
#
# Exits non-zero (with a message on stderr) on any failure. Requires
# curl and a go toolchain; run from the repository root (make
# serve-smoke does).
set -eu

GO="${GO:-go}"
WORKDIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    [ -f "$WORKDIR/server.out" ] && sed 's/^/serve-smoke:   server: /' "$WORKDIR/server.out" >&2
    exit 1
}

echo "serve-smoke: building deobserver"
"$GO" build -o "$WORKDIR/deobserver" ./cmd/deobserver

"$WORKDIR/deobserver" -addr 127.0.0.1:0 >"$WORKDIR/server.out" 2>&1 &
SERVER_PID=$!

# The listen line ("deobserver listening on ADDR") appears once the
# socket is bound; poll briefly for it.
ADDR=""
i=0
while [ $i -lt 50 ]; do
    ADDR="$(sed -n 's/^deobserver listening on //p' "$WORKDIR/server.out" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before binding"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] && echo "serve-smoke: server up on $ADDR" || fail "no listen line within 5s"
BASE="http://$ADDR"

# Liveness.
HEALTH="$(curl -sS -o "$WORKDIR/health.json" -w '%{http_code}' "$BASE/healthz")" \
    || fail "healthz request failed"
[ "$HEALTH" = "200" ] || fail "healthz returned $HEALTH"
grep -q '"status":"ok"' "$WORKDIR/health.json" || fail "healthz body: $(cat "$WORKDIR/health.json")"

# Round-trip one obfuscated script: a format-operator IEX wrapper whose
# recovered form must contain the plain command.
cat >"$WORKDIR/req.json" <<'EOF'
{"script":"IEX (\"Wri{0}e-Ho{1}t 'serve smoke'\" -f 't','s')"}
EOF
CODE="$(curl -sS -o "$WORKDIR/resp.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' -d @"$WORKDIR/req.json" \
    "$BASE/v1/deobfuscate")" || fail "deobfuscate request failed"
[ "$CODE" = "200" ] || fail "deobfuscate returned $CODE: $(cat "$WORKDIR/resp.json")"
grep -q 'Write-Host' "$WORKDIR/resp.json" \
    || fail "recovered script missing deobfuscated command: $(cat "$WORKDIR/resp.json")"
echo "serve-smoke: deobfuscate round-trip ok"

# Stats surfaced the run, as JSON and in the Prometheus text format.
curl -sS "$BASE/statsz" >"$WORKDIR/stats.json" || fail "statsz request failed"
grep -q '"parse_cache"' "$WORKDIR/stats.json" || fail "statsz missing parse_cache"
curl -sS "$BASE/metrics" >"$WORKDIR/metrics.txt" || fail "metrics request failed"
grep -qxF 'invokedeob_requests_total{endpoint="deobfuscate"} 1' "$WORKDIR/metrics.txt" \
    || fail "metrics missing one deobfuscate request: $(grep requests_total "$WORKDIR/metrics.txt")"
grep -q '^invokedeob_cache_hits_total{cache="parse"} [0-9]' "$WORKDIR/metrics.txt" \
    || fail "metrics missing the parse-cache hits line"
echo "serve-smoke: statsz and metrics ok"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
[ "$EXIT" = "0" ] || fail "server exited $EXIT after SIGTERM"
grep -q 'deobserver stopped' "$WORKDIR/server.out" || fail "no clean-stop line after SIGTERM"
SERVER_PID=""
echo "serve-smoke: graceful shutdown ok"
echo "serve-smoke: PASS"
