#!/bin/sh
# Smoke-test the bundled daemon end to end: build it, boot it on a sample
# (synthetic) corpus, run the client smoke test against it, and fail on any
# non-200 the test observes. Then smoke the distributed mode: boot two
# bundleworker daemons plus a coordinator bundled -workers, upload the demo
# corpus to it, and fail on any non-200 or on a solve mismatch between the
# cluster and local modes — including with one worker SIGSTOPped (a
# blackhole: connections accepted, never answered), where the coordinator
# must still answer within its deadline budget. Finally smoke the durable
# multi-tenant mode:
# boot with -data-dir and -auth-keys, upload as one tenant, check 401/403/
# 429 enforcement, SIGTERM the daemon, reboot it on the same data dir, and
# demand the restored corpus solve to the same revenue. CI runs this after
# the unit-test gate; locally it's `make smoke`.
set -eu

ADDR="${BUNDLED_SMOKE_ADDR:-127.0.0.1:8077}"
CADDR="${BUNDLED_SMOKE_CLUSTER_ADDR:-127.0.0.1:8078}"
W1="${BUNDLEWORKER_SMOKE_ADDR1:-127.0.0.1:9181}"
W2="${BUNDLEWORKER_SMOKE_ADDR2:-127.0.0.1:9182}"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/bundled"
WBIN="$BINDIR/bundleworker"
LOG="$(mktemp)"
CLOG="$(mktemp)"
WLOG1="$(mktemp)"
WLOG2="$(mktemp)"

go build -o "$BIN" ./cmd/bundled
go build -o "$WBIN" ./cmd/bundleworker

"$BIN" -addr "$ADDR" -demo -pprof >"$LOG" 2>&1 &
PID=$!
PIDS="$PID"
# CONT first: a SIGSTOPped worker (blackhole scenario below) would otherwise
# never see the TERM.
trap 'kill -CONT $PIDS 2>/dev/null; kill $PIDS 2>/dev/null || true' EXIT INT TERM

# wait_healthy url pid log [want_status]
wait_healthy() {
  _i=0
  _want="${4:-200}"
  until [ "$(curl -s -o /dev/null -w '%{http_code}' "$1/healthz" 2>/dev/null)" = "$_want" ]; do
    _i=$((_i + 1))
    if [ "$_i" -ge 60 ]; then
      echo "$1 did not reach health status $_want; log:" >&2
      cat "$3" >&2
      exit 1
    fi
    if ! kill -0 "$2" 2>/dev/null; then
      echo "daemon for $1 exited early; log:" >&2
      cat "$3" >&2
      exit 1
    fi
    sleep 0.5
  done
}

wait_healthy "http://$ADDR" "$PID" "$LOG"

BUNDLED_ADDR="http://$ADDR" go test ./client -run TestServerSmoke -count=1 -v

# --- observability ----------------------------------------------------------
# Every /v1 response must carry an X-Request-Id, the solve's X-Trace-Id must
# be retrievable from /debug/traces, the daemon log must hold the request
# line of the solve and of a deliberate 404 (whose error body's request_id
# alone must find it), and with -pprof the heap profile must serve.

HDRS="$(mktemp)"
curl -sf -D "$HDRS" -o /dev/null -X POST "http://$ADDR/v1/corpora/demo/solve" -d '{"algorithm":"matching"}'
REQ_ID=$(tr -d '\r' <"$HDRS" | awk 'tolower($1)=="x-request-id:"{print $2}')
TRACE_ID=$(tr -d '\r' <"$HDRS" | awk 'tolower($1)=="x-trace-id:"{print $2}')
if [ -z "$REQ_ID" ]; then
  echo "solve response missing X-Request-Id; headers:" >&2
  cat "$HDRS" >&2
  exit 1
fi
if [ -z "$TRACE_ID" ]; then
  echo "solve response missing X-Trace-Id; headers:" >&2
  cat "$HDRS" >&2
  exit 1
fi
if ! curl -sf "http://$ADDR/debug/traces" | grep -q "$TRACE_ID"; then
  echo "/debug/traces does not contain trace $TRACE_ID" >&2
  exit 1
fi
MISS_ID=$(curl -s -X POST "http://$ADDR/v1/corpora/no-such-corpus/solve" -d '{}' |
  sed -n 's/.*"request_id": *"\([0-9a-f]*\)".*/\1/p')
if [ -z "$MISS_ID" ]; then
  echo "404 error body carries no request_id" >&2
  exit 1
fi
for id in "$REQ_ID" "$MISS_ID"; do
  if ! grep -q "request_id=$id" "$LOG"; then
    echo "daemon log has no request line for request_id $id; log:" >&2
    cat "$LOG" >&2
    exit 1
  fi
done
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/pprof/heap?debug=1")
if [ "$code" != "200" ]; then
  echo "/debug/pprof/heap returned $code with -pprof, want 200" >&2
  exit 1
fi
echo "observability smoke: request $REQ_ID traced as $TRACE_ID and logged, 404 $MISS_ID logged, pprof serving"

# --- distributed mode -------------------------------------------------------

"$WBIN" -addr "$W1" >"$WLOG1" 2>&1 &
WPID1=$!
PIDS="$PIDS $WPID1"
"$WBIN" -addr "$W2" >"$WLOG2" 2>&1 &
WPID2=$!
PIDS="$PIDS $WPID2"
wait_healthy "http://$W1" "$WPID1" "$WLOG1"
wait_healthy "http://$W2" "$WPID2" "$WLOG2"

"$BIN" -addr "$CADDR" -workers "$W1,$W2" -demo >"$CLOG" 2>&1 &
CPID=$!
PIDS="$PIDS $CPID"
wait_healthy "http://$CADDR" "$CPID" "$CLOG"

# Upload the same corpus to both daemons through the HTTP API (tiny explicit
# matrix doc), then solve it in both modes and demand identical revenue.
CORPUS='{"id":"smoke","matrix":{"consumers":4,"items":3,"entries":[[0,0,8],[0,1,5],[1,0,6],[1,2,9],[2,1,7],[2,2,4],[3,0,3],[3,2,5]]},"options":{}}'
for a in "$ADDR" "$CADDR"; do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$a/v1/corpora" -d "$CORPUS")
  if [ "$code" != "201" ]; then
    echo "corpus upload to $a returned $code" >&2
    exit 1
  fi
done

# solve_revenue addr corpus algorithm [extra curl args...] — e.g. an
# Authorization header for the multi-tenant daemon.
solve_revenue() {
  _addr=$1 _corpus=$2 _alg=$3
  shift 3
  curl -sf "$@" -X POST "http://$_addr/v1/corpora/$_corpus/solve" -d "{\"algorithm\":\"$_alg\"}" |
    grep -o '"revenue": [0-9.eE+-]*' | head -1 | awk '{print $2}'
}

for alg in matching greedy; do
  for corpus in demo smoke; do
    RL=$(solve_revenue "$ADDR" "$corpus" "$alg")
    RC=$(solve_revenue "$CADDR" "$corpus" "$alg")
    if [ -z "$RL" ] || [ -z "$RC" ]; then
      echo "missing revenue for $corpus/$alg (local='$RL' cluster='$RC')" >&2
      exit 1
    fi
    if ! awk -v a="$RL" -v b="$RC" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d <= 1e-6*(1+(a<0?-a:a)))}'; then
      echo "solve mismatch for $corpus/$alg: local $RL vs cluster $RC" >&2
      exit 1
    fi
    echo "cluster smoke: $corpus/$alg revenue $RC matches local"
  done
done

# Workers must report their assigned spans.
if ! curl -sf "http://$W1/healthz" | grep -q '"corpus"'; then
  echo "worker 1 reports no assigned span" >&2
  exit 1
fi

# The coordinator's merged fleet view must list both workers as reachable,
# with the coordinator-side load join filled in from the solves above.
FLEET=$(curl -sf "http://$CADDR/debug/fleet" | tr -d ' \n')
for w in "$W1" "$W2"; do
  if ! printf '%s' "$FLEET" | grep -q "\"addr\":\"[^\"]*$w\""; then
    echo "/debug/fleet does not list worker $w: $FLEET" >&2
    exit 1
  fi
done
if ! printf '%s' "$FLEET" | grep -q '"reachable":2'; then
  echo "/debug/fleet does not report 2 reachable workers: $FLEET" >&2
  exit 1
fi
if ! printf '%s' "$FLEET" | grep -q '"rpcs":[1-9]'; then
  echo "/debug/fleet load join reports no RPCs: $FLEET" >&2
  exit 1
fi
echo "cluster smoke: /debug/fleet lists both workers with live load state"

# --- blackholed worker --------------------------------------------------------
# A SIGSTOPped worker accepts TCP connections but never answers (a blackhole,
# not a refused dial). A coordinator with a short per-RPC budget must still
# answer solves within its deadline budget via the replica/local-fallback
# ladder. Cache disabled so the timed solve really exercises the fan-out.

SADDR="${BUNDLED_SMOKE_STALL_ADDR:-127.0.0.1:8076}"
SLOG="$(mktemp)"
"$BIN" -addr "$SADDR" -workers "$W1,$W2" -rpc-timeout 300ms -cache -1 -demo >"$SLOG" 2>&1 &
SPID=$!
PIDS="$PIDS $SPID"
wait_healthy "http://$SADDR" "$SPID" "$SLOG"

kill -STOP "$WPID1"
T0=$(date +%s)
RS=$(solve_revenue "$SADDR" demo matching)
T1=$(date +%s)
kill -CONT "$WPID1"
if [ -z "$RS" ]; then
  echo "solve with a blackholed worker failed; coordinator log:" >&2
  cat "$SLOG" >&2
  exit 1
fi
if [ $((T1 - T0)) -gt 10 ]; then
  echo "solve with a blackholed worker took $((T1 - T0))s, budget is 10s" >&2
  exit 1
fi
RD=$(solve_revenue "$ADDR" demo matching)
if ! awk -v a="$RD" -v b="$RS" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d <= 1e-6*(1+(a<0?-a:a)))}'; then
  echo "blackholed-worker solve mismatch: local $RD vs coordinator $RS" >&2
  exit 1
fi
echo "cluster smoke: solve answered in $((T1 - T0))s with a blackholed worker (revenue $RS matches local)"

# Killing a worker must degrade the coordinator's /healthz to 503 (solves
# keep working via the local fallback — readiness is the operator signal).
kill "$WPID1"
wait "$WPID1" 2>/dev/null || true
wait_healthy "http://$CADDR" "$CPID" "$CLOG" 503
echo "cluster smoke: coordinator degraded to 503 with a worker down"

# --- durable multi-tenant mode ----------------------------------------------

DADDR="${BUNDLED_SMOKE_DURABLE_ADDR:-127.0.0.1:8079}"
DATADIR="$(mktemp -d)"
DLOG="$(mktemp)"
AKEY="sk-alice"
BKEY="sk-bob"

"$BIN" -addr "$DADDR" -data-dir "$DATADIR" -auth-keys "alice=$AKEY,bob=$BKEY" -quota-corpora 1 >"$DLOG" 2>&1 &
DPID=$!
PIDS="$PIDS $DPID"
wait_healthy "http://$DADDR" "$DPID" "$DLOG"

# Unauthenticated requests must be rejected with 401.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$DADDR/v1/corpora")
if [ "$code" != "401" ]; then
  echo "unauthenticated list returned $code, want 401" >&2
  exit 1
fi

# Alice uploads her corpus; it must persist across the restart below.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$DADDR/v1/corpora" \
  -H "Authorization: Bearer $AKEY" -d "$CORPUS")
if [ "$code" != "201" ]; then
  echo "authenticated upload returned $code, want 201" >&2
  cat "$DLOG" >&2
  exit 1
fi

# Bob must not see or touch alice's corpus.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$DADDR/v1/corpora/smoke/solve" \
  -H "Authorization: Bearer $BKEY" -d '{"algorithm":"matching"}')
if [ "$code" != "403" ]; then
  echo "cross-tenant solve returned $code, want 403" >&2
  exit 1
fi

# A second distinct corpus exceeds alice's -quota-corpora 1: 429.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$DADDR/v1/corpora" \
  -H "Authorization: Bearer $AKEY" -d "$(printf '%s' "$CORPUS" | sed 's/"smoke"/"smoke2"/')")
if [ "$code" != "429" ]; then
  echo "over-quota upload returned $code, want 429" >&2
  exit 1
fi

R_BEFORE=$(solve_revenue "$DADDR" smoke matching -H "Authorization: Bearer $AKEY")

# The workload accounting must reflect exactly the requests alice just made
# (upload + over-quota upload + solve = 3), scoped to her own tenant row.
USAGE=$(curl -sf -H "Authorization: Bearer $AKEY" "http://$DADDR/v1/usage" | tr -d ' \n')
if ! printf '%s' "$USAGE" | grep -q '"scope":"tenant","tenant":"alice"'; then
  echo "/v1/usage is not alice-scoped: $USAGE" >&2
  exit 1
fi
ALICE_REQS=$(printf '%s' "$USAGE" | sed -n 's/.*"tenants":\[{"key":"alice","requests":\([0-9]*\).*/\1/p')
if [ "$ALICE_REQS" != "3" ]; then
  echo "/v1/usage reports $ALICE_REQS requests for alice, want 3: $USAGE" >&2
  exit 1
fi
if ! printf '%s' "$USAGE" | grep -q '"key":"smoke"'; then
  echo "/v1/usage does not meter corpus smoke: $USAGE" >&2
  exit 1
fi
if printf '%s' "$USAGE" | grep -q '"key":"bob"'; then
  echo "/v1/usage leaks bob's row to alice: $USAGE" >&2
  exit 1
fi
echo "usage smoke: /v1/usage accounts alice's 3 requests, tenant-scoped"

# Without -usage-metrics the open /metrics endpoint must not carry the
# labeled usage families (their labels are tenant names and corpus IDs).
if curl -sf "http://$DADDR/metrics" | grep -q -e bundled_tenant_ -e bundled_corpus_; then
  echo "/metrics exposes labeled usage series without -usage-metrics" >&2
  exit 1
fi
echo "usage smoke: labeled usage series stay off the open /metrics endpoint"

# Kill the daemon and reboot it against the same data dir: the corpus and
# its solve results must survive.
kill -TERM "$DPID"
wait "$DPID"
"$BIN" -addr "$DADDR" -data-dir "$DATADIR" -auth-keys "alice=$AKEY,bob=$BKEY" -quota-corpora 1 >"$DLOG" 2>&1 &
DPID=$!
PIDS="$PIDS $DPID"
wait_healthy "http://$DADDR" "$DPID" "$DLOG"

R_AFTER=$(solve_revenue "$DADDR" smoke matching -H "Authorization: Bearer $AKEY")
if [ -z "$R_BEFORE" ] || [ -z "$R_AFTER" ]; then
  echo "missing restart revenues (before='$R_BEFORE' after='$R_AFTER')" >&2
  cat "$DLOG" >&2
  exit 1
fi
if ! awk -v a="$R_BEFORE" -v b="$R_AFTER" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d <= 1e-9*(1+(a<0?-a:a)))}'; then
  echo "restart solve mismatch: before $R_BEFORE vs after $R_AFTER" >&2
  exit 1
fi
echo "durable smoke: revenue $R_AFTER survived the restart"

# --- delta mutation round trip ----------------------------------------------
# PATCH alice's corpus in place (upsert one cell, delete another), solve,
# restart the daemon, and demand the restored chain solve to the same
# revenue — the delta records must replay on top of the snapshot.

PATCH_OUT="$(mktemp)"
code=$(curl -s -o "$PATCH_OUT" -w '%{http_code}' -X PATCH "http://$DADDR/v1/corpora/smoke" \
  -H "Authorization: Bearer $AKEY" \
  -d '{"if_generation":1,"cells":[{"consumer":0,"item":0,"value":50},{"consumer":3,"item":2,"delete":true}]}')
if [ "$code" != "200" ]; then
  echo "corpus patch returned $code, want 200:" >&2
  cat "$PATCH_OUT" >&2
  exit 1
fi
if ! grep -q '"version": 2' "$PATCH_OUT"; then
  echo "corpus patch did not bump the generation to 2:" >&2
  cat "$PATCH_OUT" >&2
  exit 1
fi
# A stale precondition must be rejected without applying anything.
code=$(curl -s -o /dev/null -w '%{http_code}' -X PATCH "http://$DADDR/v1/corpora/smoke" \
  -H "Authorization: Bearer $AKEY" \
  -d '{"if_generation":1,"cells":[{"consumer":1,"item":0,"value":99}]}')
if [ "$code" != "409" ]; then
  echo "stale-generation patch returned $code, want 409" >&2
  exit 1
fi

R_PATCHED=$(solve_revenue "$DADDR" smoke matching -H "Authorization: Bearer $AKEY")
kill -TERM "$DPID"
wait "$DPID"
"$BIN" -addr "$DADDR" -data-dir "$DATADIR" -auth-keys "alice=$AKEY,bob=$BKEY" -quota-corpora 1 >"$DLOG" 2>&1 &
DPID=$!
PIDS="$PIDS $DPID"
wait_healthy "http://$DADDR" "$DPID" "$DLOG"
R_REPLAYED=$(solve_revenue "$DADDR" smoke matching -H "Authorization: Bearer $AKEY")
if [ -z "$R_PATCHED" ] || [ -z "$R_REPLAYED" ]; then
  echo "missing patched revenues (before='$R_PATCHED' after='$R_REPLAYED')" >&2
  cat "$DLOG" >&2
  exit 1
fi
if ! awk -v a="$R_PATCHED" -v b="$R_REPLAYED" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d <= 1e-9*(1+(a<0?-a:a)))}'; then
  echo "patched-restart solve mismatch: before $R_PATCHED vs after $R_REPLAYED" >&2
  exit 1
fi
if awk -v a="$R_BEFORE" -v b="$R_PATCHED" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d <= 1e-9)}'; then
  echo "patch left the revenue unchanged ($R_PATCHED); the mutation did not apply" >&2
  exit 1
fi
echo "mutation smoke: patched revenue $R_REPLAYED survived the restart (was $R_BEFORE before the patch)"

# Graceful shutdowns must complete cleanly.
for p in "$CPID" "$SPID" "$WPID2" "$PID" "$DPID"; do
  kill -TERM "$p"
  wait "$p"
done
trap - EXIT INT TERM
echo "smoke OK"
