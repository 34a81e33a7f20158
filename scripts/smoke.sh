#!/usr/bin/env sh
# Smoke test: every node boots from an epoch store published by
# eppi-construct -epoch-dir, the one artefact between construction and
# serving. First publish a 1-shard store, boot eppi-serve on it, run one
# query, and assert the observability surface works end to end —
# /v1/healthz answers, /v1/query returns providers, /v1/metrics exposes
# the runtime gauges, /v1/privacy serves the published audit, and
# /v1/traces serves a non-empty Chrome trace whose root span is the
# query request. Then publish a 2-shard store with the same -seed (shard
# geometry does not shape M′), boot two eppi-serve shard nodes plus
# eppi-gateway on it, and assert a routed lookup answers through the
# gateway exactly as the single node did. Then exercise the epoch
# lifecycle: publish an epoch store, boot a hot-reloading fleet from it,
# publish a second epoch mid-run, and assert the fleet swaps, the
# gateway's answer changes, and /v1/privacy serves each published epoch's
# verified privacy report on the node and aggregated through the
# gateway. Last, the replication path: boot eppi-origin over the store,
# boot a node with an empty local cache and -epoch-origin, and assert it
# converges to the origin's epoch and answers queries from the mirrored
# index. Before the fleets, a secure construction runs over the TCP
# loopback transport and must report its MPC traffic.
# Used by CI; runnable locally via `make smoke`.
#
# Set SMOKE_ARTIFACT_DIR to persist debugging artifacts (final metrics
# snapshots, the audit log, each epoch's privacy.json) on exit — CI
# uploads that directory when the run fails.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="${SMOKE_BIN:-./eppi-serve-smoke}"
GW_BIN="${SMOKE_GW_BIN:-./eppi-gateway-smoke}"
CON_BIN="${SMOKE_CON_BIN:-./eppi-construct-smoke}"
SHARD0_ADDR="${SMOKE_SHARD0_ADDR:-127.0.0.1:18081}"
SHARD1_ADDR="${SMOKE_SHARD1_ADDR:-127.0.0.1:18082}"
GW_ADDR="${SMOKE_GW_ADDR:-127.0.0.1:18090}"
EP0_ADDR="${SMOKE_EP0_ADDR:-127.0.0.1:18083}"
EP1_ADDR="${SMOKE_EP1_ADDR:-127.0.0.1:18084}"
EPGW_ADDR="${SMOKE_EPGW_ADDR:-127.0.0.1:18091}"
ORIGIN_BIN="${SMOKE_ORIGIN_BIN:-./eppi-origin-smoke}"
ORIGIN_ADDR="${SMOKE_ORIGIN_ADDR:-127.0.0.1:18092}"
REP_ADDR="${SMOKE_REP_ADDR:-127.0.0.1:18085}"

go build -o "$BIN" ./cmd/eppi-serve
go build -o "$GW_BIN" ./cmd/eppi-gateway
go build -o "$CON_BIN" ./cmd/eppi-construct
go build -o "$ORIGIN_BIN" ./cmd/eppi-origin

ONE_STORE=$(mktemp -d)
SHARD_STORE=$(mktemp -d)
STORE=$(mktemp -d)
AUDIT=$(mktemp -d)
MIRROR_CACHE=$(mktemp -d)
ART="${SMOKE_ARTIFACT_DIR:-}"

# collect_artifacts snapshots whatever observability state is reachable
# into $ART — called from the exit trap so a failed run leaves evidence.
collect_artifacts() {
  [ -n "$ART" ] || return 0
  mkdir -p "$ART"
  for a in "$ADDR" "$SHARD0_ADDR" "$SHARD1_ADDR" "$GW_ADDR" "$EP0_ADDR" "$EP1_ADDR" "$EPGW_ADDR" "$REP_ADDR"; do
    curl -sf --max-time 2 "http://$a/v1/metrics" >"$ART/metrics-$a.txt" 2>/dev/null || rm -f "$ART/metrics-$a.txt"
    curl -sf --max-time 2 "http://$a/v1/privacy" >"$ART/privacy-$a.json" 2>/dev/null || rm -f "$ART/privacy-$a.json"
  done
  cp "$AUDIT"/audit-*.jsonl "$ART/" 2>/dev/null || true
  for f in "$ONE_STORE"/epochs/*/privacy.json; do
    [ -f "$f" ] || continue
    cp "$f" "$ART/privacy-single-epoch-$(basename "$(dirname "$f")").json"
  done
  for f in "$STORE"/epochs/*/privacy.json; do
    [ -f "$f" ] || continue
    cp "$f" "$ART/privacy-epoch-$(basename "$(dirname "$f")").json"
  done
}

PIDS=""
trap 'collect_artifacts; for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -f "$BIN" "$GW_BIN" "$CON_BIN" "$ORIGIN_BIN"; rm -rf "$ONE_STORE" "$SHARD_STORE" "$STORE" "$AUDIT" "$MIRROR_CACHE"' EXIT

# Secure construction over real sockets: 12 providers make a 66-link gob
# mesh, cheap enough for every run. The command must exit 0 and print
# its MPC traffic line.
TCP_OUT=$("$CON_BIN" -providers 12 -owners 8 -secure -c 3 -tcp -log-level error) || {
  echo "smoke: secure construction over -tcp failed" >&2
  exit 1
}
echo "$TCP_OUT" | grep -q 'MPC traffic:' || {
  echo "smoke: secure construction over -tcp printed no MPC traffic: $TCP_OUT" >&2
  exit 1
}
echo "smoke: secure construction over tcp ok"

# A 1-shard store: the single node serves the whole index.
"$CON_BIN" -providers 20 -owners 8 -seed 1 -epoch-dir "$ONE_STORE" >/dev/null
"$BIN" -addr "$ADDR" -epoch-dir "$ONE_STORE" -log-format json &
PIDS="$!"

# Wait for the server to come up (up to ~5s).
i=0
until curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: server did not come up on $ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

echo "smoke: healthz ok"

# One query (owner names are URLs; escape the owner:// scheme).
QUERY_OUT=$(curl -sf "$BASE/v1/query?owner=owner%3A%2F%2Fsite-0.example.org")
echo "$QUERY_OUT" | grep -q '"providers"' || {
  echo "smoke: query response missing providers: $QUERY_OUT" >&2
  exit 1
}
echo "smoke: query ok"

# Metrics must include the runtime telemetry refreshed on scrape.
METRICS_OUT=$(curl -sf "$BASE/v1/metrics")
echo "$METRICS_OUT" | grep -q '^eppi_go_goroutines' || {
  echo "smoke: metrics missing runtime telemetry" >&2
  exit 1
}
echo "smoke: metrics ok"

# The publisher audits the construction: /v1/privacy serves the store's
# checksummed report with no Eq. 1 violations (Chernoff policy must audit
# clean).
PRIV_OUT=$(curl -sf "$BASE/v1/privacy")
echo "$PRIV_OUT" | grep -q '"checksum"' || {
  echo "smoke: /v1/privacy report missing checksum: $PRIV_OUT" >&2
  exit 1
}
echo "$PRIV_OUT" | grep -q '"violation_count":0' || {
  echo "smoke: published construction violates Eq. 1: $PRIV_OUT" >&2
  exit 1
}
# The served report must be aggregates-only: the identity→ε-decile map
# and per-identity counts live in the operator detail, never on the wire.
for leak in identity_buckets false_positives; do
  if echo "$PRIV_OUT" | grep -q "$leak"; then
    echo "smoke: /v1/privacy leaks per-identity data ($leak): $PRIV_OUT" >&2
    exit 1
  fi
done
echo "smoke: privacy report ok"

# The trace ring must hold the query's trace: valid Chrome trace JSON
# with an http.query root span.
TRACES_OUT=$(curl -sf "$BASE/v1/traces")
echo "$TRACES_OUT" | grep -q '"traceEvents"' || {
  echo "smoke: /v1/traces is not Chrome trace JSON: $TRACES_OUT" >&2
  exit 1
}
echo "$TRACES_OUT" | grep -q '"http.query"' || {
  echo "smoke: trace ring holds no http.query root span: $TRACES_OUT" >&2
  exit 1
}
echo "smoke: traces ok"

# --- Distributed layer: 2 shard nodes + gateway -------------------------
# Construction is deterministic under -seed and shard geometry does not
# shape M′, so a 2-shard store of the same parameters holds complementary
# slices of the very index the single node serves.
"$CON_BIN" -providers 20 -owners 8 -seed 1 -shards 2 -epoch-dir "$SHARD_STORE" >/dev/null
"$BIN" -addr "$SHARD0_ADDR" -epoch-dir "$SHARD_STORE" -shard 0/2 -log-format json &
PIDS="$PIDS $!"
"$BIN" -addr "$SHARD1_ADDR" -epoch-dir "$SHARD_STORE" -shard 1/2 -log-format json &
PIDS="$PIDS $!"

for a in "$SHARD0_ADDR" "$SHARD1_ADDR"; do
  i=0
  until curl -sf "http://$a/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "smoke: shard node did not come up on $a" >&2
      exit 1
    fi
    sleep 0.1
  done
done

# Shard nodes report their shard identity.
curl -sf "http://$SHARD0_ADDR/v1/healthz" | grep -q '"shard"' || {
  echo "smoke: shard node healthz missing shard identity" >&2
  exit 1
}
echo "smoke: shard nodes ok"

"$GW_BIN" -addr "$GW_ADDR" -shards "http://$SHARD0_ADDR;http://$SHARD1_ADDR" -log-format json &
PIDS="$PIDS $!"
i=0
until curl -sf "http://$GW_ADDR/v1/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: gateway did not come up on $GW_ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

# A routed lookup through the gateway answers with the same providers the
# single-node server gave.
GW_OUT=$(curl -sf "http://$GW_ADDR/v1/query?owner=owner%3A%2F%2Fsite-0.example.org")
echo "$GW_OUT" | grep -q '"providers"' || {
  echo "smoke: gateway query missing providers: $GW_OUT" >&2
  exit 1
}
[ "$GW_OUT" = "$QUERY_OUT" ] || {
  echo "smoke: gateway answer differs from single-node answer:" >&2
  echo "  gateway:     $GW_OUT" >&2
  echo "  single-node: $QUERY_OUT" >&2
  exit 1
}
# A repeat of the same lookup is a cache hit, visible in gateway metrics.
curl -sf "http://$GW_ADDR/v1/query?owner=owner%3A%2F%2Fsite-0.example.org" >/dev/null
curl -sf "http://$GW_ADDR/v1/metrics" | grep -q '^eppi_gateway_cache_hits_total [1-9]' || {
  echo "smoke: gateway cache hit not counted" >&2
  exit 1
}
echo "smoke: gateway ok"

# --- Epoch lifecycle: publish, hot-swap, gateway invalidation -----------
# Publish epoch 1 into a fresh store, boot a 2-shard hot-reloading fleet
# plus a gateway over it, then publish epoch 2 mid-run (a re-publication
# over a grown provider network) and assert: the nodes hot-swap without
# restarting, the swap is counted, and the gateway's answer changes.
"$CON_BIN" -providers 20 -owners 8 -shards 2 -epoch-dir "$STORE" >/dev/null
[ "$(cat "$STORE/CURRENT")" = "1" ] || {
  echo "smoke: CURRENT after first publish is $(cat "$STORE/CURRENT"), want 1" >&2
  exit 1
}
[ -f "$STORE/epochs/000001/privacy.json" ] || {
  echo "smoke: publish wrote no privacy.json into the epoch store" >&2
  exit 1
}
# The operator-owned store also gets the per-identity detail document,
# for eppi-audit's ε-decile join — filesystem-only, never served.
[ -f "$STORE/epochs/000001/privacy_detail.json" ] || {
  echo "smoke: publish wrote no privacy_detail.json into the epoch store" >&2
  exit 1
}

"$BIN" -addr "$EP0_ADDR" -epoch-dir "$STORE" -shard 0/2 -epoch-poll 200ms -audit-dir "$AUDIT" -log-format json &
PIDS="$PIDS $!"
"$BIN" -addr "$EP1_ADDR" -epoch-dir "$STORE" -shard 1/2 -epoch-poll 200ms -log-format json &
PIDS="$PIDS $!"
for a in "$EP0_ADDR" "$EP1_ADDR"; do
  i=0
  until curl -sf "http://$a/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "smoke: epoch node did not come up on $a" >&2
      exit 1
    fi
    sleep 0.1
  done
  curl -sf "http://$a/v1/healthz" | grep -q '"epoch":1' || {
    echo "smoke: epoch node on $a not at epoch 1: $(curl -sf "http://$a/v1/healthz")" >&2
    exit 1
  }
done

"$GW_BIN" -addr "$EPGW_ADDR" -shards "http://$EP0_ADDR;http://$EP1_ADDR" -probe 200ms -log-format json &
PIDS="$PIDS $!"
i=0
until curl -sf "http://$EPGW_ADDR/v1/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: epoch gateway did not come up on $EPGW_ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

EPOCH1_OUT=$(curl -sf "http://$EPGW_ADDR/v1/query?owner=owner%3A%2F%2Fsite-0.example.org")
echo "$EPOCH1_OUT" | grep -q '"providers"' || {
  echo "smoke: epoch-1 gateway query missing providers: $EPOCH1_OUT" >&2
  exit 1
}
echo "smoke: epoch 1 serving ok"

# Each node verifies and serves the published epoch's privacy report,
# and the gateway aggregates a consistent fleet view.
EP0_PRIV=$(curl -sf "http://$EP0_ADDR/v1/privacy")
echo "$EP0_PRIV" | grep -q '"epoch":1' || {
  echo "smoke: node /v1/privacy not serving epoch 1's report" >&2
  exit 1
}
if echo "$EP0_PRIV" | grep -q identity_buckets; then
  echo "smoke: node /v1/privacy leaks the identity→decile map" >&2
  exit 1
fi
EPGW_PRIV=$(curl -sf "http://$EPGW_ADDR/v1/privacy")
echo "$EPGW_PRIV" | grep -q '"status":"ok"' || {
  echo "smoke: gateway privacy aggregate not ok: $EPGW_PRIV" >&2
  exit 1
}
echo "smoke: privacy report served and aggregated"

# Publish epoch 2 with 10 more providers: same owners, different answers.
"$CON_BIN" -providers 30 -owners 8 -shards 2 -epoch-dir "$STORE" >/dev/null
[ "$(cat "$STORE/CURRENT")" = "2" ] || {
  echo "smoke: CURRENT after second publish is $(cat "$STORE/CURRENT"), want 2" >&2
  exit 1
}

# The nodes poll every 200ms; wait for both to report the swap.
for a in "$EP0_ADDR" "$EP1_ADDR"; do
  i=0
  until curl -sf "http://$a/v1/healthz" | grep -q '"epoch":2'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      echo "smoke: node on $a never swapped to epoch 2" >&2
      exit 1
    fi
    sleep 0.1
  done
done
for a in "$EP0_ADDR" "$EP1_ADDR"; do
  curl -sf "http://$a/v1/metrics" | grep -q '^eppi_epoch 2' || {
    echo "smoke: node on $a eppi_epoch gauge not at 2" >&2
    exit 1
  }
  curl -sf "http://$a/v1/metrics" | grep -q '^eppi_epoch_swaps_total [1-9]' || {
    echo "smoke: node on $a counted no epoch swap" >&2
    exit 1
  }
done
echo "smoke: fleet hot-swapped to epoch 2"

# The gateway learns the new epoch from its probes; its cached epoch-1
# answer must be invalidated and the fresh answer must differ.
i=0
until curl -sf "http://$EPGW_ADDR/v1/metrics" | grep -q '^eppi_gateway_epoch 2'; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "smoke: gateway never observed epoch 2" >&2
    exit 1
  fi
  sleep 0.1
done
EPOCH2_OUT=$(curl -sf "http://$EPGW_ADDR/v1/query?owner=owner%3A%2F%2Fsite-0.example.org")
[ "$EPOCH2_OUT" != "$EPOCH1_OUT" ] || {
  echo "smoke: gateway answer unchanged across epochs:" >&2
  echo "  epoch 1: $EPOCH1_OUT" >&2
  echo "  epoch 2: $EPOCH2_OUT" >&2
  exit 1
}
echo "smoke: epoch swap visible through gateway"

# The hot swap also swapped the privacy report, and the audited node
# wrote the queries it served to the audit log.
curl -sf "http://$EP0_ADDR/v1/privacy" | grep -q '"epoch":2' || {
  echo "smoke: node /v1/privacy not serving epoch 2's report after swap" >&2
  exit 1
}
ls "$AUDIT"/audit-*.jsonl >/dev/null 2>&1 || {
  echo "smoke: -audit-dir produced no audit log" >&2
  exit 1
}
echo "smoke: privacy report swapped, audit log written"

# --- Replication: origin + mirrored node without shared storage ---------
# The store now holds epochs 1 and 2 (CURRENT=2). Serve it read-only over
# HTTP with eppi-origin and boot a node whose -epoch-dir is an empty
# local cache: it must pull the current epoch over the wire, verify it,
# and serve it — no shared filesystem with the publisher.
"$ORIGIN_BIN" -addr "$ORIGIN_ADDR" -store "$STORE" -log-format json &
PIDS="$PIDS $!"
i=0
until curl -sf "http://$ORIGIN_ADDR/v1/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: origin did not come up on $ORIGIN_ADDR" >&2
    exit 1
  fi
  sleep 0.1
done
curl -sf "http://$ORIGIN_ADDR/v1/epochs/current" | grep -q '"epoch":2' || {
  echo "smoke: origin not serving epoch 2: $(curl -sf "http://$ORIGIN_ADDR/v1/epochs/current")" >&2
  exit 1
}
# The operator-only privacy detail must never travel over the wire.
if curl -sf "http://$ORIGIN_ADDR/v1/epochs/2/files/privacy_detail.json" >/dev/null 2>&1; then
  echo "smoke: origin served privacy_detail.json" >&2
  exit 1
fi

"$BIN" -addr "$REP_ADDR" -epoch-dir "$MIRROR_CACHE" -epoch-origin "http://$ORIGIN_ADDR" \
  -epoch-sync 200ms -epoch-poll 200ms -shard 0/2 -log-format json &
PIDS="$PIDS $!"
i=0
until curl -sf "http://$REP_ADDR/v1/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "smoke: mirrored node did not come up on $REP_ADDR" >&2
    exit 1
  fi
  sleep 0.1
done
curl -sf "http://$REP_ADDR/v1/healthz" | grep -q '"epoch":2' || {
  echo "smoke: mirrored node not at the origin's epoch: $(curl -sf "http://$REP_ADDR/v1/healthz")" >&2
  exit 1
}
REP_OUT=$(curl -sf "http://$REP_ADDR/v1/query?owner=owner%3A%2F%2Fsite-0.example.org")
echo "$REP_OUT" | grep -q '"providers"' || {
  echo "smoke: mirrored node query missing providers: $REP_OUT" >&2
  exit 1
}
curl -sf "http://$REP_ADDR/v1/metrics" | grep -q '^eppi_replica_bytes_total [1-9]' || {
  echo "smoke: mirrored node counted no replicated bytes" >&2
  exit 1
}
curl -sf "http://$REP_ADDR/v1/metrics" | grep -q '^eppi_replica_lag_epochs 0' || {
  echo "smoke: mirrored node reports non-zero epoch lag after convergence" >&2
  exit 1
}
echo "smoke: replication converged, mirrored node serving"

for p in $PIDS; do
  kill "$p" 2>/dev/null || true
  wait "$p" 2>/dev/null || true
done
echo "smoke: all checks passed"
