#!/bin/sh
# Loopback smoke test for the network serving layer.
#
#   run_server_smoke.sh <vsjoin_server> <vsjoin_client> <vsjoin_estimate>
#
# Exercises the full deployment story end to end on 127.0.0.1:
#
#   1. Builds two tenants with the CLI: wiki.vsjb (static dataset; the
#      server supplies the index recipe from its --k/--seed flags) and
#      churn.vsjs (streaming snapshot carrying its own recipe).
#   2. Produces in-process goldens with vsjoin_estimate over the very
#      same files — --mmap batch for the static tenant, --load-snapshot
#      stream replay for the streaming one.
#   3. Starts vsjoin_server on an ephemeral port (--port 0 published via
#      --port-file), sends the matching estimate requests for both
#      tenants through vsjoin_client, strips the {"id":N,"ok":true,
#      envelope, and diffs byte-for-byte against the goldens. This pins
#      the serving contract: a response over the wire is bit-identical
#      to the in-process answer regardless of connection or batching.
#   4. Checks the live profiling side channel (--stats-json emitted at
#      least one metrics line) and the graceful drain (SIGTERM exits 0
#      after "vsjoin_server: drained").
#
# Flag rejection, which needs no server, is run_flag_reject.sh's.
#
# Seeds matter: the server derives the static-tenant LSH family seed as
# seed ^ 0x5eed exactly like vsjoin_estimate, so --seed 7 here must match
# "seed":7 in the wiki requests AND --seed 7 on the golden run. The
# streaming snapshot carries its family seed; only the per-request
# "seed":3 must match the golden replay's --seed 3.
set -e

server="$1"
client="$2"
estimate="$3"

work=$(mktemp -d "${TMPDIR:-/tmp}/vsj_server_smoke.XXXXXX")
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then kill -9 "$server_pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
  echo "run_server_smoke: $1" >&2
  if [ -f "$work/server.log" ]; then
    echo "--- server log ---" >&2
    cat "$work/server.log" >&2
  fi
  exit 1
}

root="$work/root"
mkdir -p "$root"

# ---- 1. Tenants -------------------------------------------------------
"$estimate" --synthetic dblp --n 400 --seed 4 --k 8 --tau 0.8 --trials 1 \
  --save-dataset "$root/wiki.vsjb" >/dev/null 2>&1 ||
  fail "building wiki.vsjb failed"

cat > "$work/build_ops.txt" <<EOF
insert 0 399
checkpoint $root/churn.vsjs
EOF
"$estimate" --synthetic dblp --n 400 --seed 3 --k 8 --trials 3 \
  --stream "$work/build_ops.txt" >/dev/null 2>&1 ||
  fail "building churn.vsjs failed"

# ---- 2. In-process goldens --------------------------------------------
# One τ sweep per tenant: --batch-taus for the static tenant, one
# 'estimate 0.6 0.8' op for the streaming one.
"$estimate" --dataset "$root/wiki.vsjb" --mmap --k 8 --tables 1 --seed 7 \
  --trials 3 --batch-taus 0.6,0.8 --json "$work/golden_wiki.jsonl" \
  >/dev/null 2>&1 || fail "wiki golden run failed"

cat > "$work/golden_ops.txt" <<EOF
estimate 0.6 0.8
EOF
"$estimate" --load-snapshot "$root/churn.vsjs" --trials 3 --seed 3 \
  --stream "$work/golden_ops.txt" --json "$work/golden_churn.jsonl" \
  >/dev/null 2>&1 || fail "churn golden run failed"

# ---- 3. Serve and diff ------------------------------------------------
"$server" --root "$root" --port 0 --port-file "$work/port.txt" \
  --workers 2 --k 8 --tables 1 --seed 7 \
  --stats-json "$work/stats.jsonl" --stats-interval 100 \
  2> "$work/server.log" &
server_pid=$!

tries=0
while [ ! -s "$work/port.txt" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "server never published its port"
  kill -0 "$server_pid" 2>/dev/null || fail "server exited during startup"
  sleep 0.1
done
port=$(cat "$work/port.txt")

cat > "$work/requests.jsonl" <<EOF
{"op":"estimate","id":1,"tenant":"wiki","estimator":"LSH-SS","tau":0.6,"trials":3,"seed":7}
{"op":"estimate","id":2,"tenant":"wiki","estimator":"LSH-SS","tau":0.8,"trials":3,"seed":7}
{"op":"estimate","id":3,"tenant":"churn","estimator":"LSH-SS","tau":0.6,"trials":3,"seed":3}
{"op":"estimate","id":4,"tenant":"churn","estimator":"LSH-SS","tau":0.8,"trials":3,"seed":3}
EOF
"$client" --port "$port" --ops "$work/requests.jsonl" > "$work/wire.out" ||
  fail "client request run failed"

# The wire carries the RPC envelope; the goldens carry the CLI's own
# row prefixes (pass / line+epoch+live). Strip both down to the shared
# estimator payload and require byte equality.
sed -E 's/^\{"id":[0-9]+,"ok":true,/{/' "$work/wire.out" \
  > "$work/wire.stripped"
{
  sed -E 's/^\{"pass":[0-9]+,/{/' "$work/golden_wiki.jsonl"
  sed -E 's/^\{"line":[0-9]+,"epoch":[0-9]+,"live":[0-9]+,/{/' \
    "$work/golden_churn.jsonl"
} > "$work/golden.stripped"

grep -q '"estimate":' "$work/wire.stripped" ||
  fail "wire responses carry no estimates"
diff -u "$work/golden.stripped" "$work/wire.stripped" ||
  fail "wire responses diverged from the in-process goldens"

# ---- 4. Profiling side channel + graceful drain -----------------------
# At least one live-stats tick must have landed by now (100 ms interval).
tries=0
while ! grep -q '"counters"' "$work/stats.jsonl" 2>/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -le 50 ] || fail "no stats JSON lines appeared"
  sleep 0.1
done

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  server_pid=""
  fail "server exited nonzero after SIGTERM"
fi
server_pid=""
grep -q "vsjoin_server: drained" "$work/server.log" ||
  fail "server log is missing the drain marker"

echo "run_server_smoke: OK (port $port, both tenants bit-identical)"
