#!/bin/sh
# Flag rejection of the three tools; starts no server.
#
#   run_flag_reject.sh <vsjoin_server> <vsjoin_client> <vsjoin_estimate>
#
# Every value below fails parsing — a malformed or out-of-range unsigned
# value, or a float flag value that is not finite or lies outside the
# flag's range — so the tool must exit 2 with a first stderr line naming
# the flag and the token, before it binds, dials or loads anything. The
# trailing unknown flag keeps a regressed parser from starting a server or
# dialing one: it would then exit 2 on that flag and fail the message
# check instead.
set -e

server="$1"
client="$2"
estimate="$3"

work=$(mktemp -d "${TMPDIR:-/tmp}/vsj_flag_reject.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

fail() {
  echo "run_flag_reject: $*" >&2
  exit 1
}

reject() {
  tool="$1" flag="$2" token="$3"
  shift 3
  status=0
  "$tool" "$@" "$flag" "$token" --not-a-flag >/dev/null \
    2> "$work/reject.err" || status=$?
  [ "$status" -eq 2 ] ||
    fail "$(basename "$tool") $flag $token: exit status $status, expected 2"
  head -1 "$work/reject.err" | grep -F -- "$flag" | grep -qF -- "$token" ||
    fail "$(basename "$tool") $flag $token: diagnostic does not name flag" \
         "and token: $(head -1 "$work/reject.err")"
}

# Unsigned values.
reject "$server" --max-resident -1 --root "$work"
reject "$server" --tables 4294967296 --root "$work"
reject "$server" --k 4294967296 --root "$work"
reject "$server" --tables 4097 --root "$work"
reject "$server" --k 4097 --root "$work"
reject "$server" --max-frame-bytes 4294967296 --root "$work"
reject "$server" --port 65536 --root "$work"
reject "$server" --seed 99999999999999999999 --root "$work"
reject "$server" --stats-interval 5x --root "$work"
for token in 0 -1 abc 18446744073709551616; do
  reject "$server" --max-pairs-per-request "$token" --root "$work"
done
reject "$client" --timeout-ms -1 --port 1
reject "$client" --retries -1 --port 1
reject "$client" --pipeline -1 --port 1
reject "$client" --port 0
reject "$client" --backoff-ms 60001 --port 1
reject "$estimate" --seed 99999999999999999999 --synthetic dblp --n 50

# Float values of the load generator: --duration-s in (0, 1e7], --rate
# >= 0, every --taus entry in (0, 1], every --tenants weight > 0, all
# finite.
for token in nan inf -inf 1e300 1e999 0 -1 5x; do
  reject "$client" --duration-s "$token" --port 1 --load
done
for token in nan inf 1e999 -1 abc; do
  reject "$client" --rate "$token" --port 1 --load
done
for token in nan inf 0 -0.5 1.5 0.7x; do
  reject "$client" --taus "$token" --port 1 --load
done
for token in a:nan a:inf a:0 a:-2; do
  reject "$client" --tenants "$token" --port 1 --load
done

echo "run_flag_reject: OK"
