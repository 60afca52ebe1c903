#!/usr/bin/env bash
# The one way CI builds the service binaries, packs their datasets and runs
# whydbd in the background.
#
#   ci-whydbd.sh build
#       Builds whydb, whydbd and whyload into bin/.
#   ci-whydbd.sh pack <dir> [scale]
#       Packs the ldbc and dbpedia snapshots into <dir> (at -scale <scale>
#       when given) — the step a miss of the snapshot actions/cache falls to.
#   ci-whydbd.sh start <addr> <pidfile> <log> -- <whydbd flags...>
#       Starts the daemon on <addr> with its output appended to <log>, writes
#       its pid to <pidfile>, and polls /readyz for up to 60 s. Prints the
#       milliseconds from launch to ready on stdout; if the daemon never gets
#       ready, dumps <log> to stderr and exits 1.
#   ci-whydbd.sh stop <pidfile...>
#       Kills the daemon behind every pidfile that exists. Never fails, so it
#       is safe in an `if: always()` step.
set -euo pipefail

case "${1:-}" in
build)
  for cmd in whydb whydbd whyload; do
    go build -o "bin/$cmd" "./cmd/$cmd"
  done
  ;;
pack)
  dir=$2
  for ds in ldbc dbpedia; do
    bin/whydb pack -dataset "$ds" ${3:+-scale "$3"} -out "$dir"
  done
  ;;
start)
  addr=$2 pidfile=$3 log=$4
  [ "${5:-}" = "--" ] || { echo "usage: $0 start <addr> <pidfile> <log> -- <flags...>" >&2; exit 2; }
  shift 5
  launched=$(date +%s%N)
  bin/whydbd -addr "$addr" "$@" >> "$log" 2>&1 < /dev/null &
  pid=$!
  echo "$pid" > "$pidfile"
  for _ in $(seq 1 1200); do
    if curl -sf "http://$addr/readyz" > /dev/null; then
      echo $(( ($(date +%s%N) - launched) / 1000000 ))
      exit 0
    fi
    kill -0 "$pid" 2>/dev/null || break # died during boot: no point waiting
    sleep 0.05
  done
  echo "whydbd on $addr did not become ready" >&2
  cat "$log" >&2
  exit 1
  ;;
stop)
  shift
  for pidfile in "$@"; do
    if [ -f "$pidfile" ]; then
      kill "$(cat "$pidfile")" 2>/dev/null || true
    fi
  done
  ;;
*)
  echo "usage: $0 build | pack <dir> [scale] | start <addr> <pidfile> <log> -- <flags...> | stop <pidfile...>" >&2
  exit 2
  ;;
esac
