#!/bin/sh
# e2e_restart.sh — the restart-determinism proof, end to end over the
# network: build the real binary, serve, ingest a fixture over HTTP,
# checkpoint, kill the process, restart from the checkpoint, finish
# the ingest, and require the final /estimates and /sources bytes to
# be identical to a single uninterrupted run. This is the property
# that makes the serving mode operable: a crash-restart cycle is
# invisible to clients.
#
# The suite runs twice: once agreement-only, once in -features mode,
# so the v4 checkpoint's learner section (weights, features, step counters)
# is covered by the same hard-kill proof as the shard state. A third
# pass damages the newest checkpoint generation on disk and requires
# the restart to fall back to the previous generation bit-exactly.
set -eu

WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/slimfast" ./cmd/slimfast

echo "== fixture"
# A deterministic claim stream: 8 sources of varying reliability
# reporting on 120 objects; source s7 is a contrarian. Split into two
# halves so the restart lands mid-stream. Each source carries a
# pipeline feature (sources 0-3 vs 4-7) for the -features pass.
awk 'BEGIN {
	print "source,object,value" > "'"$WORK"'/part1.csv"
	print "source,object,value" > "'"$WORK"'/part2.csv"
	for (o = 0; o < 120; o++) {
		for (s = 0; s < 8; s++) {
			v = "t" o % 7
			if (s == 7 || (o + s) % 11 == 0) v = "w" (o + s) % 5
			out = (o < 60) ? "'"$WORK"'/part1.csv" : "'"$WORK"'/part2.csv"
			printf "s%d,o%03d,%s\n", s, o, v >> out
		}
	}
	print "source,feature" > "'"$WORK"'/features.csv"
	for (s = 0; s < 8; s++)
		printf "s%d,pipe=%s\n", s, (s < 4 ? "a" : "b") >> "'"$WORK"'/features.csv"
}'

# start_server LOGFILE [extra flags...] — boots the server on an
# ephemeral port, sets SRV_PID, and leaves the bound address in ADDR.
# (Runs in the parent shell, not a subshell, so both survive.)
start_server() {
	log="$1"; shift
	"$WORK/slimfast" stream -listen 127.0.0.1:0 -shards 4 -epoch 64 -batch 32 "$@" > "$log" 2>&1 &
	SRV_PID=$!
	ADDR=""
	for _ in $(seq 1 100); do
		ADDR="$(sed -n 's/^# listening on //p' "$log" | head -n1)"
		[ -n "$ADDR" ] && break
		sleep 0.1
	done
	if [ -z "$ADDR" ]; then
		echo "server never came up:" >&2
		cat "$log" >&2
		exit 1
	fi
}

post_csv() { # addr file
	curl -fsS -X POST -H 'Content-Type: text/csv' --data-binary @"$2" "http://$1/v1/observe" > /dev/null
}

# restart_suite LABEL [extra server flags...] — the full proof for one
# server configuration.
restart_suite() {
	MODE="$1"; shift

	echo "== [$MODE] uninterrupted run"
	start_server "$WORK/$MODE.uninterrupted.log" "$@"
	curl -fsS "http://$ADDR/v1/healthz" > /dev/null
	post_csv "$ADDR" "$WORK/part1.csv"
	post_csv "$ADDR" "$WORK/part2.csv"
	curl -fsS -X POST "http://$ADDR/v1/refine?sweeps=2" > /dev/null
	curl -fsS "http://$ADDR/v1/estimates" > "$WORK/$MODE.estimates.uninterrupted.csv"
	curl -fsS "http://$ADDR/v1/sources" > "$WORK/$MODE.sources.uninterrupted.csv"
	kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true
	SRV_PID=""

	echo "== [$MODE] interrupted run: ingest half, checkpoint, kill"
	CKPT="$WORK/$MODE.engine.ckpt"
	start_server "$WORK/$MODE.run1.log" -checkpoint "$CKPT" "$@"
	post_csv "$ADDR" "$WORK/part1.csv"
	curl -fsS -X POST "http://$ADDR/v1/checkpoint" > /dev/null

	echo "== [$MODE] metrics scrape covers ingest + checkpoint"
	METRICS="$WORK/$MODE.metrics.txt"
	curl -fsS "http://$ADDR/v1/metrics" > "$METRICS"
	# Well-formed exposition: every TYPE header names a known kind, and
	# the families the suite just exercised are typed.
	grep -q '^# TYPE slimfast_engine_observations_total counter$' "$METRICS" || {
		echo "[$MODE] metrics output missing the engine observations TYPE header:" >&2
		cat "$METRICS" >&2
		exit 1
	}
	if grep '^# TYPE ' "$METRICS" | grep -Evq ' (counter|gauge|histogram)$'; then
		echo "[$MODE] metrics output has a TYPE header with an unknown kind:" >&2
		grep '^# TYPE ' "$METRICS" >&2
		exit 1
	fi
	OBSERVED="$(awk '$1 == "slimfast_engine_observations_total" { print $2 }' "$METRICS")"
	[ -n "$OBSERVED" ] && [ "$OBSERVED" -gt 0 ] 2>/dev/null || {
		echo "[$MODE] slimfast_engine_observations_total = '$OBSERVED', want > 0" >&2
		exit 1
	}
	CKPT_WRITES="$(awk '$1 == "slimfast_checkpoint_writes_total" { print $2 }' "$METRICS")"
	[ -n "$CKPT_WRITES" ] && [ "$CKPT_WRITES" -gt 0 ] 2>/dev/null || {
		echo "[$MODE] slimfast_checkpoint_writes_total = '$CKPT_WRITES', want > 0" >&2
		exit 1
	}
	grep -q '^slimfast_http_requests_total{' "$METRICS" || {
		echo "[$MODE] metrics output missing the HTTP request counters" >&2
		exit 1
	}
	echo "PASS [$MODE] metrics: $OBSERVED observations, $CKPT_WRITES checkpoint writes"

	kill -9 "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true # hard kill: the checkpoint must carry everything
	SRV_PID=""
	[ -s "$CKPT" ] || { echo "[$MODE] checkpoint file missing" >&2; exit 1; }

	echo "== [$MODE] restart from checkpoint, finish ingest"
	start_server "$WORK/$MODE.run2.log" -restore "$CKPT" -checkpoint "$CKPT" "$@"
	grep -q '^# restored ' "$WORK/$MODE.run2.log" || { echo "[$MODE] server did not restore:" >&2; cat "$WORK/$MODE.run2.log" >&2; exit 1; }
	post_csv "$ADDR" "$WORK/part2.csv"
	curl -fsS -X POST "http://$ADDR/v1/refine?sweeps=2" > /dev/null
	curl -fsS "http://$ADDR/v1/estimates" > "$WORK/$MODE.estimates.restored.csv"
	curl -fsS "http://$ADDR/v1/sources" > "$WORK/$MODE.sources.restored.csv"

	echo "== [$MODE] SIGTERM writes a shutdown checkpoint"
	kill -TERM "$SRV_PID"
	for _ in $(seq 1 100); do
		grep -q '^# shutdown checkpoint written to ' "$WORK/$MODE.run2.log" && break
		sleep 0.1
	done
	wait "$SRV_PID" 2>/dev/null || true
	SRV_PID=""
	grep -q '^# shutdown checkpoint written to ' "$WORK/$MODE.run2.log" || {
		echo "[$MODE] no shutdown checkpoint after SIGTERM:" >&2
		cat "$WORK/$MODE.run2.log" >&2
		exit 1
	}

	echo "== [$MODE] compare"
	diff "$WORK/$MODE.estimates.uninterrupted.csv" "$WORK/$MODE.estimates.restored.csv" || {
		echo "FAIL [$MODE]: /estimates diverged after restart" >&2
		exit 1
	}
	diff "$WORK/$MODE.sources.uninterrupted.csv" "$WORK/$MODE.sources.restored.csv" || {
		echo "FAIL [$MODE]: /sources diverged after restart" >&2
		exit 1
	}
	lines="$(wc -l < "$WORK/$MODE.estimates.restored.csv")"
	[ "$lines" -gt 100 ] || { echo "FAIL [$MODE]: suspiciously small estimate set ($lines lines)" >&2; exit 1; }
	echo "PASS [$MODE]: restart is byte-invisible ($lines estimate lines identical)"
}

# corruption_suite — the generation-fallback proof: build two
# checkpoint generations, damage the newest one on disk (truncation
# plus a bit flip, the classic torn-write-at-rest), and require the
# restarted server to boot from the previous generation bit-exact —
# then finish the ingest and land on the same bytes as the
# uninterrupted plain run.
corruption_suite() {
	echo "== [corrupt] build two checkpoint generations"
	CKPT="$WORK/corrupt.engine.ckpt"
	start_server "$WORK/corrupt.run1.log" -checkpoint "$CKPT" -checkpoint-keep 3
	post_csv "$ADDR" "$WORK/part1.csv"
	curl -fsS -X POST "http://$ADDR/v1/checkpoint" > /dev/null
	curl -fsS "http://$ADDR/v1/estimates" > "$WORK/corrupt.estimates.gen1.csv"
	post_csv "$ADDR" "$WORK/part2.csv"
	curl -fsS -X POST "http://$ADDR/v1/checkpoint" > /dev/null
	kill -9 "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true
	SRV_PID=""
	[ -s "$CKPT" ] && [ -s "$CKPT.1" ] || {
		echo "[corrupt] expected two generations at $CKPT{,.1}:" >&2
		ls -l "$WORK" >&2
		exit 1
	}

	echo "== [corrupt] truncate + bit-flip the newest generation"
	SIZE="$(wc -c < "$CKPT")"
	KEEP=$((SIZE * 3 / 5))
	head -c "$KEEP" "$CKPT" > "$CKPT.damaged"
	mv "$CKPT.damaged" "$CKPT"
	printf '\377' | dd of="$CKPT" bs=1 seek=$((KEEP / 2)) conv=notrunc 2>/dev/null

	echo "== [corrupt] restart must fall back to the previous generation"
	start_server "$WORK/corrupt.run2.log" -restore "$CKPT" -checkpoint "$CKPT" -checkpoint-keep 3
	grep -q 'WARNING: checkpoint generation .* unreadable' "$WORK/corrupt.run2.log" || {
		echo "[corrupt] no fallback warning in the boot log:" >&2
		cat "$WORK/corrupt.run2.log" >&2
		exit 1
	}
	grep -q "^# restored .* from $CKPT.1\$" "$WORK/corrupt.run2.log" || {
		echo "[corrupt] server did not restore from generation 1:" >&2
		cat "$WORK/corrupt.run2.log" >&2
		exit 1
	}
	curl -fsS "http://$ADDR/v1/estimates" > "$WORK/corrupt.estimates.restored.csv"
	diff "$WORK/corrupt.estimates.gen1.csv" "$WORK/corrupt.estimates.restored.csv" || {
		echo "FAIL [corrupt]: fallback generation is not bit-exact" >&2
		exit 1
	}

	echo "== [corrupt] finishing the ingest converges with the uninterrupted run"
	post_csv "$ADDR" "$WORK/part2.csv"
	curl -fsS -X POST "http://$ADDR/v1/refine?sweeps=2" > /dev/null
	curl -fsS "http://$ADDR/v1/estimates" > "$WORK/corrupt.estimates.final.csv"
	kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null || true
	SRV_PID=""
	diff "$WORK/plain.estimates.uninterrupted.csv" "$WORK/corrupt.estimates.final.csv" || {
		echo "FAIL [corrupt]: post-fallback ingest diverged from the uninterrupted run" >&2
		exit 1
	}
	echo "PASS [corrupt]: damaged generation fell back bit-exactly and converged"
}

restart_suite plain
restart_suite features -features "$WORK/features.csv"
corruption_suite

# The online run must actually have engaged the learner: its /sources
# carries the accuracy decomposition columns.
head -n1 "$WORK/features.sources.restored.csv" | grep -q '^source,accuracy,learned,empirical' || {
	echo "FAIL: -features run did not report the learned/empirical decomposition" >&2
	exit 1
}
echo "PASS: both modes restart byte-invisibly"
