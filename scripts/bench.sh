#!/bin/sh
# bench.sh [output.json] — run the core micro-benchmarks plus the
# end-to-end HTTP serving benchmark with -benchmem and write a JSON
# snapshot (name, iterations, ns/op, B/op, allocs/op and any custom
# b.ReportMetric columns such as req/s and p99) used to track the
# performance trajectory across PRs. Compare two snapshots with
# scripts/benchdiff.
#
# The output defaults to an untracked scratch file so a plain
# `make bench` can never silently overwrite a committed baseline;
# recording a new BENCH_N.json trajectory point is an explicit
# `./scripts/bench.sh BENCH_N.json`.
set -eu

OUT="${1:-bench_local.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' \
	-bench '^(BenchmarkCoreEMFit|BenchmarkCoreERMFit|BenchmarkCoreExactInference|BenchmarkOptimizerDecide|BenchmarkLassoPath|BenchmarkFacadeSolve|BenchmarkStreamIngest|BenchmarkObserveBatch|BenchmarkOnlineIngest|BenchmarkCheckpointWrite|BenchmarkCheckpointRestore|BenchmarkCheckpointRestoreParallel|BenchmarkServeHTTP|BenchmarkRouterIngest|BenchmarkRouterIngestSlowMembers|BenchmarkMetricsScrape|BenchmarkQueryExport|BenchmarkQueryLookup|BenchmarkQueryTopK|BenchmarkQueryGroup)$' \
	-benchmem \
	. ./cmd/slimfast ./internal/obs ./internal/query | tee "$TMP"

{
	printf '{\n'
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN)"
	printf '  "benchmarks": [\n'
	# Benchmark lines are `Name iterations {value unit}...`; the units
	# vary per benchmark (b.ReportMetric inserts extra columns such as
	# req/s and p99-ns before B/op), so columns are matched by unit
	# label, never by position. The trailing -GOMAXPROCS suffix is
	# stripped so snapshots from hosts with different CPU counts gate
	# against each other instead of degrading into "only in" notes.
	awk '/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = ""; bytes = ""; allocs = ""; extra = ""
		for (i = 3; i < NF; i += 2) {
			v = $i; u = $(i + 1)
			if (u == "ns/op") ns = v
			else if (u == "B/op") bytes = v
			else if (u == "allocs/op") allocs = v
			else {
				key = u
				gsub(/[^A-Za-z0-9]+/, "_", key)
				extra = extra sprintf(", \"%s\": %s", key, v)
			}
		}
		printf "%s    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", sep, name, $2, ns, bytes, allocs, extra
		sep = ",\n"
	} END { print "" }' "$TMP"
	printf '  ]\n'
	printf '}\n'
} > "$OUT"
echo "wrote $OUT"
