#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, plus (optionally) the resilience,
# translation-cache, lifecycle, and observability suites under sanitizers.
#
#   scripts/tier1.sh            # standard build (-Werror) + ctest
#   scripts/tier1.sh --asan     # also build build-asan/ and run the
#                               # `faults`, `failover`, `cache`, `golden`,
#                               # `lifecycle`, `observability`, `fleet`,
#                               # `tail`, `fuzz`, `chaos`, and `batch`
#                               # suites and the front-end unit suites
#                               # under ASan+UBSan
#   scripts/tier1.sh --tsan     # also build build-tsan/ (-Werror) and run the
#                               # cross-thread suites (`lifecycle`,
#                               # `faults`, `failover`, `observability`,
#                               # `fleet`, `tail`, `chaos`, `batch`,
#                               # `cache`) under ThreadSanitizer
#
# Every mode ends by printing scripts/src_stats.sh (src/ lines, settable
# option fields).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# The standard and TSan builds are warning-free and must stay so. The
# ASan+UBSan build keeps warnings non-fatal: under those sanitizers GCC
# reports false positives (-Wmaybe-uninitialized inside std::variant,
# -Wrestrict).
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"
scripts/check_golden.sh
scripts/check_metrics.sh

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-asan -S . -DHYPERQ_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L faults -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L failover -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L cache -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L golden -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L lifecycle -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L observability -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L fleet -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -L tail -j "$jobs"
  # The differential fuzzer is the widest query-shape surface in the tree
  # (generator → 3 dialect translations → 3 executions per query) — exactly
  # where memory bugs hide. The fixed seed keeps the ASan pass deterministic.
  ctest --test-dir build-asan --output-on-failure -L fuzz -j "$jobs"
  # Chaos injects short I/O, resets, corruption, and kill/revive against
  # live sockets — the best place for heap errors to surface. The soak is
  # shortened (sanitizer overhead makes wall-clock expensive) but every
  # scenario phase still runs at least once.
  HQ_CHAOS_SOAK_MS=2500 \
    ctest --test-dir build-asan --output-on-failure -L chaos -j "$jobs"
  # The batch data plane moves shared column vectors zero-copy between the
  # executor, store, and converter — exactly where lifetime bugs would
  # hide. The edge suite (zero-row spans, spill straddles, mid-batch
  # cancellation) must be ASan-clean.
  ctest --test-dir build-asan --output-on-failure -L batch -j "$jobs"
  # The front end works in place: the parser borrows the token vector the
  # feature scan read, the binder reads the caller's AST plus a side list
  # of implicit-join tables, and the serializer appends to one buffer
  # through layered name maps. Its unit suites must be ASan+UBSan-clean.
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R '^(LexerTest|TokenStreamTest|ParserTest|BinderTest|SerializerTest|PipelineTest|FeatureScanTest|AstPrinterTest)\.'
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # Cancellation is inherently cross-thread (kill/abort/drain race the
  # worker and converter threads), so the lifecycle suite — including the
  # chaos soak — must be clean under TSan, not just ASan.
  cmake -B build-tsan -S . -DHYPERQ_SANITIZE=thread -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -L lifecycle -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -L faults -j "$jobs"
  # Every session — a single backend is a fleet of one — shares its
  # backend's breaker and takes pool slots through Acquire/Release, so the
  # failover suite (journal replay, the server's admission and drain)
  # crosses threads through that shared state too.
  ctest --test-dir build-tsan --output-on-failure -L failover -j "$jobs"
  # The registry's whole contract is lock-cheap cross-thread counting and
  # the trace is mutated by the worker while cancellation inspects it —
  # the observability suite must be TSan-clean, not just ASan-clean.
  ctest --test-dir build-tsan --output-on-failure -L observability -j "$jobs"
  # The fleet is cross-thread end to end: the prober scores health while
  # workers route, acquire slots, and fail over between replicas.
  ctest --test-dir build-tsan --output-on-failure -L fleet -j "$jobs"
  # The tail suite covers hedged reads and the retry budget. Hedged
  # execution races two legs across threads by design (first completion
  # wins, loser cancelled mid-flight, stragglers parked and reaped) — it
  # must be TSan-clean, not just ASan-clean.
  ctest --test-dir build-tsan --output-on-failure -L tail -j "$jobs"
  # The chaos layer is all cross-thread: the orchestrator mutates link
  # faults while 8 workload sessions and the server's workers run through
  # them, and the auditor polls server state during teardown. Shortened
  # soak, same phase coverage.
  HQ_CHAOS_SOAK_MS=2500 \
    ctest --test-dir build-tsan --output-on-failure -L chaos -j "$jobs"
  # Batch conversion fans out over worker threads and cancellation races
  # the fetch loop from another thread — the batch suite must be
  # TSan-clean, not just ASan-clean.
  ctest --test-dir build-tsan --output-on-failure -L batch -j "$jobs"
  # Concurrent sessions share the translation cache's sharded LRU (the
  # cross-shard hammer) — the cache suite must be TSan-clean too. It runs
  # serially: HitPathTranslationAtLeast5xFaster compares wall-clock
  # medians, and TSan neighbours on the other cores skew that ratio.
  ctest --test-dir build-tsan --output-on-failure -L cache
fi

# Size metrics tracked from change to change (src/ lines, option fields).
scripts/src_stats.sh
