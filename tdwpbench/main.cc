// tdwpbench command line.
//
//   tdwpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   tdwpbench --workload <name> --seed <n> --seconds <s> --dump
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --dump prints the seeded request list and its reference digests instead
// (the benchmark's tests compare dumps across seeds).

#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace tdwpbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tdwpbench --workload "
               "<point_lookup|adhoc_shapes|bulk_extract|tpch_report> "
               "--seed <n> --seconds <s> (--trace <0|1> | --dump)\n");
  return 2;
}

int Dump(const Plan& plan) {
  auto fx = Fixture::Create(plan);
  if (!fx.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 fx.status().ToString().c_str());
    return 1;
  }
  auto refs = ComputeReferences(fx->get(), plan);
  if (!refs.ok()) {
    std::fprintf(stderr, "references failed: %s\n",
                 refs.status().ToString().c_str());
    return 1;
  }
  for (const auto& sql : plan.warmup) std::printf("warmup %s\n", sql.c_str());
  for (const auto& r : plan.timed) {
    std::printf("timed %d %" PRId64 " %zu %s\n", static_cast<int>(r.check),
                r.key, r.ref, r.sql.c_str());
  }
  for (const auto& d : *refs) {
    std::printf("ref %" PRIu64 " %016" PRIx64 "\n", d.rows, d.sum);
  }
  std::printf("plan_digest %016" PRIx64 "\n", PlanDigest(plan, *refs));
  return 0;
}

/// Pins this thread, and so every thread it starts later (the server's
/// included), to the CPU it runs on now. One session's request path is
/// serial, client then server then client, so one CPU carries it; sharing
/// that CPU is what lets the probe in measure.cc track the host's speed
/// where the program runs.
bool PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  long seconds = 0;
  int trace = -1;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--dump") {
      dump = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload_name = value;
      ++i;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      seconds = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--trace") {
      trace = std::atoi(value);
      ++i;
    } else {
      return Usage();
    }
  }
  Workload workload;
  if (!ParseWorkload(workload_name, &workload) || seconds < 1 ||
      seconds > 3600 || (!dump && trace != 0 && trace != 1)) {
    return Usage();
  }

  if (!PinToCurrentCpu()) {
    std::perror("tdwpbench: cannot pin to one CPU");
    return 1;
  }
  const bool traced = trace == 1;
  const size_t count =
      RequestsPerSecond(workload, traced) * static_cast<size_t>(seconds);
  const Plan plan = BuildPlan(workload, seed, count);
  if (dump) return Dump(plan);

  auto report = traced ? ReplayLayers(plan) : MeasureEndToEnd(plan);
  if (!report.ok()) {
    std::fprintf(stderr, "tdwpbench %s: %s\n", WorkloadName(workload),
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("tdwpbench %s seed=%" PRIu64 " requests=%zu trace=%d\n",
              WorkloadName(workload), seed, plan.timed.size(), trace);
  for (const auto* list : {&report->notes, &report->metrics}) {
    for (const Metric& m : *list) {
      std::printf("  %-36s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += report->failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report->attempted);
  json += ", \"failed\": " + std::to_string(report->failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    const Metric& m = report->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
