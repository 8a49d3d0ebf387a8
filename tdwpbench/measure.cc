// The plain run: end-to-end metrics over tdwp, tracing left as shipped.

#include <algorithm>
#include <iomanip>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/stopwatch.h"

namespace tdwpbench {

using hyperq::Stopwatch;

namespace {

constexpr int kSetups = 3;  // set-ups per run; setup_s is the median

/// Host speed varies under neighbour load by more than the bounds allow,
/// for the program's CPU time as much as for its wall time. So the bench
/// times a fixed piece of work of its own, the probe, in short slices
/// spread through each round (kSlicesPerRound, between requests) and
/// around each set-up, on the same CPU as the program: main pins the
/// process to one CPU. Every gated time is reported scaled to a host on
/// which a slice takes kSliceNominalUs: measured x nominal / mean slice,
/// wall times by the slices' wall time and CPU times by their CPU time.
constexpr double kSliceNominalUs = 200;
constexpr size_t kSlicesPerRound = 16;

volatile size_t probe_sink = 0;

/// Probe slices timed so far.
struct Probe {
  double cpu_us = 0;
  double wall_us = 0;
  int slices = 0;

  /// Runs one slice: a regex scan, number formatting, map inserts and a
  /// string sort, through the C++ library's code. Its code and data are
  /// the bench's own, so a change to the program cannot speed it up, and
  /// like the program it spreads over much code; a slice made of one
  /// tight loop tracked the program's slow-downs only in part. The same
  /// instructions every time.
  void Slice() {
    static const std::regex kAssign("([A-Z_0-9]+)\\s*=\\s*'([^']*)'");
    const double cpu0 = ThreadCpuMicros();
    Stopwatch wall;
    std::string text;
    for (int i = 0; i < 20; ++i) {
      text += "COL_" + std::to_string(i) + " = 'v" + std::to_string(i * 7) +
              "' AND ";
    }
    size_t matched = 0;
    for (std::sregex_iterator it(text.begin(), text.end(), kAssign), end;
         it != end; ++it) {
      matched += (*it)[2].length();
    }
    std::ostringstream out;
    for (int i = 0; i < 50; ++i) out << i * 1.5 << ',' << std::setw(8) << i;
    std::map<std::string, int> counts;
    for (int i = 0; i < 100; ++i) counts[std::to_string(i * 31 % 97)] += i;
    std::vector<std::string> words;
    for (int i = 0; i < 300; ++i) {
      words.push_back(std::to_string(i * 7919 % 1000));
    }
    std::stable_sort(words.begin(), words.end());
    wall_us += wall.ElapsedMicros();
    cpu_us += ThreadCpuMicros() - cpu0;
    ++slices;
    // Keep the work observable so the compiler cannot drop it.
    probe_sink = probe_sink + matched + out.str().size() + counts.size() +
                 words[5].size();
  }

  double WallScale() const { return kSliceNominalUs * slices / wall_us; }
  double CpuScale() const { return kSliceNominalUs * slices / cpu_us; }
};

/// One metric's values, one per round or set-up: as measured, and scaled
/// to the nominal host.
struct Series {
  std::vector<double> raw, scaled;
  void Add(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value * scale);
  }
};

/// One set-up into `fx`, added to `setup_s`: the process CPU (all threads)
/// it took, in seconds, scaled by probe slices just before and after it.
/// CPU time, not wall time, so time during which other processes hold the
/// CPU does not count in it.
Status TimeSetup(const Plan& plan, std::unique_ptr<Fixture>* fx,
                 Series* setup_s) {
  Probe probe;
  for (size_t i = 0; i < kSlicesPerRound; ++i) probe.Slice();
  const double cpu0 = ProcessCpuMicros();
  HQ_ASSIGN_OR_RETURN(*fx, Fixture::Create(plan));
  const double seconds = (ProcessCpuMicros() - cpu0) / 1e6;
  for (size_t i = 0; i < kSlicesPerRound; ++i) probe.Slice();
  setup_s->Add(seconds, probe.CpuScale());
  return Status::OK();
}

}  // namespace

Result<RunReport> MeasureEndToEnd(const Plan& plan) {
  // A set-up ends when the first timed request could be sent. The first
  // one serves the timed list; the others run after peak_rss_mb is read,
  // so their memory does not count in it.
  std::unique_ptr<Fixture> fx;
  Series setup_s;
  HQ_RETURN_IF_ERROR(TimeSetup(plan, &fx, &setup_s));
  HQ_ASSIGN_OR_RETURN(std::vector<Digest> refs,
                      ComputeReferences(fx.get(), plan));

  RunReport report;
  std::vector<double> latency, write_latency;  // pooled over the run, raw
  Series qps, cpu, p50, overhead;              // one entry per round
  const size_t n = plan.timed.size();
  for (size_t round = 0; round < plan.rounds; ++round) {
    const size_t begin = round * n / plan.rounds;
    const size_t end = (round + 1) * n / plan.rounds;
    const size_t stride = std::max<size_t>(1, (end - begin) / kSlicesPerRound);
    Probe probe;
    std::vector<double> round_latency, round_overhead;
    // Checking an answer and the probe are the bench's work, not the
    // program's: their wall time and (client-thread) CPU are taken out of
    // the round.
    double check_wall_us = 0, check_cpu_us = 0;
    const double cpu0 = ProcessCpuMicros();
    Stopwatch wall;
    for (size_t i = begin; i < end; ++i) {
      const Request& req = plan.timed[i];
      Stopwatch rt;
      auto result = fx->client.Run(req.sql);
      const double us = rt.ElapsedMicros();

      Stopwatch check_wall;
      const double check_cpu0 = ThreadCpuMicros();
      ++report.attempted;
      if (!result.ok() || !CheckAnswer(req, *result, refs)) {
        ++report.failed;
      } else {
        round_latency.push_back(us);
        round_overhead.push_back(us - result->execution_micros);
        if (req.check == Check::kWrite) write_latency.push_back(us);
      }
      if ((i - begin) % stride == 0) probe.Slice();
      check_cpu_us += ThreadCpuMicros() - check_cpu0;
      check_wall_us += check_wall.ElapsedMicros();
    }
    const double round_cpu_us = ProcessCpuMicros() - cpu0 - check_cpu_us;
    const double round_wall_us = wall.ElapsedMicros() - check_wall_us;
    const auto count = static_cast<double>(end - begin);
    // Wall times scale by the slices' wall time, CPU by their CPU time.
    qps.Add(count / (round_wall_us / 1e6), 1 / probe.WallScale());
    cpu.Add(round_cpu_us / count, probe.CpuScale());
    p50.Add(Median(round_latency), probe.WallScale());
    overhead.Add(Median(round_overhead), probe.WallScale());
    latency.insert(latency.end(), round_latency.begin(), round_latency.end());
  }
  const double peak_rss_mb = PeakRssMb();
  fx.reset();
  for (int i = 1; i < kSetups; ++i) {
    HQ_RETURN_IF_ERROR(TimeSetup(plan, &fx, &setup_s));
    fx.reset();
  }

  // Gated: medians over rounds (over set-ups for setup_s), scaled.
  auto& m = report.metrics;
  m.push_back({"setup_s", Median(setup_s.scaled), "s"});
  m.push_back({"throughput_qps", Median(qps.scaled), "1/s"});
  m.push_back({"proxy_overhead_p50_us", Median(overhead.scaled), "us"});
  m.push_back({"cpu_us_per_query", Median(cpu.scaled), "us"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  auto& notes = report.notes;
  notes.push_back({"error_ratio",
                   static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
                   "ratio"});
  notes.push_back({"latency_samples", static_cast<double>(latency.size()),
                   "count"});
  // The p50 of a round moves with the mix inside it (bulk_extract's two
  // extract shapes, the writes of point_lookup) more than its mean does:
  // over seeds it spread about as far as the host's own noise, so it is
  // printed, not gated. Throughput carries the mean: one closed-loop
  // session's throughput is the inverse of its mean latency.
  notes.push_back({"latency_p50_us", Median(p50.scaled), "us"});
  // As measured, before scaling.
  notes.push_back({"raw.setup_s", Median(setup_s.raw), "s"});
  notes.push_back({"raw.throughput_qps", Median(qps.raw), "1/s"});
  notes.push_back({"raw.latency_p50_us", Median(p50.raw), "us"});
  notes.push_back({"raw.proxy_overhead_p50_us", Median(overhead.raw), "us"});
  notes.push_back({"raw.cpu_us_per_query", Median(cpu.raw), "us"});
  // Unscaled, over the whole run. The tail is where neighbour load lands;
  // between runs it moves more than any bound allows. The traced run
  // reports it as protocol.client_run_us.p99.
  notes.push_back({"latency_p99_us", Percentile(latency, 0.99), "us"});
  if (!write_latency.empty()) {
    notes.push_back(
        {"write_latency_p50_us", Percentile(write_latency, 0.50), "us"});
  }
  return report;
}

}  // namespace tdwpbench
