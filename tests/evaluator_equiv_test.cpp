// Differential tests across the campaign's execution modes:
//
// * BulkScanOracle: the block-granular range path and the dirty-block
//   post-mortem scan must be invisible in the results. The factory wrapper
//   of scalar_path_app.hpp switches every run of a campaign to the scalar
//   reference paths, and the oracle run flips the threads, sweep and
//   isolation axes at the same time, so a fast-path divergence cannot hide
//   behind scheduling or the evaluator. Compact journals, per-test CSVs and
//   flight reports must match byte for byte, and the fast campaign must have
//   taken the fast paths. The nvct_bulk_* and nvct_scan_* ctest fixtures
//   run the same crossings end to end: nvct against tests/scalar_oracle.cpp.
// * ForkTelemetry: a forked campaign reports the same metrics and the same
//   phase spans as the in-process one; only the worker_* counters describe
//   the fork evaluator itself.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/trace.hpp"
#include "scalar_path_app.hpp"

namespace ec = easycrash;
namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;
namespace tl = easycrash::telemetry;

namespace {

/// One evaluator setting, as the nvct flags spell it.
struct Mode {
  int threads = 1;
  bool sweep = true;
  cr::IsolationMode isolation = cr::IsolationMode::Fork;
};

/// nvct's campaign defaults (trial isolation on), under one evaluator mode.
cr::CampaignConfig nvctConfig(const std::string& app, int tests, const Mode& mode) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.appLabel = app;
  config.threads = mode.threads;
  config.sweep = mode.sweep;
  config.resilience.isolate = true;
  config.resilience.isolation = mode.isolation;
  return config;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// What a campaign leaves behind: compact journal, CSV and flight report,
/// plus how often its runs took a fast path (bulk range calls and blocks
/// the post-mortem scan index decided; zero on the scalar paths).
struct Artifacts {
  std::string journal;
  std::string csv;
  std::string report;
  std::uint64_t fastPathHits = 0;
};

Artifacts runCampaign(const rt::AppFactory& factory, cr::CampaignConfig config,
                      const std::string& journalName) {
  const std::string journal = testing::TempDir() + journalName;
  std::remove(journal.c_str());
  config.resilience.journalPath = journal;
  auto& registry = tl::MetricsRegistry::instance();
  registry.reset();
  const auto campaign = cr::CampaignRunner(factory, config).run();
  EXPECT_TRUE(campaign.failures.empty());
  EXPECT_EQ(campaign.tests.size(), static_cast<std::size_t>(config.numTests));
  Artifacts out;
  std::ostringstream csv;
  cr::writeCampaignCsv(campaign, csv);
  out.csv = csv.str();
  out.journal = readFile(journal);
  cr::FlightReportInputs inputs;
  inputs.journalPath = journal;
  out.report = cr::renderFlightReport(inputs);
  out.fastPathHits = registry.counter("campaign.range_accesses").value() +
                     registry.counter("memsim.postmortem_blocks_compared").value() +
                     registry.counter("memsim.postmortem_blocks_skipped").value();
  std::remove(journal.c_str());
  return out;
}

/// The fast paths under `fast` against the scalar oracle under `oracle`.
void expectOracleAgrees(const std::string& app, int tests, const Mode& fast,
                        const Mode& oracle) {
  const auto factory = ec::apps::findBenchmark(app).factory;
  const Artifacts a = runCampaign(factory, nvctConfig(app, tests, fast),
                                  "oracle_" + app + "_fast.jsonl");
  const Artifacts b = runCampaign(ec::oracle::scalarPaths(factory), nvctConfig(app, tests, oracle),
                                  "oracle_" + app + "_scalar.jsonl");
  EXPECT_FALSE(a.journal.empty());
  EXPECT_GT(a.fastPathHits, 0u);
  EXPECT_EQ(b.fastPathHits, 0u);  // the wrapper reached every run
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.report, b.report);
}

// lulesh leans hardest on the range path: overlapping n+1 stencil reads and
// a mid-range AppInterrupt in its EOS region.
TEST(BulkScanOracle, Lulesh) {
  expectOracleAgrees("lulesh", 12, {4, true, cr::IsolationMode::Fork},
                     {1, false, cr::IsolationMode::Fork});
}

// kmeans mixes int32 membership writes with double point reads and keeps
// tracked element-wise accumulators between the bulk chunks.
TEST(BulkScanOracle, Kmeans) {
  expectOracleAgrees("kmeans", 10, {1, false, cr::IsolationMode::Fork},
                     {4, true, cr::IsolationMode::Fork});
}

// sp's post-mortems scan large candidate arrays; the oracle also leaves the
// fork evaluator.
TEST(BulkScanOracle, Sp) {
  expectOracleAgrees("sp", 12, {4, true, cr::IsolationMode::Fork},
                     {1, false, cr::IsolationMode::None});
}

/// Counter values and histogram counts of the process registry.
std::map<std::string, std::uint64_t> metricsSnapshot() {
  std::map<std::string, std::uint64_t> out;
  tl::MetricsRegistry::instance().forEach(
      [&](const std::string& name, const tl::Counter& c) {
        if (name.rfind("campaign.worker_", 0) != 0) out["counter " + name] = c.value();
      },
      [&](const std::string& name, const tl::Histogram& h) {
        out["histogram " + name] = h.count();
      });
  return out;
}

/// Run mg under `isolation` with a fresh registry and a captured trace.
std::pair<std::map<std::string, std::uint64_t>, std::string> tracedMg(
    cr::IsolationMode isolation, int tests) {
  auto& registry = tl::MetricsRegistry::instance();
  registry.reset();
  std::ostringstream trace;
  auto& sink = tl::TraceSink::instance();
  sink.clearCommonFields();
  sink.attachStream(&trace);
  const auto campaign = cr::CampaignRunner(ec::apps::findBenchmark("mg").factory,
                                           nvctConfig("mg", tests, {1, true, isolation}))
                            .run();
  sink.close();
  EXPECT_EQ(campaign.tests.size(), static_cast<std::size_t>(tests));
  return {metricsSnapshot(), trace.str()};
}

TEST(ForkTelemetry, MetricsMatchInProcess) {
  const auto fork = tracedMg(cr::IsolationMode::Fork, 200).first;
  const auto none = tracedMg(cr::IsolationMode::None, 200).first;
  EXPECT_EQ(fork, none);
  // The phase histograms are filled in both modes.
  EXPECT_EQ(fork.at("histogram campaign.postmortem_us"), 200u);
  EXPECT_EQ(fork.at("histogram campaign.restart_us"), 200u);
  EXPECT_EQ(fork.at("histogram campaign.crash_run_us"), 1u);
}

/// Sorted (phase, trial) pairs of the trace's phase_begin events; trial -1
/// stands for a span without a trial.
std::vector<std::pair<std::string, std::int64_t>> phaseBegins(const std::string& trace) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    const auto event = tl::json::parse(line);
    const auto* type = event ? event->find("type") : nullptr;
    if (type == nullptr || type->string != "phase_begin") continue;
    const auto* trial = event->find("trial");
    out.emplace_back(event->find("phase")->string,
                     trial == nullptr ? -1 : static_cast<std::int64_t>(trial->number));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ForkTelemetry, PhaseSpansMatchInProcess) {
  if (!tl::kTraceCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const auto fork = phaseBegins(tracedMg(cr::IsolationMode::Fork, 40).second);
  const auto none = phaseBegins(tracedMg(cr::IsolationMode::None, 40).second);
  EXPECT_FALSE(fork.empty());
  EXPECT_EQ(fork, none);
}

}  // namespace
