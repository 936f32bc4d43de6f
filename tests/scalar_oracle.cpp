// scalar_oracle — an nvct campaign on the scalar reference paths.
//
// Runs the same campaign nvct runs with its defaults (trial isolation on,
// plan none, NVM snapshots, seed 1), but with every run of the app switched
// to the per-element range loop and the probe-every-level post-mortem scan
// (tests/scalar_path_app.hpp). Its CSV and journal must match nvct's byte
// for byte: the nvct_bulk_* and nvct_scan_* ctest fixtures diff them, with
// the threads, sweep and isolation axes flipped on the oracle side so a
// fast-path divergence cannot hide behind scheduling or the evaluator.
//
//   scalar_oracle --app lulesh --tests 12 --threads 1 --sweep off
//        --csv-out lulesh_scalar.csv --journal lulesh_scalar.jsonl
//
// Exits 1 on an error, and also when a run still took a fast path (range
// calls or scan-index blocks were counted), since then the oracle proves
// nothing.
#include <iostream>
#include <sstream>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "scalar_path_app.hpp"

namespace ec = easycrash;

int main(int argc, char** argv) {
  ec::CliParser cli(
      "scalar_oracle — an nvct campaign with the range fast path and the "
      "post-mortem scan index switched off in every run.");
  cli.addString("app", "mg", "benchmark to study");
  cli.addInt("tests", 200, "number of crash tests");
  cli.addInt("threads", 1, "campaign worker threads");
  cli.addString("sweep", "on", "single-sweep evaluator (on|off)");
  cli.addString("isolation", "fork", "trial evaluator isolation (fork|none)");
  cli.addString("csv-out", "", "write the per-test CSV to this file");
  cli.addString("journal", "", "write the campaign journal to this file");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto& entry = ec::apps::findBenchmark(cli.getString("app"));

    ec::crash::CampaignConfig config;
    config.numTests = static_cast<int>(cli.getInt("tests"));
    config.appLabel = entry.name;
    config.threads = static_cast<int>(cli.getInt("threads"));
    const std::string sweep = cli.getString("sweep");
    if (sweep != "on" && sweep != "off") {
      throw std::runtime_error("--sweep must be 'on' or 'off'");
    }
    config.sweep = sweep == "on";
    // nvct's resilience defaults.
    auto& res = config.resilience;
    res.isolate = true;
    res.maxFailures = 25;
    res.goldenTimeoutMultiple = 20.0;
    res.journalPath = cli.getString("journal");
    const std::string isolation = cli.getString("isolation");
    if (isolation == "fork") {
      res.isolation = ec::crash::IsolationMode::Fork;
    } else if (isolation == "none") {
      res.isolation = ec::crash::IsolationMode::None;
    } else {
      throw std::runtime_error("--isolation must be 'fork' or 'none'");
    }

    const auto campaign =
        ec::crash::CampaignRunner(ec::oracle::scalarPaths(entry.factory), config).run();
    ec::crash::writeCampaignSummary(campaign, std::cout);

    const std::string csvPath = cli.getString("csv-out");
    if (!csvPath.empty()) {
      std::ostringstream os;
      ec::crash::writeCampaignCsv(campaign, os);
      ec::crash::atomicWriteFile(csvPath, os.str());
    }

    auto& registry = ec::telemetry::MetricsRegistry::instance();
    const auto fastPathHits =
        registry.counter("campaign.range_accesses").value() +
        registry.counter("memsim.postmortem_blocks_compared").value() +
        registry.counter("memsim.postmortem_blocks_skipped").value();
    if (fastPathHits != 0) {
      std::cerr << "scalar_oracle: " << fastPathHits
                << " fast-path range calls / scan-index blocks were counted\n";
      return 1;
    }
    if (!campaign.failures.empty()) {
      std::cerr << "scalar_oracle: " << campaign.failures.size() << " trial failures\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "scalar_oracle: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
