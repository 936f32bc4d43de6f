// perfbench_harness — the campaign benchmark's in-process half.
//
//   perfbench_harness workflow --apps mg,sp,cg,bt --seed 7 --tests 150 --out DIR
//       Runs core::runEasyCrashWorkflow per app with the default
//       WorkflowConfig (plus a journal) and writes every campaign's CSV and
//       journal, a selection summary and the metrics snapshot into DIR.
//
//   perfbench_harness ladder --apps cg --scale 8 --monitor sampled ...
//       The traced run. Times calls into each module's public functions from
//       the outside, one rung at a time over a direct-mode floor, runs the
//       same campaign in-process, traced, under fork and with a journal, and
//       prints one JSON object of per-call samples, exact counts and the
//       campaign attribution on stdout.
//
// run.py builds and drives this binary; see README.md for the metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/core/object_selection.hpp"
#include "easycrash/core/region_selection.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/memsim/region_monitor.hpp"
#include "easycrash/perfmodel/nvm_profile.hpp"
#include "easycrash/perfmodel/time_model.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace ec = easycrash;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::vector<std::string> splitList(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string campaignCsv(const ec::crash::CampaignResult& result) {
  std::ostringstream os;
  ec::crash::writeCampaignCsv(result, os);
  return os.str();
}

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- workflow: the workflow_plan workload's timed body ----------------------

/// One app's workflow outcome as the output gate compares it: the step
/// reached, the critical objects, the production plan and the predicted Y.
std::string summaryLine(const std::string& name, const ec::core::WorkflowResult& result) {
  const int steps = result.validation ? 4 : result.objects.critical.empty() ? 2 : 3;
  std::ostringstream os;
  os << name << " steps=" << steps << " critical=";
  for (const auto id : result.objects.critical) os << id << ';';
  os << " plan=";
  for (const auto& [point, directive] : result.plan.points) {
    os << point << '/' << directive.everyN << ';';
  }
  os << std::setprecision(9) << " predictedY=" << result.regions.predictedY << '\n';
  return os.str();
}

int workflowMain(int argc, char** argv) {
  ec::CliParser cli("perfbench_harness workflow — EasyCrash 4-step workflow per app");
  cli.addString("apps", "mg,sp,cg,bt", "comma-separated apps");
  cli.addInt("seed", 1, "workflow seed");
  cli.addInt("tests", 150, "tests per campaign (0 = set-up only)");
  cli.addString("out", "", "artifact directory (required)");
  if (!cli.parse(argc, argv)) return 0;
  const std::filesystem::path out = cli.getString("out");
  if (out.empty()) throw std::runtime_error("workflow requires --out");
  std::filesystem::create_directories(out);

  std::ostringstream summary;
  std::size_t decided = 0;
  std::size_t failures = 0;
  for (const auto& name : splitList(cli.getString("apps"))) {
    ec::core::WorkflowConfig config;
    config.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    config.testsPerCampaign = static_cast<int>(cli.getInt("tests"));
    config.resilience.journalPath = (out / (name + ".journal")).string();
    const auto& factory = ec::apps::findBenchmark(name).factory;
    if (config.testsPerCampaign == 0) {
      // Set-up only: object selection needs trials, so stop where the first
      // one would start — the step-1 campaign's golden run and worker set-up.
      ec::crash::CampaignConfig base;
      base.numTests = 0;
      base.seed = config.seed;
      base.monitor.trackedGolden = true;
      base.resilience.journalPath = config.resilience.journalPath + ".baseline";
      (void)ec::crash::CampaignRunner(factory, base).run();
      continue;
    }
    const auto result = ec::core::runEasyCrashWorkflow(factory, config);

    const auto save = [&](const char* phase, const ec::crash::CampaignResult& c) {
      writeFile(out / (name + "." + phase + ".csv"), campaignCsv(c));
      decided += c.tests.size() + c.failures.size();
      failures += c.failures.size();
    };
    save("baseline", result.baseline);
    if (!result.objects.critical.empty()) save("everywhere", result.everywhere);
    if (result.validation) save("validation", *result.validation);
    summary << summaryLine(name, result);
  }
  writeFile(out / "summary.txt", summary.str());
  std::ofstream metrics(out / "metrics.json");
  ec::telemetry::MetricsRegistry::instance().writeJson(metrics);
  std::cout << "{\"decided\": " << decided << ", \"failures\": " << failures << "}\n";
  return 0;
}

// ---- ladder: the traced run ---------------------------------------------------

/// Samples, exact counts and accounting figures, printed as one JSON object.
struct Record {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void add(const std::string& name, double v) { values[name] += v; }

  void print(std::ostream& os) const {
    os << std::setprecision(12) << "{\"samples\": {";
    bool first = true;
    for (const auto& [name, list] : samples) {
      os << (first ? "" : ", ") << '"' << name << "\": [";
      for (std::size_t i = 0; i < list.size(); ++i) os << (i ? ", " : "") << list[i];
      os << ']';
      first = false;
    }
    os << "}, \"values\": {";
    first = true;
    for (const auto& [name, v] : values) {
      os << (first ? "" : ", ") << '"' << name << "\": " << v;
      first = false;
    }
    os << "}, \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? ", " : "") << '"' << errors[i] << '"';
    }
    os << "]}\n";
  }
};

/// One app instance's lifetime on one thread, from factory() to destruction.
struct Span {
  std::thread::id thread;
  double startMs = 0.0;
  double endMs = 0.0;
  std::string kind;  // golden | crash_run | restart | probe
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::mutex mutex;
  std::vector<Span> spans;
  int instances = 0;
};

/// Wraps an app so every instance a campaign creates records one span. The
/// kind is read off the public Runtime state at setup: the first instance is
/// the golden run, direct-mode instances are restarts, the rest crashing
/// runs; an instance that never iterates was a setup-only probe.
class TracedApp final : public ec::runtime::IApp {
 public:
  TracedApp(std::unique_ptr<ec::runtime::IApp> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log), start_(Clock::now()) {
    std::lock_guard<std::mutex> lock(log_.mutex);
    first_ = log_.instances++ == 0;
  }
  TracedApp(const TracedApp&) = delete;
  TracedApp& operator=(const TracedApp&) = delete;
  ~TracedApp() override {
    const auto end = Clock::now();
    const auto rel = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::milli>(t - log_.origin).count();
    };
    std::lock_guard<std::mutex> lock(log_.mutex);
    log_.spans.push_back({std::this_thread::get_id(), rel(start_), rel(end),
                          iterated_ ? kind_ : "probe"});
  }
  const ec::runtime::AppInfo& info() const override { return inner_->info(); }
  void setup(ec::runtime::Runtime& rt) override {
    kind_ = first_ ? "golden" : (rt.direct() ? "restart" : "crash_run");
    inner_->setup(rt);
  }
  void initialize(ec::runtime::Runtime& rt) override { inner_->initialize(rt); }
  void iterate(ec::runtime::Runtime& rt, int iteration) override {
    iterated_ = true;
    inner_->iterate(rt, iteration);
  }
  int nominalIterations() const override { return inner_->nominalIterations(); }
  bool converged(ec::runtime::Runtime& rt, int iteration) override {
    return inner_->converged(rt, iteration);
  }
  ec::runtime::VerifyOutcome verify(ec::runtime::Runtime& rt) override {
    return inner_->verify(rt);
  }

 private:
  std::unique_ptr<ec::runtime::IApp> inner_;
  SpanLog& log_;
  Clock::time_point start_;
  bool first_ = false;
  bool iterated_ = false;
  std::string kind_ = "probe";
};

/// Attribution of one traced in-process campaign: the per-thread unions of
/// the app spans plus the unattributed remainder make up wall x slots. Fails
/// (records an error) when a span leaves the campaign's interval, when more
/// spans are live at one instant than the campaign has slots, or when the
/// spans cover more than wall x slots.
void attribute(const SpanLog& log, double beginMs, double endMs, int slots,
               const std::string& label, Record& rec) {
  constexpr double kToleranceMs = 1.0;
  const double wall = endMs - beginMs;
  std::map<std::thread::id, std::vector<std::pair<double, double>>> byThread;
  for (const auto& span : log.spans) {
    if (span.startMs < beginMs - kToleranceMs || span.endMs > endMs + kToleranceMs) {
      rec.errors.push_back(label + ": span outside the campaign interval");
    }
    byThread[span.thread].emplace_back(span.startMs, span.endMs);
    rec.add("spans." + span.kind + "_ms", span.endMs - span.startMs);
  }
  double busy = 0.0;
  std::vector<std::pair<double, int>> edges;
  for (auto& [thread, intervals] : byThread) {
    std::sort(intervals.begin(), intervals.end());
    double curStart = intervals.front().first;
    double curEnd = intervals.front().second;
    const auto flush = [&] {
      busy += curEnd - curStart;
      edges.emplace_back(curStart, +1);
      edges.emplace_back(curEnd, -1);
    };
    for (const auto& [s, e] : intervals) {
      if (s > curEnd) {
        flush();
        curStart = s;
        curEnd = e;
      } else {
        curEnd = std::max(curEnd, e);
      }
    }
    flush();
  }
  std::sort(edges.begin(), edges.end());  // ends (-1) sort before starts at ties
  int live = 0;
  for (const auto& [t, d] : edges) {
    live += d;
    if (live > slots) {
      rec.errors.push_back(label + ": more live spans than campaign slots");
      break;
    }
  }
  const double capacity = wall * slots;
  const double unattributed = capacity - busy;
  if (unattributed < -kToleranceMs) {
    rec.errors.push_back(label + ": spans exceed wall x slots");
  }
  rec.add("attribution.capacity_ms", capacity);
  rec.add("attribution.spans_ms", busy);
  rec.add("crash.unattributed_ms", unattributed);
}

/// Repetitions of each ladder rung and of the campaign set. Two, so that the
/// campaign set can run forward and then in reverse.
constexpr int kReps = 2;

struct LadderConfig {
  int scale = 1;
  bool sampled = false;
  bool workflow = false;  // workflow_plan: the workflow's campaign settings
  int tests = 0;
  int threads = 2;
  std::uint64_t seed = 1;
  std::filesystem::path out;
};

/// The campaign exactly as `nvct` configures it by default (fork isolation,
/// sweep, profile, watchdog at 20x golden), or — for workflow_plan — as the
/// workflow's step-1 campaign (in-process, tracked golden, one thread).
ec::crash::CampaignConfig campaignConfig(const LadderConfig& lc, const std::string& app) {
  ec::crash::CampaignConfig c;
  c.seed = lc.seed;
  c.numTests = lc.tests;
  if (lc.sampled) c.monitor.mode = ec::crash::MonitorMode::Sampled;
  if (lc.workflow) {
    c.monitor.trackedGolden = true;
    return c;
  }
  c.appLabel = lc.scale == 1 ? app : app + "@s" + std::to_string(lc.scale);
  c.threads = lc.threads;
  auto& res = c.resilience;
  res.isolate = true;
  res.isolation = ec::crash::IsolationMode::Fork;
  res.maxFailures = 25;
  res.goldenTimeoutMultiple = 20.0;
  return c;
}

ec::memsim::RegionMonitorConfig monitorConfig(const ec::crash::CampaignConfig& c) {
  ec::memsim::RegionMonitorConfig m;
  m.seed = c.seed;
  m.sampleInterval = c.monitor.sampleInterval;
  m.maxRegionsPerObject = c.monitor.maxRegionsPerObject;
  m.aggregateEvery = c.monitor.aggregateEvery;
  return m;
}

/// Timed campaign: wall ms, result.
std::pair<double, ec::crash::CampaignResult> timedRun(const ec::runtime::AppFactory& f,
                                                      const ec::crash::CampaignConfig& c) {
  const auto start = Clock::now();
  auto result = ec::crash::CampaignRunner(f, c).run();
  return {msSince(start), std::move(result)};
}

/// selectRegions' inputs, built from a baseline and a persist-everywhere
/// campaign. This mirrors step 3 of core::runEasyCrashWorkflow
/// (src/core/workflow.cpp) because WorkflowResult does not expose the inputs;
/// timeSelections checks that they reproduce the workflow's own decision.
/// Delete it once the workflow exposes them.
struct RegionProblem {
  std::vector<ec::core::RegionModelInput> inputs;
  std::map<ec::runtime::PointId, double> flushOnceNs;
  double baseExecNs = 0.0;
};

RegionProblem regionProblem(const ec::crash::CampaignResult& baseline,
                            const ec::crash::CampaignResult& everywhere,
                            const ec::runtime::PersistencePlan& everywherePlan) {
  using ec::runtime::kMainLoopEnd;
  const auto& golden = baseline.golden;
  const auto cBase = baseline.regionRecomputability();
  const auto cMeasured = everywhere.regionRecomputability();
  RegionProblem problem;
  for (const auto& [point, share] : golden.regionTimeShare) {
    ec::core::RegionModelInput input;
    input.point = point;
    input.timeShare = share;
    input.baseRecomputability = cBase.count(point) ? cBase.at(point) : 0.0;
    const double measured =
        cMeasured.count(point) ? cMeasured.at(point) : everywhere.recomputability();
    const auto planIt = everywherePlan.points.find(point);
    input.maxRecomputability = ec::core::extrapolateMaxRecomputability(
        input.baseRecomputability, measured,
        planIt != everywherePlan.points.end() ? planIt->second.everyN : 1);
    input.iterationEnds =
        golden.regionIterationEnds.count(point) ? golden.regionIterationEnds.at(point) : 0;
    if (input.iterationEnds > 0) problem.inputs.push_back(input);
  }
  if (golden.regionTimeShare.count(kMainLoopEnd) == 0 &&
      golden.regionIterationEnds.count(kMainLoopEnd)) {
    ec::core::RegionModelInput input;
    input.point = kMainLoopEnd;
    input.baseRecomputability = baseline.recomputability();
    input.maxRecomputability =
        std::clamp(everywhere.recomputability(), input.baseRecomputability, 1.0);
    input.iterationEnds = golden.regionIterationEnds.at(kMainLoopEnd);
    problem.inputs.push_back(input);
  }
  const ec::perfmodel::TimeModel model(ec::perfmodel::NvmProfile::dram());
  problem.baseExecNs = model.executionTimeNs(golden.events);
  const double flushOnce =
      model.persistenceTimeNs(everywhere.golden.events) /
      static_cast<double>(std::max<std::uint64_t>(1, everywhere.golden.persistenceOps));
  for (const auto& input : problem.inputs) problem.flushOnceNs[input.point] = flushOnce;
  return problem;
}

/// Times core's two selections on a baseline campaign and, for the knapsack,
/// its persist-everywhere campaign. When `workflow` is given, the selections
/// must match the ones it made. Returns the summed ms of both calls.
double timeSelections(const std::string& name, const ec::crash::CampaignResult& baseline,
                      const ec::crash::CampaignResult& everywhere,
                      const ec::runtime::PersistencePlan& everywherePlan,
                      const ec::core::WorkflowResult* workflow, Record& rec) {
  const ec::core::WorkflowConfig config;
  auto start = Clock::now();
  const auto objects = ec::core::selectCriticalObjects(baseline, config.objectCriteria);
  const double objectMs = msSince(start);
  rec.sample("core.object_selection_ms", objectMs);
  if (workflow && objects.critical != workflow->objects.critical) {
    rec.errors.push_back(name + ": selectCriticalObjects differs from the workflow's");
  }
  if (workflow && workflow->objects.critical.empty()) return objectMs;

  const auto problem = regionProblem(baseline, everywhere, everywherePlan);
  start = Clock::now();
  const auto regions = ec::core::selectRegions(problem.inputs, problem.flushOnceNs,
                                               problem.baseExecNs, config.regionConfig);
  const double regionMs = msSince(start);
  rec.sample("core.region_selection_ms", regionMs);
  const auto sameChoice = [](const auto& a, const auto& b) {
    return a.point == b.point && a.everyN == b.everyN;
  };
  if (workflow && (regions.predictedY != workflow->regions.predictedY ||
                   !std::equal(regions.chosen.begin(), regions.chosen.end(),
                               workflow->regions.chosen.begin(),
                               workflow->regions.chosen.end(), sameChoice))) {
    rec.errors.push_back(name + ": selectRegions differs from the workflow's");
  }
  return objectMs + regionMs;
}

void ladderApp(const std::string& name, const LadderConfig& lc, Record& rec,
               std::ostringstream& workflowSummary) {
  using ec::runtime::Driver;
  using ec::runtime::Runtime;
  const auto factory = ec::apps::scaledBenchmarkFactory(name, lc.scale);
  auto config = campaignConfig(lc, name);

  // ---- Campaigns: untraced in-process, traced in-process, fork, journal. ----
  // Run once per rep, in reverse order on odd reps, so that warm-up and slow
  // host drift cancel out of the differences.
  auto none = config;
  none.resilience.isolation = ec::crash::IsolationMode::None;
  auto fork = config;
  fork.resilience.isolate = true;
  fork.resilience.isolation = ec::crash::IsolationMode::Fork;
  auto journaled = fork;
  const auto journalPath = lc.out / (name + ".journal");
  journaled.resilience.journalPath = journalPath.string();
  const ec::crash::CampaignConfig* configs[4] = {&none, &none, &fork, &journaled};
  const int threads = std::max(1, std::min(none.threads, std::max(1, none.numTests)));
  const int slots = threads + (none.sweep ? 1 : 0);

  std::string csv;
  ec::crash::CampaignResult noneResult;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanLog log;
    const ec::runtime::AppFactory traced = [&factory, &log] {
      return std::make_unique<TracedApp>(factory(), log);
    };
    double tracedBegin = 0.0;
    double ms[4] = {};
    ec::crash::CampaignResult results[4];
    for (int step = 0; step < 4; ++step) {
      const int which = rep % 2 == 0 ? step : 3 - step;
      if (which == 1) tracedBegin = msSince(log.origin);
      if (which == 3) std::filesystem::remove(journalPath);
      auto [wall, result] = timedRun(which == 1 ? traced : factory, *configs[which]);
      ms[which] = wall;
      results[which] = std::move(result);
    }
    attribute(log, tracedBegin, tracedBegin + ms[1], slots, name, rec);
    rec.sample("campaign.untraced_ms", ms[0]);
    rec.sample("campaign.traced_ms", ms[1]);
    rec.sample("crash.fork_overhead_ms", ms[2] - ms[0]);
    rec.sample("crash.journal_ms", ms[3] - ms[2]);
    rec.sample("campaign.fork_journal_ms", ms[3]);
    if (!lc.workflow) rec.sample("core.campaigns_ms", ms[0]);

    if (rep == 0) csv = campaignCsv(results[3]);
    for (const auto& r : results) {
      if (campaignCsv(r) != csv) {
        rec.errors.push_back(name +
                             ": campaign CSV differs across isolation/journal/tracing");
      }
      rec.add("campaign.decided", static_cast<double>(r.tests.size() + r.failures.size()));
      rec.add("campaign.failures", static_cast<double>(r.failures.size()));
    }
    noneResult = std::move(results[0]);
  }
  writeFile(lc.out / (name + ".csv"), csv);

  auto start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    start = Clock::now();
    const auto report = ec::crash::renderFlightReport({journalPath.string(), "", ""});
    rec.sample("crash.report_ms", msSince(start));
    if (report.empty()) rec.errors.push_back(name + ": empty flight report");
  }

  // core's selections: on the workflow's own campaigns for workflow_plan,
  // otherwise on the in-process campaign, which stands in for the
  // persist-everywhere campaign as well.
  if (lc.workflow) {
    ec::core::WorkflowConfig wc;
    wc.seed = lc.seed;
    start = Clock::now();
    const auto result = ec::core::runEasyCrashWorkflow(ec::apps::findBenchmark(name).factory, wc);
    const double workflowMs = msSince(start);
    const double selectMs = timeSelections(name, result.baseline, result.everywhere,
                                           result.everywherePlan, &result, rec);
    rec.sample("core.campaigns_ms", workflowMs - selectMs);
    workflowSummary << summaryLine(name, result);
    const auto* validation = result.validation ? &*result.validation : nullptr;
    for (const auto* c : {&result.baseline, &result.everywhere, validation}) {
      if (!c) continue;
      rec.add("campaign.decided", static_cast<double>(c->tests.size() + c->failures.size()));
      rec.add("campaign.failures", static_cast<double>(c->failures.size()));
    }
  } else {
    (void)timeSelections(name, noneResult, noneResult, {}, nullptr, rec);
  }

  // ---- Ladder rungs over the direct-mode floor. ------------------------------
  const auto golden = noneResult.golden;
  ec::Rng rng(lc.seed);
  std::uint64_t lastCrash = 1;
  for (int t = 0; t < lc.tests; ++t) {
    lastCrash = std::max(lastCrash, rng.between(1, golden.windowAccesses));
  }
  const auto demoted = noneResult.monitor.demotedNames();

  for (int rep = 0; rep < kReps; ++rep) {
    double floorMs = 0.0;
    {
      Runtime rt(config.cache);
      rt.setDirect(true);
      auto app = factory();
      start = Clock::now();
      (void)Driver::freshRun(*app, rt);
      floorMs = msSince(start);
      rec.sample("apps.direct_run_ms", floorMs);
    }
    double trackedMs = 0.0;
    {
      Runtime rt(config.cache);
      auto app = factory();
      start = Clock::now();
      (void)Driver::freshRun(*app, rt);
      trackedMs = msSince(start);
      const auto& ev = rt.events();
      const double accesses = static_cast<double>(ev.loads + ev.stores);
      rec.sample("memsim.cache_sim_ms", trackedMs - floorMs);
      rec.sample("memsim.ns_per_sim_access", (trackedMs - floorMs) * 1e6 / accesses);
      if (rep == 0) {
        const std::size_t llc = config.cache.levels.size() - 1;
        rec.add("memsim.accesses", accesses);
        rec.add("memsim.l1_hits", static_cast<double>(ev.hits[0]));
        rec.add("memsim.l1_misses", static_cast<double>(ev.misses[0]));
        rec.add("memsim.llc_hits", static_cast<double>(ev.hits[llc]));
        rec.add("memsim.llc_misses", static_cast<double>(ev.misses[llc]));
        rec.add("memsim.nvm_block_writes", static_cast<double>(ev.nvmBlockWrites));
      }
      const auto before = rt.events().flushDirty;
      for (const auto id : rt.candidateObjects()) {
        start = Clock::now();
        rt.persistObject(id);
        rec.sample("runtime.persist_us", msSince(start) * 1e3);
      }
      if (rep == 0) {
        rec.add("memsim.flush_dirty", static_cast<double>(rt.events().flushDirty - before));
      }
    }
    {
      Runtime rt(config.cache);
      rt.enableProfile();
      auto app = factory();
      start = Clock::now();
      (void)Driver::freshRun(*app, rt);
      rec.sample("runtime.profile_ms", msSince(start) - trackedMs);
    }
    {
      ec::memsim::RegionMonitor monitor(monitorConfig(config));
      Runtime rt(config.cache);
      rt.setDirect(true);
      rt.setMonitor(&monitor);
      auto app = factory();
      start = Clock::now();
      (void)Driver::freshRun(*app, rt);
      rec.sample("memsim.monitor_ms", msSince(start) - floorMs);
      rt.setMonitor(nullptr);
    }
    {
      // The sweep's serial path: one tracked run to the latest drawn crash
      // index, with the campaign's demotion routing.
      Runtime rt(config.cache);
      if (!demoted.empty()) rt.setDemotedNames(demoted);
      auto app = factory();
      start = Clock::now();
      bool crashed = false;
      try {
        app->setup(rt);
        app->initialize(rt);
        rt.armCrash(lastCrash);
        (void)Driver::run(*app, rt, 1);
      } catch (const ec::runtime::CrashEvent&) {
        crashed = true;
      }
      rec.sample("crash.crash_run_ms", msSince(start));
      if (!crashed) rec.errors.push_back(name + ": armed crash did not fire");

      const auto scanBefore = rt.events().postmortemBlocksCompared;
      std::map<ec::runtime::ObjectId, std::vector<std::uint8_t>> snapshots;
      start = Clock::now();
      double rateSum = 0.0;
      for (const auto id : rt.candidateObjects()) rateSum += rt.inconsistentRate(id);
      rec.sample("memsim.postmortem_us", msSince(start) * 1e3);
      if (rep == 0) {
        rec.add("memsim.postmortem_blocks_compared",
                static_cast<double>(rt.events().postmortemBlocksCompared - scanBefore));
        rec.add("memsim.postmortem_rate_sum", rateSum);
      }
      for (const auto id : rt.candidateObjects()) snapshots[id] = rt.dumpObjectNvm(id);
      const int restartIteration = rt.bookmarkedIterationNvm();

      Runtime rr(config.cache);
      rr.setDirect(true);
      auto restartApp = factory();
      start = Clock::now();
      restartApp->setup(rr);
      restartApp->initialize(rr);
      for (const auto& [id, bytes] : snapshots) rr.restoreObject(id, bytes);
      (void)Driver::run(*restartApp, rr, restartIteration,
                        golden.finalIteration * config.maxIterationFactor);
      rec.sample("runtime.restart_ms", msSince(start));
    }
    {
      start = Clock::now();
      (void)ec::crash::CampaignRunner(factory, config).goldenRun();
      rec.sample("crash.golden_ms", msSince(start));
    }
  }
}

int ladderMain(int argc, char** argv) {
  ec::CliParser cli("perfbench_harness ladder — per-layer timings from public calls");
  cli.addString("apps", "cg", "comma-separated apps");
  cli.addInt("scale", 1, "problem-size multiplier");
  cli.addString("monitor", "full", "full|sampled");
  cli.addInt("tests", 60, "tests per traced campaign");
  cli.addInt("threads", 2, "campaign threads");
  cli.addInt("seed", 1, "campaign seed");
  cli.addFlag("workflow", "workflow_plan settings plus a timed runEasyCrashWorkflow");
  cli.addString("out", "", "artifact directory (required)");
  if (!cli.parse(argc, argv)) return 0;
  LadderConfig lc;
  lc.scale = static_cast<int>(cli.getInt("scale"));
  lc.sampled = cli.getString("monitor") == "sampled";
  lc.workflow = cli.getFlag("workflow");
  lc.tests = static_cast<int>(cli.getInt("tests"));
  lc.threads = static_cast<int>(cli.getInt("threads"));
  lc.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
  lc.out = cli.getString("out");
  if (lc.out.empty()) throw std::runtime_error("ladder requires --out");
  std::filesystem::create_directories(lc.out);

  Record rec;
  std::ostringstream workflowSummary;
  const auto start = Clock::now();
  for (const auto& name : splitList(cli.getString("apps"))) {
    ladderApp(name, lc, rec, workflowSummary);
  }
  rec.add("harness.wall_ms", msSince(start));
  rec.add("ladder.reps", kReps);
  if (lc.workflow) writeFile(lc.out / "summary.txt", workflowSummary.str());
  rec.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc >= 2 ? argv[1] : "";
    if (mode == "workflow") return workflowMain(argc - 1, argv + 1);
    if (mode == "ladder") return ladderMain(argc - 1, argv + 1);
    std::cerr << "usage: perfbench_harness workflow|ladder [options] (--help)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
}
