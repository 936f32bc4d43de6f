// Adaptive region-sampled access monitoring (docs/INTERNALS.md "Adaptive
// region monitor").
//
// DAMON-style access statistics at region granularity: every tracked data
// object starts as one region; a region whose sampled access counts diverge
// across its two halves is split, and adjacent regions whose sampled access
// densities converge are merged back, bounded by a per-object region cap.
// Accounting is sampled, not exhaustive — one of every `sampleInterval`
// logical tracked elements is attributed to its region — so the per-access
// cost is a counter decrement in the common case and the total state is
// O(regions), independent of the object sizes.
//
// Determinism: the sampler is a pure countdown over the logical element
// order (the same order the crash clock counts), with its phase derived from
// the seed. The element order is invariant across bulk/scalar access paths
// and chunk sizes, so a monitored run produces bit-identical region stats
// regardless of the access path, --threads or --isolation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace easycrash::memsim {

struct RegionMonitorConfig {
  /// Seeds the sampling phase (where inside the first interval the first
  /// sample lands). Campaigns pass their campaign seed.
  std::uint64_t seed = 1;
  /// Sample one of every `sampleInterval` logical tracked elements.
  std::uint32_t sampleInterval = 64;
  /// Region-count bounds per object (DAMON's min/max region knobs).
  std::uint32_t minRegionsPerObject = 1;
  std::uint32_t maxRegionsPerObject = 64;
  /// Run a split/merge aggregation pass every this many recorded samples.
  std::uint64_t aggregateEvery = 2048;
  /// Never split a region below this size, and never split one that has
  /// fewer than `minSplitSamples` samples (too little signal).
  std::uint64_t minRegionBytes = 256;
  std::uint64_t minSplitSamples = 32;
  /// Split when |leftHalf - rightHalf| / samples exceeds this.
  double splitImbalance = 0.2;
  /// Merge two adjacent regions when their sample densities differ by at
  /// most this fraction of the denser one.
  double mergeTolerance = 0.25;
};

/// One region of a monitored object: a [base, base+bytes) slice with sampled
/// access/write counts and the left-half count the split decision reads.
struct MonitorRegion {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  std::uint64_t samples = 0;
  std::uint64_t writes = 0;
  std::uint64_t leftSamples = 0;  ///< samples landing in [base, base+bytes/2)
};

struct MonitoredObject {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  std::uint64_t samples = 0;        ///< all sampled accesses (setup + window)
  std::uint64_t writes = 0;         ///< all sampled writes
  std::uint64_t windowSamples = 0;  ///< sampled accesses inside the crash window
  std::uint64_t windowWrites = 0;
  std::vector<MonitorRegion> regions;  ///< ascending by base, covers the object
};

class RegionMonitor {
 public:
  explicit RegionMonitor(RegionMonitorConfig config);

  /// Register an object (ascending base addresses; the runtime attaches every
  /// tracked allocation). One region spanning the object to start with.
  void attach(std::uint32_t id, std::string name, std::uint64_t addr,
              std::uint64_t bytes);

  /// Mirror of the runtime's crash-window flag: samples inside the window
  /// are additionally counted in the per-object window totals.
  void setWindow(bool active) noexcept { window_ = active; }

  /// Hot path: `n` logical elements of `elemSize` bytes starting at `addr`
  /// (n == 1 for scalar accesses). The common case is one decrement.
  void onRange(std::uint64_t addr, std::uint32_t elemSize, std::uint64_t n,
               bool write) {
    if (n < untilNext_) {
      untilNext_ -= n;
      return;
    }
    onRangeSlow(addr, elemSize, n, write);
  }

  [[nodiscard]] const std::vector<MonitoredObject>& objects() const {
    return objects_;
  }
  [[nodiscard]] std::uint64_t totalSamples() const { return samples_; }
  [[nodiscard]] std::uint64_t totalSplits() const { return splits_; }
  [[nodiscard]] std::uint64_t totalMerges() const { return merges_; }
  [[nodiscard]] std::uint64_t regionCount() const;

 private:
  void onRangeSlow(std::uint64_t addr, std::uint32_t elemSize, std::uint64_t n,
                   bool write);
  void recordSample(std::uint64_t addr, bool write);
  void aggregate();
  [[nodiscard]] MonitoredObject* objectAt(std::uint64_t addr);

  RegionMonitorConfig config_;
  std::vector<MonitoredObject> objects_;  ///< ascending by addr
  std::uint64_t untilNext_ = 1;  ///< logical elements until the next sample
  std::uint64_t samples_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t sinceAggregate_ = 0;
  std::size_t lastObject_ = 0;  ///< last-hit cache for the address lookup
  bool window_ = false;
};

}  // namespace easycrash::memsim
