// Scalar-path app wrapper: the differential oracle for the campaign's fast
// paths. Wrapping an app factory switches every run the campaign builds from
// it (golden, crashing, sweep, restart — in fork workers too, since they
// build their apps from the same factory) to the per-element range loop and
// the probe-every-level post-mortem scan via Runtime::setBulk/setScan.
// Used by tests/evaluator_equiv_test.cpp and tests/scalar_oracle.cpp.
#pragma once

#include <memory>
#include <utility>

#include "easycrash/runtime/runtime.hpp"

namespace easycrash::oracle {

/// Delegates everything to the wrapped app, but switches the runtime to the
/// scalar range path and the probe-every-level post-mortem scan first.
class ScalarPathApp final : public runtime::IApp {
 public:
  explicit ScalarPathApp(std::unique_ptr<runtime::IApp> inner) : inner_(std::move(inner)) {}

  const runtime::AppInfo& info() const override { return inner_->info(); }
  void setup(runtime::Runtime& rt) override {
    rt.setBulk(false);
    rt.setScan(false);
    inner_->setup(rt);
  }
  void initialize(runtime::Runtime& rt) override { inner_->initialize(rt); }
  void iterate(runtime::Runtime& rt, int iteration) override {
    inner_->iterate(rt, iteration);
  }
  int nominalIterations() const override { return inner_->nominalIterations(); }
  bool converged(runtime::Runtime& rt, int iteration) override {
    return inner_->converged(rt, iteration);
  }
  runtime::VerifyOutcome verify(runtime::Runtime& rt) override { return inner_->verify(rt); }

 private:
  std::unique_ptr<runtime::IApp> inner_;
};

inline runtime::AppFactory scalarPaths(runtime::AppFactory factory) {
  return [factory = std::move(factory)] {
    return std::make_unique<ScalarPathApp>(factory());
  };
}

}  // namespace easycrash::oracle
