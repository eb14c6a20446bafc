#include "obs/context.hpp"

#include <utility>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"

namespace tc3i::obs {

namespace {

const Context& process_context() {
  static const Context* ctx = [] {
    auto* c = new Context();  // never destroyed
    c->registry = new CounterRegistry();
    return c;
  }();
  return *ctx;
}

thread_local const Context* t_context = nullptr;

}  // namespace

const Context& current_context() {
  return t_context != nullptr ? *t_context : process_context();
}

CounterRegistry& default_registry() { return *current_context().registry; }

ScopedContext::ScopedContext(Context ctx)
    : ctx_(std::move(ctx)), prev_(t_context) {
  TC3I_EXPECTS(ctx_.registry != nullptr);
  t_context = &ctx_;
}

ScopedContext::~ScopedContext() { t_context = prev_; }

namespace {
Context with_scenario(std::string label) {
  Context ctx = current_context();
  ctx.scenario = std::move(label);
  return ctx;
}
}  // namespace

ScopedScenarioLabel::ScopedScenarioLabel(std::string label)
    : scope_(with_scenario(std::move(label))) {}

ContextFork::ContextFork(const Context& parent)
    : registry_(std::make_unique<CounterRegistry>()), ctx_(parent) {
  ctx_.registry = registry_.get();
  if (parent.records != nullptr) {
    records_ = std::make_unique<RunRecordStore>();
    ctx_.records = records_.get();
  }
  if (parent.timeline != nullptr) {
    timeline_ = std::make_unique<TimelineStore>(
        parent.timeline->sample_period_cycles());
    ctx_.timeline = timeline_.get();
  }
}

ContextFork::~ContextFork() = default;

void ContextFork::merge_into(const Context& parent) const {
  parent.registry->merge_from(*registry_);
  if (records_ != nullptr) parent.records->merge_from(*records_);
  if (timeline_ != nullptr) parent.timeline->merge_from(*timeline_);
}

}  // namespace tc3i::obs
