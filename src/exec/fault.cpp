#include "exec/fault.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace edgesched::exec {

namespace {

/// True for a finite value >= 0 (false for NaN and +inf).
bool finite_non_negative(double value) {
  return value >= 0.0 && std::isfinite(value);
}

void check_event(const FaultEvent& event) {
  throw_if(!finite_non_negative(event.time),
           "FaultPlan: event time must be finite and >= 0");
  throw_if(!event.permanent && !finite_non_negative(event.repair),
           "FaultPlan: transient repair time must be finite and >= 0");
}

// Appends Poisson failure arrivals for one resource.
void sample_resource(std::vector<FaultEvent>& events, FaultKind kind,
                     std::uint32_t target, double rate,
                     const HazardConfig& config, Rng& rng) {
  if (rate <= 0.0) {
    return;
  }
  double t = 0.0;
  while (true) {
    const double u = rng.uniform_real(0.0, 1.0);
    t += -std::log1p(-u) / rate;  // exponential inter-arrival
    if (t >= config.horizon) {
      return;
    }
    FaultEvent event;
    event.time = t;
    event.kind = kind;
    event.target = target;
    event.permanent = rng.bernoulli(config.permanent_fraction);
    if (!event.permanent) {
      const double v = rng.uniform_real(0.0, 1.0);
      event.repair = -std::log1p(-v) * config.mean_repair;
    }
    events.push_back(event);
    if (event.permanent) {
      return;  // a dead resource cannot fail again
    }
  }
}

}  // namespace

FaultPlan FaultPlan::scripted(std::vector<FaultEvent> events) {
  FaultPlan plan;
  for (const FaultEvent& event : events) {
    check_event(event);
  }
  plan.events_ = std::move(events);
  plan.sort_events();
  return plan;
}

FaultPlan FaultPlan::sampled(const net::Topology& topology,
                             const HazardConfig& config) {
  throw_if(!finite_non_negative(config.processor_rate) ||
               !finite_non_negative(config.link_rate),
           "FaultPlan::sampled: rates must be finite and >= 0");
  throw_if(!finite_non_negative(config.horizon),
           "FaultPlan::sampled: horizon must be finite and >= 0");
  throw_if(!(config.permanent_fraction >= 0.0 &&
             config.permanent_fraction <= 1.0),
           "FaultPlan::sampled: permanent_fraction must be in [0, 1]");
  throw_if(!finite_non_negative(config.mean_repair),
           "FaultPlan::sampled: mean_repair must be finite and >= 0");
  FaultPlan plan;
  Rng root(config.seed);
  for (const net::NodeId p : topology.processors()) {
    Rng rng = root.fork();
    sample_resource(plan.events_, FaultKind::kProcessor,
                    static_cast<std::uint32_t>(p.value()),
                    config.processor_rate, config, rng);
  }
  for (const net::LinkId l : topology.all_links()) {
    Rng rng = root.fork();
    sample_resource(plan.events_, FaultKind::kLink,
                    static_cast<std::uint32_t>(l.value()), config.link_rate,
                    config, rng);
  }
  plan.sort_events();
  return plan;
}

void FaultPlan::validate(const net::Topology& topology) const {
  for (const FaultEvent& event : events_) {
    if (event.kind == FaultKind::kProcessor) {
      throw_if(event.target >= topology.num_nodes(),
               "FaultPlan: processor fault targets unknown node");
      throw_if(!topology.is_processor(net::NodeId(event.target)),
               "FaultPlan: processor fault targets a switch");
    } else {
      throw_if(event.target >= topology.num_links(),
               "FaultPlan: link fault targets unknown link");
    }
  }
}

void FaultPlan::sort_events() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time != b.time) {
                       return a.time < b.time;
                     }
                     if (a.kind != b.kind) {
                       return a.kind < b.kind;
                     }
                     return a.target < b.target;
                   });
}

}  // namespace edgesched::exec
