#include "sched/scheduler.hpp"

#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "util/hash.hpp"

namespace edgesched::sched {

Schedule Scheduler::schedule(const dag::TaskGraph& graph,
                             const net::Topology& topology) const {
  const PlatformContext platform(topology);
  return schedule(graph, platform);
}

void Scheduler::check_inputs(const net::Topology& topology) {
  throw_if(topology.num_processors() == 0,
           "Scheduler: topology has no processors");
  throw_if(!topology.processors_connected(),
           "Scheduler: processors are not mutually reachable");
}

std::uint64_t Scheduler::fingerprint() const {
  Fingerprint fp;
  fp.mix(std::string_view("edgesched.Scheduler.name"));
  const std::string display = name();
  fp.mix(std::string_view(display));
  return fp.value();
}

std::vector<std::unique_ptr<Scheduler>> all_schedulers() {
  // The paper's three contention-aware algorithms, in evaluation order,
  // instantiated through the central registry.
  std::vector<std::unique_ptr<Scheduler>> result;
  result.push_back(make_scheduler("ba"));
  result.push_back(make_scheduler("oihsa"));
  result.push_back(make_scheduler("bbsa"));
  return result;
}

}  // namespace edgesched::sched
