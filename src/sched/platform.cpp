#include "sched/platform.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace edgesched::sched {

namespace {
const net::Topology& require_topology(
    const std::shared_ptr<const net::Topology>& topology) {
  throw_if(topology == nullptr, "PlatformContext: null topology");
  return *topology;
}
}  // namespace

WorkspaceLease::WorkspaceLease(const PlatformContext& owner)
    : owner_(&owner), workspace_(owner.acquire()) {}

WorkspaceLease::~WorkspaceLease() {
  if (workspace_ != nullptr) {
    owner_->release(std::move(workspace_));
  }
}

PlatformContext::PlatformContext(const net::Topology& topology)
    : topology_(&topology),
      routes_(topology),
      transit_(topology),
      unique_paths_(topology),
      mean_link_speed_(topology.mean_link_speed()),
      fingerprint_(topology.fingerprint()),
      num_processors_(
          std::max<std::size_t>(std::size_t{1}, topology.num_processors())) {}

PlatformContext::PlatformContext(
    std::shared_ptr<const net::Topology> topology)
    : owned_(std::move(topology)),
      topology_(&require_topology(owned_)),
      routes_(*topology_),
      transit_(*topology_),
      unique_paths_(*topology_),
      mean_link_speed_(topology_->mean_link_speed()),
      fingerprint_(topology_->fingerprint()),
      num_processors_(std::max<std::size_t>(std::size_t{1},
                                            topology_->num_processors())) {}

std::size_t PlatformContext::pooled_workspaces() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

std::unique_ptr<Workspace> PlatformContext::acquire() const {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<Workspace> workspace = std::move(pool_.back());
      pool_.pop_back();
      return workspace;
    }
  }
  // Pool empty (first run, or every workspace leased out by concurrent
  // runs): allocate outside the lock.
  return std::make_unique<Workspace>();
}

void PlatformContext::release(std::unique_ptr<Workspace> workspace) const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(workspace));
}

}  // namespace edgesched::sched
