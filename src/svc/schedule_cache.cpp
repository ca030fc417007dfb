#include "svc/schedule_cache.hpp"

#include "util/hash.hpp"

namespace edgesched::svc {

std::uint64_t request_fingerprint(const dag::TaskGraph& graph,
                                  const net::Topology& topology,
                                  std::uint64_t algorithm_fingerprint) {
  Fingerprint fp;
  fp.mix(graph.fingerprint());
  fp.mix(topology.fingerprint());
  fp.mix(algorithm_fingerprint);
  return fp.value();
}

}  // namespace edgesched::svc
