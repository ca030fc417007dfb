#include "exec/runtime_model.hpp"

#include <cmath>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace edgesched::exec {

namespace {

// Hash-seeded stream: a fresh generator per (seed, tag, id, attempt) so
// factors are independent of the order the executor asks for them.
Rng stream(std::uint64_t seed, std::uint64_t tag, std::uint32_t id,
           std::uint32_t attempt) {
  Fingerprint fp;
  fp.mix(seed);
  fp.mix(tag);
  fp.mix(static_cast<std::uint64_t>(id));
  fp.mix(static_cast<std::uint64_t>(attempt));
  return Rng(fp.value());
}

}  // namespace

void RuntimeModel::validate() const {
  // Written as negated in-range tests so NaN (which fails every
  // comparison) is rejected along with out-of-range values.
  throw_if(!(duration_spread >= 0.0 && duration_spread < 1.0),
           "RuntimeModel: duration_spread must be in [0, 1)");
  throw_if(!(bandwidth_spread >= 0.0 && bandwidth_spread < 1.0),
           "RuntimeModel: bandwidth_spread must be in [0, 1)");
  throw_if(!(straggler_probability >= 0.0 && straggler_probability <= 1.0),
           "RuntimeModel: straggler_probability must be in [0, 1]");
  throw_if(!(straggler_factor >= 1.0 && std::isfinite(straggler_factor)),
           "RuntimeModel: straggler_factor must be finite and >= 1");
}

double RuntimeSampler::task_factor(std::uint32_t task,
                                   std::uint32_t attempt) const {
  if (model_.duration_spread == 0.0 &&
      model_.straggler_probability == 0.0) {
    return 1.0;  // bitwise-nominal fast path
  }
  Rng rng = stream(model_.seed, /*tag=*/1, task, attempt);
  double factor = model_.duration_spread == 0.0
                      ? 1.0
                      : rng.uniform_real(1.0 - model_.duration_spread,
                                         1.0 + model_.duration_spread);
  if (model_.straggler_probability > 0.0 &&
      rng.bernoulli(model_.straggler_probability)) {
    factor *= model_.straggler_factor;
  }
  return factor;
}

double RuntimeSampler::bandwidth_factor(std::uint32_t edge,
                                        std::uint32_t attempt) const {
  if (model_.bandwidth_spread == 0.0) {
    return 1.0;
  }
  Rng rng = stream(model_.seed, /*tag=*/2, edge, attempt);
  return rng.uniform_real(1.0 - model_.bandwidth_spread,
                          1.0 + model_.bandwidth_spread);
}

}  // namespace edgesched::exec
