// One scripted fault per call, for building exec::FaultPlan::scripted
// inputs in executor tests without spelling out every FaultEvent field.
#pragma once

#include "exec/fault.hpp"
#include "net/topology.hpp"

namespace edgesched::test {

inline exec::FaultEvent processor_fault(double time, net::NodeId processor,
                                        bool permanent = true,
                                        double repair = 0.0) {
  return {time, exec::FaultKind::kProcessor, processor.value(), permanent,
          repair};
}

inline exec::FaultEvent link_fault(double time, net::LinkId link,
                                   bool permanent = true,
                                   double repair = 0.0) {
  return {time, exec::FaultKind::kLink, link.value(), permanent, repair};
}

}  // namespace edgesched::test
