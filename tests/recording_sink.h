// Test helper: a response_sink that keeps every response the SDN
// accelerator delivers, in delivery order, for assertions after the run.
#pragma once

#include <vector>

#include "core/sdn_accelerator.h"

namespace mca::test_support {

struct delivered_response {
  workload::offload_request request;
  core::request_timing timing;
  group_id group = 0;
};

class recording_sink final : public core::response_sink {
 public:
  void on_response(const workload::offload_request& request,
                   const core::request_timing& timing,
                   group_id group) override {
    responses.push_back({request, timing, group});
  }

  std::vector<delivered_response> responses;
};

}  // namespace mca::test_support
