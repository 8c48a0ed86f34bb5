// Test helper: a cloud::completion_sink that runs a callback per tag, so
// a test can state what a job's completion does next to its submit:
//
//   callback_sink sink;
//   server.set_completion_sink(&sink);
//   server.submit(10.0, sink.tag([&](double t, bool) { service = t; }));
//
// A tag may be reused for any number of jobs.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cloud/instance.h"

namespace mca::test_support {

class callback_sink final : public cloud::completion_sink {
 public:
  using callback = std::function<void(util::time_ms service_time, bool ok)>;

  /// Registers `fn` and returns the tag that runs it.
  std::uint32_t tag(callback fn) {
    callbacks_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(callbacks_.size() - 1);
  }

  void on_completion(std::uint32_t tag, std::uint32_t /*epoch*/,
                     util::time_ms service_time, bool ok) override {
    // A copy: the callback may register another one, which can move the
    // vector it lives in.
    const callback fn = callbacks_.at(tag);
    fn(service_time, ok);
  }

 private:
  std::vector<callback> callbacks_;
};

}  // namespace mca::test_support
