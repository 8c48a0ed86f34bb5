#include "exp/curves.h"

#include "cloud/instance.h"
#include "core/classifier.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mca::exp {

std::vector<load_curve_point> response_vs_users(
    const std::string& type_name, tasks::task_request request,
    const load_curve_config& config) {
  const auto& type = cloud::type_by_name(type_name);
  std::vector<load_curve_point> curve;
  curve.reserve(std::size(core::kPaperLoadLevels));
  for (const std::size_t users : core::kPaperLoadLevels) {
    // Keyed by the load level, not by loop position: each point is its own
    // experiment.
    util::rng stream = util::rng::split(config.seed, users);
    sim::simulation sim;
    cloud::instance server{sim, 1, type, stream.fork()};
    cloud::service_time_recorder responses;
    server.set_completion_sink(&responses);
    workload::concurrent_config load;
    load.users = users;
    load.rounds = config.rounds;
    workload::concurrent_generator generator{
        sim, workload::static_source(request),
        [&](const workload::offload_request& r) {
          server.submit(r.work.work_units(), 0);
        },
        load, stream.fork()};
    sim.run();
    curve.push_back({users, util::summary_of(responses.times)});
  }
  return curve;
}

}  // namespace mca::exp
