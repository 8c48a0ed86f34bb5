#include "cloud/billing.h"

#include <cmath>
#include <stdexcept>

namespace mca::cloud {

double billing_meter::billed_hours(util::time_ms start, util::time_ms end) {
  const double hours = util::to_hours(std::max(end - start, 0.0));
  return std::max(std::ceil(hours), 1.0);  // a started hour is a billed hour
}

void billing_meter::on_launch(instance_id id, const instance_type& type,
                              util::time_ms at) {
  if (!open_.emplace(id, record{type.cost_per_hour, at}).second) {
    throw std::logic_error{"billing: instance already active"};
  }
}

void billing_meter::on_terminate(instance_id id, util::time_ms at) {
  const auto it = open_.find(id);
  if (it == open_.end()) throw std::logic_error{"billing: unknown instance"};
  const record& rec = it->second;
  closed_cost_ += rec.cost_per_hour * billed_hours(rec.start, at);
  open_.erase(it);
}

double billing_meter::total_cost(util::time_ms now) const {
  double cost = closed_cost_;
  // mca-lint: allow(det-unordered-iter) cost_usd feeds the golden fleet
  // fingerprint, which pins this exact FP accumulation order: open_'s
  // iteration order is fixed for a given stdlib + insertion sequence, so
  // identical runs sum identically, and reordering the sweep (e.g. to a
  // launch-order vector) would re-golden the fingerprint for no
  // correctness gain.  open_ holds only the instances still running.
  for (const auto& [id, rec] : open_) {
    cost += rec.cost_per_hour * billed_hours(rec.start, now);
  }
  return cost;
}

}  // namespace mca::cloud
