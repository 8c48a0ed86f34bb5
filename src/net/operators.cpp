#include "net/operators.h"

#include <stdexcept>

namespace mca::net {

const char* to_string(technology t) noexcept {
  switch (t) {
    case technology::threeg: return "3G";
    case technology::lte: return "LTE";
  }
  return "unknown";
}

const std::vector<operator_profile>& netradar_operators() {
  // Fig. 11 / §VI-C.4: mean, median, SD in ms and sample counts per
  // operator and technology, exactly as printed in the paper.
  static const std::vector<operator_profile> operators = {
      {"alpha", {128.0, 51.0, 362.0}, {41.0, 34.0, 56.0}, 205'762, 182'549},
      {"beta", {141.0, 60.0, 376.0}, {36.0, 25.0, 70.0}, 448'942, 493'956},
      {"gamma", {137.0, 56.0, 379.0}, {42.0, 27.0, 84.0}, 191'973, 152'605},
  };
  return operators;
}

const operator_profile& operator_by_name(const std::string& name) {
  for (const auto& op : netradar_operators()) {
    if (op.name == name) return op;
  }
  throw std::out_of_range{"operator_by_name: unknown operator '" + name + "'"};
}

rtt_model calibrated_model(const operator_profile& profile, technology tech) {
  const auto& target = (tech == technology::threeg) ? profile.threeg
                                                    : profile.lte;
  const double diurnal = (tech == technology::threeg) ? 0.25 : 0.10;
  return rtt_model{fit_rtt_params(target), diurnal};
}

rtt_model default_lte_model() {
  // The grid-search calibration is a pure function of the published
  // operator numbers; fleet runs construct one system per shard, so fit
  // once per process and hand out copies.  (Magic-static init is
  // thread-safe; shards are built in parallel.)
  static const rtt_model model =
      calibrated_model(operator_by_name("beta"), technology::lte);
  return model;
}

}  // namespace mca::net
