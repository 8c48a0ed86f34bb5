#include "cloud/instance_type.h"

#include <algorithm>
#include <stdexcept>

namespace mca::cloud {

std::size_t instance_type::max_concurrent() const noexcept {
  // The stripped Dalvik-x86 surrogate (no Zygote, no GUI manager, -40%
  // storage) keeps a request's process around ~16 MB resident, so even the
  // nano absorbs the paper's 100-user characterization bursts; the floor
  // covers swap headroom on the smallest types.
  const auto by_memory = static_cast<std::size_t>(memory_gb * 64.0);
  return std::max<std::size_t>(by_memory, 128);
}

const std::vector<instance_type>& ec2_catalog() {
  // vCPU/memory/price: EC2 Ireland on-demand, 2016, each price in whole
  // $0.0001 per hour (t2.nano's $0.0063 is 63).  Speed factors encode the
  // paper's measured acceleration levels (§VI-A.3): L1 = 1.00 (t2.nano,
  // t2.small), L2 = 1.25 (t2.medium, t2.large), L3 = 1.73 (m4.4xlarge,
  // m4.10xlarge), L4 = 2.10 (c4.8xlarge).  t2.micro nominally matches L1
  // but carries heavy steal + jitter (Fig. 6 anomaly) and ends up demoted
  // to group 0 by the classifier.
  static const std::vector<instance_type> catalog = {
      //  name           vcpu  mem   $0.0001/h speed jitter steal baseline
      {"t2.nano",         1.0,  0.5,     63,  1.00, 0.08, 0.00, 0.05},
      {"t2.micro",        1.0,  1.0,    126,  1.00, 0.25, 0.35, 0.10},
      {"t2.small",        1.0,  2.0,    250,  1.00, 0.08, 0.00, 0.20},
      {"t2.medium",       2.0,  4.0,    500,  1.25, 0.08, 0.00, 0.20},
      {"t2.large",        2.0,  8.0,  1'010,  1.25, 0.08, 0.00, 0.30},
      {"m4.4xlarge",     16.0, 64.0,  8'880,  1.73, 0.06, 0.00, 1.00},
      {"m4.10xlarge",    40.0,160.0, 22'200,  1.73, 0.06, 0.00, 1.00},
      {"c4.8xlarge",     36.0, 60.0, 18'110,  2.10, 0.06, 0.00, 1.00},
  };
  return catalog;
}

const instance_type& type_by_name(std::string_view name) {
  for (const auto& t : ec2_catalog()) {
    if (t.name == name) return t;
  }
  throw std::out_of_range{"type_by_name: unknown instance type '" +
                          std::string{name} + "'"};
}

}  // namespace mca::cloud
