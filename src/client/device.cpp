#include "client/device.h"

namespace mca::client {

const char* to_string(device_class c) noexcept {
  switch (c) {
    case device_class::wearable: return "wearable";
    case device_class::budget: return "budget";
    case device_class::midrange: return "midrange";
    case device_class::flagship: return "flagship";
  }
  return "unknown";
}

device_profile profile_for(device_class cls) noexcept {
  // Local speeds relative to the reference cloud core (1.0 wu/ms).  Weaker
  // hardware also pays more energy per unit of work (older process nodes).
  switch (cls) {
    case device_class::wearable:
      return {cls, 0.05, 1.2e-5, 3.0e-7};
    case device_class::budget:
      return {cls, 0.15, 7.0e-6, 2.8e-7};
    case device_class::midrange:
      return {cls, 0.35, 4.0e-6, 2.5e-7};
    case device_class::flagship:
      return {cls, 0.70, 2.5e-6, 2.2e-7};
  }
  return {};
}

}  // namespace mca::client
