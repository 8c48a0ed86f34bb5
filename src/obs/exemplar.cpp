#include "obs/exemplar.h"

#include <algorithm>
#include <utility>

namespace mca::obs {

void exemplar_reservoir::reset(std::size_t top_k,
                               std::size_t window_capacity) {
  top_k_ = top_k;
  heap_size_ = 0;
  heap_.assign(top_k, exemplar_record{});
  records_.clear();
  records_.reserve(top_k * window_capacity);
}

// mca:hot-path-begin(obs-exemplar)
bool exemplar_reservoir::observe(const exemplar_record& r) noexcept {
  if (top_k_ == 0) return false;
  if (heap_size_ < top_k_) {
    // Sift up: the heap keeps its least-slow kept record at the root, so
    // a parent must never outrank (be slower than) its child.
    std::size_t i = heap_size_;
    heap_[i] = r;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!exemplar_before(heap_[parent], heap_[i])) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
    ++heap_size_;
    return true;
  }
  if (!exemplar_before(r, heap_[0])) return false;
  // Displace the least-slow kept record and sift down.
  heap_[0] = r;
  std::size_t i = 0;
  for (;;) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t least = i;
    if (left < heap_size_ && exemplar_before(heap_[least], heap_[left])) {
      least = left;
    }
    if (right < heap_size_ && exemplar_before(heap_[least], heap_[right])) {
      least = right;
    }
    if (least == i) break;
    std::swap(heap_[i], heap_[least]);
    i = least;
  }
  return true;
}
// mca:hot-path-end

void exemplar_reservoir::roll_window(std::uint32_t slot) {
  if (heap_size_ == 0) return;
  std::sort(heap_.begin(),
            heap_.begin() + static_cast<std::ptrdiff_t>(heap_size_),
            exemplar_before);
  for (std::size_t i = 0; i < heap_size_; ++i) {
    heap_[i].slot = slot;
    records_.push_back(heap_[i]);
  }
  heap_size_ = 0;
}

std::vector<exemplar_record> top_exemplars_per_window(
    std::vector<exemplar_record> all, std::size_t top_k) {
  std::stable_sort(all.begin(), all.end(),
                   [](const exemplar_record& a, const exemplar_record& b) {
                     if (a.slot != b.slot) return a.slot < b.slot;
                     return exemplar_before(a, b);
                   });
  std::vector<exemplar_record> kept;
  kept.reserve(all.size());
  std::size_t in_window = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && all[i].slot != all[i - 1].slot) in_window = 0;
    if (in_window < top_k) {
      kept.push_back(all[i]);
      ++in_window;
    }
  }
  return kept;
}

std::vector<span_record> exemplar_spans(
    const std::vector<exemplar_record>& records) {
  std::vector<span_record> spans;
  spans.reserve(records.size());
  for (const exemplar_record& r : records) {
    span_record span;
    span.sim_start_ms = r.issued_at_ms;
    span.sim_dur_ms = r.response_ms;
    span.arg_a = r.user;
    span.arg_b = r.request;
    span.kind = span_kind::request_exemplar;
    spans.push_back(span);
  }
  return spans;
}

}  // namespace mca::obs
