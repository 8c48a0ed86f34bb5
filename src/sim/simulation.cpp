#include "sim/simulation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mca::sim {
namespace {

constexpr std::uint32_t kChildren = 4;  // 4-ary heap: shallow and cache-dense
constexpr std::uint32_t kSlotBits = 24;
constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
static_assert(simulation::kMaxArrivalPayload == kSlotMask);

constexpr std::uint64_t pack_key(std::uint64_t sequence,
                                 std::uint32_t slot) noexcept {
  return (sequence << kSlotBits) | slot;
}

/// Cold path of `schedule_arrival`'s validation, kept out of the lane.
[[noreturn]] void reject_arrival(bool has_handler) {
  if (!has_handler) throw std::logic_error{"schedule_arrival: no handler"};
  throw std::length_error{"schedule_arrival: payload above 2^24 - 1"};
}

}  // namespace

void simulation::sequence_exhausted() {
  // Sequence wrap would corrupt packed keys (handle validation and the
  // FIFO tie-break); fail loudly like the 2^24 slot limit does.
  throw std::length_error{"simulation: sequence number space exhausted"};
}

std::uint32_t simulation::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = static_cast<std::uint32_t>(slots_[index].sequence);
    return index;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error{"simulation: too many pending events"};
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void simulation::release_slot(std::uint32_t index) noexcept {
  event_slot& slot = slots_[index];
  slot.live = false;
  slot.fn = nullptr;
  slot.sequence = free_head_;  // intrusive free list
  free_head_ = index;
}

void simulation::record_pos(const heap_entry& entry, std::size_t pos) noexcept {
  slots_[entry.key & kSlotMask].heap_pos = static_cast<std::uint32_t>(pos);
}

template <bool kTracked>
void simulation::sift_up(heap_vector& heap, std::size_t hole,
                         heap_entry entry) noexcept {
  heap_entry* base = base_of(heap);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kChildren;
    if (!earlier(entry, base[parent])) break;
    base[hole] = base[parent];
    if constexpr (kTracked) record_pos(base[hole], hole);
    hole = parent;
  }
  base[hole] = entry;
  if constexpr (kTracked) record_pos(entry, hole);
}

template <bool kTracked>
std::size_t simulation::sift_down(heap_vector& heap, std::size_t hole,
                                  heap_entry entry) noexcept {
  heap_entry* base = base_of(heap);
  const std::size_t n = size_of(heap);
  for (;;) {
    const std::size_t first_child = hole * kChildren + 1;
    if (first_child >= n) break;
    const std::size_t end = std::min(first_child + kChildren, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(base[c], base[best])) best = c;
    }
    if (!earlier(base[best], entry)) break;
    base[hole] = base[best];
    if constexpr (kTracked) record_pos(base[hole], hole);
    hole = best;
  }
  base[hole] = entry;
  if constexpr (kTracked) record_pos(entry, hole);
  return hole;
}

template <bool kTracked>
void simulation::heap_push(heap_vector& heap, heap_entry entry) {
  heap.push_back(entry);
  sift_up<kTracked>(heap, size_of(heap) - 1, entry);
}

template <bool kTracked>
void simulation::heap_remove(heap_vector& heap, std::size_t pos) noexcept {
  const heap_entry last = heap.back();
  heap.pop_back();
  if (pos == size_of(heap)) return;  // removed the tail entry itself
  // Re-seat the displaced tail entry at the hole: first try downward (the
  // common case for a root pop), then upward (possible for a mid-heap
  // removal whose hole sits below `last`'s true position).
  if (sift_down<kTracked>(heap, pos, last) == pos) {
    sift_up<kTracked>(heap, pos, last);
  }
}

inline event_handle simulation::push_event(util::time_ms at,
                                           std::uint64_t sequence,
                                           callback&& fn) {
  const std::uint32_t index = acquire_slot();
  event_slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.sequence = sequence;
  slot.live = true;
  const std::uint64_t key = pack_key(sequence, index);
  heap_push<true>(heap_, {at > now_ ? at : now_, key});
  return event_handle{key};
}

event_handle simulation::schedule_at(util::time_ms at, callback fn) {
  if (!fn) throw std::invalid_argument{"schedule_at: empty callback"};
  return push_event(at, take_sequence(), std::move(fn));
}

event_handle simulation::schedule_reserved(util::time_ms at,
                                           std::uint64_t sequence,
                                           callback fn) {
  if (!fn) throw std::invalid_argument{"schedule_reserved: empty callback"};
  if (sequence == 0 || sequence >= next_sequence_) {
    throw std::invalid_argument{"schedule_reserved: sequence not reserved"};
  }
  return push_event(at, sequence, std::move(fn));
}

event_handle simulation::schedule_after(util::time_ms delay, callback fn) {
  if (delay < 0) throw std::invalid_argument{"schedule_after: negative delay"};
  return schedule_at(now_ + delay, std::move(fn));
}

void simulation::cancel(event_handle handle) noexcept {
  if (!handle.valid()) return;
  const std::uint32_t index = static_cast<std::uint32_t>(handle.id & kSlotMask);
  if (index >= slots_.size()) return;
  const event_slot& slot = slots_[index];
  if (!slot.live || slot.sequence != (handle.id >> kSlotBits)) return;  // stale
  const std::uint32_t pos = slot.heap_pos;
  release_slot(index);
  heap_remove<true>(heap_, pos);
}

bool simulation::reschedule(event_handle handle, util::time_ms at) noexcept {
  if (!handle.valid()) return false;
  const std::uint32_t index = static_cast<std::uint32_t>(handle.id & kSlotMask);
  if (index >= slots_.size()) return false;
  const event_slot& slot = slots_[index];
  if (!slot.live || slot.sequence != (handle.id >> kSlotBits)) return false;
  const std::size_t pos = slot.heap_pos;
  heap_entry entry = base_of(heap_)[pos];
  entry.at = at > now_ ? at : now_;
  if (sift_down<true>(heap_, pos, entry) == pos) {
    sift_up<true>(heap_, pos, entry);
  }
  return true;
}

void simulation::set_arrival_handler(arrival_handler fn) {
  if (on_arrival_) throw std::logic_error{"set_arrival_handler: set twice"};
  if (!fn) throw std::invalid_argument{"set_arrival_handler: empty handler"};
  on_arrival_ = std::move(fn);
}

// mca:hot-path-begin(event-arrival-lane)
void simulation::schedule_arrival(util::time_ms at, std::uint32_t payload) {
  if (!on_arrival_ || payload > kSlotMask) [[unlikely]] {
    reject_arrival(static_cast<bool>(on_arrival_));
  }
  const std::uint64_t sequence = take_sequence();
  heap_push<false>(arrivals_,
                   {at > now_ ? at : now_, pack_key(sequence, payload)});
}

bool simulation::step() {
  const bool has_event = !empty(heap_);
  if (!empty(arrivals_) &&
      (!has_event || earlier(base_of(arrivals_)[0], base_of(heap_)[0]))) {
    // Lane pop: no slot, no callback to move, no positions to record.
    const heap_entry top = base_of(arrivals_)[0];
    heap_remove<false>(arrivals_, 0);
    now_ = top.at;
    ++executed_;
    running_ = top.key >> kSlotBits;
    on_arrival_(static_cast<std::uint32_t>(top.key & kSlotMask));
    return true;
  }
  if (!has_event) return false;
  const heap_entry top = base_of(heap_)[0];
  const std::uint32_t index = static_cast<std::uint32_t>(top.key & kSlotMask);
  event_slot& slot = slots_[index];
  // Move the callback out and retire the slot before running it, so the
  // event may freely schedule (and reuse the slot) or self-cancel.
  callback fn = std::move(slot.fn);
  release_slot(index);
  heap_remove<true>(heap_, 0);
  now_ = top.at;
  ++executed_;
  running_ = top.key >> kSlotBits;
  fn();
  return true;
}
// mca:hot-path-end

void simulation::run_until(util::time_ms deadline) {
  while ((!empty(heap_) && base_of(heap_)[0].at <= deadline) ||
         (!empty(arrivals_) && base_of(arrivals_)[0].at <= deadline)) {
    step();
  }
  now_ = std::max(now_, deadline);
  running_ = kOutsideEvents;
}

void simulation::run() {
  while (step()) {
  }
  running_ = kOutsideEvents;
}

periodic_process::periodic_process(simulation& sim, util::time_ms start,
                                   util::time_ms period, tick_fn fn)
    : sim_{sim}, period_{period}, fn_{std::move(fn)} {
  if (period <= 0) throw std::invalid_argument{"periodic_process: period <= 0"};
  if (!fn_) throw std::invalid_argument{"periodic_process: empty callback"};
  arm(start);
}

void periodic_process::arm(util::time_ms at) {
  pending_ = sim_.schedule_at(at, [this] {
    if (stopped_) return;
    const bool keep_going = fn_(tick_++);
    if (keep_going && !stopped_) {
      arm(sim_.now() + period_);
    } else {
      pending_ = {};
    }
  });
}

void periodic_process::stop() noexcept {
  stopped_ = true;
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = {};
  }
}

}  // namespace mca::sim
