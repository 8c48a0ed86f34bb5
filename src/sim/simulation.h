// Discrete-event simulation engine.
//
// A single-threaded event loop over simulated milliseconds: every testbed
// experiment in the paper (3-hour server characterizations, 8-hour
// closed-loop runs) executes against this clock in well under a second of
// wall time.  Events at the same timestamp run in scheduling (FIFO) order,
// which makes runs deterministic.
//
// Internals: two flat 4-ary min-heaps of 16-byte (time, key) entries,
// where the key packs the scheduling sequence number (high 40 bits) with a
// 24-bit index (low bits).  Events live in a contiguous slot arena and the
// index names the slot.  The sequence number doubles as the slot's liveness
// tag, so a handle is just the key; each slot tracks its entry's heap
// position, so cancellation physically removes the entry (no lazy
// tombstones, no hash sets, no per-event allocation beyond the callback
// itself).  Cancelling a far-future timer — the dominant pattern — touches
// a near-leaf entry and is effectively O(1).  Arrivals (the inter-arrival
// generator's one pending request per device) sit in the second heap, a
// cancellation-free lane whose index is a payload (the device index) for
// the one arrival handler: no slot, no callback, no position bookkeeping.
// Its generator reserves it once at the device count (one pending arrival
// per device), so it holds 16 bytes per device and never reallocates.
// Both heaps draw from one sequence counter and `step()` runs whichever top
// is earlier by (time, key), so the merged order is the one a single heap
// would give.  A component may also keep an event of its own outside both
// heaps (cloud::instance's background-only completion wake): it takes the
// event's sequence from the same counter with `reserve_sequence()`, orders
// it against the running event by (now(), running_sequence()), and hands
// it to `schedule_reserved()` if it ever needs the engine to run it.
// Capacity limits from the packing: 2^24 concurrently pending
// events, 2^24 devices (arrival payloads) and 2^40 total schedules per
// simulation — orders of magnitude beyond the paper's workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/aligned.h"
#include "util/sim_time.h"

namespace mca::sim {

/// Token identifying a scheduled event, usable for cancellation.  Holds
/// the packed (sequence, slot) key; a stale or fabricated handle simply
/// fails the sequence check on use.
struct event_handle {
  std::uint64_t id = 0;
  bool valid() const noexcept { return id != 0; }
};

/// The event loop.  Not thread-safe; one simulation per experiment.
class simulation {
 public:
  using callback = std::function<void()>;
  using arrival_handler = std::function<void(std::uint32_t payload)>;

  /// Largest payload `schedule_arrival` accepts (2^24 - 1).
  static constexpr std::uint32_t kMaxArrivalPayload = (1u << 24) - 1;

  /// Current simulated time (ms).  Starts at 0.
  util::time_ms now() const noexcept { return now_; }

  /// Schedules `fn` at absolute simulated time `at` (>= now, else it fires
  /// immediately at the current time).  Returns a cancellation handle.
  event_handle schedule_at(util::time_ms at, callback fn);

  /// Schedules `fn` after `delay` milliseconds of simulated time.
  /// Throws std::invalid_argument on negative delay.
  event_handle schedule_after(util::time_ms delay, callback fn);

  /// Takes the next sequence number from the counter every schedule draws
  /// from, for an event the caller keeps outside the engine.  Whatever is
  /// scheduled after this call sorts after that event at equal times, as
  /// if `schedule_at` had run now.  Throws std::length_error when the
  /// 2^40 sequence space is spent.
  std::uint64_t reserve_sequence() { return take_sequence(); }

  /// Schedules `fn` at `at` (clamped to now) under a sequence taken
  /// earlier by `reserve_sequence()`, so it keeps the FIFO place it was
  /// reserved with.  Each reserved sequence is scheduled at most once.
  /// Throws std::invalid_argument on an empty callback or on a sequence
  /// the counter has not handed out.
  event_handle schedule_reserved(util::time_ms at, std::uint64_t sequence,
                                 callback fn);

  /// With now(), the running code's place in the engine's order: inside
  /// a handler, the sequence of the event or arrival it runs; after
  /// step(), that of the one step() ran (the code sits just past it);
  /// before the first step and after run_until() or run(), which leave
  /// nothing due at or before now, kOutsideEvents, above every sequence.
  /// An event the caller keeps outside the engine at (at, seq) has fired
  /// before the running code iff (at, seq) < (now(), running_sequence()).
  std::uint64_t running_sequence() const noexcept { return running_; }
  static constexpr std::uint64_t kOutsideEvents = ~std::uint64_t{0};

  /// Cancels a pending event; cancelling an already-fired or unknown
  /// handle is a harmless no-op.
  void cancel(event_handle handle) noexcept;

  /// Moves a pending event to a new absolute time (clamped to now) without
  /// releasing its slot or callback: one heap sift instead of a cancel +
  /// schedule pair.  The handle stays valid and the event keeps its
  /// original FIFO tie-break sequence.  Returns false (and does nothing)
  /// for an already-fired or unknown handle.
  bool reschedule(event_handle handle, util::time_ms at) noexcept;

  /// Installs the handler every arrival runs with its payload.  Once per
  /// simulation: throws std::logic_error on a second call and
  /// std::invalid_argument on an empty handler.
  void set_arrival_handler(arrival_handler fn);

  /// Sizes the arrival lane for `pending` arrivals at once (one per device
  /// for the inter-arrival generator), so it never grows by doubling.
  void reserve_arrivals(std::size_t pending) {
    arrivals_.reserve(kHeapPad + pending);
  }

  /// Queues an uncancellable arrival for `payload` at `at` (clamped to now)
  /// in FIFO order with events.  Throws std::logic_error without a handler
  /// and std::length_error on a payload above kMaxArrivalPayload.
  void schedule_arrival(util::time_ms at, std::uint32_t payload);

  /// Runs the earliest pending event or arrival.  Returns false when both
  /// queues are empty.
  bool step();

  /// Runs events and arrivals until none is due at or before `deadline`;
  /// afterwards the clock reads max(now, deadline).
  void run_until(util::time_ms deadline);

  /// Runs until no events or arrivals remain.
  void run();

  /// Pending events plus pending arrivals.
  std::size_t pending_events() const noexcept {
    return size_of(heap_) + size_of(arrivals_);
  }
  std::size_t executed_events() const noexcept { return executed_; }

 private:
  /// Arena slot for one scheduled (or free) event.  The sequence number of
  /// the occupying event doubles as the liveness tag for handles; while
  /// the slot is free, `sequence` holds the next free slot index
  /// (intrusive free list).  `heap_pos` is the logical heap index of the
  /// slot's entry, maintained by every sift.
  struct event_slot {
    callback fn;
    std::uint64_t sequence = 0;
    std::uint32_t heap_pos = 0;
    bool live = false;
  };
  /// 16-byte heap entry: primary key `at`, tie-break and identity in the
  /// packed (sequence << 24 | slot or payload) key.  The backing vector is
  /// cache-line aligned and starts with kHeapPad dummy entries so every
  /// 4-child group (logical indices 4i+1..4i+4, physical 4i+4..4i+7)
  /// occupies exactly one cache line.
  struct heap_entry {
    util::time_ms at = 0;
    std::uint64_t key = 0;
  };
  static constexpr std::size_t kHeapPad = 3;
  using heap_vector =
      std::vector<heap_entry, util::aligned_allocator<heap_entry>>;

  static bool earlier(const heap_entry& a, const heap_entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;  // sequence occupies the high bits
  }

  /// Sequences fill the key above its 24 slot (or payload) bits.
  static constexpr std::uint64_t kMaxSequence = ~std::uint64_t{0} >> 24;
  [[noreturn]] static void sequence_exhausted();
  std::uint64_t take_sequence() {
    if (next_sequence_ > kMaxSequence) [[unlikely]] sequence_exhausted();
    return next_sequence_++;
  }
  event_handle push_event(util::time_ms at, std::uint64_t sequence,
                          callback&& fn);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;
  void record_pos(const heap_entry& entry, std::size_t pos) noexcept;
  // Heap primitives for both queues: `kTracked` keeps the event slots'
  // `heap_pos` current; the arrival lane never removes from the middle.
  template <bool kTracked>
  void sift_up(heap_vector& heap, std::size_t hole, heap_entry entry) noexcept;
  /// Returns the hole's final position.
  template <bool kTracked>
  std::size_t sift_down(heap_vector& heap, std::size_t hole,
                        heap_entry entry) noexcept;
  template <bool kTracked>
  void heap_push(heap_vector& heap, heap_entry entry);
  /// Removes the entry at logical position `pos` (root pop is pos 0).
  template <bool kTracked>
  void heap_remove(heap_vector& heap, std::size_t pos) noexcept;

  static bool empty(const heap_vector& heap) noexcept {
    return heap.size() == kHeapPad;
  }
  static std::size_t size_of(const heap_vector& heap) noexcept {
    return heap.size() - kHeapPad;
  }
  /// Base pointer for logical indexing (logical i at physical i+kHeapPad).
  static heap_entry* base_of(heap_vector& heap) noexcept {
    return heap.data() + kHeapPad;
  }

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  util::time_ms now_ = 0.0;
  std::uint64_t next_sequence_ = 1;  // 0 is reserved so handles are nonzero
  std::size_t executed_ = 0;
  std::uint64_t running_ = kOutsideEvents;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<event_slot> slots_;
  heap_vector heap_ = heap_vector(kHeapPad);
  heap_vector arrivals_ = heap_vector(kHeapPad);
  arrival_handler on_arrival_;
};

/// Repeats a callback at a fixed simulated period until cancelled.
///
/// The callback receives the tick index (0-based) and returns `true` to
/// keep going, `false` to stop.
class periodic_process {
 public:
  using tick_fn = std::function<bool(std::uint64_t tick)>;

  /// Starts ticking at `start` and then every `period` ms.
  /// Throws std::invalid_argument if period <= 0.
  periodic_process(simulation& sim, util::time_ms start, util::time_ms period,
                   tick_fn fn);
  ~periodic_process() { stop(); }

  periodic_process(const periodic_process&) = delete;
  periodic_process& operator=(const periodic_process&) = delete;

  void stop() noexcept;

 private:
  void arm(util::time_ms at);

  simulation& sim_;
  util::time_ms period_;
  tick_fn fn_;
  std::uint64_t tick_ = 0;
  event_handle pending_{};
  bool stopped_ = false;
};

}  // namespace mca::sim
