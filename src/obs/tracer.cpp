#include "obs/tracer.h"

#include <stdexcept>

namespace mca::obs {

namespace {

/// The two trace processes: every span lands on the wall timeline; spans
/// with a simulated extent land on the sim timeline too.
constexpr int kWallPid = 1;
constexpr int kSimPid = 2;

void write_metadata(std::FILE* out, int pid, const char* process_name,
                    std::size_t rings,
                    const std::vector<std::string>& ring_names, bool* first) {
  std::fprintf(out,
               "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
               *first ? "" : ",\n", pid, process_name);
  *first = false;
  for (std::size_t r = 0; r < rings; ++r) {
    if (r < ring_names.size()) {
      std::fprintf(out,
                   ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                   pid, r, ring_names[r].c_str());
    }
  }
}

}  // namespace

const char* span_name(span_kind k) noexcept {
  switch (k) {
    case span_kind::slot_round:
      return "slot_round";
    case span_kind::shard_advance:
      return "shard_advance";
    case span_kind::coordinator_solve:
      return "coordinator_solve";
    case span_kind::quota_split:
      return "quota_split";
    case span_kind::request_lifecycle:
      return "request_lifecycle";
    case span_kind::pool_idle:
      return "pool_idle";
    case span_kind::request_exemplar:
      return "request_exemplar";
    case span_kind::slo_alert:
      return "slo_alert";
    case span_kind::fault_window:
      return "fault_window";
  }
  return "span";
}

bool trace_filter_keeps(const trace_filter& filter,
                        const span_record& s) noexcept {
  if (s.sim_start_ms >= 0.0) {
    return s.sim_start_ms < filter.sim_end_ms &&
           s.sim_start_ms + s.sim_dur_ms >= filter.sim_begin_ms;
  }
  if (s.kind == span_kind::coordinator_solve ||
      s.kind == span_kind::quota_split) {
    return s.arg_a >= filter.slot_begin && s.arg_a <= filter.slot_end;
  }
  return false;
}

span_ring::span_ring(std::size_t capacity) : slots_(capacity) {
  if (capacity == 0) throw std::invalid_argument{"span_ring: zero capacity"};
}

// mca-lint: allow(det-wallclock) tracer epoch: wall timestamps live only
// in the trace's wall lane and never reach a digest or fingerprint.
tracer::tracer(options opts) : epoch_{std::chrono::steady_clock::now()} {
  if (opts.rings == 0) throw std::invalid_argument{"tracer: zero rings"};
  rings_.reserve(opts.rings);
  for (std::size_t i = 0; i < opts.rings; ++i) {
    rings_.emplace_back(opts.capacity_per_ring);
  }
}

namespace {

void write_span(std::FILE* out, const span_record& s, std::size_t tid,
                bool wall_lane) {
  const char* name = span_name(s.kind);
  // Lane spans are synthesized post-run without wall timestamps; emitting
  // them on the wall process would pile zero-width events at t=0.
  if (wall_lane || s.sim_start_ms < 0.0) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"a\":%llu,\"b\":%llu}}",
                 name, kWallPid, tid, s.wall_start_us, s.wall_dur_us,
                 static_cast<unsigned long long>(s.arg_a),
                 static_cast<unsigned long long>(s.arg_b));
  }
  if (s.sim_start_ms >= 0.0) {
    // The sim timeline renders 1 simulated ms as 1 µs, so an 8-hour
    // scenario spans ~29 s of trace time — comfortably navigable.
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                 "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"a\":%llu,\"b\":%llu}}",
                 name, kSimPid, tid, s.sim_start_ms, s.sim_dur_ms,
                 static_cast<unsigned long long>(s.arg_a),
                 static_cast<unsigned long long>(s.arg_b));
  }
}

}  // namespace

void tracer::export_chrome_trace(std::FILE* out,
                                 const std::vector<std::string>& ring_names,
                                 const std::vector<trace_lane>& lanes,
                                 const trace_filter* filter) const {
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  write_metadata(out, kWallPid, "wall clock", rings_.size(), ring_names,
                 &first);
  write_metadata(out, kSimPid, "simulated time (1ms = 1us)", rings_.size(),
                 ring_names, &first);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    std::fprintf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 kSimPid, rings_.size() + l, lanes[l].name.c_str());
  }
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const span_ring& ring = rings_[r];
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const span_record& s = ring.at(i);
      if (filter != nullptr && !trace_filter_keeps(*filter, s)) continue;
      write_span(out, s, r, /*wall_lane=*/true);
    }
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (const span_record& s : lanes[l].spans) {
      if (filter != nullptr && !trace_filter_keeps(*filter, s)) continue;
      write_span(out, s, rings_.size() + l, /*wall_lane=*/false);
    }
  }
  std::fprintf(out, "\n]}\n");
}

bool tracer::export_chrome_trace(const std::string& path,
                                 const std::vector<std::string>& ring_names,
                                 const std::vector<trace_lane>& lanes,
                                 const trace_filter* filter) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  export_chrome_trace(out, ring_names, lanes, filter);
  std::fclose(out);
  return true;
}

}  // namespace mca::obs
