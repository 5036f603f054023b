#include "serve/flight.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace windim::serve {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

void FlightRecorder::record(RequestTrace trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[total_ % capacity_] = std::move(trace);
  ++total_;
  // The ring favors the recent past: an undrained record that falls
  // off its end is dropped from what `trace` can still return.
  if (total_ - drained_ > capacity_) {
    ++drained_;
    ++dropped_;
  }
}

std::vector<RequestTrace> FlightRecorder::drain(std::size_t max) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t pending = total_ - drained_;
  const std::uint64_t n =
      max == 0 ? pending : std::min<std::uint64_t>(max, pending);
  std::vector<RequestTrace> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(drained_ + i) % capacity_]);
  }
  drained_ += n;
  return out;
}

std::vector<RequestTrace> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(total_, capacity_));
  std::vector<RequestTrace> out;
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

std::uint64_t FlightRecorder::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::size_t FlightRecorder::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(total_ - drained_);
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void write_digest_fields(obs::JsonWriter& w, const RequestTrace& t) {
  w.key("seq");
  w.value(t.seq);
  w.key("end_us");
  w.value(t.start_us + t.total_us);
  w.key("op");
  w.value(std::string_view(t.op));
  w.key("id");
  w.value(std::string_view(t.id));
  w.key("topology_hash");
  w.value(t.topology_hash);
  w.key("latency_us");
  w.value(static_cast<double>(t.total_us));
  w.key("ok");
  w.value(t.outcome == "ok");
  w.key("outcome");
  w.value(std::string_view(t.outcome));
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  for (const RequestTrace& t : snapshot()) {
    obs::JsonWriter w;
    w.begin_object();
    write_digest_fields(w, t);
    w.end_object();
    out += std::move(w).str();
    out += '\n';
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_jsonl();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace windim::serve
