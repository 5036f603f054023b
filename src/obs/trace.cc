#include "obs/trace.h"

#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace windim::obs {

SearchTrace::SearchTrace(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SearchTrace::append(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
  }
}

void SearchTrace::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<TraceRecord> SearchTrace::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t SearchTrace::total_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t SearchTrace::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ - ring_.size();
}

std::string SearchTrace::to_jsonl() const {
  std::string out;
  for (const TraceRecord& r : records()) {
    JsonWriter w;
    w.begin_object();
    w.key("step");
    w.value(r.step);
    w.key("windows");
    w.begin_array();
    for (int x : r.windows) w.value(x);
    w.end_array();
    w.key("F");
    w.value(r.objective);
    w.key("obj");
    w.begin_array();
    for (double x : r.objective_vector) w.value(x);
    w.end_array();
    w.key("viol");
    w.value(r.violation);
    w.key("P");
    w.value(r.power);
    w.key("solver");
    w.value(r.solver);
    w.key("cache_hit");
    w.value(r.cache_hit);
    w.key("anchor");
    w.begin_array();
    for (int x : r.anchor) w.value(x);
    w.end_array();
    w.key("thread");
    w.value(0);
    w.end_object();
    out += std::move(w).str();
    out.push_back('\n');
  }
  return out;
}

bool SearchTrace::write_jsonl(const std::string& path) const {
  const std::string body = to_jsonl();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace windim::obs
