#include "serve/cache.h"

#include <stdexcept>
#include <utility>
#include <vector>

namespace windim::serve {

std::uint64_t topology_hash(std::string_view canonical_spec) {
  // FNV-1a 64-bit.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : canonical_spec) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ModelCache::ModelCache(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ModelCache capacity must be >= 1");
  }
}

std::shared_ptr<const CachedModel> ModelCache::lookup_or_compile(
    const std::string& spec_text) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_alias_.find(spec_text);
    if (it != by_alias_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->model;
    }
  }

  // Parse + canonicalize outside the lock; only the map/list mutation is
  // serialized.  Two threads racing on the same new topology may both
  // compile — the second insert finds the key present, counts a hit and
  // drops its duplicate, so `hits + misses == lookups` still holds.
  cli::NetworkSpec parsed = cli::parse_network_spec(spec_text);
  std::string canonical = cli::render_network_spec(parsed);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_canonical_.find(canonical);
    if (it != by_canonical_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->model;
    }
  }

  // Compile outside the lock: WindowProblem construction is the
  // expensive part and must not serialize unrelated requests.
  const std::uint64_t hash = topology_hash(canonical);
  auto entry = std::make_shared<const CachedModel>(canonical, hash,
                                                   std::move(parsed));

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_canonical_.find(entry->canonical_spec);
  if (it != by_canonical_.end()) {
    ++hits_;  // another thread won the compile race
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->model;
  }
  ++misses_;
  lru_.push_front(Entry{entry, spec_text});
  by_canonical_.emplace(entry->canonical_spec, lru_.begin());
  by_alias_.emplace(lru_.front().alias, lru_.begin());
  if (lru_.size() > capacity_) {
    ++evictions_;
    by_alias_.erase(lru_.back().alias);
    by_canonical_.erase(lru_.back().model->canonical_spec);
    lru_.pop_back();
  }
  return entry;
}

CacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

std::vector<std::string> ModelCache::keys_mru_first() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) keys.push_back(entry.model->canonical_spec);
  return keys;
}

std::vector<std::string> ModelCache::aliases_mru_first() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> aliases;
  aliases.reserve(lru_.size());
  for (const Entry& entry : lru_) aliases.push_back(entry.alias);
  return aliases;
}

}  // namespace windim::serve
