// LRU cache of compiled window-dimensioning problems, keyed by the
// spec's canonical text and, on the hit path, by its exact text.
//
// Compiling a WindowProblem (validation + CompiledModel construction for
// the closed and semiclosed views) is the per-request cost `windim
// serve` amortizes: requests for the same topology hit the cache and go
// straight to the solver.  The key is the CANONICAL spec text (parse ->
// render round trip), so formatting, comment and ordering differences
// in client specs cannot split one model across entries — while any
// real difference, down to a single perturbed demand, changes the
// canonical text and compiles a distinct entry.  The maps are keyed by
// full texts, never by a hash, so no two models can alias; the FNV-1a
// topology hash is only carried as the entry's cheap identity for
// stats/logging.
//
// Canonicalizing costs a parse and a render on every lookup, so each
// entry also keeps one alias: the exact text that compiled it.  A
// byte-identical text hits through that alias under the lock, without
// a parse; any other text canonicalizes and hits (or compiles) through
// the canonical key, leaving the alias as it was.  The alias index
// thus holds one text per entry, and an eviction drops both of an
// entry's keys.
//
// Entries are shared_ptr-held: an eviction never invalidates a model a
// worker thread is still solving on.  All operations are mutex-guarded;
// the hit/miss/eviction counters are plain fields read under the same
// lock (stats()), mirrored into windim.serve.* metrics by the
// server.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cli/spec.h"
#include "windim/problem.h"

namespace windim::serve {

/// One cached compilation: the canonical spec, its hash, and the
/// compiled problem (immutable after construction, safe to share).
struct CachedModel {
  std::string canonical_spec;
  std::uint64_t topology_hash = 0;
  cli::NetworkSpec spec;
  core::WindowProblem problem;

  CachedModel(std::string canonical, std::uint64_t hash,
              cli::NetworkSpec parsed)
      : canonical_spec(std::move(canonical)),
        topology_hash(hash),
        spec(std::move(parsed)),
        problem(spec.topology, spec.classes) {}
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    // == compilations
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// FNV-1a 64-bit over the canonical spec text.
[[nodiscard]] std::uint64_t topology_hash(std::string_view canonical_spec);

class ModelCache {
 public:
  /// `capacity` >= 1 entries; the (capacity+1)-th distinct topology
  /// evicts the least recently used entry.
  explicit ModelCache(std::size_t capacity);

  /// Returns the cached compilation of `spec_text` (hit) or compiles
  /// and inserts one (miss).  A text that is some entry's alias hits
  /// without a parse; any other is parsed and canonicalized, and on a
  /// miss becomes the new entry's alias.  Throws cli::SpecError
  /// on unparseable text and whatever WindowProblem's validation throws
  /// on a well-formed but invalid spec — failures are never cached.
  [[nodiscard]] std::shared_ptr<const CachedModel> lookup_or_compile(
      const std::string& spec_text);

  [[nodiscard]] CacheStats stats() const;

  /// Canonical specs currently cached, most recently used first
  /// (tests pin the LRU eviction order through this).
  [[nodiscard]] std::vector<std::string> keys_mru_first() const;
  /// Each entry's alias, in the same order as keys_mru_first().
  [[nodiscard]] std::vector<std::string> aliases_mru_first() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedModel> model;
    std::string alias;  // the exact text that compiled the model
  };
  using EntryIt = std::list<Entry>::iterator;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// MRU-first recency list of entries; both maps point into it.
  std::list<Entry> lru_;
  std::unordered_map<std::string, EntryIt> by_canonical_;
  /// Keys view the entries' own alias strings.
  std::unordered_map<std::string_view, EntryIt> by_alias_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace windim::serve
