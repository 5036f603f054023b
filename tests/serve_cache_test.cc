// LRU model-cache semantics for `windim serve`: eviction order, the
// canonical-key discipline (formatting differences hit, any real model
// difference — down to one perturbed demand — compiles a distinct
// entry), the exact-text alias each entry keeps (the text that
// compiled it), and stats that match hand-computed counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/cache.h"

namespace windim {
namespace {

std::string spec_with_rate(const std::string& rate) {
  return "node A\nnode B\nchannel A B 50\nclass east rate " + rate +
         " path A B\n";
}

TEST(ServeCache, EvictsLeastRecentlyUsedInOrder) {
  serve::ModelCache cache(2);
  const std::string a = spec_with_rate("10");
  const std::string b = spec_with_rate("20");
  const std::string c = spec_with_rate("30");

  const auto ea = cache.lookup_or_compile(a);
  (void)cache.lookup_or_compile(b);
  // Touch A so B becomes the LRU entry...
  (void)cache.lookup_or_compile(a);
  // ...and the third topology evicts B, not A.
  (void)cache.lookup_or_compile(c);

  const std::vector<std::string> keys = cache.keys_mru_first();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], cache.lookup_or_compile(c)->canonical_spec);
  EXPECT_EQ(keys[1], ea->canonical_spec);

  // B is gone: looking it up again is a fresh compile (a miss), which
  // in turn evicts A (the LRU after the touch order above was C, A).
  const serve::CacheStats before = cache.stats();
  (void)cache.lookup_or_compile(b);
  const serve::CacheStats after = cache.stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.evictions, before.evictions + 1);
}

TEST(ServeCache, CanonicalizationMakesFormattingIrrelevant) {
  serve::ModelCache cache(4);
  const std::string plain = spec_with_rate("10");
  const std::string noisy =
      "# a comment\n  node A\n\nnode B\n"
      "channel A B 50\t\n# another\nclass east rate 10 path A B\n";
  const auto first = cache.lookup_or_compile(plain);
  const auto second = cache.lookup_or_compile(noisy);
  EXPECT_EQ(first.get(), second.get()) << "formatting split the cache";

  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, NearIdenticalModelsCompileDistinctEntries) {
  serve::ModelCache cache(4);
  // One perturbed demand value: same topology text shape, different
  // model.  Whatever the 64-bit hashes do, the full-key equality guard
  // must keep these apart.
  const auto base = cache.lookup_or_compile(spec_with_rate("10"));
  const auto perturbed = cache.lookup_or_compile(spec_with_rate("10.0001"));
  EXPECT_NE(base.get(), perturbed.get());
  EXPECT_NE(base->canonical_spec, perturbed->canonical_spec);
  EXPECT_NE(base->topology_hash, perturbed->topology_hash);

  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ServeCache, StatsMatchHandComputedCounts) {
  serve::ModelCache cache(2);
  const std::string specs[] = {spec_with_rate("1"), spec_with_rate("2"),
                               spec_with_rate("3")};
  // 3 compiles + 2 hits + 1 eviction, by hand:
  (void)cache.lookup_or_compile(specs[0]);  // miss 1
  (void)cache.lookup_or_compile(specs[0]);  // hit 1
  (void)cache.lookup_or_compile(specs[1]);  // miss 2
  (void)cache.lookup_or_compile(specs[2]);  // miss 3, evicts specs[0]
  (void)cache.lookup_or_compile(specs[1]);  // hit 2

  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ServeCache, FailedCompilesAreNeverCached) {
  serve::ModelCache cache(2);
  EXPECT_THROW((void)cache.lookup_or_compile("garbage"), std::exception);
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(ServeCache, EntriesSurviveEviction) {
  // shared_ptr holders keep solving on an evicted model safely.
  serve::ModelCache cache(1);
  const auto pinned = cache.lookup_or_compile(spec_with_rate("10"));
  (void)cache.lookup_or_compile(spec_with_rate("20"));  // evicts pinned
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(pinned->problem.num_classes(), 1);  // still fully usable
}

TEST(ServeCache, ByteIdenticalTextHitsTheSameEntry) {
  serve::ModelCache cache(4);
  const std::string text = spec_with_rate("10");
  const auto first = cache.lookup_or_compile(text);
  const auto second = cache.lookup_or_compile(text);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.aliases_mru_first(), std::vector<std::string>{text});

  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, ReformattedTextHitsThroughTheCanonicalKey) {
  serve::ModelCache cache(4);
  const std::string plain = spec_with_rate("10");
  const std::string noisy =
      "# the same model\n\n  node A\nnode B\n  channel A B 50\n"
      "class east rate 10 path A B\n";
  const auto first = cache.lookup_or_compile(plain);
  // The reformatted text hits through the canonical key, each time it
  // comes, and the alias stays the text that compiled the entry...
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cache.lookup_or_compile(noisy).get(), first.get());
    EXPECT_EQ(cache.aliases_mru_first(), std::vector<std::string>{plain});
  }
  // ...which still hits.
  EXPECT_EQ(cache.lookup_or_compile(plain).get(), first.get());

  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, EvictedTextMissesAndRecompiles) {
  serve::ModelCache cache(1);
  const std::string a = spec_with_rate("10");
  const std::string b = spec_with_rate("20");
  const auto first = cache.lookup_or_compile(a);
  (void)cache.lookup_or_compile(b);  // evicts A and its alias
  EXPECT_EQ(cache.aliases_mru_first(), std::vector<std::string>{b});

  const serve::CacheStats before = cache.stats();
  const auto again = cache.lookup_or_compile(a);
  const serve::CacheStats after = cache.stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_NE(again.get(), first.get()) << "an evicted entry answered";
  EXPECT_EQ(cache.aliases_mru_first(), std::vector<std::string>{a});
}

TEST(ServeCache, UnparseableTextNeverEntersTheIndex) {
  serve::ModelCache cache(2);
  const std::string text = spec_with_rate("10");
  (void)cache.lookup_or_compile(text);
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW((void)cache.lookup_or_compile("garbage"), std::exception);
  }
  EXPECT_EQ(cache.aliases_mru_first(), std::vector<std::string>{text});
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, HitsPlusMissesCountEveryLookupOverAMixedSequence) {
  serve::ModelCache cache(2);
  const std::string a = spec_with_rate("1");
  const std::string a_noisy = "# a\n" + spec_with_rate("1");
  const std::string b = spec_with_rate("2");
  const std::string c = spec_with_rate("3");
  // Alias hits, canonical hits, evictions, recompiles and a failed
  // lookup (which counts as neither).
  const std::string sequence[] = {a, a, a_noisy, b, a_noisy, a,
                                  c, b, "garbage", b, a_noisy, a};
  std::uint64_t lookups = 0;
  for (const std::string& text : sequence) {
    try {
      (void)cache.lookup_or_compile(text);
      ++lookups;
    } catch (const std::exception&) {
    }
  }
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(lookups, 11u);
  EXPECT_EQ(s.hits + s.misses, lookups);
  // By hand: misses at a, b, c, b (after its eviction) and a_noisy
  // (after A's), which is the recompiled entry's alias; the other six
  // hit.
  EXPECT_EQ(s.hits, 6u);
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(cache.aliases_mru_first(),
            (std::vector<std::string>{a_noisy, b}));
}

}  // namespace
}  // namespace windim
