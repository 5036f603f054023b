// The perf-baseline comparison logic (bench/baseline.h): identical and
// mildly-noisy runs pass, regressions beyond tolerance fail in the
// metric's regression direction only, exact gates admit no drift,
// floors keep near-zero baselines from amplifying noise, per-unit costs
// are compared only between equal machine fingerprints, and malformed
// or incomplete JSON is a hard error — never a silent pass.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline.h"

namespace windim::bench {
namespace {

constexpr const char* kHost =
    "{\"nproc\":4,\"cpu_model\":\"Intel(R) Xeon(R) Processor\","
    "\"compiler\":\"13.2.0\",\"build_type\":\"Release\"}";
constexpr const char* kOtherHost =
    "{\"nproc\":4,\"cpu_model\":\"AMD EPYC 7763 64-Core Processor\","
    "\"compiler\":\"13.2.0\",\"build_type\":\"Release\"}";

std::string perf_json(double us_per_evaluation, double overhead_pct,
                      int allocations, bool pass,
                      const char* fingerprint = kHost) {
  std::string out = "{\"benchmark\":\"perf_dimension\"";
  if (fingerprint != nullptr) {
    out += ",\"fingerprint\":";
    out += fingerprint;
  }
  out += ",\"us_per_evaluation\":";
  out += std::to_string(us_per_evaluation);
  out += ",\"obs_disabled_overhead_pct\":";
  out += std::to_string(overhead_pct);
  out += ",\"warm_workspace_allocations\":";
  out += std::to_string(allocations);
  out += ",\"identical_windows\":true,\"pass\":";
  out += pass ? "true" : "false";
  out += ",\"engine_ms\":1.0}";
  return out;
}

const MetricComparison& row(const BaselineReport& report,
                            const std::string& metric) {
  static const MetricComparison kMissing;
  for (const MetricComparison& c : report.comparisons) {
    if (c.metric == metric) return c;
  }
  ADD_FAILURE() << "no row for " << metric;
  return kMissing;
}

TEST(PerfBaseline, IdenticalRunPasses) {
  const std::string base = perf_json(11.6, 0.12, 0, true);
  const BaselineReport report =
      compare_baseline(base, base, perf_dimension_checks());
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_EQ(report.comparisons.size(), 5u);
  EXPECT_TRUE(report.errors.empty());
}

TEST(PerfBaseline, NoiseWithinTolerancePasses) {
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true), perf_json(13.5, 0.14, 0, true),
      perf_dimension_checks());
  EXPECT_TRUE(report.ok()) << report.render();
}

TEST(PerfBaseline, ImprovementNeverFails) {
  // Faster and cheaper than the baseline: drift is zero, not negative
  // noise that could trip a symmetric band.
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true), perf_json(4.0, 0.01, 0, true),
      perf_dimension_checks());
  EXPECT_TRUE(report.ok()) << report.render();
  for (const MetricComparison& c : report.comparisons) {
    EXPECT_DOUBLE_EQ(c.drift_pct, 0.0) << c.metric;
  }
}

TEST(PerfBaseline, InflatedBaselineFailsThePerUnitCheck) {
  // The committed baseline claims 2 us per evaluation; the fresh run on
  // the same machine takes 11.6 us.
  const BaselineReport report = compare_baseline(
      perf_json(2.0, 0.12, 0, true), perf_json(11.6, 0.12, 0, true),
      perf_dimension_checks());
  EXPECT_FALSE(report.ok());
  for (const MetricComparison& c : report.comparisons) {
    if (c.metric == "us_per_evaluation") {
      EXPECT_FALSE(c.ok);
      EXPECT_GT(c.drift_pct, 25.0);
    } else {
      EXPECT_TRUE(c.ok) << c.metric;
    }
  }
}

TEST(PerfBaseline, AllocationGateIsExact) {
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true), perf_json(11.6, 0.12, 1, true),
      perf_dimension_checks());
  EXPECT_FALSE(report.ok());
}

TEST(PerfBaseline, PassFlagRegressionFails) {
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true), perf_json(11.6, 0.12, 0, false),
      perf_dimension_checks());
  EXPECT_FALSE(report.ok());
}

TEST(PerfBaseline, OverheadFloorAbsorbsTinyBaselineWobble) {
  // 0.02% -> 0.05% is a 150% relative jump but far below the 0.5pp
  // floor; it must not flag.  A genuine jump past the floored band
  // still fails.
  EXPECT_TRUE(compare_baseline(perf_json(11.6, 0.02, 0, true),
                               perf_json(11.6, 0.05, 0, true),
                               perf_dimension_checks())
                  .ok());
  EXPECT_FALSE(compare_baseline(perf_json(11.6, 0.02, 0, true),
                                perf_json(11.6, 1.9, 0, true),
                                perf_dimension_checks())
                   .ok());
}

TEST(PerfBaseline, SameFingerprintComparesPerUnitRows) {
  // 11.6 -> 15.1 us per evaluation is 30% slower on the same machine.
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true), perf_json(15.1, 0.12, 0, true),
      perf_dimension_checks());
  EXPECT_FALSE(report.ok());
  const MetricComparison& c = row(report, "us_per_evaluation");
  EXPECT_FALSE(c.skipped);
  EXPECT_FALSE(c.ok);
  EXPECT_NEAR(c.drift_pct, 30.2, 0.1);
  EXPECT_NE(report.render().find("FAIL us_per_evaluation"),
            std::string::npos);
}

TEST(PerfBaseline, DifferentFingerprintSkipsPerUnitRowsOnly) {
  // Another CPU model: the 30% slower per-unit row is skipped, not
  // failed, while the scale-free rows are still compared.
  const std::string base = perf_json(11.6, 0.12, 0, true);
  const BaselineReport slower = compare_baseline(
      base, perf_json(15.1, 0.12, 0, true, kOtherHost),
      perf_dimension_checks());
  EXPECT_TRUE(slower.ok()) << slower.render();
  const MetricComparison& c = row(slower, "us_per_evaluation");
  EXPECT_TRUE(c.skipped);
  EXPECT_TRUE(c.ok);
  EXPECT_NE(slower.render().find("skipped us_per_evaluation"),
            std::string::npos);
  EXPECT_FALSE(row(slower, "warm_workspace_allocations").skipped);

  const BaselineReport leaky = compare_baseline(
      base, perf_json(15.1, 0.12, 3, true, kOtherHost),
      perf_dimension_checks());
  EXPECT_FALSE(leaky.ok());
  EXPECT_FALSE(row(leaky, "warm_workspace_allocations").ok);
}

std::string serve_json(double overhead_pct, double live_plane_ns) {
  return std::string("{\"benchmark\":\"perf_serve\",\"fingerprint\":") +
         kHost + ",\"serve_cache_hit_rate\":0.9987" +
         ",\"serve_window_overhead_pct\":" + std::to_string(overhead_pct) +
         ",\"serve_live_plane_ns_per_request\":" +
         std::to_string(live_plane_ns) +
         ",\"serve_error_free\":true,\"serve_pass\":true}";
}

TEST(PerfBaseline, ServeLivePlaneIsAPerUnitCostNotAShare) {
  // A faster host spends less CPU per request, so the same live plane
  // is a larger share of it: 0.9% -> 1.5% is no regression.
  const BaselineReport faster = compare_baseline(
      serve_json(0.9, 520.0), serve_json(1.5, 520.0), perf_serve_checks());
  EXPECT_TRUE(faster.ok()) << faster.render();
  for (const MetricComparison& c : faster.comparisons) {
    EXPECT_NE(c.metric, "serve_window_overhead_pct");
  }
  // The plane itself 30% slower on the same machine fails.
  const BaselineReport slower = compare_baseline(
      serve_json(0.9, 520.0), serve_json(0.9, 676.0), perf_serve_checks());
  EXPECT_FALSE(slower.ok());
  const MetricComparison& c = row(slower, "serve_live_plane_ns_per_request");
  EXPECT_FALSE(c.skipped);
  EXPECT_FALSE(c.ok);
  EXPECT_NEAR(c.drift_pct, 30.0, 0.1);
}

TEST(PerfBaseline, MissingFingerprintIsAnError) {
  const std::string good = perf_json(11.6, 0.12, 0, true);
  const BaselineReport report = compare_baseline(
      perf_json(11.6, 0.12, 0, true, nullptr), good, perf_dimension_checks());
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("baseline has no complete fingerprint"),
            std::string::npos);
  // An incomplete fingerprint counts as none.
  EXPECT_FALSE(compare_baseline(
                   perf_json(11.6, 0.12, 0, true, "{\"nproc\":4}"), good,
                   perf_dimension_checks())
                   .ok());
  EXPECT_FALSE(compare_baseline(good, perf_json(11.6, 0.12, 0, true, nullptr),
                                perf_dimension_checks())
                   .ok());
}

TEST(PerfBaseline, MalformedJsonIsAnError) {
  const std::string good = perf_json(11.6, 0.12, 0, true);
  EXPECT_FALSE(compare_baseline("not json", good,
                                perf_dimension_checks())
                   .ok());
  EXPECT_FALSE(compare_baseline(good, "{\"truncated\":",
                                perf_dimension_checks())
                   .ok());
  EXPECT_FALSE(compare_baseline("[1,2,3]", good, perf_dimension_checks())
                   .ok());
}

TEST(PerfBaseline, MissingMetricIsAnErrorNotASilentPass) {
  const BaselineReport report = compare_baseline(
      std::string("{\"fingerprint\":") + kHost +
          ",\"us_per_evaluation\":11.6}",
      perf_json(11.6, 0.12, 0, true), perf_dimension_checks());
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("missing metric"),
            std::string::npos);
}

TEST(PerfBaseline, RenderNamesEveryFailure) {
  const BaselineReport report = compare_baseline(
      perf_json(2.0, 0.12, 0, true), perf_json(11.6, 0.12, 0, true),
      perf_dimension_checks());
  const std::string text = report.render();
  EXPECT_NE(text.find("FAIL us_per_evaluation"), std::string::npos) << text;
  EXPECT_NE(text.find("baseline check FAILED"), std::string::npos) << text;
}

TEST(PerfBaseline, SaveLoadRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/perf_baseline_roundtrip.json";
  const std::string body = perf_json(11.6, 0.12, 0, true);
  ASSERT_TRUE(save_file(path, body));
  const auto loaded = load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, body + "\n");
  EXPECT_FALSE(load_file(path + ".does-not-exist").has_value());
}

// --- PerfRun: the shared flags and the result it writes -------------------

std::optional<int> parse(PerfRun& run, std::vector<std::string> args,
                         const std::vector<PerfRun::Flag>& own = {}) {
  args.insert(args.begin(), "bench_perf_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return run.parse(static_cast<int>(argv.size()), argv.data(), own);
}

TEST(PerfRun, MalformedValueExitsTwoNamingTheFlag) {
  int sweeps = 10;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--reps=abc"}, {"--reps=0"}, {"--reps=3x"},
        {"--sweeps=-1"}}) {
    PerfRun run("perf_test", 5);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parse(run, args, {{"--sweeps", &sweeps}}), 2) << args[0];
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(args[0].substr(0, args[0].find('='))),
              std::string::npos)
        << err;
  }
  EXPECT_EQ(sweeps, 10);
}

TEST(PerfRun, RejectsUnknownFlagsAndCheckWithoutBaseline) {
  PerfRun a("perf_test", 5);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse(a, {"--frobnicate=50"}), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("usage"),
            std::string::npos);
  PerfRun b("perf_test", 5);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse(b, {"--check"}), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("--baseline-in"),
            std::string::npos);
}

TEST(PerfRun, WritesTheResultWithItsFingerprint) {
  const std::string path = ::testing::TempDir() + "/perf_run_result.json";
  int sweeps = 10;
  std::string spans;
  PerfRun run("perf_test", 5);
  ASSERT_EQ(parse(run, {"--reps=7", "--json=" + path, "--sweeps=3",
                        "--trace-spans-out=s.json"},
                  {{"--sweeps", &sweeps}, {"--trace-spans-out", &spans}}),
            std::nullopt);
  EXPECT_EQ(run.reps(), 7);
  EXPECT_EQ(sweeps, 3);
  EXPECT_EQ(spans, "s.json");
  run.json().key("test_pass");
  run.json().value(true);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run.finish(true, {}), 0);
  EXPECT_NE(::testing::internal::GetCapturedStdout().find("fingerprint"),
            std::string::npos);

  const std::optional<std::string> written = load_file(path);
  ASSERT_TRUE(written.has_value());
  const std::optional<obs::JsonValue> doc = obs::parse_json(*written);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("benchmark", ""), "perf_test");
  const obs::JsonValue* fp = doc->find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_GE(fp->number_or("nproc", 0.0), 1.0);
  for (const char* key : {"cpu_model", "compiler", "build_type"}) {
    EXPECT_FALSE(fp->string_or(key, "").empty()) << key;
  }
  // A result compared against itself: every per-unit row is compared.
  const BaselineReport self = compare_baseline(
      *written, *written, {{"test_pass", Direction::kHigherIsBetter, 0.0,
                            0.0, true}});
  EXPECT_TRUE(self.ok()) << self.render();
  EXPECT_FALSE(self.comparisons.front().skipped);
}

}  // namespace
}  // namespace windim::bench
