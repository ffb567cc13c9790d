/// \file test_failpoint.cpp
/// \brief Failpoint registry semantics (modes, arming grammar, env
/// arming) and the batch engine's resilience around injected faults:
/// in-place degradation and audit-clean recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analysis/failpoint.hpp"
#include "bdd/truth_table.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "harness/env.hpp"

namespace bddmin {
namespace {

using analysis::FailPointConfig;
using analysis::FailPointMode;
using analysis::FailPointRegistry;
using analysis::failpoints;

/// Every test leaves the process-global registry clean — armed points
/// would leak into unrelated tests in this binary.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints().disarm_all();
    unsetenv("BDDMIN_FAILPOINTS");
  }
  void TearDown() override {
    failpoints().disarm_all();
    unsetenv("BDDMIN_FAILPOINTS");
  }
};

TEST_F(FailPointTest, CatalogIsStableAndSitesResolve) {
  const auto& catalog = FailPointRegistry::catalog();
  EXPECT_EQ(catalog.size(), 9u);
  for (const auto& entry : catalog) {
    // site() must resolve every cataloged name to a stable instance.
    analysis::FailPoint& a = failpoints().site(entry.name);
    analysis::FailPoint& b = failpoints().site(entry.name);
    EXPECT_EQ(&a, &b) << entry.name;
  }
}

TEST_F(FailPointTest, DisarmedPollNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, OnceFiresExactlyOnceThenDisarms) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kOnce;
  failpoints().arm("gc_oom", cfg);
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, NthFiresOnTheNthEvaluation) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kNth;
  cfg.nth = 3;
  failpoints().arm("gc_oom", cfg);
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));  // disarmed after firing
}

TEST_F(FailPointTest, RandomIsSeededAndDeterministic) {
  const auto draw_sequence = [](std::uint64_t seed) {
    FailPointConfig cfg;
    cfg.mode = FailPointMode::kRandom;
    cfg.probability = 0.5;
    cfg.seed = seed;
    failpoints().arm("gc_oom", cfg);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(static_cast<bool>(failpoints().evaluate("gc_oom")));
    }
    return fires;
  };
  const std::vector<bool> a = draw_sequence(42);
  const std::vector<bool> b = draw_sequence(42);
  EXPECT_EQ(a, b);
  // p = 0.5 over 64 draws: all-equal outcomes are astronomically unlikely,
  // and a degenerate generator would produce exactly that.
  bool saw_fire = false;
  bool saw_miss = false;
  for (const bool f : a) (f ? saw_fire : saw_miss) = true;
  EXPECT_TRUE(saw_fire);
  EXPECT_TRUE(saw_miss);
  // Random mode stays armed until disarmed.
  FailPointConfig always;
  always.mode = FailPointMode::kRandom;
  always.probability = 1.0;
  always.seed = 9;
  failpoints().arm("gc_oom", always);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  }
}

TEST_F(FailPointTest, PollIsSafeAgainstConcurrentArming) {
  // Three threads poll a random-mode point while this thread arms and
  // disarms it: every fire a poller sees is counted exactly once, and the
  // point is silent once disarmed.  Under TSan (the engine label) this is
  // the check that poll() and arming share no unguarded state.
  analysis::FailPoint& point = failpoints().site("gc_oom");
  const std::uint64_t fires_before = point.fire_count();
  std::atomic<std::uint64_t> seen{0};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&point, &seen] {
      std::uint64_t hits = 0;
      for (int i = 0; i < 20'000; ++i) {
        if (point.poll()) ++hits;
      }
      seen.fetch_add(hits);
    });
  }
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kRandom;
  cfg.probability = 0.5;
  for (std::uint64_t round = 1; round <= 500; ++round) {
    cfg.seed = round;
    failpoints().arm("gc_oom", cfg);
    failpoints().disarm("gc_oom");
  }
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(seen.load(), point.fire_count() - fires_before);
  EXPECT_FALSE(point.poll());
}

TEST_F(FailPointTest, HitCarriesTheDefaultOrOverriddenPayload) {
  FailPointConfig cfg;
  cfg.mode = FailPointMode::kOnce;
  failpoints().arm("sink_drain_hang", cfg);  // catalog default payload: 50
  EXPECT_EQ(failpoints().evaluate("sink_drain_hang").value, 50u);
  cfg.value = 7;
  failpoints().arm("sink_drain_hang", cfg);
  EXPECT_EQ(failpoints().evaluate("sink_drain_hang").value, 7u);
}

TEST_F(FailPointTest, ArmFromSpecGrammar) {
  failpoints().arm_from_spec("gc_oom:once");
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:nth:2");
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:random:1.0:5");
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  failpoints().arm_from_spec("gc_oom:off");
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));

  EXPECT_THROW(failpoints().arm_from_spec("no_such_point:once"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom"), std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:sometimes"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:nth:zero"),
               std::invalid_argument);
  EXPECT_THROW(failpoints().arm_from_spec("gc_oom:random:nope"),
               std::invalid_argument);
}

TEST_F(FailPointTest, ArmFromEnvArmsEverySpec) {
  setenv("BDDMIN_FAILPOINTS", "gc_oom:once,sink_drain_hang:nth:2:9", 1);
  failpoints().arm_from_env();
  EXPECT_TRUE(failpoints().evaluate("gc_oom"));
  EXPECT_FALSE(failpoints().evaluate("sink_drain_hang"));
  const auto hit = failpoints().evaluate("sink_drain_hang");
  EXPECT_TRUE(hit);
  EXPECT_EQ(hit.value, 9u);
}

TEST_F(FailPointTest, MalformedEnvSpecIsAHardError) {
  setenv("BDDMIN_FAILPOINTS", "gc_oom:nonsense", 1);
  EXPECT_THROW(failpoints().arm_from_env(), harness::EnvError);
  unsetenv("BDDMIN_FAILPOINTS");
  failpoints().arm_from_env();  // unset: no-op
  EXPECT_FALSE(failpoints().evaluate("gc_oom"));
}

// ---- Centralized env parsing --------------------------------------------

TEST(EnvParsing, U64FallbackAndStrictness) {
  unsetenv("BDDMIN_NODE_LIMIT");
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 77), 77u);
  setenv("BDDMIN_NODE_LIMIT", "123456", 1);
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 77), 123456u);
  for (const char* bad : {"12x", "-3", "+3", " 12", "12 ", "0x10", "banana",
                          "99999999999999999999999999"}) {
    setenv("BDDMIN_NODE_LIMIT", bad, 1);
    EXPECT_THROW(static_cast<void>(harness::env_u64("BDDMIN_NODE_LIMIT", 0)),
                 harness::EnvError)
        << bad;
  }
  setenv("BDDMIN_NODE_LIMIT", "", 1);
  EXPECT_EQ(harness::env_u64("BDDMIN_NODE_LIMIT", 5), 5u);
  unsetenv("BDDMIN_NODE_LIMIT");
}

TEST(EnvParsing, StringCopiesTheValueOut) {
  setenv("BDDMIN_TRACE", "/tmp/x.json", 1);
  const auto v = harness::env_string("BDDMIN_TRACE");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "/tmp/x.json");
  unsetenv("BDDMIN_TRACE");
  EXPECT_FALSE(harness::env_string("BDDMIN_TRACE").has_value());
}

// ---- Engine resilience under injected faults ----------------------------

std::vector<engine::Job> small_jobs(unsigned count) {
  std::vector<engine::Job> jobs;
  const std::uint64_t mask = tt_mask(4);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (unsigned k = 0; k < count; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t f = x & mask;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    jobs.push_back(engine::make_tt_job("j" + std::to_string(k), f,
                                       (x & mask) | 1, 4));
  }
  return jobs;
}

TEST_F(FailPointTest, InjectedOomLeavesManagersAuditClean) {
  const std::vector<engine::Job> jobs = small_jobs(4);
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1;
  eo.audit_level = analysis::AuditLevel::kCache;
  failpoints().arm_from_spec("unique_insert_oom:nth:40");
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  for (const engine::JobOutcome& o : rep.outcomes) {
    EXPECT_NE(o.status, engine::JobStatus::kError)
        << o.name << ": " << o.error;
    EXPECT_EQ(o.audit_findings, 0u) << o.name;
  }
}

TEST_F(FailPointTest, InjectedTripDegradesTheJobInOrOutsideAHeuristic) {
  // gc_oom fires in the GC flush before the first heuristic and
  // unique_insert_oom in decode, outside any heuristic; minimize_deadline
  // fires inside restr, whose slot degrades to the best cover so far.
  // Each must finish the job resource-limit, never error.
  const std::vector<engine::Job> jobs = small_jobs(1);
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1;
  eo.audit_level = analysis::AuditLevel::kCache;
  const struct {
    const char* spec;
    const char* detail;
  } cases[] = {{"gc_oom:once", "gc: out-of-memory"},
               {"unique_insert_oom:once", "decode: out-of-memory"},
               {"minimize_deadline:once", "restr: deadline"}};
  for (const auto& c : cases) {
    failpoints().arm_from_spec(c.spec);
    const engine::BatchReport rep = engine::run_batch(jobs, eo);
    failpoints().disarm_all();
    ASSERT_EQ(rep.outcomes.size(), 1u);
    const engine::JobOutcome& o = rep.outcomes[0];
    EXPECT_EQ(o.status, engine::JobStatus::kResourceLimit)
        << c.spec << ": " << engine::job_status_name(o.status) << " "
        << o.error;
    EXPECT_EQ(o.detail, c.detail) << c.spec;
    EXPECT_EQ(o.audit_findings, 0u) << c.spec;
  }
}

}  // namespace
}  // namespace bddmin
