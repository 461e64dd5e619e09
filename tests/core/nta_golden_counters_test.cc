// Golden counters for NTA over a small, evicting IQA cache. A fixed, seeded
// sequence of highest and most-similar queries (plus one pair of executions
// interleaved step by step, with one of them resumed on another thread)
// must return answers bit-identical to the fresh activation scans, and must
// reproduce recorded per-query `inputs_run`, `rounds` and `iqa_hits` and the
// cache's cumulative eviction count. The answers alone would not notice a
// change in the order NTA evaluates candidates or touches cached rows; the
// counters do, because an MRU cache under pressure keeps a different set of
// rows when that order moves.
//
// A second sequence pins the modes the first one leaves out: termination
// without tie-completeness, θ-approximate termination, a most-similar query
// on a raw activation vector, and the per-round progress events of one
// query of each kind.
//
// The counters do not depend on the kernel table, so the same values hold in
// both dispatch modes; ctest runs this binary once more with
// DEEPEVEREST_KERNELS=scalar (core_nta_golden_counters_test_scalar).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/iqa_cache.h"
#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::TinySystem;

struct GoldenQuery {
  bool highest;
  int layer_slot;  // index into the model's activation layers
  std::vector<int64_t> neurons;
  uint32_t target_id;  // most-similar only
  int k;
  bool use_mai;
  bool tie_complete = true;
  double theta = 1.0;
  // Most-similar only: rank against the target's activations shifted by
  // +0.25 (a target vector no dataset input has) instead of
  // against the target input itself.
  bool raw_target = false;
};

struct Counters {
  int64_t inputs_run;
  int64_t rounds;
  int64_t iqa_hits;
  int64_t evictions_after;  // cumulative cache evictions once finished
};

// Layer slot 0 (16 neurons) is indexed with 32 partitions (5-bit PIDs) and
// slot 1 (12 neurons) with 7 (3-bit PIDs): both widths straddle 64-bit
// words, so the fused PID select runs its general path.
const GoldenQuery kQueries[] = {
    {true, 0, {0, 3, 7}, 0, 5, true},
    {false, 0, {0, 3, 7}, 11, 5, true},
    {true, 1, {1, 2, 4, 9}, 0, 8, true},
    {false, 1, {1, 2}, 100, 6, true},
    {true, 0, {5}, 0, 3, true},
    {false, 0, {2, 3, 4, 5, 6, 8}, 42, 10, true},
    {true, 0, {0, 3, 7}, 0, 5, true},
    {true, 0, {1, 4}, 0, 4, false},
    {false, 0, {1, 4}, 7, 4, false},
    {false, 1, {0, 5, 6, 11}, 3, 9, true},
};

// The interleaved pair, begun together after kQueries and stepped
// alternately: X, Y, X, Y, ... until both are done.
const GoldenQuery kPairX = {true, 1, {0, 5, 6}, 0, 6, true};
const GoldenQuery kPairY = {false, 0, {2, 9, 11}, 60, 7, true};

// Recorded from the node-based implementation this test was introduced
// against (per-input hash-map rows, one cache lookup per input).
const Counters kGolden[] = {
    {44, 5, 0, 0},     {90, 6, 14, 88},   {117, 1, 0, 204}, {64, 1, 0, 268},
    {6, 1, 2, 274},    {135, 8, 28, 409}, {13, 5, 31, 422}, {39, 1, 5, 461},
    {60, 5, 8, 521},   {162, 2, 1, 683},
};
const Counters kGoldenX = {81, 1, 0, 764};
const Counters kGoldenY = {13, 2, 4, 777};

// The mode sequence, each over the same evicting cache (fresh for this
// sequence). Recorded before the NTA phases shared one round function.
const GoldenQuery kModeQueries[] = {
    {false, 0, {2, 3, 4, 5, 6, 8}, 42, 10, true, /*tie_complete=*/false},
    {true, 0, {0, 3, 7}, 0, 5, true, /*tie_complete=*/false},
    {false, 1, {0, 5, 6, 11}, 3, 9, true, true, /*theta=*/0.5},
    {true, 1, {1, 2, 4, 9}, 0, 8, true, true, /*theta=*/0.5},
    {false, 0, {1, 4, 9}, 17, 6, true, true, 1.0, /*raw_target=*/true},
};
const Counters kGoldenModes[] = {
    {163, 8, 0, 117}, {38, 5, 6, 155},  {163, 2, 0, 317},
    {117, 1, 0, 434}, {46, 5, 11, 480},
};

// Progress events, each query on a fresh cache.
struct ProgressRow {
  int64_t round;
  double threshold;
  double kth_value;
  double theta_guarantee;
  size_t confirmed;
};
const GoldenQuery kProgressSimilar = kQueries[5];
const GoldenQuery kProgressHighest = kQueries[0];
// No event for the last round: a round that meets the threshold finishes
// the query instead of reporting progress.
const std::vector<ProgressRow> kGoldenProgressSimilar = {
    {1, 0.032865703105926514, 1.923836005099111, 0.017083422401294211, 0},
    {2, 0.15544444017277168, 1.3645731737351212, 0.11391433098987858, 0},
    {3, 0.30363248364549661, 1.2127657453174834, 0.25036367065760939, 0},
    {4, 0.50667583475734035, 1.2127657453174834, 0.41778541050786394, 0},
    {5, 0.61868356082338594, 1.1760017044587123, 0.52609070078529552, 0},
    {6, 0.86013787760868599, 1.1643685930314494, 0.73871614431758714, 1},
    {7, 0.98966550706113043, 1.1643685930314494, 0.84995895027065516, 2},
};
const std::vector<ProgressRow> kGoldenProgressHighest = {
    {1, 5.9211126599862069, 4.1578655301223426, 0.70221017043307332, 0},
    {2, 5.4319635661356269, 4.1578655301223426, 0.76544429643152134, 0},
    {3, 4.6928533718561987, 4.1578655301223426, 0.88599945505600819, 1},
    {4, 4.4317417545136326, 4.1578655301223426, 0.93820122210136614, 2},
};

class NtaGoldenCountersTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kInputs = 240;

  void SetUp() override {
    sys_ = std::make_unique<TinySystem>(kInputs, 23, /*batch_size=*/8);
    const LayerIndexConfig configs[2] = {LayerIndexConfig{32, 0.1},
                                         LayerIndexConfig{7, 0.0}};
    std::vector<uint32_t> ids(kInputs);
    for (uint32_t i = 0; i < kInputs; ++i) ids[i] = i;
    for (int slot = 0; slot < 2; ++slot) {
      const int layer = sys_->model->activation_layers()[slot];
      std::vector<std::vector<float>> rows;
      ASSERT_TRUE(sys_->engine->ComputeLayer(ids, layer, &rows).ok());
      matrices_[slot] =
          storage::LayerActivationMatrix::Make(kInputs, rows[0].size());
      for (uint32_t i = 0; i < kInputs; ++i) {
        std::copy(rows[i].begin(), rows[i].end(),
                  matrices_[slot].MutableRow(i));
      }
      auto index = LayerIndex::Build(matrices_[slot], configs[slot]);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      indexes_[slot] = std::make_unique<LayerIndex>(std::move(index.value()));
      engines_[slot] =
          std::make_unique<NtaEngine>(sys_->engine.get(), indexes_[slot].get());
    }
  }

  NeuronGroup GroupOf(const GoldenQuery& q) const {
    return NeuronGroup{sys_->model->activation_layers()[q.layer_slot],
                       q.neurons};
  }

  std::unique_ptr<QueryExecution> Begin(const GoldenQuery& q,
                                        QueryContext* ctx) {
    NtaOptions options;
    options.k = q.k;
    options.use_mai = q.use_mai;
    options.tie_complete = q.tie_complete;
    options.theta = q.theta;
    NtaEngine* nta = engines_[q.layer_slot].get();
    const QuerySpec::Kind kind = q.highest ? QuerySpec::Kind::kHighest
                                           : QuerySpec::Kind::kMostSimilar;
    const int64_t target_id =
        q.highest || q.raw_target ? -1 : int64_t{q.target_id};
    auto begun = nta->Begin(GroupOf(q), kind, target_id,
                            q.raw_target ? TargetOf(q) : std::vector<float>(),
                            options, ctx);
    EXPECT_TRUE(begun.ok()) << begun.status().ToString();
    return begun.ok() ? std::move(begun.value()) : nullptr;
  }

  /// The activations a most-similar query ranks against.
  std::vector<float> TargetOf(const GoldenQuery& q) const {
    std::vector<float> target;
    for (int64_t n : q.neurons) {
      target.push_back(matrices_[q.layer_slot].At(
                           q.target_id, static_cast<uint64_t>(n)) +
                       (q.raw_target ? 0.25f : 0.0f));
    }
    return target;
  }

  /// The fresh-scan answer over the full activation matrix.
  TopKResult Reference(const GoldenQuery& q) const {
    const storage::LayerActivationMatrix& matrix = matrices_[q.layer_slot];
    if (q.highest) return ScanHighest(matrix, q.neurons, q.k, L2Distance());
    return ScanMostSimilar(matrix, q.neurons, TargetOf(q), q.k, L2Distance(),
                           /*exclude_target=*/!q.raw_target, q.target_id);
  }

  /// `evictions` is the cache's cumulative eviction count when `got`'s
  /// execution finished.
  void ExpectAnswerAndCounters(const GoldenQuery& q, const TopKResult& got,
                               int64_t evictions, const Counters& want,
                               const std::string& label) {
    const TopKResult expected = Reference(q);
    ASSERT_EQ(got.entries.size(), expected.entries.size()) << label;
    if (q.theta < 1.0) {
      // A θ-approximation (eq. 6), not the exact answer: the i-th returned
      // value is within θ of the i-th exact one.
      for (size_t i = 0; i < expected.entries.size(); ++i) {
        const double a = got.entries[i].value;
        const double b = expected.entries[i].value;
        if (q.highest) {
          EXPECT_GE(a, q.theta * b) << label << " rank " << i;
        } else {
          EXPECT_LE(q.theta * a, b) << label << " rank " << i;
        }
      }
    } else {
      for (size_t i = 0; i < expected.entries.size(); ++i) {
        EXPECT_EQ(got.entries[i].input_id, expected.entries[i].input_id)
            << label << " rank " << i;
        EXPECT_EQ(got.entries[i].value, expected.entries[i].value)
            << label << " rank " << i;
      }
    }
    EXPECT_EQ(got.stats.inputs_run, want.inputs_run) << label;
    EXPECT_EQ(got.stats.rounds, want.rounds) << label;
    EXPECT_EQ(got.stats.iqa_hits, want.iqa_hits) << label;
    EXPECT_EQ(evictions, want.evictions_after) << label;
  }

  std::unique_ptr<TinySystem> sys_;
  storage::LayerActivationMatrix matrices_[2];
  std::unique_ptr<LayerIndex> indexes_[2];
  std::unique_ptr<NtaEngine> engines_[2];
  // About 50 of the 240 x 2 rows fit (16- and 12-float rows cost 128 and
  // 112 bytes), so the sequence evicts from its first queries on.
  IqaCache cache_{6000};
};

TEST_F(NtaGoldenCountersTest, SequenceAndInterleavedPairMatchRecordedCounters) {
  static_assert(sizeof(kQueries) / sizeof(kQueries[0]) ==
                    sizeof(kGolden) / sizeof(kGolden[0]),
                "one golden row per query");
  for (size_t i = 0; i < sizeof(kQueries) / sizeof(kQueries[0]); ++i) {
    QueryContext ctx;
    ctx.iqa = &cache_;
    std::unique_ptr<QueryExecution> exec = Begin(kQueries[i], &ctx);
    ASSERT_NE(exec, nullptr);
    auto result = exec->Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectAnswerAndCounters(kQueries[i], result.value(),
                            cache_.stats().evictions, kGolden[i],
                            "query " + std::to_string(i));
  }

  // Park/resume: X is always stepped on a fresh thread, Y on this one, so
  // every X step resumes an execution parked by another thread.
  QueryContext ctx_x;
  ctx_x.iqa = &cache_;
  QueryContext ctx_y;
  ctx_y.iqa = &cache_;
  std::unique_ptr<QueryExecution> x = Begin(kPairX, &ctx_x);
  std::unique_ptr<QueryExecution> y = Begin(kPairY, &ctx_y);
  ASSERT_NE(x, nullptr);
  ASSERT_NE(y, nullptr);
  int64_t x_evictions = -1;
  int64_t y_evictions = -1;
  while (!x->done() || !y->done()) {
    if (!x->done()) {
      Status step;
      std::thread([&] { step = x->Step(); }).join();
      ASSERT_TRUE(step.ok()) << step.ToString();
      if (x->done()) x_evictions = cache_.stats().evictions;
    }
    if (!y->done()) {
      ASSERT_TRUE(y->Step().ok());
      if (y->done()) y_evictions = cache_.stats().evictions;
    }
  }
  auto result_x = x->TakeResult();
  auto result_y = y->TakeResult();
  ASSERT_TRUE(result_x.ok());
  ASSERT_TRUE(result_y.ok());
  ExpectAnswerAndCounters(kPairX, result_x.value(), x_evictions, kGoldenX,
                          "pair x");
  ExpectAnswerAndCounters(kPairY, result_y.value(), y_evictions, kGoldenY,
                          "pair y");
}

TEST_F(NtaGoldenCountersTest, ModeSequenceMatchesRecordedCounters) {
  static_assert(sizeof(kModeQueries) / sizeof(kModeQueries[0]) ==
                    sizeof(kGoldenModes) / sizeof(kGoldenModes[0]),
                "one golden row per query");
  for (size_t i = 0; i < sizeof(kModeQueries) / sizeof(kModeQueries[0]);
       ++i) {
    QueryContext ctx;
    ctx.iqa = &cache_;
    std::unique_ptr<QueryExecution> exec = Begin(kModeQueries[i], &ctx);
    ASSERT_NE(exec, nullptr);
    auto result = exec->Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectAnswerAndCounters(kModeQueries[i], result.value(),
                            cache_.stats().evictions, kGoldenModes[i],
                            "mode query " + std::to_string(i));
  }
}

// Thresholds and k-th values come from the dispatched distance kernels, so
// they are compared with a tolerance that covers both kernel tables.
void ExpectClose(double got, double want, const std::string& label) {
  if (std::isinf(want)) {
    EXPECT_EQ(got, want) << label;
  } else {
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << label;
  }
}

void ExpectProgress(const std::vector<NtaProgress>& got,
                    const std::vector<ProgressRow>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string at = label + " event " + std::to_string(i);
    EXPECT_EQ(got[i].round, want[i].round) << at;
    ExpectClose(got[i].threshold, want[i].threshold, at + " threshold");
    ExpectClose(got[i].kth_value, want[i].kth_value, at + " kth_value");
    ExpectClose(got[i].theta_guarantee, want[i].theta_guarantee,
                at + " theta_guarantee");
    EXPECT_EQ(got[i].confirmed.size(), want[i].confirmed) << at;
  }
}

TEST_F(NtaGoldenCountersTest, ProgressEventsMatchRecordedSequence) {
  const struct {
    const GoldenQuery& query;
    const std::vector<ProgressRow>& golden;
    const char* label;
  } cases[] = {{kProgressSimilar, kGoldenProgressSimilar, "most-similar"},
               {kProgressHighest, kGoldenProgressHighest, "highest"}};
  for (const auto& c : cases) {
    IqaCache cache(6000);
    std::vector<NtaProgress> events;
    QueryContext ctx;
    ctx.iqa = &cache;
    ctx.on_progress = [&events](const NtaProgress& p) {
      events.push_back(p);
      return true;
    };
    std::unique_ptr<QueryExecution> exec = Begin(c.query, &ctx);
    ASSERT_NE(exec, nullptr);
    auto result = exec->Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectProgress(events, c.golden, c.label);
  }
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
