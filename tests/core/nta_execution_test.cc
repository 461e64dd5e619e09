// Resumable execution semantics of QueryExecution, begun at the NTA phase by
// NtaEngine::Begin or at group resolution by DeepEverest::BeginSpec: a
// manually stepped execution — including one whose steps are split across
// threads, the park/resume handoff shape — must be bit-identical to the
// run-to-completion convenience, each Step must run one recorded unit of
// work, and the object must enforce its own protocol (no result before
// done, idempotent terminal state, no stepping without a context).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/deepeverest.h"
#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::TempDir;
using testing_util::TinySystem;
using testing_util::RunNta;
using testing_util::RunNtaSimilar;

Result<LayerIndex> BuildIndexFor(nn::InferenceEngine* engine, int layer,
                                 const LayerIndexConfig& config) {
  const uint32_t n = engine->dataset().size();
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(engine->ComputeLayer(ids, layer, &rows));
  auto matrix = storage::LayerActivationMatrix::Make(n, rows[0].size());
  for (uint32_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(i));
  }
  return LayerIndex::Build(matrix, config);
}

void ExpectIdentical(const TopKResult& expected, const TopKResult& actual) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size());
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].input_id, actual.entries[i].input_id)
        << "rank " << i;
    EXPECT_EQ(expected.entries[i].value, actual.entries[i].value)
        << "rank " << i;
  }
}

NtaOptions ExactOptions(int k) {
  NtaOptions options;
  options.k = k;
  options.tie_complete = true;
  return options;
}

TEST(QueryExecutionTest, ManualStepLoopMatchesRun) {
  TinySystem sys(60, 17, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[1];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const NeuronGroup group{layer, {0, 2, 5}};

  NtaEngine nta(sys.engine.get(), &index.value());
  const auto reference = RunNtaSimilar(&nta, group, 7, ExactOptions(8));
  ASSERT_TRUE(reference.ok());

  QueryContext ctx;
  auto begun = nta.Begin(group, QuerySpec::Kind::kMostSimilar, 7, {},
                         ExactOptions(8), &ctx);
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  QueryExecution& exec = **begun;
  int steps = 0;
  while (!exec.done()) {
    DE_ASSERT_OK(exec.Step());
    ++steps;
  }
  EXPECT_GT(steps, 1);  // a round-sliced execution, not one opaque blob
  auto stepped = exec.TakeResult();
  ASSERT_TRUE(stepped.ok());
  ExpectIdentical(reference.value(), stepped.value());
  EXPECT_EQ(reference->stats.inputs_run, stepped->stats.inputs_run);
  EXPECT_EQ(reference->stats.rounds, stepped->stats.rounds);
}

TEST(QueryExecutionTest, HighestStepLoopMatchesRun) {
  TinySystem sys(60, 23, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[0];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{5, 0.3});
  ASSERT_TRUE(index.ok());
  const NeuronGroup group{layer, {1, 3}};

  NtaEngine nta(sys.engine.get(), &index.value());
  const auto reference = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {},
                                ExactOptions(6));
  ASSERT_TRUE(reference.ok());

  QueryContext ctx;
  auto begun = nta.Begin(group, QuerySpec::Kind::kHighest, -1, {},
                         ExactOptions(6), &ctx);
  ASSERT_TRUE(begun.ok());
  while (!(*begun)->done()) DE_ASSERT_OK((*begun)->Step());
  auto stepped = (*begun)->TakeResult();
  ASSERT_TRUE(stepped.ok());
  ExpectIdentical(reference.value(), stepped.value());
  EXPECT_EQ(reference->stats.inputs_run, stepped->stats.inputs_run);
}

TEST(QueryExecutionTest, TakeResultBeforeDoneIsFailedPrecondition) {
  TinySystem sys(40, 29, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[0];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok());

  NtaEngine nta(sys.engine.get(), &index.value());
  QueryContext ctx;
  auto begun = nta.Begin({layer, {0}}, QuerySpec::Kind::kHighest, -1, {},
                         ExactOptions(5), &ctx);
  ASSERT_TRUE(begun.ok());
  ASSERT_FALSE((*begun)->done());
  auto premature = (*begun)->TakeResult();
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);
  // The failed take must not have corrupted the execution.
  while (!(*begun)->done()) DE_ASSERT_OK((*begun)->Step());
  EXPECT_TRUE((*begun)->TakeResult().ok());
}

TEST(QueryExecutionTest, BeginRequiresContext) {
  TinySystem sys(40, 31, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[0];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  auto begun = nta.Begin({layer, {0}}, QuerySpec::Kind::kHighest, -1, {},
                         ExactOptions(5), nullptr);
  ASSERT_FALSE(begun.ok());
  EXPECT_EQ(begun.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryExecutionTest, BeginRejectsTargetsThatDoNotFitTheKind) {
  TinySystem sys(40, 31, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[0];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  QueryContext ctx;
  const NeuronGroup group{layer, {0}};
  const auto code = [&](QuerySpec::Kind kind, int64_t target_id,
                        const std::vector<float>& target_acts) {
    return nta.Begin(group, kind, target_id, target_acts, ExactOptions(5),
                     &ctx)
        .status()
        .code();
  };
  // A highest query takes no target.
  EXPECT_EQ(code(QuerySpec::Kind::kHighest, 3, {}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QuerySpec::Kind::kHighest, -1, {1.0f}),
            StatusCode::kInvalidArgument);
  // A most-similar query takes exactly one.
  EXPECT_EQ(code(QuerySpec::Kind::kMostSimilar, -1, {}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QuerySpec::Kind::kMostSimilar, 3, {1.0f}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QuerySpec::Kind::kMostSimilar, 40, {}),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(QuerySpec::Kind::kMostSimilar, 3, {}), StatusCode::kOk);
}

TEST(QueryExecutionTest, StepsSplitAcrossThreadsAreBitIdentical) {
  // The park/resume ownership handoff in miniature: each step runs on a
  // fresh thread (strictly serialized, as the service's mutex serializes
  // park → resume), and the result must equal the single-threaded run.
  TinySystem sys(60, 41, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[1];
  auto index = BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok());
  const NeuronGroup group{layer, {1, 2, 6}};

  NtaEngine nta(sys.engine.get(), &index.value());
  const auto reference = RunNtaSimilar(&nta, group, 11, ExactOptions(7));
  ASSERT_TRUE(reference.ok());

  QueryContext ctx;
  auto begun = nta.Begin(group, QuerySpec::Kind::kMostSimilar, 11, {},
                         ExactOptions(7), &ctx);
  ASSERT_TRUE(begun.ok());
  QueryExecution* exec = begun->get();
  while (!exec->done()) {
    std::thread worker([exec] {
      const Status status = exec->Step();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
    worker.join();
  }
  auto handed_off = exec->TakeResult();
  ASSERT_TRUE(handed_off.ok());
  ExpectIdentical(reference.value(), handed_off.value());
  EXPECT_EQ(reference->stats.inputs_run, handed_off->stats.inputs_run);
}

// ------------------------- facade-level QueryExecution ---------------------

DeepEverestOptions SmallOptions() {
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

TEST(QueryExecutionTest, BeginSpecStepLoopMatchesExecuteSpec) {
  TinySystem sys(50, 43, 8);
  TempDir dir("exec");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];

  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kMostSimilar;
  spec.k = 6;
  spec.layer = layer;
  spec.neurons = {0, 3, 7};
  spec.target_id = 5;

  // Warm the index so both executions run the same NTA path.
  ASSERT_TRUE((*de)->ExecuteSpec(spec).ok());
  const auto reference = (*de)->ExecuteSpec(spec);
  ASSERT_TRUE(reference.ok());

  QueryContext ctx;
  auto begun = (*de)->BeginSpec(spec, &ctx);
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  int steps = 0;
  while (!(*begun)->done()) {
    DE_ASSERT_OK((*begun)->Step());
    ++steps;
  }
  EXPECT_GT(steps, 2);  // resolve/index phases + at least one NTA round
  auto stepped = (*begun)->TakeResult();
  ASSERT_TRUE(stepped.ok());
  ExpectIdentical(reference.value(), stepped.value());
  EXPECT_EQ(reference->stats.inputs_run, stepped->stats.inputs_run);
}

TEST(QueryExecutionTest, CancelledContextSurfacesBetweenSteps) {
  TinySystem sys(50, 47, 8);
  TempDir dir("exec");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];

  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = 5;
  spec.layer = layer;
  spec.neurons = {0, 1};
  ASSERT_TRUE((*de)->ExecuteSpec(spec).ok());  // warm

  QueryContext ctx;
  auto begun = (*de)->BeginSpec(spec, &ctx);
  ASSERT_TRUE(begun.ok());
  DE_ASSERT_OK((*begun)->Step());  // resolve
  ctx.Cancel();
  while (!(*begun)->done()) {
    (*begun)->Step();  // must terminate with the cancellation, not hang
  }
  auto result = (*begun)->TakeResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(QueryExecutionTest, AbandonedExecutionDestructsCleanly) {
  TinySystem sys(40, 53, 8);
  TempDir dir("exec");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];

  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = 4;
  spec.layer = layer;
  spec.neurons = {0, 2};
  ASSERT_TRUE((*de)->ExecuteSpec(spec).ok());  // warm

  QueryContext ctx;
  ctx.trace = std::make_shared<Trace>(Trace::NextId());
  auto begun = (*de)->BeginSpec(spec, &ctx);
  ASSERT_TRUE(begun.ok());
  DE_ASSERT_OK((*begun)->Step());
  DE_ASSERT_OK((*begun)->Step());
  begun->reset();  // mid-flight abandonment: spans must be closed, no leak
  ctx.trace->Finish();
  EXPECT_FALSE(ctx.trace->Snapshot().has_open_spans);
}

// The spans one execution opened, split by the Step that opened them:
// `steps[i]` is the half-open range of span indices in `spans` that Step i
// added. The trace only appends, so the final snapshot holds every Step's.
struct SteppedSpans {
  std::vector<std::pair<size_t, size_t>> steps;
  std::vector<TraceSpan> spans;
};

SteppedSpans StepRecordingSpans(QueryExecution* exec, const Trace& trace) {
  SteppedSpans out;
  while (!exec->done()) {
    const size_t before = trace.Snapshot().spans.size();
    const Status status = exec->Step();
    EXPECT_TRUE(status.ok()) << status.ToString();
    out.steps.emplace_back(before, trace.Snapshot().spans.size());
  }
  out.spans = trace.Snapshot().spans;
  return out;
}

int64_t IntAttr(const TraceSpan& span, const std::string& key) {
  for (const TraceAttr& attr : span.attrs) {
    if (attr.key == key && attr.is_int) return attr.int_value;
  }
  ADD_FAILURE() << span.name << " has no int attribute " << key;
  return -1;
}

// The names of the spans a Step opened directly under `parent` (nested
// spans, such as a round's compute_layer calls, are left out).
std::vector<std::string> OpenedUnder(const SteppedSpans& run, size_t step,
                                     int parent) {
  std::vector<std::string> names;
  for (size_t i = run.steps[step].first; i < run.steps[step].second; ++i) {
    if (run.spans[i].parent == parent) names.push_back(run.spans[i].name);
  }
  return names;
}

// Pins the unit of work of one Step, and the spans it opens, on three query
// shapes: the service parks between Steps, and perfbench's traced window
// sorts Steps by whether they built an index.
TEST(QueryExecutionTest, StepUnitsAndSpansMatchRecordedSequence) {
  using Names = std::vector<std::string>;
  TinySystem sys(80, 59, 8);
  TempDir dir("exec");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[1];

  // (a) A cold highest query: resolve, then the ensure that builds the index
  // and answers by scanning the freshly computed matrix.
  {
    QueryContext ctx;
    ctx.trace = std::make_shared<Trace>(Trace::NextId());
    auto begun =
        (*de)->BeginSpec(HighestQuery(NeuronGroup{layer, {0, 4}}, 5), &ctx);
    ASSERT_TRUE(begun.ok()) << begun.status().ToString();
    const SteppedSpans run = StepRecordingSpans(begun->get(), *ctx.trace);
    ASSERT_EQ(run.steps.size(), 2u);
    EXPECT_EQ(OpenedUnder(run, 0, -1), Names{});
    ASSERT_EQ(OpenedUnder(run, 1, -1), (Names{"index.ensure", "scan"}));
    EXPECT_EQ(IntAttr(run.spans[run.steps[1].first], "built"), 1);
    EXPECT_TRUE((*begun)->TakeResult().ok());
  }

  // (b) A warm most-similar query over `TOP 3 NEURONS OF target`: resolve,
  // ensure (no build) opening the one `nta` span, the target prologue, then
  // one round per Step.
  {
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kMostSimilar;
    spec.k = 6;
    spec.layer = layer;
    spec.top_neurons = 3;
    spec.target_id = 9;
    QueryContext ctx;
    ctx.trace = std::make_shared<Trace>(Trace::NextId());
    auto begun = (*de)->BeginSpec(spec, &ctx);
    ASSERT_TRUE(begun.ok()) << begun.status().ToString();
    const SteppedSpans run = StepRecordingSpans(begun->get(), *ctx.trace);
    auto result = (*begun)->TakeResult();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(run.steps.size(), 4u);
    EXPECT_EQ(OpenedUnder(run, 0, -1), Names{"resolve_group"});
    ASSERT_EQ(OpenedUnder(run, 1, -1), (Names{"index.ensure", "nta"}));
    EXPECT_EQ(IntAttr(run.spans[run.steps[1].first], "built"), 0);
    const int nta = static_cast<int>(run.steps[1].second) - 1;
    EXPECT_EQ(OpenedUnder(run, 2, -1), Names{});
    EXPECT_EQ(OpenedUnder(run, 2, nta), Names{"nta.target"});
    for (size_t step = 3; step < run.steps.size(); ++step) {
      EXPECT_EQ(OpenedUnder(run, step, -1), Names{}) << "step " << step;
      EXPECT_EQ(OpenedUnder(run, step, nta), Names{"nta.round"})
          << "step " << step;
    }
    EXPECT_EQ(static_cast<int64_t>(run.steps.size()) - 3,
              result->stats.rounds);
    EXPECT_GT(result->stats.rounds, 1);
  }

  // (c) An engine-direct highest query: no prologue, one round per Step.
  {
    auto index = BuildIndexFor(sys.engine.get(), layer,
                               LayerIndexConfig{4, 0.2});
    ASSERT_TRUE(index.ok());
    NtaEngine nta(sys.engine.get(), &index.value());
    QueryContext ctx;
    ctx.trace = std::make_shared<Trace>(Trace::NextId());
    auto begun = nta.Begin(NeuronGroup{layer, {1, 3}},
                           QuerySpec::Kind::kHighest, -1, {}, ExactOptions(6),
                           &ctx);
    ASSERT_TRUE(begun.ok()) << begun.status().ToString();
    const SteppedSpans run = StepRecordingSpans(begun->get(), *ctx.trace);
    auto result = (*begun)->TakeResult();
    ASSERT_TRUE(result.ok());
    for (size_t step = 0; step < run.steps.size(); ++step) {
      EXPECT_EQ(OpenedUnder(run, step, -1), Names{"nta.round"})
          << "step " << step;
    }
    EXPECT_EQ(static_cast<int64_t>(run.steps.size()), result->stats.rounds);
    EXPECT_GT(result->stats.rounds, 1);
  }
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
