#include "core/ql.h"

#include <gtest/gtest.h>

#include "core/deepeverest.h"
#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::TempDir;
using testing_util::TinySystem;

TEST(QlParseTest, HighestWithExplicitGroup) {
  auto spec =
      ParseQuery("SELECT TOPK 20 HIGHEST FOR LAYER 7 NEURONS (10, 42, 100)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, QuerySpec::Kind::kHighest);
  EXPECT_EQ(spec->k, 20);
  EXPECT_EQ(spec->layer, 7);
  EXPECT_EQ(spec->neurons, (std::vector<int64_t>{10, 42, 100}));
  EXPECT_EQ(spec->distance, DistanceKind::kL2);
  EXPECT_EQ(spec->theta, 1.0);
  // QL covers the declarative half; the envelope stays at its defaults.
  EXPECT_EQ(spec->session_id, 0u);
  EXPECT_EQ(spec->qos, QosClass::kBatch);
  EXPECT_LT(spec->deadline_ms, 0.0);
}

TEST(QlParseTest, SimilarWithTopNeurons) {
  auto spec = ParseQuery(
      "select topk 10 most similar to 42 for layer 3 top 3 neurons using l1 "
      "theta 0.9");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, QuerySpec::Kind::kMostSimilar);
  EXPECT_EQ(spec->target_id, 42);
  EXPECT_EQ(spec->top_neurons, 3);
  EXPECT_TRUE(spec->has_derived_group());
  EXPECT_EQ(spec->top_of, -1);  // defaults to the target
  EXPECT_EQ(spec->distance, DistanceKind::kL1);
  EXPECT_DOUBLE_EQ(spec->theta, 0.9);
}

TEST(QlParseTest, TopNeuronsOfOtherInput) {
  auto spec = ParseQuery(
      "SELECT TOPK 5 HIGHEST FOR LAYER 2 TOP 4 NEURONS OF INPUT 17");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->top_neurons, 4);
  EXPECT_EQ(spec->top_of, 17);
}

TEST(QlParseTest, SingleNeuronGroupAndLinf) {
  auto spec =
      ParseQuery("SELECT TOPK 1 SIMILAR TO 0 FOR LAYER 1 NEURONS (5) "
                 "USING LINF");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->neurons, (std::vector<int64_t>{5}));
  EXPECT_EQ(spec->distance, DistanceKind::kLInf);
}

TEST(QlParseTest, ToStringRoundTrips) {
  const char* texts[] = {
      "SELECT TOPK 20 HIGHEST FOR LAYER 7 NEURONS (10, 42, 100)",
      "SELECT TOPK 10 SIMILAR TO 42 FOR LAYER 3 TOP 3 NEURONS",
      "SELECT TOPK 5 HIGHEST FOR LAYER 2 TOP 4 NEURONS OF 17 USING L1",
      "SELECT TOPK 3 SIMILAR TO 1 FOR LAYER 2 NEURONS (7) THETA 0.75",
  };
  for (const char* text : texts) {
    auto first = ParseQuery(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseQuery(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(first->ToString(), second->ToString());
    EXPECT_EQ(*first, *second) << text;  // field-wise, bit-exact theta
  }
}

TEST(QlParseTest, ErrorsAreDescriptive) {
  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1)", "SELECT"},
      {"SELECT TOPK 0 HIGHEST FOR LAYER 1 NEURONS (1)", "k must be >= 1"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS ()", "neuron"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1", "NEURONS"},
      {"SELECT TOPK 5 SIMILAR TO x FOR LAYER 1 NEURONS (1)", "integer"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1) USING L3", "L3"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1) THETA 2", "theta"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1) GARBAGE", "GARBAGE"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 TOP 3 NEURONS", "OF"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1) @", "character"},
      // Validation is shared with every other entry point: the same
      // duplicate-neuron error the wire and Submit produce.
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (3, 3)", "duplicate"},
      {"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (-2)", ">= 0"},
  };
  for (const Case& c : cases) {
    auto spec = ParseQuery(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_NE(spec.status().message().find(c.needle), std::string::npos)
        << c.text << " -> " << spec.status().ToString();
  }
}

TEST(QlExecuteTest, MatchesDirectApiCalls) {
  TinySystem sys(50, 61, 8);
  TempDir dir("ql");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());

  const int layer = sys.model->activation_layers()[1];
  const std::string text = "SELECT TOPK 7 SIMILAR TO 13 FOR LAYER " +
                           std::to_string(layer) + " NEURONS (1, 4, 9)";
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto via_ql = (*de)->ExecuteSpec(*parsed);
  ASSERT_TRUE(via_ql.ok()) << via_ql.status().ToString();
  auto via_api =
      (*de)->ExecuteSpec(MostSimilarQuery(13, {layer, {1, 4, 9}}, 7));
  ASSERT_TRUE(via_api.ok());
  ASSERT_EQ(via_ql->entries.size(), via_api->entries.size());
  for (size_t i = 0; i < via_ql->entries.size(); ++i) {
    EXPECT_EQ(via_ql->entries[i].input_id, via_api->entries[i].input_id);
    EXPECT_DOUBLE_EQ(via_ql->entries[i].value, via_api->entries[i].value);
  }
}

TEST(QlExecuteTest, TopNeuronsResolveToMaximallyActivated) {
  TinySystem sys(40, 62, 8);
  TempDir dir("ql2");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];

  const std::string text = "SELECT TOPK 5 SIMILAR TO 8 FOR LAYER " +
                           std::to_string(layer) + " TOP 3 NEURONS";
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok());
  auto via_ql = (*de)->ExecuteSpec(*parsed);
  ASSERT_TRUE(via_ql.ok()) << via_ql.status().ToString();

  auto top = (*de)->MaximallyActivatedNeurons(8, layer, 3);
  ASSERT_TRUE(top.ok());
  auto via_api = (*de)->ExecuteSpec(MostSimilarQuery(8, {layer, *top}, 5));
  ASSERT_TRUE(via_api.ok());
  for (size_t i = 0; i < via_ql->entries.size(); ++i) {
    EXPECT_EQ(via_ql->entries[i].input_id, via_api->entries[i].input_id);
  }
}

// The derived-group resolution pass runs under the query's context, so its
// inference is part of the query's exact attribution (it used to be
// invisible: the QL layer resolved the group outside any metering).
TEST(QlExecuteTest, DerivedGroupResolutionIsMetered) {
  TinySystem sys(30, 64, 8);
  TempDir dir("ql4");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  ASSERT_TRUE((*de)->PreprocessAllLayers().ok());
  const int layer = sys.model->activation_layers()[0];

  QuerySpec explicit_spec;
  explicit_spec.kind = QuerySpec::Kind::kHighest;
  explicit_spec.layer = layer;
  explicit_spec.k = 5;
  QuerySpec derived = explicit_spec;
  derived.top_neurons = 2;
  derived.top_of = 3;
  // Resolve what the derived group will be, then run both specs.
  auto resolved = (*de)->MaximallyActivatedNeurons(3, layer, 2);
  ASSERT_TRUE(resolved.ok());
  explicit_spec.neurons = *resolved;

  auto explicit_result = (*de)->ExecuteSpec(explicit_spec);
  ASSERT_TRUE(explicit_result.ok()) << explicit_result.status().ToString();
  auto derived_result = (*de)->ExecuteSpec(derived);
  ASSERT_TRUE(derived_result.ok()) << derived_result.status().ToString();

  // Identical entries (same group), but the derived query pays one extra
  // inference pass for the resolution — visible in its exact stats.
  ASSERT_EQ(explicit_result->entries.size(), derived_result->entries.size());
  for (size_t i = 0; i < explicit_result->entries.size(); ++i) {
    EXPECT_EQ(explicit_result->entries[i].input_id,
              derived_result->entries[i].input_id);
    EXPECT_EQ(explicit_result->entries[i].value,
              derived_result->entries[i].value);
  }
  EXPECT_EQ(derived_result->stats.inputs_run,
            explicit_result->stats.inputs_run + 1);
}

// The spec's progress sink works engine-direct too: ExecuteSpec copies it
// into the context, so all three front doors honour the field the spec
// carries (the service moves it into the context at admission instead).
TEST(QlExecuteTest, SpecProgressSinkFiresOnEngineDirectExecution) {
  TinySystem sys(60, 66, 8);
  TempDir dir("ql6");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  // Warm start so the query takes the NTA path (the one that reports
  // per-round progress, not the index-build scan).
  ASSERT_TRUE((*de)->PreprocessAllLayers().ok());

  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.layer = sys.model->activation_layers().front();
  spec.neurons = {0, 1, 2, 3};
  spec.k = 10;
  int events = 0;
  spec.on_progress = [&events](const NtaProgress&) {
    ++events;
    return true;
  };
  auto result = (*de)->ExecuteSpec(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(events, 1);
}

// A derived-group query under an already-cancelled context never runs the
// resolution inference — it used to be unstoppable (resolved in ql.cc
// outside any QueryContext).
TEST(QlExecuteTest, DerivedGroupResolutionHonoursCancellation) {
  TinySystem sys(30, 65, 8);
  TempDir dir("ql5");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());

  QuerySpec derived;
  derived.kind = QuerySpec::Kind::kHighest;
  derived.layer = sys.model->activation_layers()[0];
  derived.top_neurons = 2;
  derived.top_of = 3;
  derived.k = 5;
  QueryContext ctx;
  ctx.Cancel();
  auto result = (*de)->ExecuteSpec(derived, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(ctx.receipt.inputs_run, 0);
}

TEST(QlExecuteTest, RuntimeErrorsPropagate) {
  TinySystem sys(10, 63, 8);
  TempDir dir("ql3");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 8;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  // Layer out of range.
  auto bad_layer =
      ParseQuery("SELECT TOPK 5 HIGHEST FOR LAYER 99 NEURONS (1)");
  ASSERT_TRUE(bad_layer.ok());  // syntactically fine; the engine rejects it
  EXPECT_FALSE((*de)->ExecuteSpec(*bad_layer).ok());
  // Target out of range.
  auto bad_target =
      ParseQuery("SELECT TOPK 5 SIMILAR TO 9999 FOR LAYER 1 NEURONS (1)");
  ASSERT_TRUE(bad_target.ok());
  EXPECT_FALSE((*de)->ExecuteSpec(*bad_target).ok());
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
