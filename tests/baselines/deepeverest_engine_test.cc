// DeepEverest driven purely through core::QueryEngine, the interface every
// baseline implements, so the multi-query experiments can treat it as one
// more engine.
#include <gtest/gtest.h>

#include "baselines/reprocess_all.h"
#include "core/deepeverest.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace baselines {
namespace {

using core::HighestQuery;
using core::MostSimilarQuery;
using testing_util::ExpectValidTopK;
using testing_util::TempDir;
using testing_util::TinySystem;

TEST(DeepEverestEngineTest, BehavesLikeAnyOtherEngine) {
  TinySystem sys(40, 79, 8);
  TempDir dir("dee");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  auto de = core::DeepEverest::Create(sys.model.get(), &sys.dataset,
                                      &store.value(), options);
  ASSERT_TRUE(de.ok());
  DE_ASSERT_OK((*de)->PreprocessAllLayers());

  core::QueryEngine& engine = **de;
  ReprocessAll reference(sys.engine.get());
  EXPECT_EQ(engine.name(), "DeepEverest");

  const int layer = sys.model->activation_layers()[1];
  const core::NeuronGroup group{layer, {0, 5, 11}};

  auto high = engine.ExecuteSpec(HighestQuery(group, 6));
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  auto expected_high = reference.ExecuteSpec(HighestQuery(group, 6));
  ASSERT_TRUE(expected_high.ok());
  ExpectValidTopK(*expected_high, *high, /*smaller_is_better=*/false);

  auto sim = engine.ExecuteSpec(MostSimilarQuery(2, group, 6));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto expected_sim = reference.ExecuteSpec(MostSimilarQuery(2, group, 6));
  ASSERT_TRUE(expected_sim.ok());
  ExpectValidTopK(*expected_sim, *sim, /*smaller_is_better=*/true);

  auto bytes = engine.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0u);  // preprocessed: indexes persisted
}

}  // namespace
}  // namespace baselines
}  // namespace deepeverest
