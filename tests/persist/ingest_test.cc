// Exactly-once incremental ingest: log replay semantics, admission
// control, ingest-while-query bit-equality against a fresh engine over the
// same prefix, and crash recovery (log + snapshot) indexing every input
// exactly once.
#include "persist/ingest.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "persist/ingest_log.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace persist {
namespace {

using testing_util::MakeVectorDataset;
using testing_util::TempDir;

constexpr uint64_t kSeed = 61;
constexpr int kDims = 8;

core::DeepEverestOptions SmallOptions() {
  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

/// Deterministic post-base inputs: ingesting MakeExtras(n) after the base
/// dataset must equal a fresh dataset holding base + extras.
std::vector<service::IngestInput> MakeExtras(uint32_t count) {
  Rng rng(kSeed + 1000);
  std::vector<service::IngestInput> extras;
  for (uint32_t i = 0; i < count; ++i) {
    service::IngestInput input;
    input.values.resize(kDims);
    for (float& v : input.values) v = static_cast<float>(rng.NextGaussian());
    input.label = static_cast<int>(i % 4);
    extras.push_back(std::move(input));
  }
  return extras;
}

/// The reference: base + the first `extra_count` extras as one dataset.
data::Dataset MakeReferenceDataset(uint32_t base, uint32_t extra_count) {
  data::Dataset dataset = MakeVectorDataset(base, kDims, kSeed + 1);
  for (const service::IngestInput& extra : MakeExtras(extra_count)) {
    dataset.Add(Tensor(Shape({kDims}), extra.values), extra.label);
  }
  return dataset;
}

void ExpectSameEntries(const core::TopKResult& a, const core::TopKResult& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].input_id, b.entries[i].input_id) << "rank " << i;
    EXPECT_EQ(a.entries[i].value, b.entries[i].value) << "rank " << i;
  }
}

TEST(IngestLogTest, ReplayDropsTornTail) {
  TempDir dir("ilog");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IngestLog log(&store.value(), "m");

  for (uint32_t i = 0; i < 3; ++i) {
    IngestRecord record;
    record.input_id = i;
    record.label = static_cast<int>(i);
    record.values = {1.0f * i, 2.0f * i};
    DE_ASSERT_OK(log.Append(record));
  }
  // A crash mid-append leaves a torn frame at the tail.
  DE_ASSERT_OK(store->Append(IngestLog::KeyFor("m"),
                             std::vector<uint8_t>{0xde, 0xad, 0xbe}));

  auto replayed = log.Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*replayed)[i].input_id, i);
    EXPECT_EQ((*replayed)[i].values.size(), 2u);
  }

  // The torn tail must also not poison later appends: recovery truncates
  // logically (replay stops), and the exactly-once contract only covers
  // acknowledged records — all 3 of which survived.
}

TEST(IngestLogTest, ReplayDropsTruncatedLastRecord) {
  TempDir dir("ilog-t");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IngestLog log(&store.value(), "m");
  for (uint32_t i = 0; i < 2; ++i) {
    IngestRecord record;
    record.input_id = i;
    record.values = {3.0f, 4.0f, 5.0f};
    DE_ASSERT_OK(log.Append(record));
  }
  const std::string path = store->root() + "/" + IngestLog::KeyFor("m");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  auto replayed = log.Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ((*replayed)[0].input_id, 0u);
}

TEST(IngestQueueTest, RejectsWhenBatchExceedsBacklogBound) {
  TempDir dir("iq-backlog");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(10, kDims, kSeed + 1);
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());

  IngestQueueOptions options;
  options.max_backlog = 2;
  auto queue = IngestQueue::Create(engine->get(), &dataset, &store.value(),
                                   options);
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();

  auto ack = (*queue)->Ingest(MakeExtras(3));  // 3 > max_backlog
  EXPECT_EQ(ack.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*queue)->Stats().rejected_total, 1);

  // Shape validation happens before anything becomes durable.
  std::vector<service::IngestInput> bad(1);
  bad[0].values = {1.0f};
  EXPECT_EQ((*queue)->Ingest(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*queue)->Stats().dataset_size, 10u);
}

TEST(IngestQueueTest, IngestWhileQueryingIsBitIdenticalToFreshScan) {
  TempDir dir("iq-live");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(40, kDims, kSeed + 1);
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());

  const int layer = model->activation_layers()[0];
  const core::NeuronGroup group{layer, {0, 3, 6}};

  // Build the index at 40 and pin a baseline answer.
  auto at40 = (*engine)->TopKHighest(group, 5);
  ASSERT_TRUE(at40.ok()) << at40.status().ToString();
  EXPECT_EQ(at40->stats.dataset_version, 40);

  auto queue =
      IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();

  // Ingest in small batches with queries interleaved: every answer must be
  // consistent with the dataset version it reports.
  const std::vector<service::IngestInput> extras = MakeExtras(12);
  for (size_t start = 0; start < extras.size(); start += 4) {
    const std::vector<service::IngestInput> batch(
        extras.begin() + static_cast<ptrdiff_t>(start),
        extras.begin() + static_cast<ptrdiff_t>(start + 4));
    auto ack = (*queue)->Ingest(batch);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->first_id, 40u + start);
    auto during = (*engine)->TopKHighest(group, 5);
    ASSERT_TRUE(during.ok()) << during.status().ToString();
    EXPECT_GE(during->stats.dataset_version, 40);
    EXPECT_LE(during->stats.dataset_version, static_cast<int64_t>(52));
  }
  ASSERT_TRUE((*queue)->WaitIdle(30.0));

  const service::IngestStats stats = (*queue)->Stats();
  EXPECT_EQ(stats.dataset_size, 52u);
  EXPECT_EQ(stats.ingested_total, 12);
  EXPECT_EQ(stats.min_watermark, 52u);

  auto at52 = (*engine)->TopKHighest(group, 5);
  ASSERT_TRUE(at52.ok());
  EXPECT_EQ(at52->stats.dataset_version, 52);

  // The merged index must answer exactly like a fresh engine built over
  // the same 52 inputs from scratch.
  TempDir fresh_dir("iq-fresh");
  auto fresh_store = storage::FileStore::Open(fresh_dir.path());
  ASSERT_TRUE(fresh_store.ok());
  data::Dataset fresh_dataset = MakeReferenceDataset(40, 12);
  auto fresh_engine = core::DeepEverest::Create(
      model.get(), &fresh_dataset, &fresh_store.value(), SmallOptions());
  ASSERT_TRUE(fresh_engine.ok());
  auto fresh = (*fresh_engine)->TopKHighest(group, 5);
  ASSERT_TRUE(fresh.ok());
  ExpectSameEntries(*fresh, *at52);

  // Most-similar queries take the same guarantee.
  auto similar = (*engine)->TopKMostSimilar(45, group, 4);
  auto fresh_similar = (*fresh_engine)->TopKMostSimilar(45, group, 4);
  ASSERT_TRUE(similar.ok());
  ASSERT_TRUE(fresh_similar.ok());
  ExpectSameEntries(*fresh_similar, *similar);

  (*queue)->Shutdown();
}

TEST(IngestQueueTest, ApplyingABatchWritesOnlyTheLog) {
  TempDir dir("iq-writes");
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const core::NeuronGroup group{model->activation_layers()[0], {0, 3}};
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->TopKHighest(group, 5).ok());  // builds + commits
  auto queue = IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();

  const uint64_t written_before = store->bytes_written();
  ASSERT_TRUE((*queue)->Ingest(MakeExtras(8)).ok());
  ASSERT_TRUE((*queue)->WaitIdle(30.0));
  EXPECT_EQ((*queue)->Stats().min_watermark, 38u);
  // The apply merged in memory: the log append is the only write.
  auto log_bytes = store->SizeOf(IngestLog::KeyFor(model->name()));
  ASSERT_TRUE(log_bytes.ok());
  EXPECT_EQ(store->bytes_written() - written_before, *log_bytes);

  // A snapshot commit is what makes the merge durable.
  DE_ASSERT_OK((*queue)->SaveSnapshot());
  EXPECT_GT(store->bytes_written() - written_before, *log_bytes);
  (*queue)->Shutdown();
}

TEST(IngestQueueTest, RecoversFromLogAndSnapshotExactlyOnce) {
  TempDir dir("iq-recover");
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const int layer = model->activation_layers()[1];
  const core::NeuronGroup group{layer, {1, 4, 7}};

  // First life: build, ingest 8, snapshot, ingest 5 more, then "crash"
  // (drop everything without a final snapshot — the last 5 live only in
  // the ingest log + the snapshot covers only the first 8).
  {
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
    auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                            &store.value(), SmallOptions());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->TopKHighest(group, 5).ok());  // builds the index

    auto queue =
        IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    const std::vector<service::IngestInput> extras = MakeExtras(13);
    ASSERT_TRUE(
        (*queue)
            ->Ingest({extras.begin(), extras.begin() + 8})
            .ok());
    ASSERT_TRUE((*queue)->WaitIdle(30.0));
    DE_ASSERT_OK((*queue)->SaveSnapshot());
    ASSERT_TRUE(
        (*queue)->Ingest({extras.begin() + 8, extras.end()}).ok());
    ASSERT_TRUE((*queue)->WaitIdle(30.0));
    (*queue)->Shutdown();
  }

  // Second life over the same store: replay + snapshot install + catch-up.
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto queue =
      IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  EXPECT_EQ((*queue)->recovered_inputs(), 13u);
  EXPECT_EQ((*queue)->recovered_layers(), 1u);
  ASSERT_TRUE((*queue)->WaitIdle(30.0));

  const service::IngestStats stats = (*queue)->Stats();
  EXPECT_EQ(stats.dataset_size, 43u);
  // Exactly-once: the watermark reaches 43 with no input double-merged —
  // a double apply would leave the index claiming more inputs than the
  // dataset holds, and the query below would fail validation.
  EXPECT_EQ(stats.min_watermark, 43u);

  auto recovered = (*engine)->TopKHighest(group, 6);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.dataset_version, 43);

  TempDir fresh_dir("iq-recover-fresh");
  auto fresh_store = storage::FileStore::Open(fresh_dir.path());
  ASSERT_TRUE(fresh_store.ok());
  data::Dataset fresh_dataset = MakeReferenceDataset(30, 13);
  auto fresh_engine = core::DeepEverest::Create(
      model.get(), &fresh_dataset, &fresh_store.value(), SmallOptions());
  ASSERT_TRUE(fresh_engine.ok());
  auto fresh = (*fresh_engine)->TopKHighest(group, 6);
  ASSERT_TRUE(fresh.ok());
  ExpectSameEntries(*fresh, *recovered);

  (*queue)->Shutdown();
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
