// The paper's evaluation in one run: Figures 5-11, Tables 1 and 3 and the
// equi-depth vs equi-width ablation (§4.3). Usage: bench_paper [out.json]
//
// Each result is a cell (figure, system, row, col). Most figures are rows
// of one loop, RunRow; Figures 6, 10, 11 and Table 1 have their own code.
// Given a path, each cell is also written as one JSON line: `counters` and
// `modeled_s` (K80 inference + modeled disk) are deterministic at a given
// DE_BENCH_* scale, `wall_s` is the median wall-clock time on this machine.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cta.h"
#include "baselines/kd_tree.h"
#include "baselines/layer_scan_engine.h"
#include "baselines/lru_cache.h"
#include "baselines/preprocess_all.h"
#include "baselines/priority_cache.h"
#include "baselines/reprocess_all.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/config.h"
#include "core/deepeverest.h"
#include "core/iqa_cache.h"

namespace deepeverest {
namespace {

using bench_util::FormatDouble;
using bench_util::FormatSeconds;
using bench_util::LayerDepth;
using bench_util::QueryType;
using bench::AddCell;
using bench::Cell;
using bench::Cells;
using bench::Values;

constexpr int kTopK = 20;
const char kDe[] = "DeepEverest";
const char kRa[] = "ReprocessAll";
const char kNoIqa[] = "DeepEverest w/o IQA";
const LayerDepth kDepths[] = {LayerDepth::kEarly, LayerDepth::kMid,
                              LayerDepth::kLate};

/// DeepEverest's speedup over every other method (empty without it).
Values Speedups(const Values& seconds) {
  Values speedups;
  const auto de = seconds.find(kDe);
  for (const auto& [method, value] : seconds) {
    if (de != seconds.end() && method != kDe) {
      speedups[method] = value / de->second;
    }
  }
  return speedups;
}

double Median(std::vector<double> values) {
  DE_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// Neurons of layers [0, last]; of every layer when `last` is -1.
int64_t Neurons(const bench::System& system, int last = -1) {
  if (last < 0) last = system.model->num_layers() - 1;
  int64_t total = 0;
  for (int layer = 0; layer <= last; ++layer) {
    total += system.model->NeuronCount(layer);
  }
  return total;
}

uint64_t StoreBytes(const storage::FileStore* store) {
  return store == nullptr ? 0 : store->bytes_written() + store->bytes_read();
}

/// Simulated-GPU inference plus store traffic at the modeled disk speed.
double Modeled(const bench::System& system, double gpu_seconds,
               uint64_t store_bytes) {
  return gpu_seconds +
         static_cast<double>(store_bytes) / system.disk_bytes_per_second;
}

std::unique_ptr<storage::FileStore> OpenStore(const std::string& dir) {
  return std::make_unique<storage::FileStore>(
      storage::FileStore::Open(dir).value());
}

/// DeepEverest at the paper's default 20% budget, on the system's cost model.
std::unique_ptr<core::DeepEverest> MakeDeepEverest(
    const bench::System& system, storage::FileStore* store) {
  core::DeepEverestOptions options;
  options.batch_size = system.batch_size;
  options.storage_budget_fraction = 0.2;
  auto de = core::DeepEverest::Create(system.model.get(),
                                      system.dataset.get(), store, options)
                .value();
  system.ApplyCostModel(de->inference());
  return de;
}

/// One NTA query over a fixed index: most-similar to `target_id`, or highest
/// when it is -1.
core::TopKResult RunNta(nn::InferenceEngine* inference,
                        const core::LayerIndex& index,
                        const core::NeuronGroup& group, int64_t target_id,
                        core::QueryContext* ctx) {
  core::NtaEngine nta(inference, &index);
  core::NtaOptions options;
  options.k = kTopK;
  const auto kind = target_id < 0 ? core::QuerySpec::Kind::kHighest
                                  : core::QuerySpec::Kind::kMostSimilar;
  return nta.Begin(group, kind, target_id, {}, options, ctx)
      .value()
      ->Run()
      .value();
}

/// A layer's activation matrix, computed once per system and layer. Its
/// wall and modeled times are the sweeps' ReprocessAll reference (inference
/// dominates a full pass plus scan).
struct LayerPass {
  storage::LayerActivationMatrix matrix;
  double seconds = 0.0;
  double gpu_seconds = 0.0;
};

const LayerPass& Pass(const bench::System& system, int layer) {
  static auto& passes = *new std::map<std::string, LayerPass>();
  const std::string key = system.name + "/" + std::to_string(layer);
  auto it = passes.find(key);
  if (it == passes.end()) {
    auto engine = system.NewEngine();
    nn::InferenceReceipt receipt;
    Stopwatch watch;
    auto matrix = engine->ComputeLayerMatrix(layer, 0, engine->dataset().size(),
                                             &receipt);
    LayerPass pass{std::move(matrix).value(), watch.ElapsedSeconds(),
                   receipt.simulated_gpu_seconds};
    it = passes.emplace(key, std::move(pass)).first;
  }
  return it->second;
}

/// One row of a figure: the queries it draws and what answers them.
struct RowSpec {
  std::string figure, row, col;
  const bench::System* system = nullptr;
  QueryType type = QueryType::kSimHigh;
  bench_util::GroupKind kind = bench_util::GroupKind::kRandHigh;
  LayerDepth depth = LayerDepth::kLate;
  int group_size = 3;
  uint64_t seed = 0;  // the figure's Rng seed for this row
  /// Non-empty: every engine (DeepEverest first) answers each query, each
  /// with its store (null: none). Empty: an NtaEngine over a LayerIndex
  /// built with `index`, which the §4.7.2 selector picks when
  /// `budget_percent` > 0.
  std::vector<core::QueryEngine*> engines;
  std::vector<const storage::FileStore*> stores;
  core::LayerIndexConfig index;
  int budget_percent = 0;
};

/// SimTop draws Top groups; FireMax and SimHigh draw RandHigh groups (§5.1).
RowSpec Row(const char* figure, const bench::System& system, std::string row,
            std::string col, QueryType type, LayerDepth depth,
            int group_size, uint64_t seed,
            core::LayerIndexConfig index = {}) {
  RowSpec spec;
  spec.figure = figure;
  spec.row = std::move(row);
  spec.col = std::move(col);
  spec.system = &system;
  spec.type = type;
  spec.kind = type == QueryType::kSimTop ? bench_util::GroupKind::kTop
                                         : bench_util::GroupKind::kRandHigh;
  spec.depth = depth;
  spec.group_size = group_size;
  spec.seed = seed;
  spec.index = index;
  return spec;
}

std::string Label(QueryType type, int group_size) {
  return std::string(bench_util::QueryTypeToString(type)) + "/g" +
         std::to_string(group_size);
}

/// The cell loop: runs one row's trials and records its medians.
const Cell& RunRow(const RowSpec& spec, int trials) {
  const bench::System& system = *spec.system;
  const uint32_t n = system.dataset->size();
  const int layer = bench_util::PickLayer(*system.model, spec.depth);
  auto generator = system.NewEngine();
  auto engine = system.NewEngine();
  Cell& cell = AddCell(spec.figure, system.name, spec.row, spec.col);
  std::optional<core::LayerIndex> index;
  if (spec.engines.empty()) {
    core::LayerIndexConfig config = spec.index;
    if (spec.budget_percent > 0) {
      const uint64_t full_bytes =
          static_cast<uint64_t>(Neurons(system)) * n * sizeof(float);
      config = core::SelectConfig(
                   full_bytes * static_cast<uint64_t>(spec.budget_percent) /
                       100,
                   system.batch_size, n, Neurons(system))
                   .ToLayerConfig();
      cell.counters["partitions"] = config.num_partitions;
      cell.counters["mai_ratio"] = config.mai_ratio;
    }
    index.emplace(
        core::LayerIndex::Build(Pass(system, layer).matrix, config).value());
    cell.wall_s[kRa] = Pass(system, layer).seconds;
    cell.modeled_s[kRa] = Pass(system, layer).gpu_seconds;
  }

  std::map<std::string, std::vector<double>> walls, modeled;
  std::vector<double> inputs, rounds;
  const auto record = [&](const std::string& method, double seconds,
                          const core::QueryStats& stats, uint64_t bytes) {
    walls[method].push_back(seconds);
    modeled[method].push_back(
        Modeled(system, stats.simulated_gpu_seconds, bytes));
    if (method != kDe) return;
    inputs.push_back(static_cast<double>(stats.inputs_run));
    rounds.push_back(static_cast<double>(stats.rounds));
  };
  Rng rng(spec.seed);
  for (int trial = 0; trial < trials; ++trial) {
    const auto target = static_cast<uint32_t>(rng.NextUint64(n));
    const core::NeuronGroup group =
        bench_util::MakeNeuronGroup(generator.get(), target, layer, spec.kind,
                                    spec.group_size, &rng)
            .value();
    const bool highest = spec.type == QueryType::kFireMax;
    if (spec.engines.empty()) {
      core::QueryContext ctx;
      Stopwatch watch;
      const core::TopKResult result = RunNta(
          engine.get(), *index, group, highest ? -1 : int64_t{target}, &ctx);
      record(kDe, watch.ElapsedSeconds(), result.stats, 0);
      continue;
    }
    const core::QuerySpec query =
        highest ? core::HighestQuery(group, kTopK)
                : core::MostSimilarQuery(target, group, kTopK);
    for (size_t e = 0; e < spec.engines.size(); ++e) {
      const uint64_t bytes_before = StoreBytes(spec.stores[e]);
      Stopwatch watch;
      const core::TopKResult result =
          spec.engines[e]->ExecuteSpec(query).value();
      record(spec.engines[e]->name(), watch.ElapsedSeconds(), result.stats,
             StoreBytes(spec.stores[e]) - bytes_before);
    }
  }
  for (const auto& [method, values] : walls) {
    cell.wall_s[method] = Median(values);
    cell.modeled_s[method] = Median(modeled[method]);
  }
  const auto inputs_run = static_cast<int64_t>(Median(inputs));
  cell.counters["inputs_run"] = static_cast<double>(inputs_run);
  cell.counters["inputs_run_frac"] = static_cast<double>(inputs_run) / n;
  cell.counters["rounds"] = Median(rounds);
  return cell;
}

/// A table column: its header and how a cell shows in it.
struct Metric {
  std::string name;
  std::function<std::string(const Cell&)> show;
};

Metric Wall(const std::string& name, const std::string& key) {
  return {name, [key](const Cell& c) {
            return FormatSeconds(c.wall_s.at(key));
          }};
}

Metric Speedup(const std::string& name, const std::string& baseline) {
  return {name, [baseline](const Cell& c) {
            return bench_util::FormatSpeedup(Speedups(c.wall_s).at(baseline));
          }};
}

Metric Count(const std::string& name, const std::string& counter) {
  return {name, [counter](const Cell& c) {
            return std::to_string(static_cast<int64_t>(c.counters.at(counter)));
          }};
}

/// Prints a banner, then the cells of one figure and system whose row starts
/// with `prefix` (stripped from the label): a column per col label and a line
/// per row and metric or, when no cell has a col label, a column per metric.
void PrintTable(const std::string& figure, const bench::System& system,
                const std::string& title, const std::string& note,
                const std::string& row_header,
                const std::vector<Metric>& metrics,
                const std::string& prefix = "") {
  bench_util::PrintBanner(std::cout, title, note);
  std::vector<std::string> rows, cols;
  std::map<std::pair<std::string, std::string>, const Cell*> at;
  const auto add = [](std::vector<std::string>* list, const std::string& v) {
    if (std::find(list->begin(), list->end(), v) == list->end()) {
      list->push_back(v);
    }
  };
  for (const Cell& cell : Cells()) {
    if (cell.figure == figure && cell.system == system.name &&
        cell.row.compare(0, prefix.size(), prefix) == 0) {
      add(&rows, cell.row);
      add(&cols, cell.col);
      at[{cell.row, cell.col}] = &cell;
    }
  }
  const bool flat = cols == std::vector<std::string>{""};
  std::vector<std::string> headers = {row_header};
  if (flat) {
    for (const Metric& metric : metrics) headers.push_back(metric.name);
  } else {
    if (metrics.size() > 1) headers.push_back("Metric");
    headers.insert(headers.end(), cols.begin(), cols.end());
  }
  bench_util::TablePrinter table(headers);
  for (const std::string& row : rows) {
    const std::string label = row.substr(prefix.size());
    if (flat) {
      std::vector<std::string> line = {label};
      for (const Metric& metric : metrics) {
        line.push_back(metric.show(*at.at({row, ""})));
      }
      table.AddRow(line);
      continue;
    }
    for (size_t m = 0; m < metrics.size(); ++m) {
      std::vector<std::string> line = {m == 0 ? label : ""};
      if (metrics.size() > 1) line.push_back(metrics[m].name);
      for (const std::string& col : cols) {
        line.push_back(metrics[m].show(*at.at({row, col})));
      }
      table.AddRow(line);
    }
  }
  table.Print(std::cout);
}

/// Figure 5: query times and storage of DeepEverest (every layer prebuilt,
/// §5.2), PreprocessAll and ReprocessAll.
void RunFigure5(const bench::System& system, int trials) {
  bench::ScratchDir scratch("paper-fig5");
  auto de_store = OpenStore(scratch.path() + "/de");
  auto pa_store = OpenStore(scratch.path() + "/pa");
  auto de = MakeDeepEverest(system, de_store.get());
  DE_CHECK(de->PreprocessAllLayers().ok());
  auto baseline_engine = system.NewEngine();
  baselines::PreprocessAll preprocess_all(baseline_engine.get(),
                                          pa_store.get());
  DE_CHECK(preprocess_all.Preprocess().ok());
  baselines::ReprocessAll reprocess_all(baseline_engine.get());
  for (QueryType type :
       {QueryType::kFireMax, QueryType::kSimTop, QueryType::kSimHigh}) {
    for (LayerDepth depth : kDepths) {
      for (int size : {1, 3, 10}) {
        RowSpec spec = Row("fig5", system,
                           std::string(bench_util::QueryTypeToString(type)) +
                               "/" + bench_util::LayerDepthToString(depth) +
                               "/g" + std::to_string(size),
                           "", type, depth, size,
                           static_cast<uint64_t>(type) * 1000 +
                               static_cast<uint64_t>(depth) * 100 + size);
        spec.engines = {de.get(), &preprocess_all, &reprocess_all};
        spec.stores = {de_store.get(), pa_store.get(), nullptr};
        RunRow(spec, trials);
      }
    }
  }
  const auto accounted = static_cast<double>(de->AnalyticIndexBytes());
  const auto on_disk =
      static_cast<double>(de->PersistedIndexBytes().ValueOr(0));
  const auto pa_bytes =
      static_cast<double>(preprocess_all.StorageBytes().ValueOr(0));
  AddCell("fig5_storage", system.name, "storage", "").counters = {
      {"accounted_bytes", accounted},
      {"on_disk_bytes", on_disk},
      {"preprocess_all_bytes", pa_bytes},
      {"accounted_frac", accounted / pa_bytes},
      {"on_disk_frac", on_disk / pa_bytes}};
  const auto bytes = [](double b) {
    return bench_util::FormatBytes(static_cast<uint64_t>(b));
  };
  PrintTable("fig5", system,
             "Figure 5: individual query times, " + system.name,
             "DeepEverest storage: " + bytes(accounted) + " accounted (" +
                 FormatDouble(100.0 * accounted / pa_bytes, 1) +
                 "% of PreprocessAll's " + bytes(pa_bytes) +
                 "); on-disk incl. per-partition bounds: " + bytes(on_disk) +
                 " (bounds are negligible at the paper's 10k-input scale "
                 "but visible at this benchmark scale)",
             "Query",
             {Wall(kDe, kDe), Wall("PreprocessAll", "PreprocessAll"),
              Wall(kRa, kRa), Speedup("DE speedup vs RA", kRa),
              Count("DE inputs run", "inputs_run")});
}

/// Figures 7, 8 and 9: NTA over fixed late-layer indexes. SimHigh time vs
/// nPartitions (MAI off); FireMax and SimTop, both on Top groups, vs the
/// MAI ratio at nPartitions=16; and the configuration the §4.7.2 selector
/// picks for each storage budget.
void RunSweeps(const bench::System& system, int trials) {
  const LayerDepth late = LayerDepth::kLate;
  for (int p : {4, 8, 16, 32, 64, 128}) {
    for (int size : {1, 3, 10}) {
      RunRow(Row("fig7", system, "g" + std::to_string(size),
                 "P=" + std::to_string(p), QueryType::kSimHigh, late, size,
                 900 + p * 10 + size, {p, 0.0}),
             trials);
    }
  }
  const Metric gpu = {"simulated GPU", [](const Cell& c) {
                        return FormatSeconds(c.modeled_s.at(kDe));
                      }};
  PrintTable("fig7", system,
             "Figure 7: SimHigh query time vs nPartitions, " + system.name,
             "Late layer, MAI disabled, k=20. Simulated-GPU time shows the "
             "paper's plateau once partitions drop below the optimal batch "
             "(" + std::to_string(system.batch_size) + ").",
             "Group size", {Wall("wall", kDe), gpu});

  for (double ratio : {0.0, 0.01, 0.02, 0.05, 0.1, 0.2}) {
    for (QueryType type : {QueryType::kFireMax, QueryType::kSimTop}) {
      for (int size : {1, 3, 10}) {
        RowSpec spec = Row("fig8", system, Label(type, size),
                           "ratio=" + FormatDouble(ratio, 2), type, late,
                           size,
                           8000 + static_cast<int>(ratio * 1000) + size +
                               static_cast<int>(type),
                           {16, ratio});
        spec.kind = bench_util::GroupKind::kTop;
        RunRow(spec, trials);
      }
    }
  }
  PrintTable("fig8", system,
             "Figure 8: speedup vs ReprocessAll when varying MAI ratio, " +
                 system.name,
             "Late layer, nPartitions=16, k=20. ratio=0 disables MAI.",
             "Query", {Speedup("", kRa)});

  std::string configs = "Selected configs:";
  for (int budget : {5, 10, 20, 40}) {
    Values chosen;  // the same for every row at this budget
    for (QueryType type : {QueryType::kSimTop, QueryType::kSimHigh}) {
      for (int size : {3, 10}) {
        RowSpec spec = Row("fig9", system, Label(type, size),
                           std::to_string(budget) + "% budget", type, late,
                           size,
                           9000 + budget * 10 + size + static_cast<int>(type));
        spec.budget_percent = budget;
        chosen = RunRow(spec, trials).counters;
      }
    }
    configs += " " + std::to_string(budget) + "%->(P=" +
               std::to_string(static_cast<int>(chosen.at("partitions"))) +
               ",r=" + FormatDouble(chosen.at("mai_ratio"), 3) + ")";
  }
  PrintTable("fig9", system,
             "Figure 9: speedups vs ReprocessAll across storage budgets, " +
                 system.name,
             configs, "Query", {Speedup("", kRa)});
}

/// Table 3: SimHigh inputs run vs nPartitions (MAI off); then the ablation,
/// equi-depth vs equi-width partitions on skewed activations.
void RunTable3AndAblation(const bench::System& system, int trials) {
  for (LayerDepth depth : {LayerDepth::kMid, LayerDepth::kLate}) {
    for (int p : {4, 8, 16, 32, 64, 128, 256}) {
      for (int size : {1, 3, 10}) {
        RunRow(Row("table3", system,
                   std::string(bench_util::LayerDepthToString(depth)) + "-" +
                       std::to_string(size),
                   std::to_string(p), QueryType::kSimHigh, depth, size,
                   3000 + p * 10 + size + static_cast<int>(depth), {p, 0.0}),
               trials);
      }
    }
  }
  const std::string inputs = std::to_string(system.dataset->size());
  PrintTable("table3", system,
             "Table 3: #inputs run by the DNN at query time (SimHigh), " +
                 system.name,
             "Dataset: " + inputs +
                 " inputs, k=20, MAI off. Expected: monotone decrease with "
                 "nPartitions; higher plateaus for larger groups.",
             "Layer-Group", {Count("", "inputs_run")});
  for (auto scheme : {core::PartitionScheme::kEquiDepth,
                      core::PartitionScheme::kEquiWidth}) {
    for (int p : {8, 16, 32, 64}) {
      RunRow(Row("ablation", system,
                 scheme == core::PartitionScheme::kEquiDepth ? "equi-depth"
                                                             : "equi-width",
                 "P=" + std::to_string(p), QueryType::kSimHigh,
                 LayerDepth::kLate, 3, 4100 + p, {p, 0.0, scheme}),
             trials);
    }
  }
  PrintTable("ablation", system,
             "Ablation: equi-depth vs equi-width partitioning, " + system.name,
             "#inputs run by the DNN for SimHigh (g3, late layer, k=20) over " +
                 inputs +
                 " inputs. Validates the paper's §4.3 equi-depth choice on "
                 "skewed activations.",
             "Scheme", {Count("", "inputs_run")});
}

/// Figure 6: cumulative total time (preprocessing + queries) of SimHigh
/// workloads over medium groups (§5.3): DeepEverest with incremental
/// indexing vs the disk-cache baselines, all at 20% budgets. Each method
/// owns its inference engine and store, so the modeled clock charges it
/// exactly its own work; preprocessing is charged before the first query.
void RunFigure6(const bench::System& system, int num_queries) {
  struct Workload {
    const char* name;
    bench_util::WorkloadSpec spec;
  };
  for (Workload workload :
       {Workload{"Workload 1 (.5/.3/.2)", {0.5, 0.3, 0.2, num_queries, 0}},
        Workload{"Workload 2 (.5/.4/.1)", {0.5, 0.4, 0.1, num_queries, 0}},
        Workload{"Workload 3 (uniform)", {0.0, 0.0, 1.0, num_queries, 0}}}) {
    workload.spec.seed = std::hash<std::string>{}(workload.name) % 1000 + 17;
    auto generator = system.NewEngine();
    Rng rng(workload.spec.seed * 13 + 5);
    std::vector<core::QuerySpec> queries;
    for (int layer : bench_util::GenerateLayerSequence(
             system.model->activation_layers(), workload.spec)) {
      const auto target =
          static_cast<uint32_t>(rng.NextUint64(system.dataset->size()));
      queries.push_back(core::MostSimilarQuery(
          target,
          bench_util::MakeNeuronGroup(generator.get(), target, layer,
                                      bench_util::GroupKind::kRandHigh, 3, &rng)
              .value(),
          kTopK));
    }

    bench::ScratchDir scratch("paper-fig6");
    // inference[0] goes unused: DeepEverest owns its engine.
    std::vector<std::unique_ptr<storage::FileStore>> stores;
    std::vector<std::unique_ptr<nn::InferenceEngine>> inference;
    for (int m = 0; m < 5; ++m) {
      stores.push_back(OpenStore(scratch.path() + "/" + std::to_string(m)));
      inference.push_back(system.NewEngine());
    }
    auto de = MakeDeepEverest(system, stores[0].get());
    const uint64_t budget = de->FullMaterializationBytes() / 5;
    baselines::PreprocessAll preprocess_all(inference[1].get(),
                                            stores[1].get());
    baselines::ReprocessAll reprocess_all(inference[2].get());
    baselines::LruCacheEngine lru(inference[3].get(), stores[3].get(),
                                  budget);
    baselines::PriorityCacheEngine priority(inference[4].get(),
                                            stores[4].get(), budget);
    core::QueryEngine* const engines[] = {de.get(), &preprocess_all,
                                          &reprocess_all, &lru, &priority};
    double wall[5] = {};
    Stopwatch watch;
    DE_CHECK(preprocess_all.Preprocess().ok());
    wall[1] = watch.ElapsedSeconds();
    watch.Reset();
    DE_CHECK(priority.Preprocess().ok());
    wall[4] = watch.ElapsedSeconds();

    // A cell per eighth of the workload, then one for storage.
    const size_t first = Cells().size();
    for (int eighth = 1, q = 0; eighth <= 8; ++eighth) {
      const int end = num_queries * eighth / 8;
      Cell& cell = AddCell("fig6", system.name, workload.name,
                           "q" + std::to_string(end));
      for (int m = 0; m < 5; ++m) {
        for (int i = q; i < end; ++i) {
          watch.Reset();
          DE_CHECK(engines[m]->ExecuteSpec(queries[i]).ok());
          wall[m] += watch.ElapsedSeconds();
        }
        const nn::InferenceEngine* counted =
            m == 0 ? de->inference() : inference[m].get();
        cell.wall_s[engines[m]->name()] = wall[m];
        cell.modeled_s[engines[m]->name()] =
            Modeled(system, counted->stats().simulated_gpu_seconds,
                    StoreBytes(stores[m].get()));
      }
      q = end;
    }
    Cell& storage = AddCell("fig6", system.name, workload.name, "storage");
    for (const core::QueryEngine* engine : engines) {
      storage.counters[engine->name()] =
          static_cast<double>(engine->StorageBytes().ValueOr(0));
    }

    bench_util::PrintBanner(
        std::cout,
        "Figure 6: cumulative total time, " + system.name + ", " +
            workload.name,
        std::to_string(num_queries) +
            " SimHigh queries, medium groups, 20% storage budgets.\n"
            "Modeled testbed time (K80-calibrated inference + modeled "
            "reference disk) — the accounting matching the paper's GPU+EBS "
            "machine; wall-clock on this CPU follows.");
    std::vector<std::string> headers = {"Method"};
    for (size_t c = first; c < Cells().size(); ++c) {
      headers.push_back(Cells()[c].col);  // the checkpoints, then "storage"
    }
    for (const bool modeled : {true, false}) {
      std::cout << (modeled ? "[modeled testbed time]\n"
                            : "\n[wall-clock on this machine]\n");
      bench_util::TablePrinter table(headers);
      for (const core::QueryEngine* engine : engines) {
        std::vector<std::string> line = {engine->name()};
        for (size_t c = first; c + 1 < Cells().size(); ++c) {
          const Values& values =
              modeled ? Cells()[c].modeled_s : Cells()[c].wall_s;
          line.push_back(FormatDouble(values.at(engine->name()), 2) + "s");
        }
        line.push_back(bench_util::FormatBytes(
            static_cast<uint64_t>(storage.counters.at(engine->name()))));
        table.AddRow(line);
      }
      table.Print(std::cout);
    }
  }
}

/// Figure 10: cumulative preprocessing time, layer by layer, of DeepEverest
/// indexing every layer (inference, index computation, fsynced snapshot
/// commit per build) vs PreprocessAll (one inference pass attributed to
/// layers by cumulative MACs, force-synced writes by cumulative bytes).
void RunFigure10(const bench::System& system) {
  const int num_layers = system.model->num_layers();
  std::vector<core::PreprocessTimings> de(static_cast<size_t>(num_layers));
  {
    bench::ScratchDir scratch("paper-fig10-de");
    auto store = OpenStore(scratch.path());
    auto indexed = MakeDeepEverest(system, store.get());
    core::PreprocessTimings total;
    for (int layer = 0; layer < num_layers; ++layer) {
      core::PreprocessTimings timings;
      DE_CHECK(
          indexed->index_manager()->EnsureIndex(layer, nullptr, &timings).ok());
      de[static_cast<size_t>(layer)] = total += timings;
    }
  }
  bench::ScratchDir scratch("paper-fig10-pa");
  auto store = OpenStore(scratch.path());
  auto engine = system.NewEngine();
  baselines::PreprocessAll preprocess_all(engine.get(), store.get());
  DE_CHECK(preprocess_all.Preprocess().ok());
  const auto macs = [&](int layer) {
    return static_cast<double>(system.model->CumulativeMacs(layer));
  };
  for (int layer = 0; layer < num_layers; ++layer) {
    // Every other layer, and the last, keeps the table readable.
    if (layer % 2 != 0 && layer + 1 != num_layers) continue;
    const core::PreprocessTimings& d = de[static_cast<size_t>(layer)];
    const double inference = preprocess_all.preprocess_inference_seconds() *
                             macs(layer) / macs(num_layers - 1);
    const double persist = preprocess_all.preprocess_persist_seconds() *
                           static_cast<double>(Neurons(system, layer)) /
                           static_cast<double>(Neurons(system));
    AddCell("fig10", system.name, std::to_string(layer), "").wall_s = {
        {"DE inference", d.inference_seconds},
        {"DE index", d.index_seconds},
        {"DE persist", d.persist_seconds},
        {"DE total",
         d.inference_seconds + d.index_seconds + d.persist_seconds},
        {"PA inference", inference},
        {"PA persist", persist},
        {"PA total", inference + persist}};
  }
  std::vector<Metric> metrics;
  for (const char* key : {"DE inference", "DE index", "DE persist", "DE total",
                          "PA inference", "PA persist", "PA total"}) {
    metrics.push_back(Wall(key, key));
  }
  PrintTable("fig10", system,
             "Figure 10: cumulative preprocessing time (all layers), " +
                 system.name,
             "Per-layer cumulative seconds; persistence is force-synced.",
             "Layer", metrics);
}

/// Figure 11: DeepEverest with Inter-Query Acceleration vs without, on
/// sequences of related SimHigh queries (64 MB cache, nPartitions=16,
/// ratio=0 as in §5.6); medians over three targets.
void RunFigure11(const bench::System& system, int length) {
  auto engine = system.NewEngine();
  auto generator = system.NewEngine();
  struct Sequence {
    const char* label;
    int group_size, num_replace;
  };
  for (const Sequence& seq : {Sequence{"Sequence 1 (n=5, r=1)", 5, 1},
                              Sequence{"Sequence 2 (n=10, r=2)", 10, 2}}) {
    for (LayerDepth depth : kDepths) {
      const int layer = bench_util::PickLayer(*system.model, depth);
      const core::LayerIndex index =
          core::LayerIndex::Build(Pass(system, layer).matrix, {16, 0.0})
              .value();
      std::map<int, std::vector<double>> with, without, inputs;
      Rng rng(1100 + seq.group_size * 10 + static_cast<int>(depth));
      for (int t = 0; t < 3; ++t) {
        const auto target =
            static_cast<uint32_t>(rng.NextUint64(system.dataset->size()));
        const std::vector<core::NeuronGroup> sequence =
            bench_util::GenerateIqaSequence(generator.get(), target, layer,
                                            seq.group_size, seq.num_replace,
                                            length, &rng)
                .value();
        core::IqaCache cache(64ull << 20);  // scaled stand-in for 1 GB
        for (int q = 0; q < length; ++q) {
          const core::NeuronGroup& group = sequence[static_cast<size_t>(q)];
          core::QueryContext iqa_ctx, plain_ctx;
          iqa_ctx.iqa = &cache;
          Stopwatch watch;
          inputs[q].push_back(static_cast<double>(
              RunNta(engine.get(), index, group, target, &iqa_ctx)
                  .stats.inputs_run));
          with[q].push_back(watch.ElapsedSeconds());
          watch.Reset();
          RunNta(engine.get(), index, group, target, &plain_ctx);
          without[q].push_back(watch.ElapsedSeconds());
        }
      }
      for (int pos : {0, 1, 4, 9, 19, 29}) {
        if (pos >= length) continue;
        Cell& cell = AddCell("fig11", system.name,
                             std::string(seq.label) + "/" +
                                 bench_util::LayerDepthToString(depth),
                             "query " + std::to_string(pos + 1));
        cell.wall_s = {{kDe, Median(with[pos])},
                       {kNoIqa, Median(without[pos])}};
        cell.counters["inputs_run"] = Median(inputs[pos]);
      }
    }
    PrintTable(
        "fig11", system,
        "Figure 11: IQA speedups on related-query sequences, " + system.name,
        std::string(seq.label) + ", " + std::to_string(length) +
            " SimHigh queries, 64 MB cache, nPartitions=16, ratio=0",
        "Layer", {Speedup("", kNoIqa)}, std::string(seq.label) + "/");
  }
}

/// Table 1: query-time breakdown of the baselines on one SimHigh query
/// (|G| = 3, late layer); each first pays the full inference pass.
void RunTable1(const bench::System& system) {
  auto generator = system.NewEngine();
  Rng rng(55);
  const bench_util::GeneratedQuery query =
      bench_util::GenerateQuery(generator.get(), QueryType::kSimHigh,
                                LayerDepth::kLate, 3, &rng)
          .value();
  const std::vector<int64_t>& neurons = query.group.neurons;
  const uint32_t target_id = query.target_id;
  const std::string methods[] = {"ReprocessAll", "CTA [11]", "K-D Tree [7]",
                                 "Ball Tree [41]"};
  for (const std::string& method : methods) {
    auto engine = system.NewEngine();
    Stopwatch total;
    const storage::LayerActivationMatrix matrix =
        engine->ComputeLayerMatrix(query.group.layer, 0,
                                   engine->dataset().size())
            .value();
    const double inference = total.ElapsedSeconds();
    std::vector<float> target;
    for (const int64_t neuron : neurons) {
      target.push_back(matrix.At(target_id, static_cast<uint64_t>(neuron)));
    }
    // A tree can only be built once the group's activations exist.
    size_t found = 0;
    if (method == "ReprocessAll") {
      found = core::ScanMostSimilar(matrix, neurons, target, kTopK,
                                    core::L2Distance(), true, target_id)
                  .entries.size();
    } else if (method == "CTA [11]") {
      found = baselines::CtaMostSimilar(matrix, neurons, target, kTopK,
                                        core::L2Distance(), true, target_id)
                  .top.entries.size();
    } else if (method == "K-D Tree [7]") {
      found = baselines::KdTree(baselines::MakePointMatrix(matrix, neurons))
                  .Query(target.data(), kTopK, target_id)
                  .size();
    } else {
      found = baselines::BallTree(baselines::MakePointMatrix(matrix, neurons))
                  .Query(target.data(), kTopK, target_id)
                  .size();
    }
    const double seconds = total.ElapsedSeconds();
    DE_CHECK_GT(found, 0u);
    AddCell("table1", system.name, method, "").wall_s = {
        {"Total query time", seconds}, {"DNN inference time", inference}};
  }
  const Metric share = {"Inference share", [](const Cell& c) {
                          return FormatDouble(
                                     100.0 * c.wall_s.at("DNN inference time") /
                                         c.wall_s.at("Total query time"),
                                     1) +
                                 "%";
                        }};
  PrintTable("table1", system,
             "Table 1: query time breakdown (SimHigh, |G|=3, late layer)",
             "System: " + system.name + ", " +
                 std::to_string(system.dataset->size()) +
                 " inputs. Expected shape: DNN inference dominates every "
                 "method.",
             "Method",
             {Wall("Total query time", "Total query time"),
              Wall("DNN inference time", "DNN inference time"), share});
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  using namespace deepeverest;  // NOLINT
  const bench::Scale scale = bench::GetScale();
  const bench::System vgg = bench::MakeVggSystem(scale);
  const bench::System resnet = bench::MakeResnetSystem(scale);
  const bench::System* both[] = {&vgg, &resnet};
  for (const auto* system : both) RunFigure5(*system, scale.trials);
  for (const auto* system : both) RunFigure6(*system, scale.workload_queries);
  for (const auto* system : both) RunSweeps(*system, scale.trials);
  for (const auto* system : both) RunFigure10(*system);
  RunFigure11(vgg, scale.iqa_queries);
  RunTable1(resnet);
  RunTable3AndAblation(vgg, scale.trials);
  if (argc > 1) {
    bench::WriteJson(argv[1],
                     {{"vgg_inputs", 1.0 * scale.vgg_inputs},
                      {"resnet_inputs", 1.0 * scale.resnet_inputs},
                      {"trials", 1.0 * scale.trials},
                      {"workload_queries", 1.0 * scale.workload_queries},
                      {"iqa_queries", 1.0 * scale.iqa_queries}});
  }
  return 0;
}
