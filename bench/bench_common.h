#ifndef DEEPEVEREST_BENCH_BENCH_COMMON_H_
#define DEEPEVEREST_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "data/dataset.h"
#include "nn/inference.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace bench {

/// \brief One result of a bench, named by (figure, system, row, col). Every
/// bench writes its cells through WriteJson, and reproduce/all.sh assembles
/// them into the committed BENCH_<bench>.json files.
using Values = std::map<std::string, double>;
struct Cell {
  std::string figure, system, row, col;
  Values counters;   // deterministic at a given scale
  Values modeled_s;  // modeled seconds by method: deterministic
  Values wall_s;     // measured on this machine (seconds unless named)
};

inline std::vector<Cell>& Cells() {
  static auto& cells = *new std::vector<Cell>();
  return cells;
}

inline Cell& AddCell(const std::string& figure, const std::string& system,
                     const std::string& row, const std::string& col) {
  Cells().push_back({figure, system, row, col, {}, {}, {}});
  return Cells().back();
}

inline std::string Json(const Values& values) {
  JsonWriter w;
  w.BeginObject();
  for (const auto& [name, value] : values) {
    w.Key(name);
    w.Double(value);
  }
  w.EndObject();
  return w.TakeString();
}

/// Prints every cell on one line: its name, then its values.
inline void PrintCells() {
  for (const Cell& c : Cells()) {
    std::printf("%s | %s | %s | %s", c.figure.c_str(), c.system.c_str(),
                c.row.c_str(), c.col.c_str());
    for (const auto& [name, values] : {std::pair{"counters", &c.counters},
                                       std::pair{"modeled_s", &c.modeled_s},
                                       std::pair{"wall_s", &c.wall_s}}) {
      if (!values->empty()) std::printf(" | %s", name);
      for (const auto& [key, value] : *values) {
        std::printf(" %s=%.4g", key.c_str(), value);
      }
    }
    std::printf("\n");
  }
}

/// Writes `{"scale": ..., "cells": [...]}` to `path`, one cell per line.
inline void WriteJson(const std::string& path, const Values& scale) {
  std::ofstream out(path);
  out << "{\"scale\": " << Json(scale) << ",\n\"cells\": [";
  const auto str = [](const std::string& v) { return JsonWriter::Escape(v); };
  for (size_t i = 0; i < Cells().size(); ++i) {
    const Cell& c = Cells()[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"figure\": " << str(c.figure)
        << ", \"system\": " << str(c.system) << ", \"row\": " << str(c.row)
        << ", \"col\": " << str(c.col)
        << ", \"counters\": " << Json(c.counters)
        << ", \"modeled_s\": " << Json(c.modeled_s)
        << ", \"wall_s\": " << Json(c.wall_s) << "}";
  }
  out << "\n]}\n";
  DE_CHECK(out.good()) << "cannot write " << path;
}

/// \brief Experiment scale. The defaults finish the full suite in minutes on
/// one CPU core while preserving the paper's result *shapes*; raise them via
/// environment variables for higher-fidelity runs:
///   DE_BENCH_INPUTS            dataset size            (default 1000 / 600)
///   DE_BENCH_TRIALS            queries per config       (default 3)
///   DE_BENCH_WORKLOAD_QUERIES  multi-query workload len  (default 120)
///   DE_BENCH_IQA_QUERIES       related-query sequence len (default 30)
struct Scale {
  uint32_t vgg_inputs = 1000;
  uint32_t resnet_inputs = 600;
  int trials = 3;
  int workload_queries = 120;
  int iqa_queries = 30;
};

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

inline Scale GetScale() {
  Scale scale;
  const int64_t inputs = EnvInt("DE_BENCH_INPUTS", 0);
  if (inputs > 0) {
    scale.vgg_inputs = static_cast<uint32_t>(inputs);
    scale.resnet_inputs = static_cast<uint32_t>(inputs * 7 / 10);
  }
  scale.trials = static_cast<int>(EnvInt("DE_BENCH_TRIALS", scale.trials));
  scale.workload_queries = static_cast<int>(
      EnvInt("DE_BENCH_WORKLOAD_QUERIES", scale.workload_queries));
  scale.iqa_queries =
      static_cast<int>(EnvInt("DE_BENCH_IQA_QUERIES", scale.iqa_queries));
  return scale;
}

/// \brief One benchmark system: a frozen model plus its dataset — the
/// analogue of the paper's CIFAR10-VGG16 / ImageNet-ResNet50 pairs.
struct System {
  std::string name;
  nn::ModelPtr model;
  std::unique_ptr<data::Dataset> dataset;
  int batch_size = 16;
  /// GPU cost-model calibration: chosen so one input's simulated inference
  /// time matches the real model this system stands in for on the paper's
  /// K80 (VGG16-on-CIFAR ~1.1 ms/input; ResNet50 ~12 ms/input).
  double seconds_per_mac = 2.0e-12;
  /// Modeled reference-storage throughput for *modeled-time* experiment
  /// series. The paper's EBS moves ~16-30x more bytes per unit of inference
  /// work than our scaled-down layers produce, so the modeled device is
  /// proportionally slower than the paper's 125 MB/s gp3 volume.
  double disk_bytes_per_second = 8e6;

  std::unique_ptr<nn::InferenceEngine> NewEngine() const {
    auto engine = std::make_unique<nn::InferenceEngine>(
        model.get(), dataset.get(), batch_size);
    engine->mutable_cost_model()->seconds_per_mac = seconds_per_mac;
    return engine;
  }

  void ApplyCostModel(nn::InferenceEngine* engine) const {
    engine->mutable_cost_model()->seconds_per_mac = seconds_per_mac;
  }
};

inline System MakeVggSystem(const Scale& scale) {
  System system;
  system.name = "Synthetic-MiniVgg";
  system.model = nn::MakeMiniVgg(/*seed=*/101);
  data::SyntheticImageConfig config;
  config.num_inputs = scale.vgg_inputs;
  config.seed = 2024;
  system.dataset =
      std::make_unique<data::Dataset>(data::MakeSyntheticImages(config));
  system.batch_size = 16;  // throughput-optimal batch (paper: 128 for VGG16)
  // MiniVgg is ~0.64 MMACs/input; VGG16-on-CIFAR takes ~1.1 ms/input on the
  // paper's K80 (11 s ReprocessAll over 10k inputs).
  system.seconds_per_mac = 1.7e-9;
  return system;
}

inline System MakeResnetSystem(const Scale& scale) {
  System system;
  system.name = "Synthetic-MiniResNet";
  system.model = nn::MakeMiniResNet(/*seed=*/202);
  data::SyntheticImageConfig config;
  config.num_inputs = scale.resnet_inputs;
  config.seed = 4048;
  system.dataset =
      std::make_unique<data::Dataset>(data::MakeSyntheticImages(config));
  system.batch_size = 8;  // paper: 64 for ResNet50
  // MiniResNet is ~1.0 MMACs/input; ResNet50 takes ~12 ms/input on the K80
  // (121.4 s inference over 10k inputs, Table 1).
  system.seconds_per_mac = 1.2e-8;
  return system;
}

/// A scratch directory removed at destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    auto dir = storage::MakeTempDir(tag);
    DE_CHECK(dir.ok()) << dir.status().ToString();
    path_ = *dir;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace bench
}  // namespace deepeverest

#endif  // DEEPEVEREST_BENCH_BENCH_COMMON_H_
