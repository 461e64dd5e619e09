// The network front-end, runnable: builds TWO deterministic demo systems
// (TinyMlp + synthetic vectors, derived from --seed and a fixed seed
// derivation for the second model), wraps each in its own QueryService,
// registers both in an EngineRegistry, and serves the multi-model HTTP/1.1
// query API on loopback until SIGINT/SIGTERM. The wire protocol's `model`
// field routes between them.
//
//   ./example_query_server --port 8080
//   curl -s localhost:8080/v1/models
//   curl -s localhost:8080/v1/query
//     -d '{"model":"demo-a","kind":"highest","layer":1,"neurons":[0,2,4],"k":5}'
//   curl -s localhost:8080/v1/ql
//     -d '{"model":"demo-b","ql":"SELECT TOPK 5 HIGHEST FOR LAYER 1 TOP 3 NEURONS OF 7"}'
//   curl -sN 'localhost:8080/v1/query?stream=1&layer=1&neurons=0,2,4&k=5'
//   curl -s localhost:8080/v1/stats
//
// The e2e CI job starts this binary, then runs example_query_client
// (which rebuilds both engines from the same seed) against it and asserts
// bit-identical results and correct model routing. See README "Network
// API" for the wire protocol.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_util/demo_system.h"
#include "net/query_server.h"
#include "persist/ingest.h"
#include "service/engine_registry.h"
#include "service/query_service.h"

using namespace deepeverest;  // NOLINT: example brevity

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Run(int argc, char** argv) {
  bench_util::DemoSystemOptions demo_options;
  // Realistic multi-millisecond queries by default, so streamed progress
  // and mid-query cancellation are observable from a remote client.
  demo_options.device_latency_scale = 8.0;
  net::QueryServerOptions server_options;
  server_options.http.port = 8080;
  service::QueryServiceOptions service_options;
  persist::IngestQueueOptions ingest_options;

  for (int i = 1; i < argc; ++i) {
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      server_options.http.port =
          static_cast<uint16_t>(std::atoi(next_value("--port")));
    } else if (std::strcmp(argv[i], "--inputs") == 0) {
      demo_options.num_inputs =
          static_cast<uint32_t>(std::atoi(next_value("--inputs")));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      demo_options.seed =
          static_cast<uint64_t>(std::atoll(next_value("--seed")));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      service_options.num_workers = std::atoi(next_value("--workers"));
    } else if (std::strcmp(argv[i], "--device-scale") == 0) {
      demo_options.device_latency_scale =
          std::atof(next_value("--device-scale"));
    } else if (std::strcmp(argv[i], "--store-dir") == 0) {
      // Persistent store for model A: snapshots + ingest log survive the
      // process, so a restart over the same directory recovers (the crash
      // e2e job kill -9s this binary and restarts it here).
      demo_options.store_dir = next_value("--store-dir");
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      ingest_options.snapshot_every =
          static_cast<uint32_t>(std::atoi(next_value("--snapshot-every")));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--inputs N] [--seed N] "
                   "[--workers N] [--device-scale X] [--store-dir PATH] "
                   "[--snapshot-every N]\n",
                   argv[0]);
      return 2;
    }
  }

  // Two independent serving stacks: the second model's weights AND dataset
  // derive from a different seed, so misrouted queries would return
  // visibly different answers (exactly what the e2e client checks).
  // Model A's indexes come after its ingest queue (below): recovery must
  // replay the ingest log before a committed segment past the base dataset
  // can be loaded rather than rebuilt.
  bench_util::DemoSystemOptions demo_options_a = demo_options;
  demo_options_a.preprocess = false;
  auto system_a = bench_util::DemoSystem::Make(demo_options_a);
  if (!system_a.ok()) {
    std::fprintf(stderr, "demo system A: %s\n",
                 system_a.status().ToString().c_str());
    return 1;
  }
  bench_util::DemoSystemOptions demo_options_b = demo_options;
  demo_options_b.seed = bench_util::DemoModelBSeed(demo_options.seed);
  demo_options_b.store_dir.clear();  // only model A persists (and ingests)
  auto system_b = bench_util::DemoSystem::Make(demo_options_b);
  if (!system_b.ok()) {
    std::fprintf(stderr, "demo system B: %s\n",
                 system_b.status().ToString().c_str());
    return 1;
  }

  auto service_a =
      service::QueryService::Create((*system_a)->engine(), service_options);
  auto service_b =
      service::QueryService::Create((*system_b)->engine(), service_options);
  if (!service_a.ok() || !service_b.ok()) {
    std::fprintf(stderr, "query service: %s\n",
                 (!service_a.ok() ? service_a.status() : service_b.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  service::EngineRegistry registry;
  if (!registry.Register(bench_util::kDemoModelA, service_a->get()).ok() ||
      !registry.Register(bench_util::kDemoModelB, service_b->get()).ok()) {
    std::fprintf(stderr, "registry setup failed\n");
    return 1;
  }

  // Model A accepts ingest (B stays query-only, exercising the 404 path).
  // Creation recovers: replays the ingest log into the dataset and loads
  // the last committed snapshot's indexes before the listener opens.
  ingest_options.trace_sink = [svc = service_a->get()](
                                  std::shared_ptr<Trace> trace) {
    svc->RecordTrace(std::move(trace));
  };
  auto ingest = persist::IngestQueue::Create(
      (*system_a)->engine(), (*system_a)->mutable_dataset(),
      (*system_a)->store(), ingest_options);
  if (!ingest.ok()) {
    std::fprintf(stderr, "ingest queue: %s\n",
                 ingest.status().ToString().c_str());
    return 1;
  }
  const Status preprocessed = (*system_a)->engine()->PreprocessAllLayers();
  if (!preprocessed.ok()) {
    std::fprintf(stderr, "preprocess: %s\n", preprocessed.ToString().c_str());
    return 1;
  }
  if (!registry.AttachIngest(bench_util::kDemoModelA, ingest->get()).ok()) {
    std::fprintf(stderr, "ingest attach failed\n");
    return 1;
  }

  auto server = net::QueryServer::Start(&registry, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "http server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // The readiness line the CI job (and any supervisor) waits for; flushed
  // immediately so a pipe reader sees it before the first request.
  std::printf("query_server listening on 127.0.0.1:%u models=%s,%s inputs=%u "
              "seed=%llu workers=%d recovered_inputs=%u recovered_layers=%u\n",
              static_cast<unsigned>((*server)->port()),
              bench_util::kDemoModelA, bench_util::kDemoModelB,
              demo_options.num_inputs,
              static_cast<unsigned long long>(demo_options.seed),
              service_options.num_workers, (*ingest)->recovered_inputs(),
              (*ingest)->recovered_layers());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("shutting down\n");
  (*server)->Shutdown();
  (*ingest)->Shutdown();
  (*service_a)->Shutdown();
  (*service_b)->Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
