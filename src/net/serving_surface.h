#ifndef DEEPEVEREST_NET_SERVING_SURFACE_H_
#define DEEPEVEREST_NET_SERVING_SURFACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/json.h"
#include "net/http_server.h"
#include "service/engine_registry.h"

namespace deepeverest {
namespace net {

/// Scheduling states of one model's live HTTP queries (the `states` section
/// of /v1/stats).
struct LiveStates {
  int64_t queued = 0;
  int64_t running = 0;
  int64_t parked = 0;
};

/// \brief What the served surfaces read, gathered at one instant.
///
/// Every served field — a /v1/stats key, a /v1/metrics series, or both — is
/// declared once in serving_surface.cc: its stats key, its Prometheus name,
/// help text and type, and how it reads from ServiceStats, IngestStats,
/// HttpServerStats or the server's clock. /v1/stats, /healthz, /v1/snapshot
/// and /v1/metrics all render from those declarations, so a counter cannot
/// read one way in JSON and another in a scrape. Rendering is pull-based:
/// each model's stats are snapshotted when a surface is rendered, and
/// nothing is kept between renders.
struct ServingSources {
  const service::EngineRegistry* registry = nullptr;
  double uptime_seconds = 0.0;
  int64_t start_unix_seconds = 0;
  HttpServerStats http;
  /// Live-query states by the service running them; a service missing here
  /// has none.
  std::map<const service::QueryService*, LiveStates> states;
};

/// `GET /v1/stats`: the server section, the default model, and one section
/// per model (service counters, `per_class`, `states`, `ingest`).
std::string RenderStatsJson(const ServingSources& sources);

/// `GET /healthz`: status, uptime, start time and build.
std::string RenderHealthzJson(const ServingSources& sources);

/// The members of one ingest pipeline's state, written into an open object
/// (`GET /v1/snapshot` and the `ingest` sections of /v1/stats).
void WriteIngestMembers(const service::IngestStats& stats, JsonWriter* w);

/// `GET /v1/metrics`: the Prometheus text exposition, format 0.0.4.
std::string RenderPrometheusText(const ServingSources& sources);

}  // namespace net
}  // namespace deepeverest

#endif  // DEEPEVEREST_NET_SERVING_SURFACE_H_
