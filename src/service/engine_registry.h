#ifndef DEEPEVEREST_SERVICE_ENGINE_REGISTRY_H_
#define DEEPEVEREST_SERVICE_ENGINE_REGISTRY_H_

#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "service/ingest_sink.h"
#include "service/query_service.h"

namespace deepeverest {
namespace service {

/// \brief Maps model names to the QueryService serving each model's
/// engine, so one network front-end can front several models: the wire
/// protocol's `model` field *routes* (instead of 404-matching against a
/// single served name), `GET /v1/models` lists this registry, and
/// `/v1/stats` reports one section per entry.
///
/// Each entry is a fully independent serving stack — its own DeepEverest
/// engine, worker pool, admission queue, batch scheduler, and stats — so
/// one model's backlog never blocks another's and per-model stats need no
/// disaggregation. The registry does not own the services (consistent with
/// QueryServer not owning its service); everything registered must outlive
/// it. Registration order is preserved: the first entry is the default a
/// request without a `model` field routes to.
///
/// Thread-safe: registration and lookup may race (lookups are served under
/// a mutex; the returned service pointer stays valid because entries are
/// never removed).
class EngineRegistry {
 public:
  EngineRegistry() = default;
  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// Registers `service` under `name`. InvalidArgument on an empty name or
  /// null service, AlreadyExists on a duplicate name.
  Status Register(const std::string& name, QueryService* service);

  /// The service for `name`; nullptr when not registered.
  QueryService* Find(const std::string& name) const;

  /// The default service (first registered); nullptr while empty.
  QueryService* DefaultService() const;

  /// The default model's name; empty while the registry is.
  std::string default_model() const;

  /// One registered model: its name, service, and ingest sink (null when
  /// the model serves queries only).
  struct Entry {
    std::string name;
    QueryService* service = nullptr;
    IngestSink* ingest = nullptr;
  };

  /// Every registered model, in registration order, read in one hold.
  std::vector<Entry> Entries() const;

  /// Registered model names, in registration order.
  std::vector<std::string> ModelNames() const;

  /// Attaches the ingest pipeline serving `name`'s dataset and indexes.
  /// The model must already be registered; the sink (not owned) must
  /// outlive the registry. NotFound when the model is not registered,
  /// AlreadyExists when a sink is already attached.
  Status AttachIngest(const std::string& name, IngestSink* sink);

  /// The ingest sink for `name`; nullptr when the model is not registered
  /// or serves queries only (no ingest attached).
  IngestSink* FindIngest(const std::string& name) const;

  size_t size() const;
  bool empty() const { return size() == 0; }

 private:
  mutable common::Mutex mu_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace deepeverest

#endif  // DEEPEVEREST_SERVICE_ENGINE_REGISTRY_H_
