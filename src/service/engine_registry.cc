#include "service/engine_registry.h"

namespace deepeverest {
namespace service {

Status EngineRegistry::Register(const std::string& name,
                                QueryService* service) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (service == nullptr) {
    return Status::InvalidArgument("service is required");
  }
  common::MutexLock lock(&mu_);
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return Status::AlreadyExists("model '" + name +
                                   "' is already registered");
    }
  }
  Entry entry;
  entry.name = name;
  entry.service = service;
  entries_.push_back(std::move(entry));
  return Status::OK();
}

QueryService* EngineRegistry::Find(const std::string& name) const {
  common::MutexLock lock(&mu_);
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.service;
  }
  return nullptr;
}

QueryService* EngineRegistry::DefaultService() const {
  common::MutexLock lock(&mu_);
  return entries_.empty() ? nullptr : entries_.front().service;
}

std::string EngineRegistry::default_model() const {
  common::MutexLock lock(&mu_);
  return entries_.empty() ? std::string() : entries_.front().name;
}

std::vector<EngineRegistry::Entry> EngineRegistry::Entries() const {
  common::MutexLock lock(&mu_);
  return entries_;
}

std::vector<std::string> EngineRegistry::ModelNames() const {
  common::MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    names.push_back(entry.name);
  }
  return names;
}

Status EngineRegistry::AttachIngest(const std::string& name, IngestSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("ingest sink is required");
  }
  common::MutexLock lock(&mu_);
  for (Entry& entry : entries_) {
    if (entry.name != name) continue;
    if (entry.ingest != nullptr) {
      return Status::AlreadyExists("model '" + name +
                                   "' already has an ingest sink");
    }
    entry.ingest = sink;
    return Status::OK();
  }
  return Status::NotFound("model '" + name + "' is not registered");
}

IngestSink* EngineRegistry::FindIngest(const std::string& name) const {
  common::MutexLock lock(&mu_);
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.ingest;
  }
  return nullptr;
}

size_t EngineRegistry::size() const {
  common::MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace service
}  // namespace deepeverest
