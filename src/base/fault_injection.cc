#include "base/fault_injection.h"

#include <cstdio>
#include <cstdlib>

namespace iqlkit {
namespace {

// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix. Good enough
// to turn (seed, site, counter) into an unbiased coin flip.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Result<double> ParseProbability(std::string_view key, std::string_view text) {
  char* end = nullptr;
  std::string buf(text);
  double p = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || p < 0 || p > 1) {
    return InvalidArgumentError("fault spec: '" + std::string(key) +
                                "' wants a probability in [0,1], got '" +
                                buf + "'");
  }
  return p;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kAllocation:
      return "allocation";
    case FaultSite::kGovernorTrip:
      return "governor-trip";
    case FaultSite::kScheduler:
      return "scheduler";
    case FaultSite::kStorage:
      return "storage";
    case FaultSite::kNetwork:
      return "network";
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

Result<FaultInjector::Config> FaultInjector::ParseSpec(std::string_view spec) {
  Config config;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("fault spec: expected key=value, got '" +
                                  std::string(item) + "'");
    }
    std::string_view key = item.substr(0, eq);
    std::string_view value = item.substr(eq + 1);
    if (key == "seed") {
      char* end = nullptr;
      std::string buf(value);
      config.seed = std::strtoull(buf.c_str(), &end, 10);
      if (end != buf.c_str() + buf.size()) {
        return InvalidArgumentError("fault spec: bad seed '" + buf + "'");
      }
    } else if (key == "alloc") {
      IQL_ASSIGN_OR_RETURN(config.p_alloc, ParseProbability(key, value));
    } else if (key == "trip") {
      IQL_ASSIGN_OR_RETURN(config.p_trip, ParseProbability(key, value));
    } else if (key == "sched") {
      IQL_ASSIGN_OR_RETURN(config.p_sched, ParseProbability(key, value));
    } else if (key == "storage") {
      IQL_ASSIGN_OR_RETURN(config.p_storage, ParseProbability(key, value));
    } else if (key == "network") {
      IQL_ASSIGN_OR_RETURN(config.p_network, ParseProbability(key, value));
    } else {
      return InvalidArgumentError("fault spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  return config;
}

void FaultInjector::Configure(const Config& config) {
  config_ = config;
  for (int i = 0; i < kNumFaultSites; ++i) {
    hits_[i].store(0, std::memory_order_relaxed);
    injected_[i].store(0, std::memory_order_relaxed);
  }
}

Status FaultInjector::ConfigureFromEnv() {
  const char* spec = std::getenv("IQLKIT_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return Status::Ok();
  Result<Config> config = ParseSpec(spec);
  if (!config.ok()) {
    // A half-parsed spec must not half-apply: disable injection outright
    // and complain where a CI log will show it, in addition to returning
    // the error for callers that gate on it.
    std::fprintf(stderr,
                 "iqlkit: invalid IQLKIT_FAULTS spec '%s': %s "
                 "(fault injection disabled)\n",
                 spec, config.status().message().c_str());
    Reset();
    return config.status();
  }
  Configure(*config);
  return Status::Ok();
}

bool FaultInjector::ShouldFail(FaultSite site) {
  double p = 0;
  switch (site) {
    case FaultSite::kAllocation:
      p = config_.p_alloc;
      break;
    case FaultSite::kGovernorTrip:
      p = config_.p_trip;
      break;
    case FaultSite::kScheduler:
      p = config_.p_sched;
      break;
    case FaultSite::kStorage:
      p = config_.p_storage;
      break;
    case FaultSite::kNetwork:
      p = config_.p_network;
      break;
  }
  if (p <= 0) return false;
  int index = static_cast<int>(site);
  uint64_t n = hits_[index].fetch_add(1, std::memory_order_relaxed);
  uint64_t h = Mix64(config_.seed ^ (uint64_t{0x5151} << (8 * index)) ^
                     Mix64(n + 1));
  // Top 53 bits give a uniform double in [0,1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= p) return false;
  injected_[index].fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace iqlkit
