#include "src/svm/config.h"

#include <cstdio>
#include <utility>

namespace hlrc {

void ApplyDeliveryOptions(SimConfig* cfg, bool reliable, bool coalesce) {
  if (reliable) {
    cfg->reliability.enabled = true;
  }
  if (coalesce) {
    cfg->network.coalesce = true;
    cfg->protocol.coalesce = true;
    // Ack piggybacking only matters once acks exist at all.
    cfg->reliability.piggyback_acks = cfg->reliability.enabled;
  }
}

std::string ValidateConfig(const SimConfig& cfg) {
  auto num = [](auto v) { return std::to_string(v); };
  if (cfg.nodes < 1 || cfg.nodes > kMaxNodes) {
    return "nodes must be in [1, " + num(kMaxNodes) + "], got " + num(cfg.nodes);
  }
  if (cfg.page_size <= 0 || (cfg.page_size & (cfg.page_size - 1)) != 0) {
    return "page_size must be a power of two, got " + num(cfg.page_size);
  }
  if (cfg.shared_bytes <= 0 || cfg.shared_bytes % cfg.page_size != 0) {
    return "page_size " + num(cfg.page_size) + " must divide shared_bytes " +
           num(cfg.shared_bytes);
  }
  for (const auto& [field, p] : {std::pair{"fault.drop_prob", cfg.fault.drop_prob},
                                  std::pair{"fault.corrupt_prob", cfg.fault.corrupt_prob},
                                  std::pair{"fault.dup_prob", cfg.fault.dup_prob},
                                  std::pair{"fault.delay_prob", cfg.fault.delay_prob}}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      char got[32];
      std::snprintf(got, sizeof(got), "%g", p);
      return std::string(field) + " must be in [0, 1], got " + got;
    }
  }
  if (cfg.fault.dup_prob > 0 && !cfg.reliability.enabled) {
    return "fault.dup_prob needs reliability.enabled (duplicates are dropped by its dedup)";
  }
  const ReliabilityConfig& r = cfg.reliability;
  if (r.enabled) {
    if (r.retry_timeout <= 0) {
      return "reliability.retry_timeout must be positive, got " + num(r.retry_timeout) + " ns";
    }
    if (r.max_retries < 0) {
      return "reliability.max_retries must be >= 0, got " + num(r.max_retries);
    }
    if (r.piggyback_acks && r.ack_delay >= r.retry_timeout) {
      return "reliability.retry_timeout (" + num(r.retry_timeout) +
             " ns) must exceed the piggybacked-ack delay (" + num(r.ack_delay) + " ns)";
    }
  }
  if (cfg.protocol.gc_threshold_bytes <= 0) {
    return "protocol.gc_threshold_bytes must be positive, got " +
           num(cfg.protocol.gc_threshold_bytes);
  }
  return "";
}

}  // namespace hlrc
