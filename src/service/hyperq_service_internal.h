// Helpers shared by the HyperQService implementation files
// (hyperq_service*.cc); not part of the service API.

#pragma once

#include "service/hyperq_service.h"

namespace hyperq::service {

// Copies the connector's retry accounting into the outcome's timing
// breakdown so clients see attempts/backoff next to the Figure 9 split,
// plus the spill accounting (DESIGN.md §8): how many result bytes this
// statement's store pushed to disk. (The per-query QueryContext accounting
// is updated by the connector itself.)
inline void AbsorbBackendStats(QueryOutcome* out) {
  out->timing.execution_attempts += out->result.attempts;
  out->timing.retry_backoff_micros += out->result.retry_backoff_micros;
  if (out->result.store == nullptr) return;
  out->timing.spill_bytes += out->result.store->spilled_bytes();
}

}  // namespace hyperq::service
