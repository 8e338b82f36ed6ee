// Test helper: one sample through TimeSeriesStore::append_refs, the
// store's only write entry point. With a WAL attached the sample is its
// own durable record.
#pragma once

#include "metrics/model.h"
#include "metrics/symbols.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {

// Returns true when the store accepted the sample (false: out of order).
inline bool append_one(TimeSeriesStore& store,
                       const metrics::InternedLabels& labels, TimestampMs t,
                       double v) {
  metrics::SampleRef ref{&labels, t, v};
  return store.append_refs(&ref, 1) == 1;
}

}  // namespace ceems::tsdb
