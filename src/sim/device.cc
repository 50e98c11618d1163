#include "sim/device.h"

#include <algorithm>

namespace fxdist {

void Device::AddRecord(std::uint64_t linear_bucket, RecordIndex record) {
  buckets_[linear_bucket].push_back(record);
  ++num_records_;
}

bool Device::RemoveRecord(std::uint64_t linear_bucket, RecordIndex record) {
  auto it = buckets_.find(linear_bucket);
  if (it == buckets_.end()) return false;
  auto& records = it->second;
  auto pos = std::find(records.begin(), records.end(), record);
  if (pos == records.end()) return false;
  records.erase(pos);
  if (records.empty()) buckets_.erase(it);
  --num_records_;
  return true;
}

}  // namespace fxdist
