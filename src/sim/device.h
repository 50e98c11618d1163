// Device: one simulated parallel storage unit.
//
// A device holds the records of the buckets allocated to it, keyed by the
// bucket's linear index.  The local structure is a hash map — the paper's
// "data construction stage" is out of scope (its §1), and bucket-count
// response sizes are unaffected by the local layout.

#ifndef FXDIST_SIM_DEVICE_H_
#define FXDIST_SIM_DEVICE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fxdist {

/// Index into the owning ParallelFile's record arena.
using RecordIndex = std::uint32_t;

class Device {
 public:
  explicit Device(std::uint64_t id) : id_(id) {}

  std::uint64_t id() const { return id_; }

  /// Appends a record to bucket `linear_bucket` (creating it if new).
  void AddRecord(std::uint64_t linear_bucket, RecordIndex record);

  /// Removes one record from its bucket (erasing the bucket when it
  /// empties).  Returns false if the record was not present.
  bool RemoveRecord(std::uint64_t linear_bucket, RecordIndex record);

  /// Records in one bucket; nullptr when the bucket is empty/absent.
  /// Inline: every scan and liveness probe of a bucket starts here.
  const std::vector<RecordIndex>* Records(std::uint64_t linear_bucket) const {
    auto it = buckets_.find(linear_bucket);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  /// Number of non-empty buckets resident on this device.
  std::uint64_t num_buckets() const { return buckets_.size(); }
  /// Total records on this device.
  std::uint64_t num_records() const { return num_records_; }

 private:
  std::uint64_t id_;
  std::unordered_map<std::uint64_t, std::vector<RecordIndex>> buckets_;
  std::uint64_t num_records_ = 0;
};

}  // namespace fxdist

#endif  // FXDIST_SIM_DEVICE_H_
