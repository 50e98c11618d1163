#include "sim/packed_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <variant>

#include "core/bucket.h"
#include "sim/parallel_file.h"
#include "sim/persistence.h"

namespace fxdist {

// -- PackedBuilder ---------------------------------------------------------

struct PackedBuilder::Impl {
  std::string path;
  PackedOptions options;
  std::string blueprint;
  std::unique_ptr<StorageBackend> owned_router;
  const StorageBackend* router = nullptr;  ///< placement plane for Add
  std::optional<std::uint64_t> only_device;
  std::ofstream out;
  std::uint64_t write_off = packed::kHeaderSize;
  std::uint64_t next_id = 0;
  /// (device, linear) -> ascending record ids.  std::map keeps the
  /// directory's required (device, linear) order for free.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::uint64_t>>
      postings;
  std::vector<std::uint64_t> device_records;
  std::vector<ValueType> field_types;
  std::string pending;  ///< the record block being filled
  std::uint64_t pending_count = 0;
  std::vector<packed::BlockEntry> blocks;
  bool finished = false;

  Status OpenOutput(const std::string& file_path,
                    const PackedOptions& opts, std::uint64_t num_devices) {
    if (opts.records_per_block == 0 ||
        opts.records_per_block >
            std::numeric_limits<std::uint32_t>::max()) {
      return Status::InvalidArgument(
          "records_per_block must be in [1, 2^32)");
    }
    path = file_path;
    options = opts;
    device_records.assign(num_devices, 0);
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::NotFound("cannot create packed file: " + path);
    }
    const std::string placeholder(packed::kHeaderSize, '\0');
    out.write(placeholder.data(),
              static_cast<std::streamsize>(placeholder.size()));
    if (!out) return Status::Internal("write failed: " + path);
    return Status::OK();
  }

  Status WriteBytes(const std::string& bytes) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::Internal("write failed: " + path);
    write_off += bytes.size();
    return Status::OK();
  }

  Status FlushBlock() {
    if (pending_count == 0) return Status::OK();
    packed::BlockEntry entry;
    entry.offset = write_off;
    entry.clen = pending.size();
    entry.checksum = packed::Checksum(pending);
    FXDIST_RETURN_NOT_OK(WriteBytes(pending));
    blocks.push_back(entry);
    pending.clear();
    pending_count = 0;
    return Status::OK();
  }

  Status Add(const Record& record) {
    if (finished) {
      return Status::FailedPrecondition("packed builder already finished");
    }
    auto bucket = router->HashRecord(record);
    FXDIST_RETURN_NOT_OK(bucket.status());
    const std::uint64_t device = router->device_map().DeviceOf(*bucket);
    if (only_device.has_value() && device != *only_device) {
      return Status::OK();
    }
    const std::uint64_t linear = LinearIndex(router->spec(), *bucket);
    postings[{device, linear}].push_back(next_id);
    ++device_records[device];
    packed::EncodeRecord(pending, record);
    ++pending_count;
    ++next_id;
    if (pending_count == options.records_per_block) return FlushBlock();
    return Status::OK();
  }

  Status Finish() {
    if (finished) {
      return Status::FailedPrecondition("packed builder already finished");
    }
    if (field_types.empty()) {
      return Status::InvalidArgument(
          "cannot pack without field types (empty schema)");
    }
    FXDIST_RETURN_NOT_OK(FlushBlock());
    if (blocks.size() > std::numeric_limits<std::uint32_t>::max()) {
      return Status::InvalidArgument("too many record blocks");
    }

    packed::Directory directory;
    directory.device_records = device_records;
    directory.field_types = field_types;
    for (const auto& [key, ids] : postings) {
      const std::string block = packed::EncodePostings(ids);
      packed::BucketEntry entry;
      entry.device = key.first;
      entry.linear = key.second;
      entry.count = ids.size();
      entry.offset = write_off;
      entry.clen = block.size();
      entry.rlen = ids.size() * 8;
      entry.checksum = packed::Checksum(block);
      FXDIST_RETURN_NOT_OK(WriteBytes(block));
      directory.buckets.push_back(entry);
    }

    packed::Header header;
    header.num_devices = device_records.size();
    header.num_records = next_id;
    header.num_buckets = directory.buckets.size();
    header.records_per_block =
        static_cast<std::uint32_t>(options.records_per_block);
    header.num_record_blocks = static_cast<std::uint32_t>(blocks.size());

    const std::string directory_bytes = packed::EncodeDirectory(directory);
    header.directory_off = write_off;
    header.directory_len = directory_bytes.size();
    FXDIST_RETURN_NOT_OK(WriteBytes(directory_bytes));

    const std::string block_dir_bytes = packed::EncodeBlockDirectory(blocks);
    header.rblock_dir_off = write_off;
    header.rblock_dir_len = block_dir_bytes.size();
    FXDIST_RETURN_NOT_OK(WriteBytes(block_dir_bytes));

    header.blueprint_off = write_off;
    header.blueprint_len = blueprint.size();
    FXDIST_RETURN_NOT_OK(WriteBytes(blueprint));

    header.file_size = write_off;
    out.seekp(0);
    const std::string header_bytes = packed::EncodeHeader(header);
    out.write(header_bytes.data(),
              static_cast<std::streamsize>(header_bytes.size()));
    out.flush();
    if (!out) return Status::Internal("write failed: " + path);
    out.close();
    finished = true;
    return Status::OK();
  }
};

PackedBuilder::PackedBuilder(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PackedBuilder::PackedBuilder(PackedBuilder&&) noexcept = default;
PackedBuilder& PackedBuilder::operator=(PackedBuilder&&) noexcept = default;
PackedBuilder::~PackedBuilder() = default;

Result<PackedBuilder> PackedBuilder::Create(const Schema& schema,
                                            std::uint64_t num_devices,
                                            const std::string& distribution,
                                            std::uint64_t seed,
                                            const std::string& path,
                                            PackedOptions options) {
  auto router = ParallelFile::Create(schema, num_devices, distribution, seed);
  FXDIST_RETURN_NOT_OK(router.status());
  auto impl = std::make_unique<Impl>();
  impl->owned_router = std::make_unique<ParallelFile>(std::move(*router));
  impl->router = impl->owned_router.get();
  impl->blueprint = BackendBlueprintText(*impl->router);
  impl->field_types.reserve(schema.num_fields());
  for (unsigned i = 0; i < schema.num_fields(); ++i) {
    impl->field_types.push_back(schema.field(i).type);
  }
  FXDIST_RETURN_NOT_OK(impl->OpenOutput(path, options, num_devices));
  return PackedBuilder(std::move(impl));
}

Status PackedBuilder::Add(const Record& record) { return impl_->Add(record); }

Status PackedBuilder::Finish() { return impl_->Finish(); }

std::uint64_t PackedBuilder::records_added() const { return impl_->next_id; }

Result<std::uint64_t> PackBackend(const StorageBackend& source,
                                  const std::string& path,
                                  PackedOptions options,
                                  std::optional<std::uint64_t> only_device) {
  if (only_device.has_value() && *only_device >= source.num_devices()) {
    return Status::InvalidArgument("only_device outside the source's range");
  }
  auto impl = std::make_unique<PackedBuilder::Impl>();
  impl->router = &source;
  impl->blueprint = BackendBlueprintText(source);
  impl->field_types = source.FieldTypes();
  impl->only_device = only_device;
  FXDIST_RETURN_NOT_OK(
      impl->OpenOutput(path, options, source.num_devices()));
  Status failed;
  source.ForEachLiveRecord([&impl, &failed](const Record& record) {
    if (!failed.ok()) return;
    failed = impl->Add(record);
  });
  FXDIST_RETURN_NOT_OK(failed);
  FXDIST_RETURN_NOT_OK(impl->Finish());
  return impl->next_id;
}

// -- PackedBackend ---------------------------------------------------------

Result<std::unique_ptr<PackedBackend>> PackedBackend::Open(
    const std::string& path, PackedOptions options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open packed file: " + path);
  }
  struct ::stat info {};
  if (::fstat(fd, &info) != 0 || info.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat packed file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(info.st_size);
  std::unique_ptr<PackedBackend> backend(new PackedBackend());
  backend->path_ = path;
  void* mapping = size == 0
                      ? MAP_FAILED
                      : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping != MAP_FAILED) {
    backend->mapping_ = mapping;
    backend->data_ = static_cast<const char*>(mapping);
    backend->size_ = size;
  } else {
    // Filesystems without mmap support: degrade to a heap image.
    std::ifstream in(path, std::ios::binary);
    backend->owned_.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      return Status::Internal("cannot read packed file: " + path);
    }
    backend->data_ = backend->owned_.data();
    backend->size_ = backend->owned_.size();
  }
  FXDIST_RETURN_NOT_OK(backend->Init(options));
  return backend;
}

Result<std::unique_ptr<PackedBackend>> PackedBackend::OpenFromBuffer(
    std::string bytes, PackedOptions options) {
  std::unique_ptr<PackedBackend> backend(new PackedBackend());
  backend->path_ = "<buffer>";
  backend->owned_ = std::move(bytes);
  backend->data_ = backend->owned_.data();
  backend->size_ = backend->owned_.size();
  FXDIST_RETURN_NOT_OK(backend->Init(options));
  return backend;
}

PackedBackend::~PackedBackend() {
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
}

Status PackedBackend::Init(PackedOptions options) {
  options_ = options;
  if (options_.cache_blocks == 0) options_.cache_blocks = 1;

  auto header = packed::DecodeHeader(std::string_view(data_, size_));
  FXDIST_RETURN_NOT_OK(header.status());
  header_ = *header;

  auto directory = packed::DecodeDirectory(
      std::string_view(data_ + header_.directory_off, header_.directory_len),
      header_.file_size, header_.num_devices, header_.num_records,
      header_.num_buckets);
  FXDIST_RETURN_NOT_OK(directory.status());
  directory_ = std::move(*directory);

  auto blocks = packed::DecodeBlockDirectory(
      std::string_view(data_ + header_.rblock_dir_off,
                       header_.rblock_dir_len),
      header_.file_size, header_.num_record_blocks);
  FXDIST_RETURN_NOT_OK(blocks.status());
  blocks_ = std::move(*blocks);

  const std::string blueprint(data_ + header_.blueprint_off,
                              header_.blueprint_len);
  auto twin = BuildBackendFromBlueprintText(blueprint);
  if (!twin.ok()) {
    return Status::DataLoss("packed blueprint does not build: " +
                            twin.status().ToString());
  }
  twin_ = std::move(*twin);
  if (twin_->num_devices() != header_.num_devices ||
      twin_->spec().num_fields() != directory_.field_types.size()) {
    return Status::DataLoss(
        "packed blueprint disagrees with the directory shape");
  }
  const std::uint64_t total_buckets = twin_->spec().TotalBuckets();
  for (const packed::BucketEntry& entry : directory_.buckets) {
    if (entry.linear >= total_buckets) {
      return Status::DataLoss(
          "packed directory bucket outside the blueprint's bucket space");
    }
  }

  if (options_.verify_all_checksums) {
    for (const packed::BucketEntry& entry : directory_.buckets) {
      if (packed::Checksum(std::string_view(data_ + entry.offset,
                                            entry.clen)) != entry.checksum) {
        return Status::DataLoss("packed posting block checksum mismatch");
      }
    }
    for (const packed::BlockEntry& entry : blocks_) {
      if (packed::Checksum(std::string_view(data_ + entry.offset,
                                            entry.clen)) != entry.checksum) {
        return Status::DataLoss("packed record block checksum mismatch");
      }
    }
  }
  return Status::OK();
}

Status PackedBackend::Insert(Record record) {
  (void)record;
  return Status::FailedPrecondition(
      "packed backend is read-only; build a new file with PackedBuilder");
}

Result<std::uint64_t> PackedBackend::Delete(const ValueQuery& query) {
  (void)query;
  return Status::FailedPrecondition(
      "packed backend is read-only; build a new file with PackedBuilder");
}

Status PackedBackend::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

void PackedBackend::Poison(const Status& status) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (health_.ok()) health_ = status;
}

const packed::BucketEntry* PackedBackend::FindEntry(
    std::uint64_t device, std::uint64_t linear) const {
  const auto key = std::make_pair(device, linear);
  auto it = std::lower_bound(
      directory_.buckets.begin(), directory_.buckets.end(), key,
      [](const packed::BucketEntry& entry,
         const std::pair<std::uint64_t, std::uint64_t>& k) {
        return std::make_pair(entry.device, entry.linear) < k;
      });
  if (it == directory_.buckets.end() || it->device != device ||
      it->linear != linear) {
    return nullptr;
  }
  return &*it;
}

bool PackedBackend::IsBucketLive(std::uint64_t device,
                                 std::uint64_t linear_bucket) const {
  return FindEntry(device, linear_bucket) != nullptr;
}

std::uint64_t PackedBackend::BlockRecordCount(std::uint64_t index) const {
  const std::uint64_t per_block = header_.records_per_block;
  if (index + 1 < blocks_.size()) return per_block;
  return header_.num_records - index * per_block;
}

Result<std::shared_ptr<const std::vector<Record>>> PackedBackend::GetBlock(
    std::uint64_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    it->second.tick = ++tick_;
    return it->second.block;
  }
  const packed::BlockEntry& entry = blocks_[index];
  const std::string_view bytes(data_ + entry.offset, entry.clen);
  if (packed::Checksum(bytes) != entry.checksum) {
    return Status::DataLoss("packed record block " + std::to_string(index) +
                            " checksum mismatch");
  }
  auto block = std::make_shared<std::vector<Record>>();
  FXDIST_RETURN_NOT_OK(packed::DecodeRecordBlock(
      bytes, BlockRecordCount(index), directory_.field_types, block.get()));
  while (cache_.size() >= options_.cache_blocks) {
    auto victim = cache_.begin();
    for (auto c = cache_.begin(); c != cache_.end(); ++c) {
      if (c->second.tick < victim->second.tick) victim = c;
    }
    cache_.erase(victim);
  }
  CacheSlot& slot = cache_[index];
  slot.block = std::move(block);
  slot.tick = ++tick_;
  return slot.block;
}

Status PackedBackend::ScanEntry(
    const packed::BucketEntry& entry,
    const std::function<bool(const Record&)>& fn) const {
  const std::string_view bytes(data_ + entry.offset, entry.clen);
  std::vector<std::uint64_t> ids;
  Status decoded;
  if (packed::Checksum(bytes) != entry.checksum) {
    decoded = Status::DataLoss(
        "packed posting block checksum mismatch (device " +
        std::to_string(entry.device) + ", bucket " +
        std::to_string(entry.linear) + ")");
  } else {
    decoded =
        packed::DecodePostings(bytes, entry.count, header_.num_records, &ids);
  }
  if (!decoded.ok()) {
    Poison(decoded);
    return decoded;
  }
  // Ids are ascending, so consecutive ids usually share a block: hold the
  // current block's shared_ptr so eviction can't pull it out from under
  // the callback.
  std::shared_ptr<const std::vector<Record>> block;
  std::uint64_t block_index = std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t id : ids) {
    const std::uint64_t needed = id / header_.records_per_block;
    if (needed != block_index || block == nullptr) {
      auto got = GetBlock(needed);
      if (!got.ok()) {
        Poison(got.status());
        return got.status();
      }
      block = std::move(*got);
      block_index = needed;
    }
    if (!fn((*block)[id % header_.records_per_block])) return Status::OK();
  }
  return Status::OK();
}

void PackedBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const Record&)>& fn) const {
  if (!Health().ok()) return;  // poisoned: visit nothing, like remote
  const packed::BucketEntry* entry = FindEntry(device, linear_bucket);
  if (entry == nullptr) return;
  (void)ScanEntry(*entry, fn);
}

void PackedBackend::SaveParams(std::ostream& out) const {
  out << "child " << twin_->backend_name() << '\n';
  twin_->SaveParams(out);
}

void PackedBackend::ForEachLiveRecord(
    const std::function<void(const Record&)>& fn) const {
  // Sequential block decode straight off the mapping — no cache churn.
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    const packed::BlockEntry& entry = blocks_[b];
    const std::string_view bytes(data_ + entry.offset, entry.clen);
    if (packed::Checksum(bytes) != entry.checksum) {
      Poison(Status::DataLoss("packed record block " + std::to_string(b) +
                              " checksum mismatch"));
      return;
    }
    std::vector<Record> records;
    const Status decoded = packed::DecodeRecordBlock(
        bytes, BlockRecordCount(b), directory_.field_types, &records);
    if (!decoded.ok()) {
      Poison(decoded);
      return;
    }
    for (const Record& record : records) fn(record);
  }
}

namespace {

/// Pages of the mapping the kernel actually keeps resident — the true
/// cost of the lazily-faulted image.  Heap fallbacks pay for everything.
std::uint64_t ResidentImageBytes(const void* mapping, std::size_t size,
                                 const std::string& owned) {
  if (mapping == nullptr) return owned.size();
#if defined(__linux__)
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) {
    const std::size_t page_size = static_cast<std::size_t>(page);
    const std::size_t pages = (size + page_size - 1) / page_size;
    std::vector<unsigned char> resident(pages, 0);
    if (::mincore(const_cast<void*>(mapping), size, resident.data()) == 0) {
      std::uint64_t bytes = 0;
      for (unsigned char r : resident) {
        if ((r & 1u) != 0) bytes += page_size;
      }
      return bytes;
    }
  }
#endif
  return size;
}

}  // namespace

std::uint64_t PackedBackend::ApproxMemoryBytes() const {
  std::uint64_t bytes = sizeof(*this);
  bytes += directory_.buckets.capacity() * sizeof(packed::BucketEntry);
  bytes += directory_.device_records.capacity() * sizeof(std::uint64_t);
  bytes += directory_.field_types.capacity() * sizeof(ValueType);
  bytes += blocks_.capacity() * sizeof(packed::BlockEntry);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [index, slot] : cache_) {
      (void)index;
      bytes += sizeof(slot) + slot.block->capacity() * sizeof(Record);
      for (const Record& record : *slot.block) {
        bytes += ApproxRecordBytes(record) - sizeof(Record);
      }
    }
  }
  bytes += ResidentImageBytes(mapping_, size_, owned_);
  return bytes;
}

}  // namespace fxdist
