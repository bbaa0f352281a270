#include "io/ensemble_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

#include "io/coding.h"
#include "io/crc32c.h"
#include "io/file.h"
#include "io/snapshot.h"

namespace lshensemble {

namespace {

constexpr uint32_t kMagic = 0x4C534845u;  // "EHSL" little-endian = "LSHE"

enum BlockType : uint8_t {
  kBlockOptions = 1,
  kBlockPartitions = 2,
  kBlockForest = 3,
  kBlockEnd = 0xFF,
};

void AppendBlock(std::string* out, BlockType type, std::string_view payload) {
  out->push_back(static_cast<char>(type));
  PutVarint64(out, payload.size());
  out->append(payload);
  PutFixed32(out, crc32c::Mask(crc32c::Value(payload)));
}

Status ReadBlock(DecodeCursor* cursor, uint8_t* type,
                 std::string_view* payload) {
  std::string_view type_byte;
  if (!cursor->GetRaw(1, &type_byte)) {
    return Status::Corruption("index image: truncated block header");
  }
  *type = static_cast<uint8_t>(type_byte[0]);
  if (!cursor->GetLengthPrefixed(payload)) {
    return Status::Corruption("index image: truncated block payload");
  }
  uint32_t stored_crc = 0;
  if (!cursor->GetFixed32(&stored_crc)) {
    return Status::Corruption("index image: truncated block checksum");
  }
  if (crc32c::Unmask(stored_crc) != crc32c::Value(*payload)) {
    return Status::Corruption("index image: block checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

/// Grants the save/load path access to the ensemble's internals; declared
/// a friend in core/lsh_ensemble.h.
class EnsembleSerializer {
 public:
  static Status Serialize(const LshEnsemble& ensemble, std::string* out) {
    out->clear();
    PutFixed32(out, kMagic);
    PutFixed32(out, kEnsembleFormatVersion);

    std::string payload;
    const LshEnsembleOptions& options = ensemble.options_;
    PutVarint32(&payload, static_cast<uint32_t>(options.num_partitions));
    PutVarint32(&payload, static_cast<uint32_t>(options.num_hashes));
    PutVarint32(&payload, static_cast<uint32_t>(options.tree_depth));
    payload.push_back(static_cast<char>(options.strategy));
    PutFixed64(&payload, std::bit_cast<uint64_t>(options.interpolation_lambda));
    PutVarint32(&payload, static_cast<uint32_t>(options.integration_nodes));
    payload.push_back(options.prune_unreachable_partitions ? 1 : 0);
    payload.push_back(options.parallel_build ? 1 : 0);
    payload.push_back(0);  // reserved: written 0, ignored on read
    PutFixed64(&payload, ensemble.family_->seed());
    PutVarint64(&payload, ensemble.total_);
    AppendBlock(out, kBlockOptions, payload);

    payload.clear();
    PutVarint64(&payload, ensemble.specs_.size());
    for (const PartitionSpec& spec : ensemble.specs_) {
      PutVarint64(&payload, spec.lower);
      PutVarint64(&payload, spec.upper);
      PutVarint64(&payload, spec.count);
    }
    AppendBlock(out, kBlockPartitions, payload);

    for (const LshForest& forest : ensemble.forests_) {
      payload.clear();
      LSHE_RETURN_IF_ERROR(forest.SerializeTo(&payload));
      AppendBlock(out, kBlockForest, payload);
    }

    AppendBlock(out, kBlockEnd, {});
    return Status::OK();
  }

  static Result<LshEnsemble> Deserialize(std::string_view image) {
    DecodeCursor cursor(image);
    uint32_t magic = 0;
    uint32_t version = 0;
    if (!cursor.GetFixed32(&magic) || !cursor.GetFixed32(&version)) {
      return Status::Corruption("index image: truncated file header");
    }
    if (magic != kMagic) {
      return Status::Corruption("index image: bad magic (not an index file)");
    }
    if (version == 0) {
      return Status::Corruption("index image: version 0 is never written");
    }
    if (version > kEnsembleFormatVersion) {
      return Status::NotSupported("index image: written by a newer version");
    }

    LshEnsembleOptions options;
    uint64_t seed = 0;
    uint64_t total = 0;
    bool saw_options = false;
    bool saw_partitions = false;
    bool saw_end = false;
    std::vector<PartitionSpec> specs;
    std::vector<LshForest> forests;

    while (!saw_end) {
      uint8_t type = 0;
      std::string_view payload;
      LSHE_RETURN_IF_ERROR(ReadBlock(&cursor, &type, &payload));
      DecodeCursor body(payload);
      switch (type) {
        case kBlockOptions: {
          uint32_t num_partitions = 0, num_hashes = 0, tree_depth = 0;
          uint32_t integration_nodes = 0;
          std::string_view flags;
          uint64_t lambda_bits = 0;
          std::string_view strategy_byte;
          if (!body.GetVarint32(&num_partitions) ||
              !body.GetVarint32(&num_hashes) ||
              !body.GetVarint32(&tree_depth) ||
              !body.GetRaw(1, &strategy_byte) ||
              !body.GetFixed64(&lambda_bits) ||
              !body.GetVarint32(&integration_nodes) ||
              !body.GetRaw(3, &flags) || !body.GetFixed64(&seed) ||
              !body.GetVarint64(&total) || !body.empty()) {
            return Status::Corruption("index image: malformed options block");
          }
          options.num_partitions = static_cast<int>(num_partitions);
          options.num_hashes = static_cast<int>(num_hashes);
          options.tree_depth = static_cast<int>(tree_depth);
          const auto strategy = static_cast<uint8_t>(strategy_byte[0]);
          if (strategy > static_cast<uint8_t>(
                             PartitioningStrategy::kMinimaxCost)) {
            return Status::Corruption("index image: unknown strategy");
          }
          options.strategy = static_cast<PartitioningStrategy>(strategy);
          options.interpolation_lambda = std::bit_cast<double>(lambda_bits);
          options.integration_nodes = static_cast<int>(integration_nodes);
          options.prune_unreachable_partitions = flags[0] != 0;
          options.parallel_build = flags[1] != 0;
          // flags[2] is reserved (a retired query-parallelism flag): any
          // value loads.
          LSHE_RETURN_IF_ERROR(options.Validate());
          saw_options = true;
          break;
        }
        case kBlockPartitions: {
          // Bound the count by what the payload could possibly hold
          // (>= 3 bytes per spec) before resizing, so a crafted count
          // fails cheaply instead of allocating gigabytes first.
          uint64_t count = 0;
          if (!body.GetVarint64(&count) || count > payload.size() / 3) {
            return Status::Corruption(
                "index image: malformed partitions block");
          }
          specs.resize(count);
          for (PartitionSpec& spec : specs) {
            uint64_t spec_count = 0;
            if (!body.GetVarint64(&spec.lower) ||
                !body.GetVarint64(&spec.upper) ||
                !body.GetVarint64(&spec_count) || spec.lower >= spec.upper) {
              return Status::Corruption("index image: malformed partition");
            }
            spec.count = spec_count;
          }
          if (!body.empty()) {
            return Status::Corruption(
                "index image: trailing partition bytes");
          }
          saw_partitions = true;
          break;
        }
        case kBlockForest: {
          auto forest = LshForest::Deserialize(payload);
          if (!forest.ok()) return forest.status();
          forests.push_back(std::move(forest).value());
          break;
        }
        case kBlockEnd:
          if (!body.empty()) {
            return Status::Corruption("index image: non-empty end block");
          }
          saw_end = true;
          break;
        default:
          return Status::Corruption("index image: unknown block type");
      }
    }
    if (!cursor.empty()) {
      return Status::Corruption("index image: data after end block");
    }
    if (!saw_options || !saw_partitions) {
      return Status::Corruption("index image: missing required blocks");
    }
    if (forests.size() != specs.size()) {
      return Status::Corruption(
          "index image: partition/forest count mismatch");
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      if (forests[i].size() != specs[i].count) {
        return Status::Corruption(
            "index image: partition count does not match forest size");
      }
    }

    std::shared_ptr<const HashFamily> family;
    LSHE_ASSIGN_OR_RETURN(family,
                          HashFamily::Create(options.num_hashes, seed));
    LshEnsemble ensemble(options, std::move(family));
    ensemble.specs_ = std::move(specs);
    ensemble.forests_ = std::move(forests);
    ensemble.total_ = total;

    Tuner::Options tuner_options;
    tuner_options.max_b = options.num_hashes / options.tree_depth;
    tuner_options.max_r = options.tree_depth;
    tuner_options.integration_nodes = options.integration_nodes;
    LSHE_ASSIGN_OR_RETURN(ensemble.tuner_, Tuner::Create(tuner_options));
    // v1 images predate the probe-filter tier; rebuild it from the
    // decoded forests (per options.build_probe_filter) so v1-loaded
    // engines prune like built ones — and a v1 -> v2 snapshot
    // conversion writes filter segments.
    ensemble.RebuildProbeFilters();
    return ensemble;
  }
};

Status SerializeEnsemble(const LshEnsemble& ensemble, std::string* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  return EnsembleSerializer::Serialize(ensemble, out);
}

namespace {

/// Version of the 8-byte header shared by v1 images and v2 snapshots
/// (0 when the buffer is too short or carries a foreign magic).
uint32_t PeekVersion(std::string_view image) {
  DecodeCursor cursor(image);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!cursor.GetFixed32(&magic) || !cursor.GetFixed32(&version) ||
      magic != kMagic) {
    return 0;
  }
  return version;
}

}  // namespace

Result<LshEnsemble> DeserializeEnsemble(std::string_view image) {
  if (PeekVersion(image) == kSnapshotFormatVersion) {
    // A v2 snapshot image: validate and borrow arenas from an adopted
    // copy of the buffer (the caller's view need not outlive the engine).
    std::shared_ptr<const MappedSnapshot> snapshot;
    LSHE_ASSIGN_OR_RETURN(snapshot,
                          MappedSnapshot::FromBuffer(std::string(image)));
    return EnsembleFromSnapshot(std::move(snapshot));
  }
  return EnsembleSerializer::Deserialize(image);
}

Status SaveEnsemble(const LshEnsemble& ensemble, const std::string& path,
                    Env* env) {
  std::string image;
  LSHE_RETURN_IF_ERROR(SerializeEnsemble(ensemble, &image));
  return WriteFileAtomic(env != nullptr ? env : Env::Default(), path, image);
}

Result<LshEnsemble> LoadEnsemble(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  // Version-dispatched: v2 snapshots open via mmap with zero arena
  // copies; v1 images decode through the copying path. Both formats
  // share the 8-byte header, so peeking it picks the loader.
  std::string head;
  {
    // Peek through a mapping, not a full read: only the header page
    // faults in, so picking the loader stays O(1) for huge v2 images.
    auto mapped = env->OpenMapped(path);
    if (mapped.ok()) {
      const std::string_view data = mapped.value().data();
      head.assign(data.substr(0, std::min<size_t>(8, data.size())));
    }
  }
  if (PeekVersion(head) == kSnapshotFormatVersion) {
    SnapshotOpenOptions open_options;
    open_options.env = env;
    return OpenEnsembleMapped(path, open_options);
  }
  std::string image;
  LSHE_RETURN_IF_ERROR(env->ReadFileToString(path, &image));
  return DeserializeEnsemble(image);
}

}  // namespace lshensemble
