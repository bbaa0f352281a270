#include "io/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <unordered_set>

#include "filter/probe_filter.h"
#include "io/coding.h"
#include "io/crc32c.h"

namespace lshensemble {

// Segments are raw in-memory arrays written verbatim; the format is
// defined as little-endian (like every other encoding in io/).
static_assert(std::endian::native == std::endian::little,
              "v2 snapshots require a little-endian host");

namespace {

constexpr uint32_t kMagic = 0x4C534845u;  // "LSHE", shared with v1 images
constexpr size_t kHeaderBytes = 64;
constexpr size_t kFooterBytes = 20;
constexpr size_t kSegmentAlignment = 64;

}  // namespace

/// Grants the snapshot writer/opener access to engine internals; declared
/// a friend in core/lsh_ensemble.h, core/dynamic_ensemble.h and the
/// MappedSnapshot class itself.
class SnapshotIO {
 public:
  using SegRef = MappedSnapshot::SegRef;
  using ForestRef = MappedSnapshot::ForestRef;
  using RecordsRef = MappedSnapshot::RecordsRef;
  using FilterRef = MappedSnapshot::FilterRef;

  // --------------------------------------------------- encoding helpers

  /// Pad `out` with zeros to the segment alignment, append `bytes` raw
  /// bytes, and return the segment's reference (offset, length, CRC).
  static SegRef AppendSegment(std::string* out, const void* data,
                              size_t bytes) {
    while (out->size() % kSegmentAlignment != 0) out->push_back('\0');
    SegRef ref;
    ref.offset = out->size();
    ref.length = bytes;
    ref.crc = crc32c::Mask(crc32c::Extend(0, data, bytes));
    if (bytes > 0) out->append(static_cast<const char*>(data), bytes);
    return ref;
  }

  static void PutSegRef(std::string* out, const SegRef& ref) {
    PutFixed64(out, ref.offset);
    PutFixed64(out, ref.length);
    PutFixed32(out, ref.crc);
  }

  static bool GetSegRef(DecodeCursor* cursor, SegRef* ref) {
    return cursor->GetFixed64(&ref->offset) &&
           cursor->GetFixed64(&ref->length) && cursor->GetFixed32(&ref->crc);
  }

  static SegRef AppendU64Segment(std::string* out,
                                 std::span<const uint64_t> values) {
    return AppendSegment(out, values.data(),
                         values.size() * sizeof(uint64_t));
  }

  static void PutRecordsRef(std::string* out, const RecordsRef& ref) {
    PutVarint64(out, ref.n);
    PutSegRef(out, ref.ids);
    PutSegRef(out, ref.sizes);
    PutSegRef(out, ref.signatures);
  }

  static bool GetRecordsRef(DecodeCursor* cursor, RecordsRef* ref) {
    return cursor->GetVarint64(&ref->n) && GetSegRef(cursor, &ref->ids) &&
           GetSegRef(cursor, &ref->sizes) &&
           GetSegRef(cursor, &ref->signatures);
  }

  static void PutFilterRef(std::string* out, const FilterRef& ref) {
    PutVarint64(out, ref.num_blocks);
    PutSegRef(out, ref.blocks);
  }

  static bool GetFilterRef(DecodeCursor* cursor, FilterRef* ref) {
    // The fast-range block pick multiplies a 32-bit hash slice by the
    // block count in 64 bits; bound it so the product cannot overflow
    // (2^31 blocks is a 64 GiB filter — far past any real image).
    return cursor->GetVarint64(&ref->num_blocks) &&
           GetSegRef(cursor, &ref->blocks) && ref->num_blocks >= 1 &&
           ref->num_blocks <= (uint64_t{1} << 31);
  }

  // ------------------------------------------------------------- writing

  /// Append the fixed header, returning nothing; segments follow.
  static void AppendHeader(std::string* out) {
    PutFixed32(out, kMagic);
    PutFixed32(out, kSnapshotFormatVersion);
    out->resize(kHeaderBytes, '\0');
  }

  /// Append one forest's four arena segments and record their refs.
  /// Validates the entry permutation here, at write time: the mapped open
  /// trusts the manifest's per-forest bound (n) and Probe clamps at its
  /// single entry-read site, so opening never rescans the entry segments.
  static Result<ForestRef> AppendForest(std::string* out,
                                        const LshForest& forest) {
    const auto entries = forest.entry_arena();
    for (const uint32_t entry : entries) {
      if (entry >= forest.size()) {
        return Status::Internal(
            "snapshot: forest entry index out of range at write time");
      }
    }
    ForestRef ref;
    ref.num_trees = forest.num_trees();
    ref.tree_depth = forest.tree_depth();
    ref.n = forest.size();
    ref.ids = AppendU64Segment(out, forest.id_array());
    const auto keys = forest.key_arena();
    ref.keys = AppendSegment(out, keys.data(), keys.size_bytes());
    ref.entries = AppendSegment(out, entries.data(), entries.size_bytes());
    const auto first = forest.first_key_arena();
    ref.first_keys = AppendSegment(out, first.data(), first.size_bytes());
    return ref;
  }

  /// Append one probe filter's block segment and record its ref.
  static FilterRef AppendFilter(std::string* out, const ProbeFilter& filter) {
    FilterRef ref;
    ref.num_blocks = filter.num_blocks();
    const auto blocks = filter.blocks();
    ref.blocks = AppendSegment(out, blocks.data(), blocks.size_bytes());
    return ref;
  }

  /// Append the probe-filter segments of `ensemble` (engine union first,
  /// then one per forest, in file order right after the forest arenas).
  /// Returns false — and appends nothing — when the ensemble carries no
  /// filters, which keeps the image byte-identical to the pre-filter
  /// format.
  static bool AppendFilters(std::string* out, const LshEnsemble& ensemble,
                            FilterRef* engine_filter,
                            std::vector<FilterRef>* forest_filters) {
    if (ensemble.filters_.empty() || ensemble.engine_filter_.empty()) {
      return false;
    }
    *engine_filter = AppendFilter(out, ensemble.engine_filter_);
    forest_filters->reserve(ensemble.filters_.size());
    for (const ProbeFilter& filter : ensemble.filters_) {
      forest_filters->push_back(AppendFilter(out, filter));
    }
    return true;
  }

  /// Append the manifest + footer. `forests` parallels `ensemble`'s
  /// partitions when `ensemble` is non-null.
  static void AppendManifestAndFooter(std::string* out,
                                      const LshEnsembleOptions& options,
                                      uint64_t seed, uint64_t total,
                                      const std::vector<PartitionSpec>& specs,
                                      const std::vector<ForestRef>& forests,
                                      const RecordsRef* indexed,
                                      const RecordsRef* delta,
                                      uint64_t tombstone_n,
                                      const SegRef* tombstones,
                                      const FilterRef* engine_filter = nullptr,
                                      const std::vector<FilterRef>*
                                          forest_filters = nullptr) {
    const size_t manifest_offset = out->size();
    std::string manifest;
    PutVarint32(&manifest, static_cast<uint32_t>(options.num_partitions));
    PutVarint32(&manifest, static_cast<uint32_t>(options.num_hashes));
    PutVarint32(&manifest, static_cast<uint32_t>(options.tree_depth));
    manifest.push_back(static_cast<char>(options.strategy));
    PutFixed64(&manifest,
               std::bit_cast<uint64_t>(options.interpolation_lambda));
    PutVarint32(&manifest, static_cast<uint32_t>(options.integration_nodes));
    manifest.push_back(options.prune_unreachable_partitions ? 1 : 0);
    manifest.push_back(options.parallel_build ? 1 : 0);
    manifest.push_back(0);  // reserved: written 0, ignored on read
    PutFixed64(&manifest, seed);
    PutVarint64(&manifest, total);

    PutVarint64(&manifest, specs.size());
    for (const PartitionSpec& spec : specs) {
      PutVarint64(&manifest, spec.lower);
      PutVarint64(&manifest, spec.upper);
      PutVarint64(&manifest, spec.count);
    }

    manifest.push_back(forests.empty() ? 0 : 1);  // has_ensemble
    if (!forests.empty()) {
      PutVarint64(&manifest, forests.size());
      for (const ForestRef& forest : forests) {
        PutVarint32(&manifest, static_cast<uint32_t>(forest.num_trees));
        PutVarint32(&manifest, static_cast<uint32_t>(forest.tree_depth));
        PutVarint64(&manifest, forest.n);
        PutSegRef(&manifest, forest.ids);
        PutSegRef(&manifest, forest.keys);
        PutSegRef(&manifest, forest.entries);
        PutSegRef(&manifest, forest.first_keys);
      }
    }

    manifest.push_back(indexed != nullptr ? 1 : 0);  // has_sidecar
    if (indexed != nullptr) {
      PutRecordsRef(&manifest, *indexed);
      PutRecordsRef(&manifest, *delta);
      PutVarint64(&manifest, tombstone_n);
      PutSegRef(&manifest, *tombstones);
    }

    // Optional trailing section: the probe-filter table. A filterless
    // image appends nothing here — not even a flag byte — so it stays
    // byte-identical to the pre-filter format, and pre-filter readers'
    // "trailing manifest bytes" check keeps rejecting filtered images
    // instead of misparsing them.
    if (engine_filter != nullptr) {
      manifest.push_back(1);  // has_filters
      PutFilterRef(&manifest, *engine_filter);
      PutVarint64(&manifest, forest_filters->size());
      for (const FilterRef& filter : *forest_filters) {
        PutFilterRef(&manifest, filter);
      }
    }

    out->append(manifest);
    PutFixed64(out, manifest_offset);
    PutFixed32(out, static_cast<uint32_t>(manifest.size()));
    PutFixed32(out, crc32c::Mask(crc32c::Value(manifest)));
    PutFixed32(out, kMagic);
  }

  static Status SerializeEnsemble(const LshEnsemble& ensemble,
                                  std::string* out) {
    out->clear();
    AppendHeader(out);
    std::vector<ForestRef> forests;
    forests.reserve(ensemble.forests_.size());
    for (const LshForest& forest : ensemble.forests_) {
      if (!forest.indexed()) {
        return Status::FailedPrecondition(
            "only an indexed forest can be snapshotted");
      }
      ForestRef ref;
      LSHE_ASSIGN_OR_RETURN(ref, AppendForest(out, forest));
      forests.push_back(ref);
    }
    FilterRef engine_filter;
    std::vector<FilterRef> forest_filters;
    const bool has_filters =
        AppendFilters(out, ensemble, &engine_filter, &forest_filters);
    AppendManifestAndFooter(out, ensemble.options_,
                            ensemble.family_->seed(), ensemble.total_,
                            ensemble.specs_, forests, nullptr, nullptr, 0,
                            nullptr, has_filters ? &engine_filter : nullptr,
                            has_filters ? &forest_filters : nullptr);
    return Status::OK();
  }

  static Status SerializeDynamic(const DynamicLshEnsemble& index,
                                 std::string* out) {
    out->clear();
    AppendHeader(out);

    const bool has_ensemble = index.ensemble_.has_value();
    std::vector<ForestRef> forests;
    LshEnsembleOptions options =
        has_ensemble ? index.ensemble_->options_ : index.options_.base;
    options.pinned_partitions.clear();  // never serialized (see options doc)
    std::vector<PartitionSpec> specs;
    uint64_t total = 0;
    FilterRef engine_filter;
    std::vector<FilterRef> forest_filters;
    bool has_filters = false;
    if (has_ensemble) {
      specs = index.ensemble_->specs_;
      total = index.ensemble_->total_;
      forests.reserve(index.ensemble_->forests_.size());
      for (const LshForest& forest : index.ensemble_->forests_) {
        ForestRef ref;
        LSHE_ASSIGN_OR_RETURN(ref, AppendForest(out, forest));
        forests.push_back(ref);
      }
      has_filters = AppendFilters(out, *index.ensemble_, &engine_filter,
                                  &forest_filters);
    }

    // Indexed side-car: every live domain that is NOT in the delta —
    // heap records minus the delta set, plus (for a re-snapshot of a
    // mapped index) the still-live mapped records. Sorted by id, so the
    // reopened index can binary-search it. The two sources are disjoint:
    // a mapped index's records_ holds only overlay (delta) records.
    const std::unordered_set<uint64_t> delta_set(index.delta_.begin(),
                                                 index.delta_.end());
    std::vector<uint64_t> indexed_ids;
    for (const auto& [id, record] : index.records_) {
      if (delta_set.count(id) == 0) indexed_ids.push_back(id);
    }
    for (size_t i = 0; i < index.mapped_.n; ++i) {
      const uint64_t id = index.mapped_.ids[i];
      if (index.tombstones_.count(id) == 0) indexed_ids.push_back(id);
    }
    std::sort(indexed_ids.begin(), indexed_ids.end());

    const auto m = static_cast<size_t>(index.family_->num_hashes());
    auto append_records = [&](const std::vector<uint64_t>& ids,
                              RecordsRef* ref) {
      std::vector<uint64_t> sizes;
      std::vector<uint64_t> signatures;
      sizes.reserve(ids.size());
      signatures.reserve(ids.size() * m);
      for (const uint64_t id : ids) {
        const auto it = index.records_.find(id);
        if (it != index.records_.end()) {
          sizes.push_back(it->second.size);
          const auto& values = it->second.signature.values();
          signatures.insert(signatures.end(), values.begin(), values.end());
        } else {
          const size_t pos = index.MappedFind(id);
          sizes.push_back(index.mapped_.sizes[pos]);
          const uint64_t* row = index.mapped_.signatures + pos * m;
          signatures.insert(signatures.end(), row, row + m);
        }
      }
      ref->n = ids.size();
      ref->ids = AppendU64Segment(out, ids);
      ref->sizes = AppendU64Segment(out, sizes);
      ref->signatures = AppendU64Segment(out, signatures);
    };

    RecordsRef indexed;
    append_records(indexed_ids, &indexed);
    // Delta records keep their delta order: the reopened index must scan
    // them in the same order to stay bit-identical with this one.
    RecordsRef delta;
    append_records(index.delta_, &delta);

    std::vector<uint64_t> tombstones(index.tombstones_.begin(),
                                     index.tombstones_.end());
    std::sort(tombstones.begin(), tombstones.end());
    const SegRef tombstone_seg = AppendU64Segment(out, tombstones);

    AppendManifestAndFooter(out, options, index.family_->seed(), total,
                            specs, forests, &indexed, &delta,
                            tombstones.size(), &tombstone_seg,
                            has_filters ? &engine_filter : nullptr,
                            has_filters ? &forest_filters : nullptr);
    return Status::OK();
  }

  // ------------------------------------------------------------- opening

  /// Validate the file structure and parse the manifest into `snapshot`
  /// (whose data_ must already view the image).
  static Status Parse(MappedSnapshot* snapshot,
                      const SnapshotOpenOptions& options) {
    const std::string_view data = snapshot->data_;
    if (data.size() < kHeaderBytes + kFooterBytes) {
      return Status::Corruption("snapshot: file too small");
    }
    DecodeCursor header(data.substr(0, kHeaderBytes));
    uint32_t magic = 0;
    uint32_t version = 0;
    header.GetFixed32(&magic);
    header.GetFixed32(&version);
    if (magic != kMagic) {
      return Status::Corruption("snapshot: bad magic (not an index file)");
    }
    if (version > kSnapshotFormatVersion) {
      return Status::NotSupported("snapshot: written by a newer version");
    }
    if (version != kSnapshotFormatVersion) {
      return Status::Corruption("snapshot: not a v2 image");
    }
    for (size_t i = 8; i < kHeaderBytes; ++i) {
      if (data[i] != '\0') {
        return Status::Corruption("snapshot: non-zero header padding");
      }
    }

    DecodeCursor footer(data.substr(data.size() - kFooterBytes));
    uint64_t manifest_offset = 0;
    uint32_t manifest_length = 0;
    uint32_t manifest_crc = 0;
    uint32_t footer_magic = 0;
    footer.GetFixed64(&manifest_offset);
    footer.GetFixed32(&manifest_length);
    footer.GetFixed32(&manifest_crc);
    footer.GetFixed32(&footer_magic);
    if (footer_magic != kMagic) {
      return Status::Corruption("snapshot: bad footer magic");
    }
    // Overflow-safe: subtract from the (known >= 84) file size instead of
    // summing attacker-chosen fields, so a crafted offset cannot wrap the
    // check and push substr() out of bounds.
    if (manifest_offset < kHeaderBytes ||
        manifest_offset > data.size() - kFooterBytes ||
        manifest_length != data.size() - kFooterBytes - manifest_offset) {
      return Status::Corruption("snapshot: manifest extent out of bounds");
    }
    // The manifest parse below touches every manifest/footer page; tell
    // the pager to start faulting them in now (no-op for buffer-backed
    // images and off POSIX — Advise checks is_mapped()).
    if (options.apply_madvise) {
      snapshot->file_.Advise(manifest_offset, data.size() - manifest_offset,
                             MappedFile::Advice::kWillNeed);
    }
    const std::string_view manifest =
        data.substr(manifest_offset, manifest_length);
    if (crc32c::Unmask(manifest_crc) != crc32c::Value(manifest)) {
      return Status::Corruption("snapshot: manifest checksum mismatch");
    }

    LSHE_RETURN_IF_ERROR(ParseManifest(snapshot, manifest));
    LSHE_RETURN_IF_ERROR(ValidateSegments(snapshot, manifest_offset));
    if (options.verify_checksums) {
      // The verification sweep reads every segment byte front-to-back
      // exactly once: ask for aggressive sequential readahead over the
      // segment region for its duration, then reset to the default policy
      // so serving probes (random access) keep normal readahead.
      const bool hint = options.apply_madvise && manifest_offset > kHeaderBytes;
      if (hint) {
        snapshot->file_.Advise(kHeaderBytes, manifest_offset - kHeaderBytes,
                               MappedFile::Advice::kSequential);
      }
      const Status status = VerifySegmentChecksums(snapshot);
      if (hint) {
        snapshot->file_.Advise(kHeaderBytes, manifest_offset - kHeaderBytes,
                               MappedFile::Advice::kNormal);
      }
      LSHE_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  static Status ParseManifest(MappedSnapshot* snapshot,
                              std::string_view manifest) {
    DecodeCursor body(manifest);
    uint32_t num_partitions = 0, num_hashes = 0, tree_depth = 0;
    uint32_t integration_nodes = 0;
    uint64_t lambda_bits = 0;
    std::string_view strategy_byte, flags;
    if (!body.GetVarint32(&num_partitions) || !body.GetVarint32(&num_hashes) ||
        !body.GetVarint32(&tree_depth) || !body.GetRaw(1, &strategy_byte) ||
        !body.GetFixed64(&lambda_bits) ||
        !body.GetVarint32(&integration_nodes) || !body.GetRaw(3, &flags) ||
        !body.GetFixed64(&snapshot->seed_) ||
        !body.GetVarint64(&snapshot->total_)) {
      return Status::Corruption("snapshot: malformed options");
    }
    LshEnsembleOptions& options = snapshot->options_;
    options.num_partitions = static_cast<int>(num_partitions);
    options.num_hashes = static_cast<int>(num_hashes);
    options.tree_depth = static_cast<int>(tree_depth);
    const auto strategy = static_cast<uint8_t>(strategy_byte[0]);
    if (strategy > static_cast<uint8_t>(PartitioningStrategy::kMinimaxCost)) {
      return Status::Corruption("snapshot: unknown strategy");
    }
    options.strategy = static_cast<PartitioningStrategy>(strategy);
    options.interpolation_lambda = std::bit_cast<double>(lambda_bits);
    options.integration_nodes = static_cast<int>(integration_nodes);
    options.prune_unreachable_partitions = flags[0] != 0;
    options.parallel_build = flags[1] != 0;
    // flags[2] is reserved (a retired query-parallelism flag): any value
    // opens.
    LSHE_RETURN_IF_ERROR(options.Validate());

    // Bound the count by what the manifest could possibly hold (>= 3
    // bytes per spec) BEFORE resizing: a crafted count must fail cheaply,
    // not allocate gigabytes first.
    uint64_t spec_count = 0;
    if (!body.GetVarint64(&spec_count) ||
        spec_count > manifest.size() / 3) {
      return Status::Corruption("snapshot: malformed partitions");
    }
    snapshot->specs_.resize(spec_count);
    for (PartitionSpec& spec : snapshot->specs_) {
      uint64_t count = 0;
      if (!body.GetVarint64(&spec.lower) || !body.GetVarint64(&spec.upper) ||
          !body.GetVarint64(&count) || spec.lower >= spec.upper) {
        return Status::Corruption("snapshot: malformed partition");
      }
      spec.count = count;
    }

    std::string_view flag;
    if (!body.GetRaw(1, &flag)) {
      return Status::Corruption("snapshot: truncated ensemble flag");
    }
    snapshot->has_ensemble_ = flag[0] != 0;
    if (snapshot->has_ensemble_) {
      uint64_t forest_count = 0;
      if (!body.GetVarint64(&forest_count) ||
          forest_count != snapshot->specs_.size()) {
        return Status::Corruption(
            "snapshot: partition/forest count mismatch");
      }
      snapshot->forests_.resize(forest_count);
      for (ForestRef& forest : snapshot->forests_) {
        uint32_t trees = 0, depth = 0;
        if (!body.GetVarint32(&trees) || !body.GetVarint32(&depth) ||
            !body.GetVarint64(&forest.n) || !GetSegRef(&body, &forest.ids) ||
            !GetSegRef(&body, &forest.keys) ||
            !GetSegRef(&body, &forest.entries) ||
            !GetSegRef(&body, &forest.first_keys)) {
          return Status::Corruption("snapshot: malformed forest table");
        }
        if (trees == 0 || depth == 0 || trees > 4096 || depth > 4096 ||
            forest.n > (uint64_t{1} << 40)) {
          return Status::Corruption("snapshot: implausible forest shape");
        }
        forest.num_trees = static_cast<int>(trees);
        forest.tree_depth = static_cast<int>(depth);
      }
    } else if (snapshot->total_ != 0) {
      return Status::Corruption("snapshot: total without an ensemble");
    }

    if (!body.GetRaw(1, &flag)) {
      return Status::Corruption("snapshot: truncated side-car flag");
    }
    snapshot->has_sidecar_ = flag[0] != 0;
    if (snapshot->has_sidecar_) {
      if (!GetRecordsRef(&body, &snapshot->indexed_) ||
          !GetRecordsRef(&body, &snapshot->delta_) ||
          !body.GetVarint64(&snapshot->tombstone_n_) ||
          !GetSegRef(&body, &snapshot->tombstones_)) {
        return Status::Corruption("snapshot: malformed side-car table");
      }
    }

    // Optional trailing probe-filter table (images written before the
    // filter tier end here; they open with no pruning).
    if (!body.empty()) {
      if (!body.GetRaw(1, &flag)) {
        return Status::Corruption("snapshot: truncated filter flag");
      }
      snapshot->has_filters_ = flag[0] != 0;
      if (snapshot->has_filters_) {
        if (!snapshot->has_ensemble_) {
          return Status::Corruption("snapshot: filters without an ensemble");
        }
        uint64_t filter_count = 0;
        if (!GetFilterRef(&body, &snapshot->engine_filter_) ||
            !body.GetVarint64(&filter_count) ||
            filter_count != snapshot->forests_.size()) {
          return Status::Corruption("snapshot: malformed filter table");
        }
        snapshot->forest_filters_.resize(filter_count);
        for (FilterRef& filter : snapshot->forest_filters_) {
          if (!GetFilterRef(&body, &filter)) {
            return Status::Corruption("snapshot: malformed filter table");
          }
        }
      }
    }
    if (!body.empty()) {
      return Status::Corruption("snapshot: trailing manifest bytes");
    }
    return Status::OK();
  }

  /// Collect every segment in file order and check: alignment, exact
  /// expected lengths, in-bounds extents, no overlap, and all-zero gaps —
  /// every byte of the image is accounted for, so no flip anywhere
  /// (payloads aside, see CRCs) can go unnoticed.
  static Status ValidateSegments(MappedSnapshot* snapshot,
                                 uint64_t manifest_offset) {
    struct Expected {
      const SegRef* ref;
      uint64_t length;
    };
    // Expected lengths are computed in 128 bits and any product past 2^62
    // is rejected outright: a crafted manifest whose shape product wraps
    // uint64 must fail the open, never alias a storable length (random
    // corruption is already caught by the manifest CRC; this closes the
    // hostile-input path).
    bool overflow = false;
    auto checked_bytes = [&overflow](std::initializer_list<uint64_t> factors) {
      unsigned __int128 product = 1;
      for (const uint64_t factor : factors) product *= factor;
      if (product > (uint64_t{1} << 62)) {
        overflow = true;
        return uint64_t{0};
      }
      return static_cast<uint64_t>(product);
    };
    std::vector<Expected> segments;
    for (const ForestRef& forest : snapshot->forests_) {
      const uint64_t n = forest.n;
      const auto trees = static_cast<uint64_t>(forest.num_trees);
      const auto depth = static_cast<uint64_t>(forest.tree_depth);
      segments.push_back({&forest.ids, checked_bytes({n, sizeof(uint64_t)})});
      segments.push_back(
          {&forest.keys, checked_bytes({n, trees, depth, sizeof(uint32_t)})});
      segments.push_back(
          {&forest.entries, checked_bytes({n, trees, sizeof(uint32_t)})});
      segments.push_back(
          {&forest.first_keys, checked_bytes({n, trees, sizeof(uint32_t)})});
    }
    if (snapshot->has_filters_) {
      // Filter segments follow the forest arenas in file order: engine
      // union first, then one per forest.
      segments.push_back(
          {&snapshot->engine_filter_.blocks,
           checked_bytes({snapshot->engine_filter_.num_blocks,
                          kProbeFilterBlockLanes, sizeof(uint32_t)})});
      for (const FilterRef& filter : snapshot->forest_filters_) {
        segments.push_back(
            {&filter.blocks,
             checked_bytes({filter.num_blocks, kProbeFilterBlockLanes,
                            sizeof(uint32_t)})});
      }
    }
    if (snapshot->has_sidecar_) {
      const auto m = static_cast<uint64_t>(snapshot->options_.num_hashes);
      for (const RecordsRef* records :
           {&snapshot->indexed_, &snapshot->delta_}) {
        segments.push_back(
            {&records->ids, checked_bytes({records->n, sizeof(uint64_t)})});
        segments.push_back(
            {&records->sizes, checked_bytes({records->n, sizeof(uint64_t)})});
        segments.push_back({&records->signatures,
                            checked_bytes({records->n, m, sizeof(uint64_t)})});
      }
      segments.push_back(
          {&snapshot->tombstones_,
           checked_bytes({snapshot->tombstone_n_, sizeof(uint64_t)})});
    }

    if (overflow) {
      return Status::Corruption("snapshot: segment shape overflows");
    }

    const std::string_view data = snapshot->data_;
    uint64_t cursor = kHeaderBytes;
    for (const Expected& expected : segments) {
      const SegRef& ref = *expected.ref;
      if (ref.length != expected.length) {
        return Status::Corruption("snapshot: segment length mismatch");
      }
      // Overflow-safe extent check (offset + length could wrap uint64).
      if (ref.offset % kSegmentAlignment != 0 || ref.offset < cursor ||
          ref.length > manifest_offset ||
          ref.offset > manifest_offset - ref.length) {
        return Status::Corruption("snapshot: segment extent out of bounds");
      }
      for (uint64_t i = cursor; i < ref.offset; ++i) {
        if (data[i] != '\0') {
          return Status::Corruption("snapshot: non-zero segment padding");
        }
      }
      cursor = ref.offset + ref.length;
    }
    for (uint64_t i = cursor; i < manifest_offset; ++i) {
      if (data[i] != '\0') {
        return Status::Corruption("snapshot: non-zero segment padding");
      }
    }
    return Status::OK();
  }

  static Status VerifySegmentChecksums(const MappedSnapshot* snapshot) {
    auto verify = [&](const SegRef& ref) {
      const std::string_view payload =
          snapshot->data_.substr(ref.offset, ref.length);
      return crc32c::Unmask(ref.crc) == crc32c::Value(payload);
    };
    for (const ForestRef& forest : snapshot->forests_) {
      for (const SegRef* ref :
           {&forest.ids, &forest.keys, &forest.entries, &forest.first_keys}) {
        if (!verify(*ref)) {
          return Status::Corruption("snapshot: segment checksum mismatch");
        }
      }
    }
    if (snapshot->has_filters_) {
      if (!verify(snapshot->engine_filter_.blocks)) {
        return Status::Corruption("snapshot: segment checksum mismatch");
      }
      for (const FilterRef& filter : snapshot->forest_filters_) {
        if (!verify(filter.blocks)) {
          return Status::Corruption("snapshot: segment checksum mismatch");
        }
      }
    }
    if (snapshot->has_sidecar_) {
      for (const RecordsRef* records :
           {&snapshot->indexed_, &snapshot->delta_}) {
        for (const SegRef* ref :
             {&records->ids, &records->sizes, &records->signatures}) {
          if (!verify(*ref)) {
            return Status::Corruption("snapshot: segment checksum mismatch");
          }
        }
      }
      if (!verify(snapshot->tombstones_)) {
        return Status::Corruption("snapshot: segment checksum mismatch");
      }
    }
    return Status::OK();
  }

  template <typename T>
  static std::span<const T> SegmentSpan(const MappedSnapshot& snapshot,
                                        const SegRef& ref) {
    return {reinterpret_cast<const T*>(snapshot.data_.data() + ref.offset),
            static_cast<size_t>(ref.length / sizeof(T))};
  }

  /// Build a mapped LshEnsemble over `snapshot` (requires has_ensemble()).
  static Result<LshEnsemble> MakeEnsemble(
      std::shared_ptr<const MappedSnapshot> snapshot) {
    if (!snapshot->has_ensemble_) {
      return Status::InvalidArgument("snapshot holds no ensemble image");
    }
    const LshEnsembleOptions& options = snapshot->options_;
    std::shared_ptr<const HashFamily> family;
    LSHE_ASSIGN_OR_RETURN(
        family, HashFamily::Create(options.num_hashes, snapshot->seed_));

    LshEnsemble ensemble(options, std::move(family));
    ensemble.specs_ = snapshot->specs_;
    ensemble.total_ = snapshot->total_;
    ensemble.forests_.reserve(snapshot->forests_.size());
    for (size_t i = 0; i < snapshot->forests_.size(); ++i) {
      const ForestRef& ref = snapshot->forests_[i];
      auto forest = LshForest::FromMapped(
          ref.num_trees, ref.tree_depth,
          SegmentSpan<uint64_t>(*snapshot, ref.ids),
          SegmentSpan<uint32_t>(*snapshot, ref.keys),
          SegmentSpan<uint32_t>(*snapshot, ref.entries),
          SegmentSpan<uint32_t>(*snapshot, ref.first_keys), snapshot);
      if (!forest.ok()) return forest.status();
      if (forest->size() != ensemble.specs_[i].count) {
        return Status::Corruption(
            "snapshot: partition count does not match forest size");
      }
      ensemble.forests_.push_back(std::move(forest).value());
    }

    if (snapshot->has_filters_) {
      // Filters are served zero-copy like the arenas: the blocks stay in
      // the mapping, the snapshot handle keeps them alive.
      auto engine_filter = ProbeFilter::FromMapped(
          snapshot->engine_filter_.num_blocks,
          SegmentSpan<uint32_t>(*snapshot, snapshot->engine_filter_.blocks),
          snapshot);
      if (!engine_filter.ok()) return engine_filter.status();
      ensemble.engine_filter_ = std::move(engine_filter).value();
      ensemble.filters_.reserve(snapshot->forest_filters_.size());
      for (const MappedSnapshot::FilterRef& ref :
           snapshot->forest_filters_) {
        auto filter = ProbeFilter::FromMapped(
            ref.num_blocks, SegmentSpan<uint32_t>(*snapshot, ref.blocks),
            snapshot);
        if (!filter.ok()) return filter.status();
        ensemble.filters_.push_back(std::move(filter).value());
      }
    }

    Tuner::Options tuner_options;
    tuner_options.max_b = options.num_hashes / options.tree_depth;
    tuner_options.max_r = options.tree_depth;
    tuner_options.integration_nodes = options.integration_nodes;
    LSHE_ASSIGN_OR_RETURN(ensemble.tuner_, Tuner::Create(tuner_options));
    return ensemble;
  }

  /// Build a mapped DynamicLshEnsemble (requires has_sidecar()).
  static Result<DynamicLshEnsemble> MakeDynamic(
      std::shared_ptr<const MappedSnapshot> snapshot,
      const DynamicEnsembleOptions& options) {
    if (!snapshot->has_sidecar_) {
      return Status::InvalidArgument(
          "snapshot holds no dynamic side-car (use OpenEnsembleMapped)");
    }
    LSHE_RETURN_IF_ERROR(options.base.Validate());
    if (options.base.num_hashes != snapshot->options_.num_hashes) {
      return Status::InvalidArgument(
          "options.base.num_hashes does not match the snapshot");
    }
    std::shared_ptr<const HashFamily> family;
    LSHE_ASSIGN_OR_RETURN(family, HashFamily::Create(
                                      snapshot->options_.num_hashes,
                                      snapshot->seed_));
    DynamicLshEnsemble index(options, family);

    const auto m = static_cast<size_t>(snapshot->options_.num_hashes);
    const auto indexed_ids =
        SegmentSpan<uint64_t>(*snapshot, snapshot->indexed_.ids);
    // The binary-searched lookup needs strictly ascending ids (which also
    // rules out duplicates against the delta below).
    for (size_t i = 1; i < indexed_ids.size(); ++i) {
      if (indexed_ids[i - 1] >= indexed_ids[i]) {
        return Status::Corruption("snapshot: side-car ids not ascending");
      }
    }
    if (snapshot->has_ensemble_) {
      auto ensemble = MakeEnsemble(snapshot);
      if (!ensemble.ok()) return ensemble.status();
      index.ensemble_.emplace(std::move(ensemble).value());
      // The snapshot's options describe the arenas (partitions, tree
      // shape); query-time POLICY comes from the caller, exactly as a
      // heap rebuild would apply it. Without this override the indexed
      // path would prune per the flags the index was SAVED with while the
      // delta scan follows the caller's — two admission rules in one
      // engine until the first Flush().
      index.ensemble_->options_.prune_unreachable_partitions =
          options.base.prune_unreachable_partitions;
      index.ensemble_->options_.parallel_build = options.base.parallel_build;
      // Filter policy too: whether the image carried filters is a fact of
      // the snapshot (filters_ presence), but whether future rebuilds
      // build them — and at what density — follows the caller.
      index.ensemble_->options_.build_probe_filter =
          options.base.build_probe_filter;
      index.ensemble_->options_.filter_bits_per_key =
          options.base.filter_bits_per_key;
      index.indexed_count_ = index.ensemble_->size();
    } else if (snapshot->indexed_.n != 0) {
      return Status::Corruption(
          "snapshot: indexed side-car without an ensemble");
    }

    index.mapped_.ids = indexed_ids.data();
    index.mapped_.sizes =
        SegmentSpan<uint64_t>(*snapshot, snapshot->indexed_.sizes).data();
    index.mapped_.signatures =
        SegmentSpan<uint64_t>(*snapshot, snapshot->indexed_.signatures)
            .data();
    index.mapped_.n = snapshot->indexed_.n;
    index.mapped_.m = m;

    // Tombstones first: a delta record that re-inserts a tombstoned id
    // must find the tombstone already in place (Insert() semantics).
    const auto tombstones =
        SegmentSpan<uint64_t>(*snapshot, snapshot->tombstones_);
    for (const uint64_t id : tombstones) index.tombstones_.insert(id);

    // The delta restores as an owned overlay, in its original order (the
    // scan order bit-identity depends on it). This copies only the delta
    // — by policy a small fraction of the index.
    const auto delta_ids =
        SegmentSpan<uint64_t>(*snapshot, snapshot->delta_.ids);
    const auto delta_sizes =
        SegmentSpan<uint64_t>(*snapshot, snapshot->delta_.sizes);
    const auto delta_sigs =
        SegmentSpan<uint64_t>(*snapshot, snapshot->delta_.signatures);
    for (size_t i = 0; i < delta_ids.size(); ++i) {
      const uint64_t id = delta_ids[i];
      if (index.records_.count(id) > 0 || index.MappedLive(id)) {
        return Status::Corruption("snapshot: duplicate live id in delta");
      }
      std::vector<uint64_t> slots(delta_sigs.begin() + i * m,
                                  delta_sigs.begin() + (i + 1) * m);
      auto signature = MinHash::FromSlots(family, std::move(slots));
      if (!signature.ok()) {
        return Status::Corruption("snapshot: invalid delta signature slot");
      }
      index.AppendDelta(id, static_cast<size_t>(delta_sizes[i]),
                        std::move(signature).value());
    }

    index.mapped_backing_ = std::move(snapshot);
    return index;
  }
};

// --------------------------------------------------------- public surface

Result<std::shared_ptr<const MappedSnapshot>> MappedSnapshot::Open(
    const std::string& path, const SnapshotOpenOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  auto file = env->OpenMapped(path);
  if (!file.ok()) return file.status();
  // shared_ptr<MappedSnapshot> with a private ctor: allocate directly.
  std::shared_ptr<MappedSnapshot> snapshot(new MappedSnapshot());
  snapshot->file_ = std::move(file).value();
  snapshot->data_ = snapshot->file_.data();
  LSHE_RETURN_IF_ERROR(SnapshotIO::Parse(snapshot.get(), options));
  return std::shared_ptr<const MappedSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const MappedSnapshot>> MappedSnapshot::FromBuffer(
    std::string buffer, const SnapshotOpenOptions& options) {
  std::shared_ptr<MappedSnapshot> snapshot(new MappedSnapshot());
  snapshot->buffer_ = std::move(buffer);
  snapshot->data_ = snapshot->buffer_;
  LSHE_RETURN_IF_ERROR(SnapshotIO::Parse(snapshot.get(), options));
  return std::shared_ptr<const MappedSnapshot>(std::move(snapshot));
}

Status SerializeEnsembleSnapshot(const LshEnsemble& ensemble,
                                 std::string* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  return SnapshotIO::SerializeEnsemble(ensemble, out);
}

Status WriteEnsembleSnapshot(const LshEnsemble& ensemble,
                             const std::string& path, Env* env) {
  std::string image;
  LSHE_RETURN_IF_ERROR(SerializeEnsembleSnapshot(ensemble, &image));
  return WriteFileAtomic(env != nullptr ? env : Env::Default(), path, image);
}

namespace {

/// Opening a *dynamic* snapshot as a bare ensemble would silently drop
/// its delta records and tombstones — refuse unless the side-car is
/// clean (then the ensemble IS the whole index).
Status CheckSidecarClean(const MappedSnapshot& snapshot) {
  if (snapshot.delta_records() > 0 || snapshot.tombstone_records() > 0) {
    return Status::InvalidArgument(
        "snapshot carries unflushed dynamic state; open it with "
        "OpenDynamicSnapshot");
  }
  return Status::OK();
}

}  // namespace

Result<LshEnsemble> OpenEnsembleMapped(const std::string& path,
                                       const SnapshotOpenOptions& options) {
  std::shared_ptr<const MappedSnapshot> snapshot;
  LSHE_ASSIGN_OR_RETURN(snapshot, MappedSnapshot::Open(path, options));
  LSHE_RETURN_IF_ERROR(CheckSidecarClean(*snapshot));
  return SnapshotIO::MakeEnsemble(std::move(snapshot));
}

Result<LshEnsemble> EnsembleFromSnapshot(
    std::shared_ptr<const MappedSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must not be null");
  }
  LSHE_RETURN_IF_ERROR(CheckSidecarClean(*snapshot));
  return SnapshotIO::MakeEnsemble(std::move(snapshot));
}

Status SerializeDynamicSnapshot(const DynamicLshEnsemble& index,
                                std::string* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  return SnapshotIO::SerializeDynamic(index, out);
}

Status WriteDynamicSnapshot(const DynamicLshEnsemble& index,
                            const std::string& path, Env* env) {
  std::string image;
  LSHE_RETURN_IF_ERROR(SerializeDynamicSnapshot(index, &image));
  return WriteFileAtomic(env != nullptr ? env : Env::Default(), path, image);
}

Result<DynamicLshEnsemble> OpenDynamicSnapshot(
    const std::string& path, const DynamicEnsembleOptions& options,
    const SnapshotOpenOptions& open_options) {
  std::shared_ptr<const MappedSnapshot> snapshot;
  LSHE_ASSIGN_OR_RETURN(snapshot, MappedSnapshot::Open(path, open_options));
  return SnapshotIO::MakeDynamic(std::move(snapshot), options);
}

Result<DynamicLshEnsemble> DynamicFromSnapshotBuffer(
    std::string buffer, const DynamicEnsembleOptions& options,
    const SnapshotOpenOptions& open_options) {
  std::shared_ptr<const MappedSnapshot> snapshot;
  LSHE_ASSIGN_OR_RETURN(
      snapshot, MappedSnapshot::FromBuffer(std::move(buffer), open_options));
  return SnapshotIO::MakeDynamic(std::move(snapshot), options);
}

}  // namespace lshensemble
