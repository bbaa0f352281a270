#include "io/catalog.h"

#include "io/coding.h"
#include "io/crc32c.h"
#include "io/file.h"

namespace lshensemble {

namespace {

constexpr uint32_t kCatalogMagic = 0x4C534843u;  // "CHSL" LE = "LSHC"
constexpr uint32_t kCatalogVersion = 1;

const std::string kUnknownName = "<unknown id>";

}  // namespace

Status Catalog::Add(uint64_t id, std::string name, uint64_t size,
                    MinHash signature) {
  if (family_ == nullptr) {
    return Status::FailedPrecondition("catalog has no hash family");
  }
  if (size < 1) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  if (!signature.valid() || !signature.family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "signature does not belong to the catalog's hash family");
  }
  if (index_of_.count(id) > 0) {
    return Status::InvalidArgument("duplicate id in catalog");
  }
  index_of_.emplace(id, entries_.size());
  entries_.push_back({id, std::move(name), size, std::move(signature)});
  return Status::OK();
}

const CatalogEntry* Catalog::Find(uint64_t id) const {
  const auto it = index_of_.find(id);
  return it == index_of_.end() ? nullptr : &entries_[it->second];
}

const std::string& Catalog::NameOf(uint64_t id) const {
  const CatalogEntry* entry = Find(id);
  return entry == nullptr ? kUnknownName : entry->name;
}

Status Catalog::SerializeTo(std::string* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  if (family_ == nullptr) {
    return Status::FailedPrecondition("catalog has no hash family");
  }
  out->clear();
  PutFixed32(out, kCatalogMagic);
  PutFixed32(out, kCatalogVersion);

  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(family_->num_hashes()));
  PutFixed64(&payload, family_->seed());
  PutVarint64(&payload, entries_.size());
  for (const CatalogEntry& entry : entries_) {
    PutVarint64(&payload, entry.id);
    PutLengthPrefixed(&payload, entry.name);
    PutVarint64(&payload, entry.size);
    std::string signature;
    entry.signature.SerializeTo(&signature);
    PutLengthPrefixed(&payload, signature);
  }
  PutVarint64(out, payload.size());
  out->append(payload);
  PutFixed32(out, crc32c::Mask(crc32c::Value(payload)));
  return Status::OK();
}

Result<Catalog> Catalog::Deserialize(std::string_view image) {
  DecodeCursor cursor(image);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!cursor.GetFixed32(&magic) || !cursor.GetFixed32(&version)) {
    return Status::Corruption("catalog image: truncated header");
  }
  if (magic != kCatalogMagic) {
    return Status::Corruption("catalog image: bad magic");
  }
  if (version > kCatalogVersion) {
    return Status::NotSupported("catalog image: newer format version");
  }
  std::string_view payload;
  if (!cursor.GetLengthPrefixed(&payload)) {
    return Status::Corruption("catalog image: truncated payload");
  }
  uint32_t stored_crc = 0;
  if (!cursor.GetFixed32(&stored_crc) || !cursor.empty()) {
    return Status::Corruption("catalog image: truncated checksum");
  }
  if (crc32c::Unmask(stored_crc) != crc32c::Value(payload)) {
    return Status::Corruption("catalog image: checksum mismatch");
  }

  DecodeCursor body(payload);
  uint32_t num_hashes = 0;
  uint64_t seed = 0;
  uint64_t count = 0;
  if (!body.GetVarint32(&num_hashes) || !body.GetFixed64(&seed) ||
      !body.GetVarint64(&count)) {
    return Status::Corruption("catalog image: malformed family header");
  }
  std::shared_ptr<const HashFamily> family;
  {
    auto created = HashFamily::Create(static_cast<int>(num_hashes), seed);
    if (!created.ok()) {
      return Status::Corruption("catalog image: invalid hash family");
    }
    family = std::move(created).value();
  }

  Catalog catalog(family);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    uint64_t size = 0;
    std::string_view name;
    std::string_view signature_bytes;
    if (!body.GetVarint64(&id) || !body.GetLengthPrefixed(&name) ||
        !body.GetVarint64(&size) ||
        !body.GetLengthPrefixed(&signature_bytes)) {
      return Status::Corruption("catalog image: truncated entry");
    }
    auto signature = MinHash::Deserialize(signature_bytes, family);
    if (!signature.ok()) return signature.status();
    LSHE_RETURN_IF_ERROR(catalog.Add(id, std::string(name), size,
                                     std::move(signature).value()));
  }
  if (!body.empty()) {
    return Status::Corruption("catalog image: trailing entry bytes");
  }
  return catalog;
}

Status Catalog::Save(const std::string& path, Env* env) const {
  std::string image;
  LSHE_RETURN_IF_ERROR(SerializeTo(&image));
  return WriteFileAtomic(env != nullptr ? env : Env::Default(), path, image);
}

Result<Catalog> Catalog::Load(const std::string& path, Env* env) {
  std::string image;
  LSHE_RETURN_IF_ERROR(ReadFileToString(
      env != nullptr ? env : Env::Default(), path, &image));
  return Deserialize(image);
}

}  // namespace lshensemble
