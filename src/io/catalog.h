// A domain catalog: the side-car data that accompanies a persisted index.
//
// The LshEnsemble image (io/ensemble_io.h) holds only what querying by
// threshold needs. Real deployments also want, per indexed domain: its
// provenance name ("table.csv:Column"), its exact size, and its MinHash
// signature (for top-k ranking and containment estimation). A Catalog
// stores exactly that, in the same checksummed container format.

#ifndef LSHENSEMBLE_IO_CATALOG_H_
#define LSHENSEMBLE_IO_CATALOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/env.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief One catalogued domain.
struct CatalogEntry {
  uint64_t id = 0;
  std::string name;
  uint64_t size = 0;
  MinHash signature;
};

/// \brief An ordered collection of CatalogEntry with id lookup, bound to
/// one hash family.
class Catalog {
 public:
  /// \param family the family every added signature must come from.
  explicit Catalog(std::shared_ptr<const HashFamily> family)
      : family_(std::move(family)) {}

  /// \brief Append an entry. Ids must be unique, sizes >= 1, and the
  /// signature must come from the catalog's family.
  Status Add(uint64_t id, std::string name, uint64_t size, MinHash signature);

  size_t size() const { return entries_.size(); }
  const std::vector<CatalogEntry>& entries() const { return entries_; }
  const std::shared_ptr<const HashFamily>& family() const { return family_; }

  /// Entry by id; nullptr when unknown.
  const CatalogEntry* Find(uint64_t id) const;
  /// Provenance name for `id`, or "<unknown id>" when absent.
  const std::string& NameOf(uint64_t id) const;

  /// \brief Serialize into a checksummed image (magic, family, entries).
  Status SerializeTo(std::string* out) const;
  /// \brief Rebuild a catalog (and its hash family) from an image.
  static Result<Catalog> Deserialize(std::string_view image);

  /// File convenience wrappers (atomic write, see io/file.h). `env`
  /// selects the file operations (nullptr = Env::Default()).
  Status Save(const std::string& path, Env* env = nullptr) const;
  static Result<Catalog> Load(const std::string& path, Env* env = nullptr);

 private:
  std::shared_ptr<const HashFamily> family_;
  std::vector<CatalogEntry> entries_;
  std::unordered_map<uint64_t, size_t> index_of_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_IO_CATALOG_H_
