// Asymmetric Minwise Hashing (Shrivastava & Li, WWW'15), the paper's
// second comparison point (Section 4 and the appendix).
//
// Indexed domains are padded with fresh values until every domain has the
// size M of the largest domain; queries are not padded. Containment then
// becomes monotone in the Jaccard similarity between a query signature and
// a padded signature (appendix Eq. 31):
//
//     s-hat_{M,q}(t) = t / (M/q + 1 - t)
//
// so a MinHash LSH over padded signatures supports containment search. As
// the paper shows, when domain sizes are heavily skewed the padding mass
// drives the collision probability of even fully-contained domains toward
// zero (appendix Eq. 32, Figure 10), collapsing recall — reproduced by the
// fig05/fig10 benches.
//
// Per the paper's footnote 1, padding is applied to the MinHash signatures
// rather than to the domains: the minimum hash of the p fresh pad values of
// a (domain, hash function) pair is drawn from the exact order-statistic
// distribution of the minimum of p iid uniform hashes, seeded
// deterministically per domain and slot (see DESIGN.md).

#ifndef LSHENSEMBLE_BASELINES_ASYM_MINHASH_H_
#define LSHENSEMBLE_BASELINES_ASYM_MINHASH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tuning.h"
#include "lsh/lsh_forest.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Configuration of an AsymMinhash index.
struct AsymMinhashOptions {
  int num_hashes = 256;
  int tree_depth = 8;  ///< forest depth; num_hashes / tree_depth trees

  Status Validate() const;
};

/// \brief The minimum hash value of `pad_count` fresh uniform values, drawn
/// from the order-statistic distribution min ~ max_hash * (1 - U^(1/p)),
/// deterministically seeded by (pad_seed, domain id, slot). Exposed for
/// tests. Returns kEmptySlot-like max for pad_count == 0.
uint64_t SamplePadMinimum(uint64_t pad_seed, uint64_t domain_id, int slot,
                          uint64_t pad_count);

/// \brief Containment search via Asymmetric Minwise Hashing + dynamic LSH.
class AsymMinhash {
 public:
  class Builder {
   public:
    Builder(AsymMinhashOptions options,
            std::shared_ptr<const HashFamily> family);
    /// Same contract as LshEnsembleBuilder::Add.
    Status Add(uint64_t id, size_t size, MinHash signature);
    /// Pads every signature to the maximum domain size and indexes.
    Result<AsymMinhash> Build() &&;

   private:
    struct Record {
      uint64_t id;
      uint64_t size;
      MinHash signature;
    };
    AsymMinhashOptions options_;
    std::shared_ptr<const HashFamily> family_;
    std::vector<Record> records_;
  };

  /// See LshEnsemble::Query; x is approximated by the padded size M for
  /// every indexed domain (all padded domains share it).
  Status Query(const MinHash& query, size_t query_size, double t_star,
               std::vector<uint64_t>* out,
               TunedParams* tuned_out = nullptr) const;

  size_t size() const { return forest_.size(); }
  /// The padded domain size M (largest indexed domain).
  uint64_t padded_size() const { return padded_size_; }
  size_t MemoryBytes() const { return forest_.MemoryBytes(); }

 private:
  AsymMinhash(AsymMinhashOptions options,
              std::shared_ptr<const HashFamily> family, LshForest forest,
              std::unique_ptr<Tuner> tuner, uint64_t padded_size)
      : options_(options),
        family_(std::move(family)),
        forest_(std::move(forest)),
        tuner_(std::move(tuner)),
        padded_size_(padded_size) {}

  AsymMinhashOptions options_;
  std::shared_ptr<const HashFamily> family_;
  LshForest forest_;
  std::unique_ptr<Tuner> tuner_;
  uint64_t padded_size_ = 0;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_BASELINES_ASYM_MINHASH_H_
