// Whole-corpus sketching: the ingest half of index construction (the cost
// the paper's Table 4 measures). A ParallelSketcher shards domains across
// the shared ThreadPool and feeds each domain's values to the batched
// SIMD kernel (minhash/hash_kernel.h), so sketching a corpus is one call
// instead of a hand-rolled loop at every call site (builder, CLI, benches,
// experiments).

#ifndef LSHENSEMBLE_DATA_SKETCHER_H_
#define LSHENSEMBLE_DATA_SKETCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/corpus.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

class LshEnsembleBuilder;
class ShardedEnsemble;

/// \brief Configuration of a ParallelSketcher.
struct SketcherOptions {
  /// Shard domains across the shared ThreadPool (batches of 16 or more
  /// domains; smaller batches sketch on the calling thread).
  bool parallel = true;
};

/// \brief Sketches domains into MinHash signatures with the batched kernel,
/// optionally in parallel across domains.
///
/// Stateless apart from its configuration; safe to share across threads.
class ParallelSketcher {
 public:
  /// \param family the hash family of every produced signature.
  /// \param options parallelism knobs; defaults parallelize real corpora.
  explicit ParallelSketcher(std::shared_ptr<const HashFamily> family,
                            SketcherOptions options = {});

  const std::shared_ptr<const HashFamily>& family() const { return family_; }

  /// Sketch one set of pre-hashed values (batched kernel, this thread).
  MinHash Sketch(std::span<const uint64_t> values) const;

  /// \brief Sketch every corpus domain; result[i] is the signature of
  /// corpus.domain(i).
  std::vector<MinHash> SketchCorpus(const Corpus& corpus) const;

  /// \brief Sketch only the domains at `indices` into `out` (which must
  /// have corpus.size() elements); other slots are left untouched. Used by
  /// experiments that index and query disjoint subsets.
  void SketchSubset(const Corpus& corpus, std::span<const size_t> indices,
                    std::vector<MinHash>* out) const;

 private:
  std::shared_ptr<const HashFamily> family_;
  SketcherOptions options_;
};

/// \brief Sketch the whole corpus with `sketcher` and register every domain
/// with `builder` (id = domain.id, size = domain.size()) — corpus ingest as
/// one call.
Status AddCorpus(const Corpus& corpus, const ParallelSketcher& sketcher,
                 LshEnsembleBuilder* builder);

/// \brief Sketch the whole corpus in parallel and feed every domain to its
/// shard of `index`: each signature is sketched once on the pool and MOVED
/// into the owning shard's records — no intermediate copy of the sketch
/// arena between the sketcher and the serving layer.
Status AddCorpus(const Corpus& corpus, const ParallelSketcher& sketcher,
                 ShardedEnsemble* index);

}  // namespace lshensemble

#endif  // LSHENSEMBLE_DATA_SKETCHER_H_
