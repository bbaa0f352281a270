#include "data/sketcher.h"

#include <cassert>

#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "util/thread_pool.h"

namespace lshensemble {

namespace {

/// Below this many domains the pool dispatch costs more than it buys;
/// sketch inline on the calling thread instead.
constexpr size_t kMinParallelDomains = 16;

}  // namespace

ParallelSketcher::ParallelSketcher(std::shared_ptr<const HashFamily> family,
                                   SketcherOptions options)
    : family_(std::move(family)), options_(options) {
  assert(family_ != nullptr);
}

MinHash ParallelSketcher::Sketch(std::span<const uint64_t> values) const {
  MinHash sketch(family_);
  sketch.UpdateBatch(values);
  return sketch;
}

std::vector<MinHash> ParallelSketcher::SketchCorpus(
    const Corpus& corpus) const {
  std::vector<MinHash> sketches(corpus.size());
  auto sketch_one = [&](size_t i) {
    sketches[i] = Sketch(corpus.domain(i).values);
  };
  if (options_.parallel && corpus.size() >= kMinParallelDomains) {
    ThreadPool::Shared().ParallelFor(corpus.size(), sketch_one);
  } else {
    for (size_t i = 0; i < corpus.size(); ++i) sketch_one(i);
  }
  return sketches;
}

void ParallelSketcher::SketchSubset(const Corpus& corpus,
                                    std::span<const size_t> indices,
                                    std::vector<MinHash>* out) const {
  assert(out != nullptr && out->size() == corpus.size());
  auto sketch_one = [&](size_t j) {
    const size_t i = indices[j];
    (*out)[i] = Sketch(corpus.domain(i).values);
  };
  if (options_.parallel && indices.size() >= kMinParallelDomains) {
    ThreadPool::Shared().ParallelFor(indices.size(), sketch_one);
  } else {
    for (size_t j = 0; j < indices.size(); ++j) sketch_one(j);
  }
}

Status AddCorpus(const Corpus& corpus, const ParallelSketcher& sketcher,
                 LshEnsembleBuilder* builder) {
  if (builder == nullptr) {
    return Status::InvalidArgument("builder must not be null");
  }
  std::vector<MinHash> sketches = sketcher.SketchCorpus(corpus);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    LSHE_RETURN_IF_ERROR(builder->Add(domain.id, domain.size(),
                                      std::move(sketches[i])));
  }
  return Status::OK();
}

Status AddCorpus(const Corpus& corpus, const ParallelSketcher& sketcher,
                 ShardedEnsemble* index) {
  if (index == nullptr) {
    return Status::InvalidArgument("index must not be null");
  }
  // Sketch on the pool, then move each signature straight into its shard:
  // the ingest wave and the shard inserts never run concurrently, so the
  // inserts (which may trigger a global rebuild) stay off the pool.
  std::vector<MinHash> sketches = sketcher.SketchCorpus(corpus);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    LSHE_RETURN_IF_ERROR(index->Insert(domain.id, domain.size(),
                                       std::move(sketches[i])));
  }
  return Status::OK();
}

}  // namespace lshensemble
