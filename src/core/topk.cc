#include "core/topk.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/dynamic_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/threshold.h"

namespace lshensemble {

Status SketchStore::Add(uint64_t id, size_t size, MinHash signature) {
  if (size < 1) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  if (!signature.valid()) {
    return Status::InvalidArgument("signature must be valid");
  }
  const auto [it, inserted] =
      entries_.emplace(id, Entry{size, std::move(signature)});
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("duplicate id in SketchStore");
  }
  return Status::OK();
}

size_t SketchStore::SizeOf(uint64_t id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.size;
}

const MinHash* SketchStore::SignatureOf(uint64_t id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.signature;
}

SignatureView SketchStore::FindSignature(uint64_t id, size_t* size) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return {};
  *size = it->second.size;
  return it->second.signature.view();
}

TopKSearcher::TopKSearcher(const LshEnsemble* ensemble,
                           const SketchStore* store)
    : ensemble_(ensemble), store_(store) {}

TopKSearcher::TopKSearcher(const DynamicLshEnsemble* index)
    : dynamic_(index) {}

TopKSearcher::TopKSearcher(const ShardedEnsemble* index) : sharded_(index) {}

Status TopKSearcher::EngineBatchQuery(std::span<const QuerySpec> specs,
                                      QueryContext* ctx,
                                      std::vector<uint64_t>* outs) const {
  if (sharded_ != nullptr) {
    // Unsorted gather: the ranking below dedups by id and orders by
    // (estimate, id), so the public contract's canonical sort would be
    // paid once per descent round for nothing.
    return sharded_->BatchQueryImpl(specs, outs, /*sort_outputs=*/false);
  }
  if (dynamic_ != nullptr) return dynamic_->BatchQuery(specs, ctx, outs);
  return ensemble_->BatchQuery(specs, ctx, outs);
}

Result<bool> TopKSearcher::RankLookup(const MinHash& query, uint64_t id,
                                      size_t* size, double* jaccard) const {
  if (sharded_ != nullptr) {
    return sharded_->ScoreRecord(query, id, size, jaccard);
  }
  const SignatureView signature = dynamic_ != nullptr
                                      ? dynamic_->FindSignature(id, size)
                                      : store_->FindSignature(id, size);
  if (!signature) return false;
  LSHE_ASSIGN_OR_RETURN(*jaccard, query.EstimateJaccard(signature));
  return true;
}

Result<std::vector<TopKResult>> TopKSearcher::Search(const MinHash& query,
                                                     size_t query_size,
                                                     size_t k) const {
  const TopKQuery one{&query, query_size};
  std::vector<TopKResult> out;
  QueryContext ctx;
  LSHE_RETURN_IF_ERROR(
      BatchSearch(std::span<const TopKQuery>(&one, 1), k, &ctx, &out));
  return out;
}

namespace {

// The descent schedule (see topk.h): first threshold, per-round decay,
// floor.
constexpr double kInitialThreshold = 0.95;
constexpr double kDecay = 0.7;
constexpr double kMinThreshold = 0.05;

/// Ranking order: descending estimate, ties by ascending id.
inline bool BetterResult(const TopKResult& a, const TopKResult& b) {
  if (a.estimated_containment != b.estimated_containment) {
    return a.estimated_containment > b.estimated_containment;
  }
  return a.id < b.id;
}

}  // namespace

Status TopKSearcher::BatchSearch(std::span<const TopKQuery> queries, size_t k,
                                 QueryContext* ctx,
                                 std::vector<TopKResult>* outs) const {
  const bool store_bound = ensemble_ != nullptr && store_ != nullptr;
  if (!store_bound && dynamic_ == nullptr && sharded_ == nullptr) {
    return Status::FailedPrecondition("searcher not bound to an index");
  }
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  const size_t count = queries.size();
  if (count == 0) return Status::OK();
  // A sharded binding pins scratch per shard, so it never touches `ctx`.
  if ((ctx == nullptr && sharded_ == nullptr) || outs == nullptr) {
    return Status::InvalidArgument("ctx and outs must not be null");
  }

  // Per-query descent state. All queries follow the same fixed threshold
  // schedule, which is what makes the lockstep rounds below produce
  // exactly the per-query Search() answers.
  struct State {
    size_t q = 0;
    double qd = 0.0;
    bool active = true;
    std::unordered_set<uint64_t> seen;
    std::vector<TopKResult> scored;
  };
  std::vector<State> states(count);
  for (size_t i = 0; i < count; ++i) {
    if (queries[i].query == nullptr || !queries[i].query->valid()) {
      return Status::InvalidArgument("query must be a valid MinHash");
    }
    size_t q = queries[i].query_size;
    if (q == 0) {
      q = static_cast<size_t>(std::max<int64_t>(
          1, std::llround(queries[i].query->EstimateCardinality())));
    }
    states[i].q = q;
    states[i].qd = static_cast<double>(q);
  }

  std::vector<QuerySpec> specs;
  std::vector<size_t> active_index;  // specs[j] is query active_index[j]
  specs.reserve(count);
  active_index.reserve(count);
  std::vector<std::vector<uint64_t>> candidates(count);

  double threshold = kInitialThreshold;
  while (true) {
    specs.clear();
    active_index.clear();
    for (size_t i = 0; i < count; ++i) {
      if (!states[i].active) continue;
      specs.push_back(QuerySpec{queries[i].query, states[i].q, threshold,
                                queries[i].deadline_ns});
      active_index.push_back(i);
    }
    if (specs.empty()) break;
    // One batched probe serves every still-active descent this round.
    LSHE_RETURN_IF_ERROR(EngineBatchQuery(specs, ctx, candidates.data()));

    const bool at_floor = threshold <= kMinThreshold;
    for (size_t j = 0; j < active_index.size(); ++j) {
      State& state = states[active_index[j]];
      const MinHash& query = *queries[active_index[j]].query;
      for (uint64_t id : candidates[j]) {
        if (!state.seen.insert(id).second) continue;
        size_t x_size = 0;
        double jaccard = 0.0;
        Result<bool> ranked = RankLookup(query, id, &x_size, &jaccard);
        if (!ranked.ok()) return ranked.status();
        if (!*ranked) continue;  // not side-car'd; unrankable
        const auto x = static_cast<double>(x_size);
        // Eq. 6 with the candidate's exact size; containment can never
        // exceed x/q (|Q ∩ X| <= |X|).
        const double estimate =
            std::min(JaccardToContainment(jaccard, x, state.qd),
                     std::min(1.0, x / state.qd));
        state.scored.push_back({id, estimate});
      }

      // Keep the best k so far to decide whether descending further can
      // still change this query's answer.
      const size_t kth = std::min(k, state.scored.size());
      std::partial_sort(state.scored.begin(),
                        state.scored.begin() + static_cast<ptrdiff_t>(kth),
                        state.scored.end(), BetterResult);
      const bool full = state.scored.size() >= k;
      const double kth_estimate =
          full ? state.scored[k - 1].estimated_containment : 0.0;
      // Every domain not yet retrieved has containment below `threshold`
      // (up to LSH recall error); once the k-th best estimate reaches it,
      // deeper descent cannot improve the answer. At the descent floor
      // every query returns its best effort.
      if ((full && kth_estimate >= threshold) || at_floor) {
        state.active = false;
      }
    }
    if (at_floor) break;
    threshold = std::max(threshold * kDecay, kMinThreshold);
  }

  for (size_t i = 0; i < count; ++i) {
    if (states[i].scored.size() > k) states[i].scored.resize(k);
    outs[i] = std::move(states[i].scored);
  }
  return Status::OK();
}

}  // namespace lshensemble
