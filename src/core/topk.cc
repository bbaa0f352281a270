// ShardedEnsemble::BatchSearch, the lockstep top-k threshold descent (see
// topk.h), and the per-task candidate scoring its rounds run.

#include "core/topk.h"

#include <algorithm>

#include "core/sharded_ensemble.h"
#include "core/threshold.h"
#include "minhash/hash_kernel.h"

namespace lshensemble {

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

void ShardedEnsemble::ScoreCandidates(const DynamicLshEnsemble& engine,
                                      const QuerySpec& spec,
                                      const std::vector<uint64_t>& ids,
                                      Shard::Scratch* scratch,
                                      std::vector<TopKResult>* scored) {
  // One side-car lookup per candidate, then one collision count over all
  // of the query's rows. Each pair stages the candidate's exact size in
  // its estimate field until the counts are in.
  scored->clear();
  scratch->rows.clear();
  for (const uint64_t id : ids) {
    size_t size = 0;
    const SignatureView signature = engine.FindSignature(id, &size);
    if (!signature) continue;  // not live: nothing to rank
    scored->push_back({id, static_cast<double>(size)});
    scratch->rows.push_back(signature.values);
  }
  if (scored->empty()) return;
  const std::vector<uint64_t>& query = spec.query->values();
  const size_t m = query.size();
  scratch->collisions.resize(scored->size());
  ActiveKernelOps().count_collisions_many(query.data(), scratch->rows.data(),
                                          m, scored->size(),
                                          scratch->collisions.data());
  const auto q = static_cast<double>(spec.query_size);
  for (size_t r = 0; r < scored->size(); ++r) {
    TopKResult& result = (*scored)[r];
    const double x = result.estimated_containment;
    const double jaccard = static_cast<double>(scratch->collisions[r]) /
                           static_cast<double>(m);
    // Eq. 6 with the candidate's exact size; containment can never
    // exceed x/q (|Q ∩ X| <= |X|).
    result.estimated_containment =
        std::min(JaccardToContainment(jaccard, x, q), std::min(1.0, x / q));
  }
}

Status ShardedEnsemble::BatchSearch(std::span<const TopKQuery> queries,
                                    size_t k,
                                    std::vector<TopKResult>* outs) const {
  LSHE_RETURN_IF_ERROR(GuardNotInWorker("ShardedEnsemble::BatchSearch"));
  // ONE admission covers the whole descent: every round re-enters
  // BatchQueryImpl, which deliberately does not re-admit (re-admitting
  // per round could self-deadlock at a bound of 1).
  AdmissionSlot slot;
  LSHE_ASSIGN_OR_RETURN(slot, TryAdmit());
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  const size_t count = queries.size();
  if (count == 0) return Status::OK();
  if (outs == nullptr) {
    return Status::InvalidArgument("outs must not be null");
  }

  // Per-query descent state. All queries follow the same fixed threshold
  // schedule, which is what makes the lockstep rounds produce exactly the
  // one-query-at-a-time answers. `seen` holds, sorted, every id scored in
  // an earlier round, so an id a later round finds again is not ranked
  // twice.
  struct State {
    bool active = true;
    std::vector<uint64_t> seen;
    std::vector<TopKResult> scored;
  };
  std::vector<State> states(count);
  std::vector<QuerySpec> specs;
  std::vector<size_t> active_index;  // specs[j] is query active_index[j]
  specs.reserve(count);
  active_index.reserve(count);
  std::vector<std::vector<TopKResult>> round(count);

  double threshold = kInitialThreshold;
  while (true) {
    specs.clear();
    active_index.clear();
    for (size_t i = 0; i < count; ++i) {
      if (!states[i].active) continue;
      specs.push_back(QuerySpec{queries[i].query, queries[i].query_size,
                                threshold, queries[i].deadline_ns});
      active_index.push_back(i);
    }
    if (specs.empty()) break;
    // One wave serves every still-active descent this round; its tasks
    // return each query's candidates already scored.
    LSHE_RETURN_IF_ERROR(
        BatchQueryImpl(specs, /*ids=*/nullptr, round.data()));

    const bool at_floor = threshold <= kMinThreshold;
    for (size_t j = 0; j < active_index.size(); ++j) {
      State& state = states[active_index[j]];
      const auto seen_before = static_cast<ptrdiff_t>(state.seen.size());
      for (const TopKResult& result : round[j]) {
        if (std::binary_search(state.seen.begin(),
                               state.seen.begin() + seen_before, result.id)) {
          continue;
        }
        state.seen.push_back(result.id);
        state.scored.push_back(result);
      }
      std::sort(state.seen.begin() + seen_before, state.seen.end());
      std::inplace_merge(state.seen.begin(), state.seen.begin() + seen_before,
                         state.seen.end());

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
