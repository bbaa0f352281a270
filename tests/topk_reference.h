// A test-side reference for ShardedEnsemble::BatchSearch: the documented
// top-k descent (core/topk.h) run one query at a time over a single
// DynamicLshEnsemble, from the engine's public pieces only —
// DynamicLshEnsemble::BatchQuery for the candidates, FindSignature for
// the side-car, MinHash::EstimateJaccard and JaccardToContainment for
// the estimate — on the schedule 0.95, x0.7 per round, floor 0.05.

#ifndef LSHENSEMBLE_TESTS_TOPK_REFERENCE_H_
#define LSHENSEMBLE_TESTS_TOPK_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/threshold.h"
#include "core/topk.h"

namespace lshensemble {

inline std::vector<TopKResult> ReferenceTopK(const DynamicLshEnsemble& engine,
                                             const TopKQuery& query,
                                             size_t k) {
  const MinHash& sketch = *query.query;
  size_t q = query.query_size;
  if (q == 0) {
    q = static_cast<size_t>(
        std::max<int64_t>(1, std::llround(sketch.EstimateCardinality())));
  }
  const auto qd = static_cast<double>(q);
  std::set<uint64_t> seen;
  std::vector<TopKResult> scored;
  QueryContext ctx;
  for (double threshold = 0.95;; threshold = std::max(threshold * 0.7, 0.05)) {
    const QuerySpec spec{&sketch, q, threshold, query.deadline_ns};
    std::vector<uint64_t> candidates;
    EXPECT_TRUE(
        engine.BatchQuery(std::span<const QuerySpec>(&spec, 1), &ctx,
                          &candidates)
            .ok());
    for (const uint64_t id : candidates) {
      if (!seen.insert(id).second) continue;
      size_t size = 0;
      const SignatureView signature = engine.FindSignature(id, &size);
      if (!signature) continue;
      const double jaccard = sketch.EstimateJaccard(signature).value();
      const auto x = static_cast<double>(size);
      scored.push_back({id, std::min(JaccardToContainment(jaccard, x, qd),
                                     std::min(1.0, x / qd))});
    }
    std::sort(scored.begin(), scored.end(),
              [](const TopKResult& a, const TopKResult& b) {
                if (a.estimated_containment != b.estimated_containment) {
                  return a.estimated_containment > b.estimated_containment;
                }
                return a.id < b.id;
              });
    const bool retired = scored.size() >= k &&
                         scored[k - 1].estimated_containment >= threshold;
    if (retired || threshold <= 0.05) break;
  }
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace lshensemble

#endif  // LSHENSEMBLE_TESTS_TOPK_REFERENCE_H_
