// google-benchmark micro kernels for the hot paths: MinHash updates,
// forest probes, tuner optimization, exact containment, and the threshold
// conversion. These are the constants behind the Figure 9 / Table 4
// macro numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/exact_search.h"
#include "core/threshold.h"
#include "core/tuning.h"
#include "lsh/lsh_forest.h"
#include "minhash/hash_kernel.h"
#include "minhash/minhash.h"
#include "util/hashing.h"
#include "util/random.h"

namespace lshensemble {
namespace {

void BM_MinHashUpdate(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  auto family = HashFamily::Create(m, 1).value();
  MinHash sketch(family);
  Rng rng(2);
  uint64_t value = rng.Next();
  for (auto _ : state) {
    sketch.Update(value);
    value = value * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_MinHashUpdate)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MinHashSketchDomain(benchmark::State& state) {
  const size_t domain_size = static_cast<size_t>(state.range(0));
  auto family = HashFamily::Create(256, 1).value();
  Rng rng(3);
  std::vector<uint64_t> values(domain_size);
  for (auto& v : values) v = rng.Next();
  for (auto _ : state) {
    auto sketch = MinHash::FromValues(family, values);
    benchmark::DoNotOptimize(sketch.values().data());
  }
  state.SetItemsProcessed(state.iterations() * domain_size);
}
BENCHMARK(BM_MinHashSketchDomain)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EstimateJaccard(benchmark::State& state) {
  auto family = HashFamily::Create(256, 1).value();
  Rng rng(4);
  MinHash a(family), b(family);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng.Next();
    a.Update(v);
    b.Update(i % 2 ? v : rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.EstimateJaccard(b).value());
  }
}
BENCHMARK(BM_EstimateJaccard);

void BM_ForestQuery(benchmark::State& state) {
  const size_t num_domains = static_cast<size_t>(state.range(0));
  const int b = static_cast<int>(state.range(1));
  auto family = HashFamily::Create(256, 1).value();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(5);
  for (uint64_t id = 0; id < num_domains; ++id) {
    MinHash sketch(family);
    const size_t size = 5 + rng.NextBounded(50);
    for (size_t v = 0; v < size; ++v) sketch.Update(rng.NextBounded(100000));
    (void)forest.Add(id, sketch);
  }
  forest.Index();
  MinHash query(family);
  for (int v = 0; v < 30; ++v) query.Update(rng.NextBounded(100000));
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(forest.Query(query, b, 4, &out));
  }
}
BENCHMARK(BM_ForestQuery)
    ->Args({10000, 4})
    ->Args({10000, 32})
    ->Args({100000, 4})
    ->Args({100000, 32});

void BM_TunerOptimize(benchmark::State& state) {
  Tuner::Options options;
  options.max_b = 32;
  options.max_r = 8;
  auto tuner = std::move(Tuner::Create(options)).value();
  // Every iteration misses the memo: 49 ratios times 4,000 thresholds
  // give ~196k distinct keys before one repeats, and the memo's
  // Tuner::kMaxCacheEntries slots in 4-way sets have evicted each key
  // long before it comes round again. Every Tuner with these Options
  // shares one memo, so the key stream resumes where the previous run
  // of this benchmark stopped rather than re-tuning keys it warmed.
  static double ratio = 1.0;
  static double t_star = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner->Tune(ratio * 50, 50, t_star));
    ratio = ratio < 100 ? ratio * 1.1 : 1.0;
    if (ratio == 1.0) t_star = t_star < 0.7 ? t_star + 1e-4 : 0.3;
  }
}
BENCHMARK(BM_TunerOptimize);

// One hot key read by 1 and 4 threads: a hit writes no shared memory,
// so the per-hit time stays flat as readers are added.
void BM_TunerCached(benchmark::State& state) {
  Tuner::Options options;
  auto tuner = std::move(Tuner::Create(options)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner->Tune(1000, 50, 0.5));
  }
}
BENCHMARK(BM_TunerCached)->Threads(1)->Threads(4);

void BM_ThresholdConversion(benchmark::State& state) {
  double t = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContainmentToJaccard(t, 1000, 50));
    t = t < 0.99 ? t + 0.01 : 0.01;
  }
}
BENCHMARK(BM_ThresholdConversion);

void BM_ExactSearchQuery(benchmark::State& state) {
  const size_t num_domains = static_cast<size_t>(state.range(0));
  ExactSearch engine;
  Rng rng(6);
  for (uint64_t id = 0; id < num_domains; ++id) {
    std::vector<uint64_t> values(10 + rng.NextBounded(90));
    for (auto& v : values) v = rng.NextBounded(200000);
    (void)engine.Add(id, values);
  }
  engine.Build();
  std::vector<uint64_t> query(50);
  for (auto& v : query) v = rng.NextBounded(200000);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Query(query, 0.5, &out));
  }
}
BENCHMARK(BM_ExactSearchQuery)->Arg(10000)->Arg(50000);

// --- lower_bound_many: the probe's lockstep slot-0 descent, per kernel --
// One row per dispatch table the CPU supports (scalar / avx2 / avx512),
// registered at static-init from the runtime kernel list. Args are
// (n = keys per tree, count = probed trees per call, at most 32); n=52
// matches the throughput bench's per-forest population, 4096 a mid-size
// partition, 65536 exercises a deep gather-bound descent. Run with
// --benchmark_format=json (or --benchmark_out=...) for JSON rows.
void BM_LowerBoundMany(benchmark::State& state, const HashKernelOps* ops) {
  constexpr uint32_t kNumTrees = 32;
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  Rng rng(7);
  // Duplicate-heavy sorted arrays: values drawn from [0, n) leave every
  // key with an expected run of ~1 plus genuine multi-element runs, the
  // distribution the forest's truncated-hash slot 0 produces.
  std::vector<uint32_t> first_keys(size_t{kNumTrees} * n);
  for (uint32_t t = 0; t < kNumTrees; ++t) {
    uint32_t* tree = first_keys.data() + size_t{t} * n;
    for (uint32_t i = 0; i < n; ++i) {
      tree[i] = static_cast<uint32_t>(rng.NextBounded(n));
    }
    std::sort(tree, tree + n);
  }
  std::vector<uint32_t> keys(count), lo(count), hi(count);
  for (size_t i = 0; i < count; ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBounded(n + 2));
  }
  // In-binary parity: a kernel must reproduce the scalar ranges bit for
  // bit before it may report a time.
  std::vector<uint32_t> want_lo(count), want_hi(count);
  ScalarKernelOps().lower_bound_many(first_keys.data(), n, keys.data(), count,
                                     want_lo.data(), want_hi.data());
  ops->lower_bound_many(first_keys.data(), n, keys.data(), count, lo.data(),
                        hi.data());
  if (lo != want_lo || hi != want_hi) {
    state.SkipWithError("lower_bound_many diverges from the scalar kernel");
    return;
  }
  for (auto _ : state) {
    ops->lower_bound_many(first_keys.data(), n, keys.data(), count, lo.data(),
                          hi.data());
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}

const int kRegisterLowerBoundMany = [] {
  const HashKernelOps* kernels[] = {&ScalarKernelOps(), Avx2KernelOps(),
                                    Avx512KernelOps()};
  for (const HashKernelOps* ops : kernels) {
    if (ops == nullptr) continue;
    const std::string name =
        std::string("BM_LowerBoundMany/") + ops->name;
    benchmark::RegisterBenchmark(name.c_str(), BM_LowerBoundMany, ops)
        ->Args({52, 32})
        ->Args({4096, 32})
        ->Args({65536, 32});
  }
  return 0;
}();

void BM_HashBytes(benchmark::State& state) {
  const std::string value = "NSERC GRANT PARTNER 2011";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashString(value));
  }
}
BENCHMARK(BM_HashBytes);

}  // namespace
}  // namespace lshensemble

BENCHMARK_MAIN();
