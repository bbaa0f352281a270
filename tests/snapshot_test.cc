// Format-v2 zero-copy snapshots: round trips, zero-copy assertions,
// mutate-after-open lifecycle, sharded snapshot sets, and corruption
// fuzzing over both on-disk formats (every byte flipped and every
// truncation must be rejected, never crash — the ASan job runs this
// suite in full).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "test_tmp.h"
#include "topk_reference.h"
#include "core/dynamic_ensemble.h"
#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "io/ensemble_io.h"
#include "io/file.h"
#include "io/snapshot.h"
#include "lsh/arena_ref.h"
#include "lsh/lsh_forest.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

std::string TempPath(const std::string& name) {
  // Per-process dir: each discovered TEST runs as its own ctest process,
  // so a shared fixed path would race under `ctest -j`.
  return ProcessTempPath(name);
}

// ------------------------------------------------------------ mapped file

TEST(MappedFileTest, MissingFileIsNotFound) {
  EXPECT_TRUE(MappedFile::Open(TempPath("does_not_exist_v2")).status()
                  .IsNotFound());
}

TEST(MappedFileTest, MapsWrittenBytes) {
  const std::string path = TempPath("mapped_file_test.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "mapped bytes \x01\x02").ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->data(), std::string_view("mapped bytes \x01\x02"));
  RemoveFileIfExists(path).ok();
}

TEST(MappedFileTest, EmptyFileMapsEmpty) {
  const std::string path = TempPath("mapped_empty.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->data().empty());
  RemoveFileIfExists(path).ok();
}

// ------------------------------------------------------- forest FromMapped

TEST(LshForestFromMappedTest, ViewsAnswerIdentically) {
  auto family = HashFamily::Create(32, /*seed=*/9).value();
  auto forest = LshForest::Create(/*num_trees=*/4, /*tree_depth=*/8).value();
  Rng rng(23);
  std::vector<MinHash> signatures;
  for (uint64_t id = 0; id < 60; ++id) {
    std::vector<uint64_t> values(10 + id);
    for (auto& v : values) v = rng.Next();
    signatures.push_back(MinHash::FromValues(family, values));
    ASSERT_TRUE(forest.Add(id * 3, signatures.back()).ok());
  }
  forest.Index();

  const uint64_t copies_before = ArenaCopyBytes().load();
  auto mapped = LshForest::FromMapped(
      4, 8, forest.id_array(), forest.key_arena(), forest.entry_arena(),
      forest.first_key_arena(), nullptr);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(ArenaCopyBytes().load(), copies_before);
  EXPECT_TRUE(mapped->mapped());
  EXPECT_FALSE(forest.mapped());
  EXPECT_EQ(mapped->size(), forest.size());
  // The views literally alias the source arenas.
  EXPECT_EQ(mapped->key_arena().data(), forest.key_arena().data());
  EXPECT_EQ(mapped->MemoryBytes(), 0u);

  for (int b : {1, 2, 4}) {
    for (int r : {1, 5, 8}) {
      for (size_t qi = 0; qi < signatures.size(); qi += 7) {
        std::vector<uint64_t> expected, actual;
        ASSERT_TRUE(forest.Query(signatures[qi], b, r, &expected).ok());
        ASSERT_TRUE(mapped->Query(signatures[qi], b, r, &actual).ok());
        EXPECT_EQ(actual, expected) << "b=" << b << " r=" << r;
      }
    }
  }
}

TEST(LshForestFromMappedTest, RejectsBadShapes) {
  auto family = HashFamily::Create(16, 3).value();
  auto forest = LshForest::Create(2, 8).value();
  std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(forest.Add(7, MinHash::FromValues(family, values)).ok());
  forest.Index();

  // Arena extents that disagree with the shape.
  EXPECT_TRUE(LshForest::FromMapped(2, 8, forest.id_array(),
                                    forest.key_arena().subspan(1),
                                    forest.entry_arena(),
                                    forest.first_key_arena(), nullptr)
                  .status()
                  .IsCorruption());
  // Out-of-range entry indices are not scanned at open — the snapshot
  // writer bounds them at write time and the probe clamp skips them —
  // so a wild index opens fine and can never surface a phantom
  // candidate (only ids actually in the forest).
  std::vector<uint32_t> bad_entries(forest.entry_arena().begin(),
                                    forest.entry_arena().end());
  bad_entries[0] = 999;
  auto mapped = LshForest::FromMapped(2, 8, forest.id_array(),
                                      forest.key_arena(), bad_entries,
                                      forest.first_key_arena(), nullptr);
  ASSERT_TRUE(mapped.ok());
  std::vector<uint64_t> out;
  ASSERT_TRUE(
      mapped->Query(MinHash::FromValues(family, values), 2, 8, &out).ok());
  for (const uint64_t id : out) EXPECT_EQ(id, 7u);
}

// ------------------------------------------------------ ensemble snapshots

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 600;
    gen.seed = 91;
    corpus_ = CorpusGenerator(gen).Generate().value();
    family_ = HashFamily::Create(options_.num_hashes, /*seed=*/11).value();

    LshEnsembleBuilder builder(options_, family_);
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(builder
                      .Add(domain.id, domain.size(),
                           MinHash::FromValues(family_, domain.values))
                      .ok());
    }
    ensemble_ = std::move(builder).Build().value();
  }

  void TearDown() override {
    RemoveFileIfExists(path_).ok();
    RemoveFileIfExists(v1_path_).ok();
  }

  MinHash Sketch(size_t index) const {
    return MinHash::FromValues(family_, corpus_->domain(index).values);
  }

  /// A deterministic query batch over the corpus (sketches must outlive
  /// the returned specs).
  std::vector<QuerySpec> MakeSpecs(std::vector<MinHash>* sketches,
                                   size_t count = 24) const {
    sketches->clear();
    for (size_t i = 0; i < count; ++i) {
      sketches->push_back(Sketch((i * 37) % corpus_->size()));
    }
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < count; ++i) {
      const size_t index = (i * 37) % corpus_->size();
      specs.push_back(QuerySpec{&(*sketches)[i], corpus_->domain(index).size(),
                                0.2 + 0.2 * static_cast<double>(i % 4)});
    }
    return specs;
  }

  LshEnsembleOptions options_{.num_partitions = 8, .num_hashes = 64,
                              .tree_depth = 4};
  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<LshEnsemble> ensemble_;
  std::string path_ = TempPath("lshe_snapshot_test.lshe2");
  std::string v1_path_ = TempPath("lshe_snapshot_test_v1.lshe");
};

TEST_F(SnapshotTest, MappedOpenAnswersBitIdentically) {
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path_).ok());
  auto mapped = OpenEnsembleMapped(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  EXPECT_EQ(mapped->size(), ensemble_->size());
  ASSERT_EQ(mapped->partitions().size(), ensemble_->partitions().size());
  for (size_t i = 0; i < mapped->partitions().size(); ++i) {
    EXPECT_EQ(mapped->partitions()[i], ensemble_->partitions()[i]);
  }
  EXPECT_TRUE(mapped->family()->SameAs(*family_));

  std::vector<MinHash> sketches;
  const std::vector<QuerySpec> specs = MakeSpecs(&sketches);
  std::vector<std::vector<uint64_t>> expected(specs.size());
  std::vector<std::vector<uint64_t>> actual(specs.size());
  QueryContext ctx_a, ctx_b;
  ASSERT_TRUE(ensemble_->BatchQuery(specs, &ctx_a, expected.data()).ok());
  ASSERT_TRUE(mapped->BatchQuery(specs, &ctx_b, actual.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
}

TEST_F(SnapshotTest, MappedOpenCopiesNoArenaBytes) {
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path_).ok());
  ASSERT_TRUE(SaveEnsemble(*ensemble_, v1_path_).ok());

  // v1 load materializes every arena (the counter moves, heap is used).
  const uint64_t before_v1 = ArenaCopyBytes().load();
  auto v1 = LoadEnsemble(v1_path_);
  ASSERT_TRUE(v1.ok());
  EXPECT_GT(ArenaCopyBytes().load(), before_v1);
  EXPECT_GT(v1->MemoryBytes(), 0u);

  // v2 mapped open copies nothing: the counter is untouched and the
  // engine owns zero arena bytes — its forests are views into the file.
  const uint64_t before_v2 = ArenaCopyBytes().load();
  auto mapped = OpenEnsembleMapped(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(ArenaCopyBytes().load(), before_v2);
  EXPECT_EQ(mapped->MemoryBytes(), 0u);
}

TEST_F(SnapshotTest, ArenasAliasTheMapping) {
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path_).ok());
  auto snapshot = MappedSnapshot::Open(path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_TRUE((*snapshot)->has_ensemble());
  EXPECT_FALSE((*snapshot)->has_sidecar());

  // Open a forest-level witness through the public snapshot API: the
  // ensemble built from this snapshot serves queries out of data().
  auto mapped = EnsembleFromSnapshot(*snapshot);
  ASSERT_TRUE(mapped.ok());
  const std::string_view image = (*snapshot)->data();
  // Probe a query and make sure the engine works while we can still
  // bound-check the mapping (the arenas alias `image`, enforced by
  // MemoryBytes() == 0 above plus the forest-level aliasing test).
  std::vector<uint64_t> out;
  ASSERT_TRUE(mapped->Query(Sketch(5), corpus_->domain(5).size(), 0.5, &out)
                  .ok());
  EXPECT_FALSE(image.empty());
}

TEST_F(SnapshotTest, LoadEnsembleDispatchesOnVersion) {
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path_).ok());
  ASSERT_TRUE(SaveEnsemble(*ensemble_, v1_path_).ok());
  auto from_v2 = LoadEnsemble(path_);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status();
  auto from_v1 = LoadEnsemble(v1_path_);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status();

  std::vector<MinHash> sketches;
  const std::vector<QuerySpec> specs = MakeSpecs(&sketches);
  std::vector<std::vector<uint64_t>> a(specs.size()), b(specs.size());
  QueryContext ctx_a, ctx_b;
  ASSERT_TRUE(from_v1->BatchQuery(specs, &ctx_a, a.data()).ok());
  ASSERT_TRUE(from_v2->BatchQuery(specs, &ctx_b, b.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(b[i], a[i]);
}

TEST_F(SnapshotTest, SnapshotImageIsDeterministic) {
  std::string first, second;
  ASSERT_TRUE(SerializeEnsembleSnapshot(*ensemble_, &first).ok());
  ASSERT_TRUE(SerializeEnsembleSnapshot(*ensemble_, &second).ok());
  EXPECT_EQ(first, second);
}

TEST_F(SnapshotTest, LazyOpenSkipsArenaChecksums) {
  std::string image;
  ASSERT_TRUE(SerializeEnsembleSnapshot(*ensemble_, &image).ok());
  // Flip a byte inside the first forest's key arena (after the 64-byte
  // header + id segment, so offset 64 + ids + pad; the exact spot does
  // not matter as long as it is inside a segment payload, which byte
  // 200 of a 600-domain image always is).
  std::string corrupt = image;
  corrupt[5000] = static_cast<char>(corrupt[5000] ^ 0x40);

  // Eager verification reports Corruption ...
  EXPECT_TRUE(MappedSnapshot::FromBuffer(corrupt, {.verify_checksums = true})
                  .status()
                  .IsCorruption());
  // ... lazy opens (serving mode) accept the structurally intact image;
  // probes stay memory-safe (wrong candidates at worst).
  auto lazy =
      MappedSnapshot::FromBuffer(corrupt, {.verify_checksums = false});
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  auto engine = EnsembleFromSnapshot(*lazy);
  ASSERT_TRUE(engine.ok());
  std::vector<uint64_t> out;
  EXPECT_TRUE(
      engine->Query(Sketch(0), corpus_->domain(0).size(), 0.5, &out).ok());
}

// The filter tier round-trips through a snapshot zero-copy: the mapped
// engine's filters are views into the image with the same blocks, and the
// filtered mapped engine answers byte-identically to a filterless one.
TEST_F(SnapshotTest, FilterSectionRoundTripsZeroCopy) {
  // Own file name: ctest -j runs sibling tests that also write path_.
  const std::string path = TempPath("lshe_snapshot_filter_rt.lshe2");
  ASSERT_NE(ensemble_->engine_probe_filter(), nullptr)
      << "fixture should build filters by default";
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path).ok());

  const uint64_t before = ArenaCopyBytes().load();
  auto mapped = OpenEnsembleMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(ArenaCopyBytes().load(), before);

  const ProbeFilter* engine_filter = mapped->engine_probe_filter();
  ASSERT_NE(engine_filter, nullptr);
  EXPECT_TRUE(engine_filter->is_view());
  EXPECT_EQ(engine_filter->MemoryBytes(), 0u);
  EXPECT_EQ(engine_filter->num_blocks(),
            ensemble_->engine_probe_filter()->num_blocks());
  ASSERT_EQ(mapped->partition_probe_filters().size(),
            ensemble_->partition_probe_filters().size());
  for (size_t i = 0; i < mapped->partition_probe_filters().size(); ++i) {
    const ProbeFilter& view = mapped->partition_probe_filters()[i];
    const ProbeFilter& built = ensemble_->partition_probe_filters()[i];
    EXPECT_TRUE(view.is_view());
    ASSERT_EQ(view.num_blocks(), built.num_blocks()) << "partition " << i;
    EXPECT_TRUE(std::equal(view.blocks().begin(), view.blocks().end(),
                           built.blocks().begin()))
        << "partition " << i;
  }
  RemoveFileIfExists(path).ok();
}

// An image written without filters (the pre-filter-tier format) must keep
// opening: the manifest simply ends before the optional filter section,
// and the opened engine serves every query unpruned.
TEST_F(SnapshotTest, FilterlessImageOpensAndAnswersIdentically) {
  LshEnsembleOptions filterless_options = options_;
  filterless_options.build_probe_filter = false;
  LshEnsembleBuilder builder(filterless_options, family_);
  for (size_t i = 0; i < corpus_->size(); ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(builder
                    .Add(domain.id, domain.size(),
                         MinHash::FromValues(family_, domain.values))
                    .ok());
  }
  auto filterless = std::move(builder).Build().value();
  ASSERT_EQ(filterless.engine_probe_filter(), nullptr);

  std::string image;
  ASSERT_TRUE(SerializeEnsembleSnapshot(filterless, &image).ok());
  auto snapshot = MappedSnapshot::FromBuffer(std::move(image));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto opened = EnsembleFromSnapshot(*snapshot);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->engine_probe_filter(), nullptr);
  EXPECT_TRUE(opened->partition_probe_filters().empty());

  // Unpruned (filterless) answers == the filtered fixture engine's: the
  // filter is invisible in results, present or not.
  std::vector<MinHash> sketches;
  const std::vector<QuerySpec> specs = MakeSpecs(&sketches);
  std::vector<std::vector<uint64_t>> expected(specs.size());
  std::vector<std::vector<uint64_t>> actual(specs.size());
  QueryContext ctx_a, ctx_b;
  ASSERT_TRUE(ensemble_->BatchQuery(specs, &ctx_a, expected.data()).ok());
  ASSERT_TRUE(opened->BatchQuery(specs, &ctx_b, actual.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
}

// Pager hints must not change what an open accepts or returns — both
// settings parse the same images, verified or lazy.
TEST_F(SnapshotTest, MadviseOptionIsResultInvisible) {
  const std::string path = TempPath("lshe_snapshot_madvise.lshe2");
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path).ok());
  for (const bool verify : {true, false}) {
    for (const bool advise : {true, false}) {
      auto mapped = OpenEnsembleMapped(
          path, {.verify_checksums = verify, .apply_madvise = advise});
      ASSERT_TRUE(mapped.ok())
          << "verify=" << verify << " advise=" << advise << ": "
          << mapped.status();
      EXPECT_EQ(mapped->size(), ensemble_->size());
    }
  }
  RemoveFileIfExists(path).ok();
}

TEST_F(SnapshotTest, OpenValidationErrors) {
  EXPECT_TRUE(OpenEnsembleMapped(TempPath("missing.lshe2")).status()
                  .IsNotFound());
  // A v1 image is not a v2 snapshot.
  ASSERT_TRUE(SaveEnsemble(*ensemble_, v1_path_).ok());
  EXPECT_TRUE(OpenEnsembleMapped(v1_path_).status().IsCorruption());
  // An ensemble-only snapshot cannot open as a dynamic index.
  ASSERT_TRUE(WriteEnsembleSnapshot(*ensemble_, path_).ok());
  DynamicEnsembleOptions dyn_options;
  dyn_options.base = options_;
  EXPECT_TRUE(OpenDynamicSnapshot(path_, dyn_options).status()
                  .IsInvalidArgument());
  // Mismatched signature length is refused up front.
  DynamicEnsembleOptions wrong = dyn_options;
  wrong.base.num_hashes = 128;
  wrong.base.tree_depth = 4;
  EXPECT_TRUE(OpenDynamicSnapshot(path_, wrong).status()
                  .IsInvalidArgument());
}

// ----------------------------------------------------- corruption fuzzing

/// Every mutation of a serialized image must be rejected as Corruption or
/// NotSupported — never accepted, never a crash. `open` runs one decode.
template <typename OpenFn>
void FuzzImage(const std::string& image, OpenFn open) {
  // Single-bit and multi-bit flips at every byte.
  for (size_t offset = 0; offset < image.size(); ++offset) {
    for (const uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::string corrupt = image;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ mask);
      const Status status = open(corrupt);
      EXPECT_FALSE(status.ok()) << "offset " << offset << " mask "
                                << static_cast<int>(mask);
      EXPECT_TRUE(status.IsCorruption() || status.IsNotSupported())
          << "offset " << offset << " mask " << static_cast<int>(mask)
          << ": " << status.ToString();
    }
  }
  // Every truncation.
  for (size_t keep = 0; keep < image.size(); ++keep) {
    const Status status = open(image.substr(0, keep));
    EXPECT_FALSE(status.ok()) << "kept " << keep;
    EXPECT_TRUE(status.IsCorruption() || status.IsNotSupported())
        << "kept " << keep << ": " << status.ToString();
  }
  // Trailing garbage.
  EXPECT_FALSE(open(image + "x").ok());
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(16, /*seed=*/5).value();
    options_.num_partitions = 2;
    options_.num_hashes = 16;
    options_.tree_depth = 4;
    LshEnsembleBuilder builder(options_, family_);
    Rng rng(3);
    for (uint64_t id = 1; id <= 24; ++id) {
      std::vector<uint64_t> values(4 + id);
      for (auto& v : values) v = rng.Next();
      ASSERT_TRUE(builder
                      .Add(id, values.size(),
                           MinHash::FromValues(family_, values))
                      .ok());
    }
    ensemble_ = std::move(builder).Build().value();
  }

  LshEnsembleOptions options_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<LshEnsemble> ensemble_;
};

TEST_F(SnapshotFuzzTest, V1EveryByteMutationRejected) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  FuzzImage(image, [](const std::string& corrupt) {
    return DeserializeEnsemble(corrupt).status();
  });
}

TEST_F(SnapshotFuzzTest, V2EveryByteMutationRejected) {
  // The fixture builds with default options, so the image must carry the
  // probe-filter section — the sweep below then provably covers filter
  // segments and their manifest refs, not just the pre-filter layout.
  ASSERT_NE(ensemble_->engine_probe_filter(), nullptr);
  std::string image;
  ASSERT_TRUE(SerializeEnsembleSnapshot(*ensemble_, &image).ok());
  FuzzImage(image, [](const std::string& corrupt) {
    return DeserializeEnsemble(corrupt).status();
  });
}

TEST_F(SnapshotFuzzTest, V2DynamicEveryByteMutationRejected) {
  DynamicEnsembleOptions dyn_options;
  dyn_options.base = options_;
  dyn_options.min_delta_for_rebuild = 1000;
  auto index = DynamicLshEnsemble::Create(dyn_options, family_).value();
  Rng rng(7);
  for (uint64_t id = 1; id <= 30; ++id) {
    std::vector<uint64_t> values(4 + id);
    for (auto& v : values) v = rng.Next();
    ASSERT_TRUE(index.Insert(id, values).ok());
    if (id == 20) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  ASSERT_TRUE(index.Remove(3).ok());   // tombstone an indexed record
  ASSERT_TRUE(index.Remove(25).ok());  // drop a delta record

  // Like the static sweep: require the flushed core to carry filters so
  // the mutation sweep exercises the filter section of dynamic images.
  ASSERT_NE(index.indexed(), nullptr);
  ASSERT_NE(index.indexed()->engine_probe_filter(), nullptr);

  std::string image;
  ASSERT_TRUE(SerializeDynamicSnapshot(index, &image).ok());
  FuzzImage(image, [&](const std::string& corrupt) {
    return DynamicFromSnapshotBuffer(corrupt, dyn_options).status();
  });
}

// ---------------------------------------------------- dynamic lifecycle

class DynamicSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 300;
    gen.seed = 55;
    corpus_ = CorpusGenerator(gen).Generate().value();
    family_ = HashFamily::Create(kNumHashes, /*seed=*/21).value();
    options_.base.num_partitions = 6;
    options_.base.num_hashes = kNumHashes;
    options_.base.tree_depth = 4;
    options_.min_delta_for_rebuild = 100000;  // rebuild only on Flush()

    index_.emplace(DynamicLshEnsemble::Create(options_, family_).value());
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(index_
                      ->Insert(domain.id, domain.size(),
                               MinHash::FromValues(family_, domain.values))
                      .ok());
      if (i + 1 == 240) {
        ASSERT_TRUE(index_->Flush().ok());
      }
    }
    // Tombstone a few indexed records and drop one delta record, so the
    // snapshot carries all three side-car tables.
    for (size_t i : {3ul, 57ul, 120ul}) {
      ASSERT_TRUE(index_->Remove(corpus_->domain(i).id).ok());
    }
    ASSERT_TRUE(index_->Remove(corpus_->domain(250).id).ok());
    ASSERT_GT(index_->delta_size(), 0u);
    ASSERT_GT(index_->tombstone_count(), 0u);
  }

  void TearDown() override { RemoveFileIfExists(path_).ok(); }

  MinHash Sketch(size_t index) const {
    return MinHash::FromValues(family_, corpus_->domain(index).values);
  }

  std::vector<QuerySpec> MakeSpecs(std::vector<MinHash>* sketches) const {
    sketches->clear();
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < corpus_->size(); i += 17) {
      sketches->push_back(Sketch(i));
    }
    size_t j = 0;
    for (size_t i = 0; i < corpus_->size(); i += 17, ++j) {
      specs.push_back(QuerySpec{&(*sketches)[j], corpus_->domain(i).size(),
                                0.2 + 0.2 * static_cast<double>(j % 4)});
    }
    return specs;
  }

  /// BatchQuery both engines and require identical outputs. Before any
  /// rebuild the comparison is bit-identical (same candidate order);
  /// after independent rebuilds pass exact_order = false — candidate
  /// SETS stay equal but within-partition insertion order (an
  /// unordered_map walk at build time) is not canonical.
  void ExpectSameAnswers(const DynamicLshEnsemble& a,
                         const DynamicLshEnsemble& b,
                         bool exact_order = true) {
    std::vector<MinHash> sketches;
    const std::vector<QuerySpec> specs = MakeSpecs(&sketches);
    std::vector<std::vector<uint64_t>> outs_a(specs.size());
    std::vector<std::vector<uint64_t>> outs_b(specs.size());
    QueryContext ctx_a, ctx_b;
    ASSERT_TRUE(a.BatchQuery(specs, &ctx_a, outs_a.data()).ok());
    ASSERT_TRUE(b.BatchQuery(specs, &ctx_b, outs_b.data()).ok());
    for (size_t i = 0; i < specs.size(); ++i) {
      if (!exact_order) {
        std::sort(outs_a[i].begin(), outs_a[i].end());
        std::sort(outs_b[i].begin(), outs_b[i].end());
      }
      EXPECT_EQ(outs_b[i], outs_a[i]) << "query " << i;
    }
    // Top-k rides the same engines plus the side-car lookups, owned and
    // mapped (its ranked order is canonical regardless of candidate
    // order). The serving layer's own owned ≡ mapped ranking check is
    // ShardedSnapshotTest's.
    for (size_t i = 0; i < 6; ++i) {
      const TopKQuery query{specs[i].query, specs[i].query_size};
      EXPECT_EQ(ReferenceTopK(b, query, 5), ReferenceTopK(a, query, 5))
          << "topk query " << i;
    }
  }

  static constexpr int kNumHashes = 64;
  DynamicEnsembleOptions options_;
  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<DynamicLshEnsemble> index_;
  std::string path_ = TempPath("lshe_dynamic_snapshot.lshe2");
};

TEST_F(DynamicSnapshotTest, ReopenedIndexAnswersBitIdentically) {
  ASSERT_TRUE(WriteDynamicSnapshot(*index_, path_).ok());
  const uint64_t copies_before = ArenaCopyBytes().load();
  auto reopened = OpenDynamicSnapshot(path_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(ArenaCopyBytes().load(), copies_before);  // no arena copies

  EXPECT_EQ(reopened->size(), index_->size());
  EXPECT_EQ(reopened->indexed_size(), index_->indexed_size());
  EXPECT_EQ(reopened->delta_size(), index_->delta_size());
  EXPECT_EQ(reopened->tombstone_count(), index_->tombstone_count());
  ExpectSameAnswers(*index_, *reopened);

  // Side-car lookups serve mapped and overlay records alike.
  const uint64_t mapped_id = corpus_->domain(0).id;   // indexed
  const uint64_t overlay_id = corpus_->domain(260).id;  // delta
  size_t size = 0;
  EXPECT_TRUE(static_cast<bool>(reopened->FindSignature(mapped_id, &size)));
  EXPECT_EQ(size, corpus_->domain(0).size());
  EXPECT_TRUE(static_cast<bool>(reopened->FindSignature(overlay_id, &size)));
  EXPECT_EQ(reopened->SizeOf(mapped_id), corpus_->domain(0).size());
  // Tombstoned records are dead through every lookup.
  const uint64_t dead_id = corpus_->domain(3).id;
  EXPECT_FALSE(static_cast<bool>(reopened->FindSignature(dead_id, &size)));
  EXPECT_EQ(reopened->SizeOf(dead_id), 0u);
}

TEST_F(DynamicSnapshotTest, FullLifecycleThroughResnapshot) {
  // build -> save v2 -> mmap open -> insert/remove/flush -> re-snapshot,
  // mirrored against the always-in-memory engine at every step.
  ASSERT_TRUE(WriteDynamicSnapshot(*index_, path_).ok());
  auto reopened = OpenDynamicSnapshot(path_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // Mutate both sides identically: a fresh insert, a mapped-record
  // removal, an overlay removal, and a re-insert of a removed id.
  auto mutate = [&](DynamicLshEnsemble* engine) {
    std::vector<uint64_t> fresh = {901, 902, 903, 904, 905};
    ASSERT_TRUE(engine->Insert(9001, fresh).ok());
    ASSERT_TRUE(engine->Remove(corpus_->domain(10).id).ok());   // indexed
    ASSERT_TRUE(engine->Remove(corpus_->domain(255).id).ok());  // delta
    const std::vector<uint64_t> reborn = {11, 12, 13, 14};
    ASSERT_TRUE(engine->Insert(corpus_->domain(10).id, reborn).ok());
  };
  mutate(&*index_);
  mutate(&*reopened);
  // A mapped-live id cannot be double-inserted.
  const std::vector<uint64_t> dup = {1, 2, 3};
  EXPECT_TRUE(reopened->Insert(corpus_->domain(1).id, dup)
                  .IsInvalidArgument());
  ExpectSameAnswers(*index_, *reopened);

  // Flush both: the reopened engine materializes its mapped records,
  // rebuilds on the heap, and releases the mapping.
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(reopened->Flush().ok());
  EXPECT_EQ(reopened->size(), index_->size());
  EXPECT_EQ(reopened->delta_size(), 0u);
  EXPECT_EQ(reopened->tombstone_count(), 0u);
  ExpectSameAnswers(*index_, *reopened, /*exact_order=*/false);

  // Re-snapshot the flushed engine and open it again: the reopen itself
  // is exact against the engine it was saved from.
  ASSERT_TRUE(WriteDynamicSnapshot(*reopened, path_).ok());
  auto again = OpenDynamicSnapshot(path_, options_);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectSameAnswers(*reopened, *again);
  ExpectSameAnswers(*index_, *again, /*exact_order=*/false);
}

TEST_F(DynamicSnapshotTest, FlushOnCleanMappedIndexMaterializes) {
  // Flush() must rebuild even a CLEAN snapshot-opened index: the
  // documented way to detach from the snapshot file. Flush everything
  // first so the reopened engine starts clean.
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(WriteDynamicSnapshot(*index_, path_).ok());
  auto reopened = OpenDynamicSnapshot(path_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  const uint64_t mapped_id = corpus_->domain(0).id;
  // Mapped records have no owned MinHash before the flush...
  EXPECT_EQ(reopened->SignatureOf(mapped_id), nullptr);
  EXPECT_EQ(reopened->indexed()->MemoryBytes(), 0u);  // arenas are views
  ASSERT_TRUE(reopened->Flush().ok());
  // ... and are heap-materialized after it (the mapping is released).
  EXPECT_NE(reopened->SignatureOf(mapped_id), nullptr);
  EXPECT_GT(reopened->indexed()->MemoryBytes(), 0u);
  ExpectSameAnswers(*index_, *reopened, /*exact_order=*/false);
}

TEST_F(DynamicSnapshotTest, OpenAppliesCallerQueryPolicy) {
  // The caller's query-time policy (here the unreachable-size prune)
  // must govern BOTH the mapped indexed path and the delta scan — not
  // the flags the index happened to be saved with.
  DynamicEnsembleOptions no_prune = options_;
  no_prune.base.prune_unreachable_partitions = false;
  auto saved = DynamicLshEnsemble::Create(no_prune, family_).value();
  for (size_t i = 0; i < 80; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(saved
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
  }
  ASSERT_TRUE(saved.Flush().ok());
  ASSERT_TRUE(WriteDynamicSnapshot(saved, path_).ok());

  DynamicEnsembleOptions with_prune = options_;
  with_prune.base.prune_unreachable_partitions = true;
  auto reopened = OpenDynamicSnapshot(path_, with_prune);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // A heap reference with the same policy must agree exactly.
  auto reference = DynamicLshEnsemble::Create(with_prune, family_).value();
  for (size_t i = 0; i < 80; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(reference
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
  }
  ASSERT_TRUE(reference.Flush().ok());
  for (size_t qi = 60; qi < 80; qi += 4) {
    const MinHash sketch = Sketch(qi);
    const size_t q = corpus_->domain(qi).size();
    for (const double t_star : {0.5, 0.9}) {
      std::vector<uint64_t> expected, actual;
      ASSERT_TRUE(reference.Query(sketch, q, t_star, &expected).ok());
      ASSERT_TRUE(reopened->Query(sketch, q, t_star, &actual).ok());
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "query " << qi << " t*=" << t_star;
    }
  }
}

TEST_F(DynamicSnapshotTest, DynamicImageIsDeterministic) {
  std::string first, second;
  ASSERT_TRUE(SerializeDynamicSnapshot(*index_, &first).ok());
  ASSERT_TRUE(SerializeDynamicSnapshot(*index_, &second).ok());
  EXPECT_EQ(first, second);
}

TEST_F(DynamicSnapshotTest, PureDeltaSnapshotRoundTrips) {
  // An index that never flushed has no ensemble image: the snapshot is
  // pure side-car and must restore (and stay mutable) all the same.
  auto pure = DynamicLshEnsemble::Create(options_, family_).value();
  for (size_t i = 0; i < 20; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(pure.Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
  }
  ASSERT_TRUE(WriteDynamicSnapshot(pure, path_).ok());
  auto reopened = OpenDynamicSnapshot(path_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->size(), pure.size());
  EXPECT_EQ(reopened->indexed_size(), 0u);
  ExpectSameAnswers(pure, *reopened);
}

// ------------------------------------------------------- sharded snapshots

class ShardedSnapshotTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 260;
    gen.seed = 77;
    corpus_ = CorpusGenerator(gen).Generate().value();
    family_ = HashFamily::Create(kNumHashes, /*seed=*/31).value();
    options_.base.base.num_partitions = 6;
    options_.base.base.num_hashes = kNumHashes;
    options_.base.base.tree_depth = 4;
    options_.base.min_delta_for_rebuild = 100000;
    options_.num_shards = GetParam();

    index_.emplace(ShardedEnsemble::Create(options_, family_).value());
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(index_
                      ->Insert(domain.id, domain.size(),
                               MinHash::FromValues(family_, domain.values))
                      .ok());
      if (i + 1 == 220) {
        ASSERT_TRUE(index_->Flush().ok());
      }
    }
    for (size_t i : {5ul, 60ul, 230ul}) {
      ASSERT_TRUE(index_->Remove(corpus_->domain(i).id).ok());
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  MinHash Sketch(size_t index) const {
    return MinHash::FromValues(family_, corpus_->domain(index).values);
  }

  void ExpectSameAnswers(const ShardedEnsemble& a, const ShardedEnsemble& b) {
    std::vector<MinHash> sketches;
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < corpus_->size(); i += 13) {
      sketches.push_back(Sketch(i));
    }
    size_t j = 0;
    for (size_t i = 0; i < corpus_->size(); i += 13, ++j) {
      specs.push_back(QuerySpec{&sketches[j], corpus_->domain(i).size(),
                                0.2 + 0.2 * static_cast<double>(j % 4)});
    }
    std::vector<std::vector<uint64_t>> outs_a(specs.size());
    std::vector<std::vector<uint64_t>> outs_b(specs.size());
    ASSERT_TRUE(a.BatchQuery(specs, outs_a.data()).ok());
    ASSERT_TRUE(b.BatchQuery(specs, outs_b.data()).ok());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(outs_b[i], outs_a[i]) << "query " << i;
    }
    std::vector<TopKQuery> queries;
    for (size_t i = 0; i < 5; ++i) {
      queries.push_back(TopKQuery{specs[i].query, specs[i].query_size});
    }
    std::vector<std::vector<TopKResult>> topk_a(queries.size());
    std::vector<std::vector<TopKResult>> topk_b(queries.size());
    ASSERT_TRUE(a.BatchSearch(queries, 4, topk_a.data()).ok());
    ASSERT_TRUE(b.BatchSearch(queries, 4, topk_b.data()).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(topk_b[i], topk_a[i]) << "topk query " << i;
    }
  }

  static constexpr int kNumHashes = 64;
  ShardedEnsembleOptions options_;
  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<ShardedEnsemble> index_;
  std::string dir_ = TempPath("lshe_sharded_snapshot_" +
                              std::to_string(GetParam()));
};

TEST_P(ShardedSnapshotTest, SaveOpenMutateResnapshot) {
  ASSERT_TRUE(index_->SaveSnapshot(dir_).ok());
  const uint64_t copies_before = ArenaCopyBytes().load();
  auto reopened = ShardedEnsemble::OpenSnapshot(dir_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(ArenaCopyBytes().load(), copies_before);  // S mmaps, 0 copies

  EXPECT_EQ(reopened->num_shards(), index_->num_shards());
  EXPECT_EQ(reopened->size(), index_->size());
  EXPECT_EQ(reopened->indexed_size(), index_->indexed_size());
  EXPECT_EQ(reopened->delta_size(), index_->delta_size());
  EXPECT_EQ(reopened->tombstone_count(), index_->tombstone_count());
  ExpectSameAnswers(*index_, *reopened);

  // Mutate both sides identically, re-check, then flush + re-snapshot.
  const std::vector<uint64_t> fresh_a = {70, 71, 72, 73};
  const std::vector<uint64_t> fresh_b = {80, 81, 82};
  auto mutate = [&](ShardedEnsemble* engine) {
    ASSERT_TRUE(engine->Insert(7001, fresh_a).ok());
    ASSERT_TRUE(engine->Remove(corpus_->domain(20).id).ok());
    ASSERT_TRUE(engine->Insert(7002, fresh_b).ok());
  };
  mutate(&*index_);
  mutate(&*reopened);
  ExpectSameAnswers(*index_, *reopened);

  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(reopened->Flush().ok());
  ExpectSameAnswers(*index_, *reopened);

  ASSERT_TRUE(reopened->SaveSnapshot(dir_).ok());
  auto again = ShardedEnsemble::OpenSnapshot(dir_, options_);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectSameAnswers(*index_, *again);
}

TEST_P(ShardedSnapshotTest, MatchesUnshardedEngine) {
  // The snapshot-opened sharded layer must still equal the unsharded
  // engine — the serving layer's core invariant, across the open.
  ASSERT_TRUE(index_->SaveSnapshot(dir_).ok());
  auto reopened = ShardedEnsemble::OpenSnapshot(dir_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // The reference replays the exact same lifecycle unsharded: insert
  // all, flush at 220, then the same removals — so indexed/delta/
  // tombstone staging matches, and the sharded layer's corpus-global
  // partition pinning makes the candidate sets equal by design.
  DynamicEnsembleOptions dyn_options = options_.base;
  auto reference = DynamicLshEnsemble::Create(dyn_options, family_).value();
  for (size_t i = 0; i < corpus_->size(); ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(reference
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
    if (i + 1 == 220) {
      ASSERT_TRUE(reference.Flush().ok());
    }
  }
  for (size_t i : {5ul, 60ul, 230ul}) {
    ASSERT_TRUE(reference.Remove(corpus_->domain(i).id).ok());
  }
  std::vector<MinHash> sketches;
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < corpus_->size(); i += 19) {
    sketches.push_back(Sketch(i));
  }
  size_t j = 0;
  for (size_t i = 0; i < corpus_->size(); i += 19, ++j) {
    specs.push_back(
        QuerySpec{&sketches[j], corpus_->domain(i).size(), 0.4});
  }
  std::vector<std::vector<uint64_t>> sharded_outs(specs.size());
  ASSERT_TRUE(reopened->BatchQuery(specs, sharded_outs.data()).ok());
  QueryContext ctx;
  std::vector<std::vector<uint64_t>> reference_outs(specs.size());
  ASSERT_TRUE(
      reference.BatchQuery(specs, &ctx, reference_outs.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::sort(reference_outs[i].begin(), reference_outs[i].end());
    EXPECT_EQ(sharded_outs[i], reference_outs[i]) << "query " << i;
  }
}

TEST_P(ShardedSnapshotTest, OpenValidatesShardCount) {
  ASSERT_TRUE(index_->SaveSnapshot(dir_).ok());
  ShardedEnsembleOptions wrong = options_;
  wrong.num_shards = GetParam() + 1;
  EXPECT_TRUE(ShardedEnsemble::OpenSnapshot(dir_, wrong).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ShardedEnsemble::OpenSnapshot(dir_ + "_missing", options_).status()
          .IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedSnapshotTest,
                         ::testing::Values(1ul, 2ul, 4ul));

}  // namespace
}  // namespace lshensemble
