#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/lsh_ensemble.h"
#include "test_tmp.h"
#include "io/coding.h"
#include "io/crc32c.h"
#include "io/ensemble_io.h"
#include "io/file.h"
#include "lsh/lsh_forest.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

// ----------------------------------------------------------------- coding

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buffer;
  PutFixed32(&buffer, 0);
  PutFixed32(&buffer, 0xDEADBEEFu);
  PutFixed32(&buffer, UINT32_MAX);
  DecodeCursor cursor(buffer);
  uint32_t value = 1;
  ASSERT_TRUE(cursor.GetFixed32(&value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(cursor.GetFixed32(&value));
  EXPECT_EQ(value, 0xDEADBEEFu);
  ASSERT_TRUE(cursor.GetFixed32(&value));
  EXPECT_EQ(value, UINT32_MAX);
  EXPECT_TRUE(cursor.empty());
}

TEST(CodingTest, Fixed32IsLittleEndian) {
  std::string buffer;
  PutFixed32(&buffer, 0x04030201u);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], 1);
  EXPECT_EQ(buffer[1], 2);
  EXPECT_EQ(buffer[2], 3);
  EXPECT_EQ(buffer[3], 4);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buffer;
  PutFixed64(&buffer, 0x1122334455667788ull);
  DecodeCursor cursor(buffer);
  uint64_t value = 0;
  ASSERT_TRUE(cursor.GetFixed64(&value));
  EXPECT_EQ(value, 0x1122334455667788ull);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Varint64) {
  std::string buffer;
  PutVarint64(&buffer, GetParam());
  DecodeCursor cursor(buffer);
  uint64_t value = 0;
  ASSERT_TRUE(cursor.GetVarint64(&value));
  EXPECT_EQ(value, GetParam());
  EXPECT_TRUE(cursor.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, (1ull << 63),
                      UINT64_MAX - 1, UINT64_MAX));

TEST(CodingTest, VarintLengthsAreMinimal) {
  for (int bits = 0; bits < 64; ++bits) {
    const uint64_t value = 1ull << bits;
    std::string buffer;
    PutVarint64(&buffer, value);
    EXPECT_EQ(buffer.size(), static_cast<size_t>(bits / 7 + 1)) << bits;
  }
}

TEST(CodingTest, Varint32RejectsOversizedValue) {
  std::string buffer;
  PutVarint64(&buffer, uint64_t{UINT32_MAX} + 1);
  DecodeCursor cursor(buffer);
  uint32_t value = 0;
  EXPECT_FALSE(cursor.GetVarint32(&value));
  // A failed read must not consume bytes.
  uint64_t wide = 0;
  ASSERT_TRUE(cursor.GetVarint64(&wide));
  EXPECT_EQ(wide, uint64_t{UINT32_MAX} + 1);
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buffer;
  PutVarint64(&buffer, UINT64_MAX);
  for (size_t keep = 0; keep + 1 < buffer.size(); ++keep) {
    DecodeCursor cursor(std::string_view(buffer).substr(0, keep));
    uint64_t value = 0;
    EXPECT_FALSE(cursor.GetVarint64(&value)) << "kept " << keep;
  }
}

TEST(CodingTest, VarintOverflowFails) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  const std::string buffer(11, '\x80');
  DecodeCursor cursor(buffer);
  uint64_t value = 0;
  EXPECT_FALSE(cursor.GetVarint64(&value));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buffer;
  PutLengthPrefixed(&buffer, "hello");
  PutLengthPrefixed(&buffer, "");
  PutLengthPrefixed(&buffer, std::string(1000, 'x'));
  DecodeCursor cursor(buffer);
  std::string_view value;
  ASSERT_TRUE(cursor.GetLengthPrefixed(&value));
  EXPECT_EQ(value, "hello");
  ASSERT_TRUE(cursor.GetLengthPrefixed(&value));
  EXPECT_EQ(value, "");
  ASSERT_TRUE(cursor.GetLengthPrefixed(&value));
  EXPECT_EQ(value.size(), 1000u);
  EXPECT_TRUE(cursor.empty());
}

TEST(CodingTest, LengthPrefixedTruncatedPayloadFails) {
  std::string buffer;
  PutVarint64(&buffer, 100);  // claims 100 bytes
  buffer += "short";
  DecodeCursor cursor(buffer);
  std::string_view value;
  EXPECT_FALSE(cursor.GetLengthPrefixed(&value));
  EXPECT_EQ(cursor.remaining(), buffer.size());  // nothing consumed
}

TEST(CodingTest, GetRawBounds) {
  DecodeCursor cursor("abc");
  std::string_view value;
  EXPECT_FALSE(cursor.GetRaw(4, &value));
  EXPECT_TRUE(cursor.GetRaw(3, &value));
  EXPECT_EQ(value, "abc");
  EXPECT_TRUE(cursor.GetRaw(0, &value));
  EXPECT_TRUE(value.empty());
}

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C check value.
  EXPECT_EQ(crc32c::Value("123456789"), 0xE3069283u);
  // 32 zero bytes (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendIsIncremental) {
  const std::string data = "hello world, this is a checksum test";
  const uint32_t whole = crc32c::Value(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t partial = crc32c::Extend(
        crc32c::Extend(0, data.data(), split), data.data() + split,
        data.size() - split);
    EXPECT_EQ(partial, whole) << "split " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::string data(64, 'a');
  const uint32_t base = crc32c::Value(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    data[byte] ^= 1;
    EXPECT_NE(crc32c::Value(data), base) << "byte " << byte;
    data[byte] ^= 1;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, UINT32_MAX}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

// The hardware (SSE4.2) kernel must agree with the software slice-by-4
// reference on every length, alignment, and running-CRC seed — snapshot
// images written by one machine are verified by any other.
TEST(Crc32cTest, HardwareAndSoftwareKernelsAgree) {
  auto* hw = crc32c::internal::ExtendHw();
  if (hw == nullptr) {
    GTEST_SKIP() << "CRC32 instruction unavailable on this CPU/build";
  }
  std::mt19937_64 rng(314159);
  std::vector<unsigned char> buffer(4096 + 16);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng());
  for (const size_t length :
       {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
        size_t{63}, size_t{64}, size_t{1000}, size_t{4096}}) {
    for (size_t misalign = 0; misalign < 9; ++misalign) {
      const unsigned char* p = buffer.data() + misalign;
      for (const uint32_t seed : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(crc32c::internal::ExtendSw(seed, p, length),
                  hw(seed, p, length))
            << "length " << length << " misalign " << misalign << " seed "
            << seed;
      }
    }
  }
}

// ------------------------------------------------------------------- file

class FileIoTest : public ::testing::Test {
 protected:
  void TearDown() override { RemoveFileIfExists(path_).ok(); }
  std::string path_ = ProcessTempPath("lshe_file_test.bin");
};

TEST_F(FileIoTest, WriteReadRoundTrip) {
  std::string payload = "binary\0data\xff with nulls";
  payload.push_back('\0');
  ASSERT_TRUE(WriteFileAtomic(path_, payload).ok());
  std::string read_back;
  ASSERT_TRUE(ReadFileToString(path_, &read_back).ok());
  EXPECT_EQ(read_back, payload);
}

TEST_F(FileIoTest, OverwriteReplacesContents) {
  ASSERT_TRUE(WriteFileAtomic(path_, "first version, quite long").ok());
  ASSERT_TRUE(WriteFileAtomic(path_, "second").ok());
  std::string read_back;
  ASSERT_TRUE(ReadFileToString(path_, &read_back).ok());
  EXPECT_EQ(read_back, "second");
}

TEST_F(FileIoTest, EmptyFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "").ok());
  std::string read_back = "sentinel";
  ASSERT_TRUE(ReadFileToString(path_, &read_back).ok());
  EXPECT_TRUE(read_back.empty());
}

TEST_F(FileIoTest, MissingFileIsNotFound) {
  std::string read_back;
  const Status status =
      ReadFileToString(ProcessTempPath("does_not_exist_9x"), &read_back);
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(FileIoTest, NoTempFileLeftBehind) {
  ASSERT_TRUE(WriteFileAtomic(path_, "data").ok());
  std::string unused;
  EXPECT_TRUE(ReadFileToString(path_ + ".tmp", &unused).IsNotFound());
}

// ----------------------------------------------------- forest round trip

TEST(LshForestSerializationTest, RoundTripPreservesQueries) {
  auto family = HashFamily::Create(64, /*seed=*/7).value();
  auto forest = LshForest::Create(/*num_trees=*/8, /*tree_depth=*/8).value();
  Rng rng(11);
  std::vector<MinHash> signatures;
  for (uint64_t id = 0; id < 50; ++id) {
    std::vector<uint64_t> values(20 + id);
    for (auto& v : values) v = rng.Next();
    signatures.push_back(MinHash::FromValues(family, values));
    ASSERT_TRUE(forest.Add(id, signatures.back()).ok());
  }
  forest.Index();

  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());
  auto restored = LshForest::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), forest.size());

  for (int b : {1, 4, 8}) {
    for (int r : {1, 4, 8}) {
      for (size_t qi = 0; qi < signatures.size(); qi += 9) {
        std::vector<uint64_t> expected, actual;
        ASSERT_TRUE(forest.Query(signatures[qi], b, r, &expected).ok());
        ASSERT_TRUE(restored->Query(signatures[qi], b, r, &actual).ok());
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        EXPECT_EQ(actual, expected) << "b=" << b << " r=" << r;
      }
    }
  }
}

// The flattened key-arena layout must stay wire-compatible with the
// original per-tree-vector layout: trees emitted one after another, keys
// first, then the entry permutation. This test pins the byte stream
// against an independently hand-assembled image.
TEST(LshForestSerializationTest, WireFormatIsStable) {
  auto family = HashFamily::Create(2, /*seed=*/3).value();
  auto forest = LshForest::Create(/*num_trees=*/1, /*tree_depth=*/2).value();
  Rng rng(13);
  std::vector<MinHash> signatures;
  const uint64_t ids[] = {7, 9, 4};
  for (uint64_t id : ids) {
    std::vector<uint64_t> values(10 + id);
    for (auto& v : values) v = rng.Next();
    signatures.push_back(MinHash::FromValues(family, values));
    ASSERT_TRUE(forest.Add(id, signatures.back()).ok());
  }
  forest.Index();
  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());

  // Hand-assemble the expected image: keys are the top 32 bits of the
  // 61-bit minima, rows sorted lexicographically, entries the sort
  // permutation over insertion indices.
  auto key = [&](size_t record, size_t d) {
    return static_cast<uint32_t>(signatures[record].values()[d] >> 29);
  };
  std::vector<uint32_t> order = {0, 1, 2};
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::make_pair(key(a, 0), key(a, 1)) <
           std::make_pair(key(b, 0), key(b, 1));
  });
  std::string expected;
  PutVarint32(&expected, 1);  // num_trees
  PutVarint32(&expected, 2);  // tree_depth
  PutVarint64(&expected, 3);  // entry count
  for (uint64_t id : ids) PutFixed64(&expected, id);
  for (uint32_t record : order) {
    PutFixed32(&expected, key(record, 0));
    PutFixed32(&expected, key(record, 1));
  }
  for (uint32_t record : order) PutFixed32(&expected, record);
  EXPECT_EQ(image, expected);
}

TEST(LshForestSerializationTest, ReserializeIsByteIdentical) {
  auto family = HashFamily::Create(64, /*seed=*/8).value();
  auto forest = LshForest::Create(8, 8).value();
  Rng rng(17);
  for (uint64_t id = 0; id < 40; ++id) {
    std::vector<uint64_t> values(15 + id);
    for (auto& v : values) v = rng.Next();
    ASSERT_TRUE(forest.Add(id, MinHash::FromValues(family, values)).ok());
  }
  forest.Index();
  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());
  auto restored = LshForest::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  std::string image2;
  ASSERT_TRUE(restored->SerializeTo(&image2).ok());
  EXPECT_EQ(image2, image);
}

TEST(LshForestSerializationTest, UnindexedForestRejected) {
  auto forest = LshForest::Create(4, 4).value();
  std::string image;
  EXPECT_TRUE(forest.SerializeTo(&image).IsFailedPrecondition());
}

TEST(LshForestSerializationTest, EmptyForestRoundTrip) {
  auto forest = LshForest::Create(4, 4).value();
  forest.Index();
  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());
  auto restored = LshForest::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 0u);
}

TEST(LshForestSerializationTest, TruncationDetected) {
  auto family = HashFamily::Create(16, 7).value();
  auto forest = LshForest::Create(4, 4).value();
  std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  ASSERT_TRUE(forest.Add(1, MinHash::FromValues(family, values)).ok());
  forest.Index();
  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());
  for (size_t keep = 0; keep < image.size(); keep += 3) {
    auto restored =
        LshForest::Deserialize(std::string_view(image).substr(0, keep));
    EXPECT_FALSE(restored.ok()) << "kept " << keep;
  }
}

TEST(LshForestSerializationTest, TrailingBytesDetected) {
  auto forest = LshForest::Create(2, 2).value();
  forest.Index();
  std::string image;
  ASSERT_TRUE(forest.SerializeTo(&image).ok());
  image += "junk";
  EXPECT_FALSE(LshForest::Deserialize(image).ok());
}

// --------------------------------------------------- ensemble round trip

class EnsembleIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 800;
    gen.seed = 77;
    corpus_ = CorpusGenerator(gen).Generate().value();
    family_ = HashFamily::Create(options_.num_hashes, /*seed=*/3).value();

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

  void TearDown() override { RemoveFileIfExists(path_).ok(); }

  MinHash QuerySketch(size_t index) const {
    return MinHash::FromValues(family_, corpus_->domain(index).values);
  }

  LshEnsembleOptions options_{.num_partitions = 8, .num_hashes = 128,
                              .tree_depth = 4};
  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<LshEnsemble> ensemble_;
  std::string path_ = ProcessTempPath("lshe_index_test.bin");
};

TEST_F(EnsembleIoTest, SaveLoadPreservesStructure) {
  ASSERT_TRUE(SaveEnsemble(*ensemble_, path_).ok());
  auto loaded = LoadEnsemble(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), ensemble_->size());
  ASSERT_EQ(loaded->partitions().size(), ensemble_->partitions().size());
  for (size_t i = 0; i < loaded->partitions().size(); ++i) {
    EXPECT_EQ(loaded->partitions()[i], ensemble_->partitions()[i]);
  }
  EXPECT_EQ(loaded->options().num_hashes, options_.num_hashes);
  EXPECT_TRUE(loaded->family()->SameAs(*family_));
}

TEST_F(EnsembleIoTest, LoadedIndexAnswersQueriesIdentically) {
  ASSERT_TRUE(SaveEnsemble(*ensemble_, path_).ok());
  auto loaded = LoadEnsemble(path_);
  ASSERT_TRUE(loaded.ok());
  for (size_t qi = 0; qi < corpus_->size(); qi += 97) {
    for (double t_star : {0.2, 0.5, 0.9}) {
      const MinHash sketch = QuerySketch(qi);
      const size_t q = corpus_->domain(qi).size();
      std::vector<uint64_t> expected, actual;
      ASSERT_TRUE(ensemble_->Query(sketch, q, t_star, &expected).ok());
      ASSERT_TRUE(loaded->Query(sketch, q, t_star, &actual).ok());
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "query " << qi << " t*=" << t_star;
    }
  }
}

TEST_F(EnsembleIoTest, V1LoadRebuildsProbeFilters) {
  // v1 images carry no filter section; the decoder rebuilds the tier
  // from the decoded forests so a v1 -> v2 snapshot conversion writes
  // filter segments and v1-loaded engines prune like built ones.
  // Own temp path: fixture tests sharing path_ collide under ctest -j.
  const std::string path =
      ProcessTempPath("lshe_index_filter_rebuild.bin");
  ASSERT_TRUE(SaveEnsemble(*ensemble_, path).ok());
  auto loaded = LoadEnsemble(path);
  RemoveFileIfExists(path).ok();
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->engine_probe_filter(), nullptr);
  ASSERT_NE(ensemble_->engine_probe_filter(), nullptr);
  ASSERT_EQ(loaded->partition_probe_filters().size(),
            loaded->partitions().size());
  // Same records and options => the rebuilt filters are bit-identical
  // to the build-time ones.
  EXPECT_EQ(loaded->engine_probe_filter()->num_blocks(),
            ensemble_->engine_probe_filter()->num_blocks());
  const auto expected_blocks = ensemble_->engine_probe_filter()->blocks();
  const auto actual_blocks = loaded->engine_probe_filter()->blocks();
  ASSERT_EQ(actual_blocks.size(), expected_blocks.size());
  EXPECT_TRUE(std::equal(actual_blocks.begin(), actual_blocks.end(),
                         expected_blocks.begin()));
}

TEST_F(EnsembleIoTest, LoadedIndexAnswersBatchQueriesIdentically) {
  ASSERT_TRUE(SaveEnsemble(*ensemble_, path_).ok());
  auto loaded = LoadEnsemble(path_);
  ASSERT_TRUE(loaded.ok());

  std::vector<MinHash> sketches;
  std::vector<QuerySpec> specs;
  sketches.reserve(16);
  for (size_t qi = 0; qi < 16; ++qi) {
    const size_t index = (qi * 53) % corpus_->size();
    sketches.push_back(QuerySketch(index));
    specs.push_back(
        QuerySpec{&sketches.back(), corpus_->domain(index).size(), 0.5});
  }
  std::vector<std::vector<uint64_t>> expected(specs.size());
  std::vector<std::vector<uint64_t>> actual(specs.size());
  QueryContext ctx_a, ctx_b;
  ASSERT_TRUE(ensemble_->BatchQuery(specs, &ctx_a, expected.data()).ok());
  ASSERT_TRUE(loaded->BatchQuery(specs, &ctx_b, actual.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "query " << i;
  }
}

// The OPTIONS block's third flag byte is reserved: written 0, and an
// image carrying any other value (images from before the byte was
// reserved carry 1) loads and answers identically.
TEST_F(EnsembleIoTest, ReservedOptionsByteIsWrittenZeroAndIgnored) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  // Header (magic, version), then the OPTIONS block: type byte, varint
  // length, payload, masked CRC of the payload.
  DecodeCursor cursor(std::string_view(image).substr(9));
  std::string_view payload;
  ASSERT_TRUE(cursor.GetLengthPrefixed(&payload));
  const size_t payload_offset = image.size() - cursor.remaining() -
                                payload.size();
  std::string fields;
  PutVarint32(&fields, static_cast<uint32_t>(options_.num_partitions));
  PutVarint32(&fields, static_cast<uint32_t>(options_.num_hashes));
  PutVarint32(&fields, static_cast<uint32_t>(options_.tree_depth));
  fields.push_back(static_cast<char>(options_.strategy));
  PutFixed64(&fields, std::bit_cast<uint64_t>(options_.interpolation_lambda));
  PutVarint32(&fields, static_cast<uint32_t>(options_.integration_nodes));
  fields.push_back(options_.prune_unreachable_partitions ? 1 : 0);
  fields.push_back(options_.parallel_build ? 1 : 0);
  ASSERT_EQ(payload.substr(0, fields.size()), fields);
  const size_t reserved = payload_offset + fields.size();
  EXPECT_EQ(image[reserved], 0);

  std::string patched = image;
  patched[reserved] = 1;
  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(std::string_view(patched).substr(
                       payload_offset, payload.size()))));
  patched.replace(payload_offset + payload.size(), 4, crc);
  auto loaded = DeserializeEnsemble(patched);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string reserialized;
  ASSERT_TRUE(SerializeEnsemble(*loaded, &reserialized).ok());
  EXPECT_EQ(reserialized, image);
  for (size_t qi = 0; qi < corpus_->size(); qi += 97) {
    const MinHash sketch = QuerySketch(qi);
    const size_t q = corpus_->domain(qi).size();
    std::vector<uint64_t> expected, actual;
    ASSERT_TRUE(ensemble_->Query(sketch, q, 0.5, &expected).ok());
    ASSERT_TRUE(loaded->Query(sketch, q, 0.5, &actual).ok());
    EXPECT_EQ(actual, expected) << "query " << qi;
  }
}

TEST_F(EnsembleIoTest, CorruptionDetectedAtEveryByte) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  // Flip one bit at a sample of offsets; the loader must never accept the
  // image silently (either Corruption or — for bits inside the options
  // payload that the checksum catches — the checksum reports first).
  for (size_t offset = 0; offset < image.size();
       offset += std::max<size_t>(1, image.size() / 64)) {
    std::string corrupt = image;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x20);
    auto loaded = DeserializeEnsemble(corrupt);
    EXPECT_FALSE(loaded.ok()) << "offset " << offset;
  }
}

TEST_F(EnsembleIoTest, TruncationDetected) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  for (size_t keep : {size_t{0}, size_t{4}, size_t{8}, size_t{20},
                      image.size() / 2, image.size() - 1}) {
    auto loaded = DeserializeEnsemble(std::string_view(image).substr(0, keep));
    EXPECT_FALSE(loaded.ok()) << "kept " << keep;
  }
}

TEST_F(EnsembleIoTest, BadMagicRejected) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  image[0] = 'X';
  auto loaded = DeserializeEnsemble(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(EnsembleIoTest, NewerVersionRejectedAsNotSupported) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  // Version 2 is the (supported) snapshot format, so "newer" starts at 3.
  image[4] = 3;
  auto loaded = DeserializeEnsemble(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported());
}

TEST_F(EnsembleIoTest, VersionZeroRejectedAsCorruption) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  image[4] = 0;
  auto loaded = DeserializeEnsemble(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(EnsembleIoTest, V1ImageRelabeledV2IsCorruption) {
  // A v1 block image whose version byte reads 2 routes to the snapshot
  // parser and must fail structurally, never load as something else.
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  image[4] = 2;
  auto loaded = DeserializeEnsemble(image);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(EnsembleIoTest, TrailingGarbageRejected) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  image += "extra";
  EXPECT_FALSE(DeserializeEnsemble(image).ok());
}

TEST_F(EnsembleIoTest, ImageIsDeterministic) {
  std::string first, second;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &first).ok());
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &second).ok());
  EXPECT_EQ(first, second);
}

TEST_F(EnsembleIoTest, LoadedIndexMemoryFootprintIsTight) {
  ASSERT_TRUE(SaveEnsemble(*ensemble_, path_).ok());
  auto loaded = LoadEnsemble(path_);
  ASSERT_TRUE(loaded.ok());
  // MemoryBytes reports vector capacities: the loaded index allocates
  // exactly-sized arrays, so it can only be tighter than the incrementally
  // grown original.
  EXPECT_GT(loaded->MemoryBytes(), 0u);
  EXPECT_LE(loaded->MemoryBytes(), ensemble_->MemoryBytes());
}

}  // namespace
}  // namespace lshensemble
