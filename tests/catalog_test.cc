#include "io/catalog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/file.h"
#include "test_tmp.h"
#include "util/random.h"

namespace lshensemble {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(64, 9).value();
  }

  MinHash RandomSketch(uint64_t seed, size_t n) {
    Rng rng(seed);
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.Next();
    return MinHash::FromValues(family_, values);
  }

  void TearDown() override { RemoveFileIfExists(path_).ok(); }

  std::shared_ptr<const HashFamily> family_;
  std::string path_ = ProcessTempPath("lshe_catalog_test.bin");
};

TEST_F(CatalogTest, AddAndFind) {
  Catalog catalog(family_);
  ASSERT_TRUE(catalog.Add(7, "grants.csv:Partner", 120,
                          RandomSketch(1, 120)).ok());
  ASSERT_TRUE(catalog.Add(9, "grants.csv:Province", 13,
                          RandomSketch(2, 13)).ok());
  EXPECT_EQ(catalog.size(), 2u);
  ASSERT_NE(catalog.Find(7), nullptr);
  EXPECT_EQ(catalog.Find(7)->name, "grants.csv:Partner");
  EXPECT_EQ(catalog.Find(7)->size, 120u);
  EXPECT_EQ(catalog.Find(8), nullptr);
  EXPECT_EQ(catalog.NameOf(9), "grants.csv:Province");
  EXPECT_EQ(catalog.NameOf(1000), "<unknown id>");
}

TEST_F(CatalogTest, RejectsBadEntries) {
  Catalog catalog(family_);
  ASSERT_TRUE(catalog.Add(1, "a", 10, RandomSketch(1, 10)).ok());
  EXPECT_TRUE(catalog.Add(1, "dup", 10, RandomSketch(2, 10))
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog.Add(2, "zero", 0, RandomSketch(3, 5))
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog.Add(3, "invalid", 5, MinHash()).IsInvalidArgument());
  auto other = HashFamily::Create(64, 1234).value();
  std::vector<uint64_t> values = {1, 2, 3};
  EXPECT_TRUE(catalog.Add(4, "family", 3,
                          MinHash::FromValues(other, values))
                  .IsInvalidArgument());
}

TEST_F(CatalogTest, SerializationRoundTrip) {
  Catalog catalog(family_);
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(catalog.Add(id, std::string("table:") + std::to_string(id),
                            id * 3,
                            RandomSketch(id, id * 3)).ok());
  }
  std::string image;
  ASSERT_TRUE(catalog.SerializeTo(&image).ok());
  auto restored = Catalog::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), catalog.size());
  EXPECT_TRUE(restored->family()->SameAs(*family_));
  for (uint64_t id = 1; id <= 20; ++id) {
    const CatalogEntry* original = catalog.Find(id);
    const CatalogEntry* loaded = restored->Find(id);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name, original->name);
    EXPECT_EQ(loaded->size, original->size);
    EXPECT_EQ(loaded->signature.values(), original->signature.values());
  }
}

TEST_F(CatalogTest, SaveLoadFile) {
  Catalog catalog(family_);
  ASSERT_TRUE(catalog.Add(5, "x", 7, RandomSketch(5, 7)).ok());
  ASSERT_TRUE(catalog.Save(path_).ok());
  auto loaded = Catalog::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->NameOf(5), "x");
}

TEST_F(CatalogTest, CorruptionDetected) {
  Catalog catalog(family_);
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(catalog.Add(id, std::string("t") + std::to_string(id), 10,
                            RandomSketch(id, 10)).ok());
  }
  std::string image;
  ASSERT_TRUE(catalog.SerializeTo(&image).ok());
  for (size_t offset = 0; offset < image.size();
       offset += std::max<size_t>(1, image.size() / 40)) {
    std::string corrupt = image;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    EXPECT_FALSE(Catalog::Deserialize(corrupt).ok()) << "offset " << offset;
  }
  for (size_t keep : {size_t{0}, size_t{6}, image.size() / 2,
                      image.size() - 1}) {
    EXPECT_FALSE(
        Catalog::Deserialize(std::string_view(image).substr(0, keep)).ok())
        << "kept " << keep;
  }
}

TEST_F(CatalogTest, EmptyCatalogRoundTrip) {
  Catalog catalog(family_);
  std::string image;
  ASSERT_TRUE(catalog.SerializeTo(&image).ok());
  auto restored = Catalog::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 0u);
}

TEST_F(CatalogTest, MissingFileIsNotFound) {
  auto loaded = Catalog::Load(ProcessTempPath("no_such_catalog"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

}  // namespace
}  // namespace lshensemble
