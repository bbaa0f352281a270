// lshe — command-line domain search over CSV files.
//
//   lshe index       --out idx.lshe --catalog idx.cat [options] file1.csv ...
//   lshe query       --index idx.lshe --catalog idx.cat --query-csv q.csv
//                    --column Partner [--threshold 0.5 | --topk 10]
//   lshe batch-query --index idx.lshe --catalog idx.cat --query-csv q.csv
//                    [--column Partner] [--threshold 0.5 | --topk 10]
//                    [--delta extra.csv] [--shards 4] [--mmap]
//   lshe snapshot    --index idx.lshe --out idx.lshe2
//                    [--catalog idx.cat --shards N --out DIR]
//   lshe stats       --index idx.lshe [--catalog idx.cat] [--mmap]
//   lshe verify      PATH [--quarantine]
//   lshe cluster     SNAPSHOT_DIR --out clusters.tsv [--threshold 0.9]
//                    [--tile-size N]  (or --index/--catalog [--shards N])
//
// `index` extracts every column of every CSV as a domain (paper Section 2:
// dom(R) = projections on the attributes), sketches them, builds an LSH
// Ensemble and writes the index image plus a catalog (names, sizes,
// signatures). `query` sketches one column of a query CSV and reports the
// indexed domains that contain it (threshold mode, Definition 2) or the
// k best containers (top-k mode). `batch-query` treats every column of the
// query CSV as one query and answers them all in one batched call:
// threshold mode rides BatchQuery(), `--topk K` ranks every query in one
// lockstep BatchSearch(), `--delta FILE` first layers FILE's columns as
// unindexed delta domains on a DynamicLshEnsemble rebuilt from the
// catalog (the paper's dynamic-data scenario, Section 6.2) so both modes
// search indexed + just-arrived data, and `--shards N` serves everything
// from an N-shard scatter/gather ShardedEnsemble instead (results are
// identical; throughput scales with cores). `stats` prints the partition
// layout.
//
// `snapshot` converts an index image to the format-v2 zero-copy snapshot
// (io/snapshot.h) — with `--shards N` it rebuilds the catalog into an
// N-shard serving layer and writes a per-shard snapshot directory — and
// `--mmap` makes `query`/`batch-query`/`stats` open the index via mmap
// (requires a v2 snapshot): cold starts in milliseconds, pages shared
// across serving processes, results identical to a heap load.
//
// `verify` is fsck for index images: point it at a single image file or
// a sharded snapshot directory and it checks every checksum (manifest,
// every shard, every segment), naming the failing file; with
// `--quarantine` it sweeps files the manifest does not bless into
// PATH/quarantine/ instead of leaving them beside the live image.
//
// `--deadline-us N` (query / batch-query) bounds each query's time: a
// query that cannot finish inside N microseconds fails with
// DeadlineExceeded instead of running long (checked between partition
// probes, so an expired deadline stops further forest work).
//
// `cluster` self-joins an index against itself (every indexed domain
// becomes a query, in tiles of --tile-size BatchQuery waves) and groups
// the candidate graph's connected components into near-duplicate
// clusters (cluster/clusterer.h; see docs/clustering.md). Point it at a
// sharded snapshot directory — opened zero-copy, shard count adopted
// from the manifest — or at --index/--catalog to rebuild a serving
// layer first. Output is a TSV of `id<TAB>root`, one line per domain in
// ascending id order, where root is the smallest id in the domain's
// cluster.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cluster/clusterer.h"
#include "core/dynamic_ensemble.h"
#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "data/csv.h"
#include "filter/probe_filter.h"
#include "data/sketcher.h"
#include "data/table.h"
#include "io/catalog.h"
#include "io/ensemble_io.h"
#include "io/env.h"
#include "io/fsck.h"
#include "io/snapshot.h"
#include "minhash/hash_kernel.h"
#include "minhash/minhash.h"
#include "serve/server.h"
#include "serve/snapshot_manager.h"
#include "util/clock.h"
#include "util/timer.h"

namespace lshensemble {
namespace {

struct Flags {
  std::vector<std::string> positional;
  std::string out;
  std::string catalog;
  std::string index;
  std::string query_csv;
  std::string column;
  std::string delta_csv;
  // cluster: re-extract these CSVs so every record carries its raw Domain
  // and candidate edges are verified by exact containment (repeatable).
  std::vector<std::string> verify_csv;
  double threshold = 0.5;
  int topk = 0;    // 0 = threshold mode
  int shards = 0;  // 0 = unsharded engines
  uint64_t deadline_us = 0;  // 0 = no per-query deadline
  size_t tile_size = 2048;   // cluster: queries per self-join wave
  bool quarantine = false;   // verify: move stray files aside
  // serve flags
  std::string bind = "127.0.0.1";
  std::string port_file;       // write the bound port here (scripts)
  uint16_t port = 0;           // 0 = ephemeral
  int reactors = 2;
  int dispatchers = 2;
  size_t batch_max = 64;
  uint64_t linger_us = 50;
  size_t max_pending = 1024;
  size_t max_in_flight = 0;    // engine admission bound; 0 = unbounded
  bool partial = false;        // deadline degrades to partial results
  bool mmap = false;
  bool verify = true;    // --no-verify: skip eager segment CRC sweep
  bool madvise = true;   // --no-madvise: no OS pager hints on open
  int partitions = 16;
  int num_hashes = 256;
  int tree_depth = 8;
  size_t min_domain_size = 2;
  uint64_t seed = 42;
};

void Usage() {
  std::fprintf(stderr, R"(usage:
  lshe index --out IDX --catalog CAT [--partitions N] [--hashes M]
             [--tree-depth R] [--min-size K] [--seed S] CSV...
  lshe query --index IDX --catalog CAT --query-csv FILE --column NAME
             [--threshold T | --topk K] [--deadline-us N]
  lshe batch-query --index IDX --catalog CAT --query-csv FILE
             [--column NAME] [--threshold T | --topk K] [--min-size K]
             [--delta FILE] [--shards N] [--mmap] [--no-verify]
             [--no-madvise] [--deadline-us N]
  lshe snapshot --index IDX --out SNAP [--catalog CAT --shards N --out DIR]
  lshe stats --index IDX [--catalog CAT] [--mmap] [--no-verify]
             [--no-madvise]
  lshe verify PATH [--quarantine]
  lshe cluster SNAPSHOT_DIR [--out TSV] [--threshold T] [--tile-size N]
             [--verify-csv CSV]... [--no-verify] [--no-madvise]
  lshe cluster --index IDX --catalog CAT [--shards N] [--out TSV]
             [--threshold T] [--tile-size N] [--verify-csv CSV]...
  lshe serve SNAPSHOT_DIR [--bind A] [--port N] [--port-file F]
             [--reactors N] [--dispatchers N] [--batch-max N]
             [--linger-us N] [--max-pending N] [--max-in-flight N]
             [--deadline-us N] [--partial] [--no-verify] [--no-madvise]

serving-open tuning (with --mmap): --no-verify skips the eager segment
CRC sweep (structure and manifest stay verified); --no-madvise disables
OS pager hints. Both default on.

`verify` checks every checksum of an index image or sharded snapshot
directory, naming any failing file; --quarantine moves unmanifested
files to PATH/quarantine/. `--deadline-us N` fails queries that cannot
finish within N microseconds with DeadlineExceeded.

`serve` runs the micro-batching network front-end over a sharded
snapshot directory (see docs/serving.md): binary protocol on the data
port, `GET /metrics` on the same port for scraping, reload requests
hot-swap to the snapshot directory's current content. Stop with SIGINT.

`cluster` self-joins the index and writes near-duplicate clusters as
`id<TAB>root` TSV lines (ascending ids; root = smallest id in the
cluster; --out defaults to stdout). A snapshot directory opens
zero-copy with the manifest's shard count; the --index/--catalog form
rebuilds a serving layer (--shards N, default 1) first.
`--verify-csv CSV` (repeatable) re-extracts the raw domains from the
CSVs the index was built from — pass the same files, order and
--min-size — and rejects candidate edges that fail exact containment
at t*, so clusters carry no LSH false positives. Every indexed id must
resolve to a re-extracted domain or the command fails. See
docs/clustering.md.
)");
}

/// Strict numeric flag value: the whole of `text` must be a number that
/// `*out`'s type can hold. Integer flags are counts, sizes, durations,
/// ports or seeds, so negative values are rejected too; real values must
/// be finite. `*out` is untouched on failure.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(text, end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  } else if constexpr (std::is_signed_v<T>) {
    if (parsed < 0) return false;
  }
  *out = parsed;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    bool valid = true;
    if (arg == "--out" && (value = next())) {
      flags->out = value;
    } else if (arg == "--catalog" && (value = next())) {
      flags->catalog = value;
    } else if (arg == "--index" && (value = next())) {
      flags->index = value;
    } else if (arg == "--query-csv" && (value = next())) {
      flags->query_csv = value;
    } else if (arg == "--column" && (value = next())) {
      flags->column = value;
    } else if (arg == "--delta" && (value = next())) {
      flags->delta_csv = value;
    } else if (arg == "--verify-csv" && (value = next())) {
      flags->verify_csv.push_back(value);
    } else if (arg == "--threshold" && (value = next())) {
      valid = ParseNumber(value, &flags->threshold);
    } else if (arg == "--topk" && (value = next())) {
      valid = ParseNumber(value, &flags->topk);
    } else if (arg == "--shards" && (value = next())) {
      valid = ParseNumber(value, &flags->shards);
    } else if (arg == "--deadline-us" && (value = next())) {
      valid = ParseNumber(value, &flags->deadline_us);
    } else if (arg == "--tile-size" && (value = next())) {
      valid = ParseNumber(value, &flags->tile_size);
    } else if (arg == "--bind" && (value = next())) {
      flags->bind = value;
    } else if (arg == "--port" && (value = next())) {
      valid = ParseNumber(value, &flags->port);
    } else if (arg == "--port-file" && (value = next())) {
      flags->port_file = value;
    } else if (arg == "--reactors" && (value = next())) {
      valid = ParseNumber(value, &flags->reactors);
    } else if (arg == "--dispatchers" && (value = next())) {
      valid = ParseNumber(value, &flags->dispatchers);
    } else if (arg == "--batch-max" && (value = next())) {
      valid = ParseNumber(value, &flags->batch_max);
    } else if (arg == "--linger-us" && (value = next())) {
      valid = ParseNumber(value, &flags->linger_us);
    } else if (arg == "--max-pending" && (value = next())) {
      valid = ParseNumber(value, &flags->max_pending);
    } else if (arg == "--max-in-flight" && (value = next())) {
      valid = ParseNumber(value, &flags->max_in_flight);
    } else if (arg == "--partial") {
      flags->partial = true;
    } else if (arg == "--quarantine") {
      flags->quarantine = true;
    } else if (arg == "--mmap") {
      flags->mmap = true;
    } else if (arg == "--no-verify") {
      flags->verify = false;
    } else if (arg == "--no-madvise") {
      flags->madvise = false;
    } else if (arg == "--partitions" && (value = next())) {
      valid = ParseNumber(value, &flags->partitions);
    } else if (arg == "--hashes" && (value = next())) {
      valid = ParseNumber(value, &flags->num_hashes);
    } else if (arg == "--tree-depth" && (value = next())) {
      valid = ParseNumber(value, &flags->tree_depth);
    } else if (arg == "--min-size" && (value = next())) {
      valid = ParseNumber(value, &flags->min_domain_size);
    } else if (arg == "--seed" && (value = next())) {
      valid = ParseNumber(value, &flags->seed);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    } else {
      flags->positional.push_back(arg);
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(), value);
      return false;
    }
  }
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Open the index image: LoadEnsemble() version-dispatches (a v2
/// snapshot already opens zero-copy); --mmap additionally *requires* the
/// mapped path, so pointing it at a v1 image is an explicit error
/// instead of a silent heap load. --no-verify / --no-madvise tune the
/// mapped serving open (io/snapshot.h SnapshotOpenOptions).
Result<LshEnsemble> OpenIndex(const Flags& flags) {
  if (flags.mmap) {
    SnapshotOpenOptions open_options;
    open_options.verify_checksums = flags.verify;
    open_options.apply_madvise = flags.madvise;
    return OpenEnsembleMapped(flags.index, open_options);
  }
  return LoadEnsemble(flags.index);
}

int RunIndex(const Flags& flags) {
  if (flags.out.empty() || flags.catalog.empty() || flags.positional.empty()) {
    Usage();
    return 2;
  }
  auto family_result =
      HashFamily::Create(flags.num_hashes, flags.seed);
  if (!family_result.ok()) return Fail(family_result.status());
  auto family = std::move(family_result).value();

  LshEnsembleOptions options;
  options.num_partitions = flags.partitions;
  options.num_hashes = flags.num_hashes;
  options.tree_depth = flags.tree_depth;
  LshEnsembleBuilder builder(options, family);
  Catalog catalog(family);

  ExtractOptions extract;
  extract.min_domain_size = flags.min_domain_size;
  const ParallelSketcher sketcher(family);
  uint64_t next_id = 1;
  StopWatch watch;
  for (const std::string& path : flags.positional) {
    auto table = ReadCsvFile(path);
    if (!table.ok()) return Fail(table.status());
    // Sketch the whole file's domains in one parallel, batch-kernel pass.
    const Corpus file_corpus(ExtractDomains(*table, next_id, extract));
    std::vector<MinHash> sketches = sketcher.SketchCorpus(file_corpus);
    for (size_t i = 0; i < file_corpus.size(); ++i) {
      const Domain& domain = file_corpus.domain(i);
      Status status = builder.Add(domain.id, domain.size(), sketches[i]);
      if (status.ok()) {
        status = catalog.Add(domain.id, domain.name, domain.size(),
                             std::move(sketches[i]));
      }
      if (!status.ok()) return Fail(status);
      next_id = std::max(next_id, domain.id + 1);
    }
    std::printf("%-40s %zu domains\n", table->name.c_str(),
                file_corpus.size());
  }
  if (builder.size() == 0) {
    std::fprintf(stderr, "no domains extracted (check --min-size)\n");
    return 1;
  }

  auto ensemble = std::move(builder).Build();
  if (!ensemble.ok()) return Fail(ensemble.status());
  Status status = SaveEnsemble(*ensemble, flags.out);
  if (status.ok()) status = catalog.Save(flags.catalog);
  if (!status.ok()) return Fail(status);
  std::printf(
      "indexed %zu domains into %zu partitions in %.2fs\n  index:   %s\n"
      "  catalog: %s\n",
      ensemble->size(), ensemble->partitions().size(),
      watch.ElapsedSeconds(), flags.out.c_str(), flags.catalog.c_str());
  return 0;
}

int RunQuery(const Flags& flags) {
  if (flags.index.empty() || flags.catalog.empty() ||
      flags.query_csv.empty() || flags.column.empty()) {
    Usage();
    return 2;
  }
  auto ensemble = OpenIndex(flags);
  if (!ensemble.ok()) return Fail(ensemble.status());
  auto catalog = Catalog::Load(flags.catalog);
  if (!catalog.ok()) return Fail(catalog.status());
  if (!catalog->family()->SameAs(*ensemble->family())) {
    return Fail(Status::InvalidArgument(
        "catalog and index were built with different hash families"));
  }

  auto table = ReadCsvFile(flags.query_csv);
  if (!table.ok()) return Fail(table.status());
  int column = -1;
  for (size_t c = 0; c < table->column_names.size(); ++c) {
    if (table->column_names[c] == flags.column) {
      column = static_cast<int>(c);
    }
  }
  if (column < 0) {
    return Fail(Status::NotFound("column '" + flags.column + "' not in " +
                                 table->name));
  }
  std::vector<std::string> cells;
  cells.reserve(table->num_rows());
  for (const auto& row : table->rows) {
    if (!IsNullToken(row[column])) cells.push_back(row[column]);
  }
  const Domain query = Domain::FromStrings(0, flags.column, cells);
  if (query.empty()) {
    return Fail(Status::InvalidArgument("query column has no values"));
  }
  const MinHash sketch =
      MinHash::FromValues(ensemble->family(), query.values);

  StopWatch watch;
  const uint64_t deadline_ns =
      flags.deadline_us > 0 ? DeadlineAfterMicros(flags.deadline_us) : 0;
  if (flags.topk > 0) {
    auto store = catalog->ToSketchStore();
    if (!store.ok()) return Fail(store.status());
    TopKSearcher searcher(&*ensemble, &*store);
    const TopKQuery topk_query{&sketch, query.size(), deadline_ns};
    std::vector<TopKResult> ranked;
    QueryContext ctx;
    Status status = searcher.BatchSearch(
        std::span<const TopKQuery>(&topk_query, 1),
        static_cast<size_t>(flags.topk), &ctx, &ranked);
    if (!status.ok()) return Fail(status);
    std::printf("top-%d containers of %s (|Q| = %zu, %.1f ms):\n",
                flags.topk, flags.column.c_str(), query.size(),
                watch.ElapsedSeconds() * 1e3);
    for (const TopKResult& result : ranked) {
      std::printf("  %6.3f  %s\n", result.estimated_containment,
                  catalog->NameOf(result.id).c_str());
    }
  } else {
    const QuerySpec spec{&sketch, query.size(), flags.threshold,
                         deadline_ns};
    std::vector<uint64_t> ids;
    QueryContext ctx;
    Status status = ensemble->BatchQuery(
        std::span<const QuerySpec>(&spec, 1), &ctx, &ids);
    if (!status.ok()) return Fail(status);
    std::printf(
        "domains containing >= %.2f of %s (|Q| = %zu, %zu results, "
        "%.1f ms):\n",
        flags.threshold, flags.column.c_str(), query.size(), ids.size(),
        watch.ElapsedSeconds() * 1e3);
    for (uint64_t id : ids) {
      std::printf("  %s\n", catalog->NameOf(id).c_str());
    }
  }
  return 0;
}

int RunBatchQuery(const Flags& flags) {
  if (flags.index.empty() || flags.catalog.empty() || flags.query_csv.empty()) {
    Usage();
    return 2;
  }
  auto ensemble = OpenIndex(flags);
  if (!ensemble.ok()) return Fail(ensemble.status());
  auto catalog = Catalog::Load(flags.catalog);
  if (!catalog.ok()) return Fail(catalog.status());
  if (!catalog->family()->SameAs(*ensemble->family())) {
    return Fail(Status::InvalidArgument(
        "catalog and index were built with different hash families"));
  }

  auto table = ReadCsvFile(flags.query_csv);
  if (!table.ok()) return Fail(table.status());
  ExtractOptions extract;
  extract.min_domain_size = flags.min_domain_size;
  std::vector<Domain> queries = ExtractDomains(*table, 1, extract);
  if (!flags.column.empty()) {
    std::erase_if(queries, [&](const Domain& domain) {
      return domain.name != flags.column;
    });
  }
  if (queries.empty()) {
    return Fail(Status::InvalidArgument(
        "no query columns extracted (check --column / --min-size)"));
  }

  const ParallelSketcher sketcher(ensemble->family());
  const Corpus query_corpus(std::move(queries));
  std::vector<MinHash> sketches = sketcher.SketchCorpus(query_corpus);
  const std::vector<Domain>& query_domains = query_corpus.domains();

  // Optional serving-layer overrides. --shards N rebuilds the catalog
  // into a sharded serving layer (hash-partitioned scatter/gather across
  // N independent dynamic shards); --delta FILE layers the file's columns
  // as unindexed delta domains on top of whichever engine serves — the
  // paper's dynamic-data scenario (Section 6.2). Both start from the
  // catalog's side-car (names, sizes, signatures).
  std::optional<DynamicLshEnsemble> dynamic;
  std::optional<ShardedEnsemble> sharded;
  std::unordered_map<uint64_t, std::string> delta_names;
  if (flags.shards > 0 || !flags.delta_csv.empty()) {
    if (flags.shards > 0) {
      ShardedEnsembleOptions sharded_options;
      sharded_options.base.base = ensemble->options();
      sharded_options.base.min_delta_for_rebuild =
          std::numeric_limits<size_t>::max();
      sharded_options.num_shards = static_cast<size_t>(flags.shards);
      auto built = ShardedEnsemble::Create(sharded_options, catalog->family());
      if (!built.ok()) return Fail(built.status());
      sharded.emplace(std::move(built).value());
    } else {
      DynamicEnsembleOptions dyn_options;
      dyn_options.base = ensemble->options();
      dyn_options.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
      auto dyn = DynamicLshEnsemble::Create(dyn_options, catalog->family());
      if (!dyn.ok()) return Fail(dyn.status());
      dynamic.emplace(std::move(dyn).value());
    }
    auto insert = [&](uint64_t id, size_t size, const MinHash& signature) {
      return sharded.has_value() ? sharded->Insert(id, size, signature)
                                 : dynamic->Insert(id, size, signature);
    };
    uint64_t max_id = 0;
    for (const CatalogEntry& entry : catalog->entries()) {
      Status status = insert(entry.id, entry.size, entry.signature);
      if (!status.ok()) return Fail(status);
      max_id = std::max(max_id, entry.id);
    }
    Status status = sharded.has_value() ? sharded->Flush() : dynamic->Flush();
    if (!status.ok()) return Fail(status);
    if (!flags.delta_csv.empty()) {
      auto delta_table = ReadCsvFile(flags.delta_csv);
      if (!delta_table.ok()) return Fail(delta_table.status());
      const std::vector<Domain> delta_domains =
          ExtractDomains(*delta_table, max_id + 1, extract);
      if (delta_domains.empty()) {
        return Fail(Status::InvalidArgument(
            "no delta columns extracted from " + flags.delta_csv));
      }
      for (const Domain& domain : delta_domains) {
        status = sharded.has_value()
                     ? sharded->Insert(domain.id, domain.values)
                     : dynamic->Insert(domain.id, domain.values);
        if (!status.ok()) return Fail(status);
        delta_names.emplace(domain.id, domain.name);
      }
    }
    if (sharded.has_value()) {
      std::printf("sharded index: %d shards, %zu indexed + %zu delta "
                  "domains\n",
                  flags.shards, sharded->indexed_size(),
                  sharded->delta_size());
    } else {
      std::printf("dynamic index: %zu indexed + %zu delta domains\n",
                  dynamic->indexed_size(), dynamic->delta_size());
    }
  }
  auto name_of = [&](uint64_t id) -> const std::string& {
    const auto it = delta_names.find(id);
    return it != delta_names.end() ? it->second : catalog->NameOf(id);
  };

  if (flags.topk > 0) {
    // One lockstep BatchSearch ranks every query column.
    std::optional<SketchStore> store;
    std::optional<TopKSearcher> searcher;
    if (sharded.has_value()) {
      searcher.emplace(&*sharded);
    } else if (dynamic.has_value()) {
      searcher.emplace(&*dynamic);
    } else {
      auto built = catalog->ToSketchStore();
      if (!built.ok()) return Fail(built.status());
      store.emplace(std::move(built).value());
      searcher.emplace(&*ensemble, &*store);
    }
    const uint64_t deadline_ns =
        flags.deadline_us > 0 ? DeadlineAfterMicros(flags.deadline_us) : 0;
    std::vector<TopKQuery> topk_queries(query_domains.size());
    for (size_t i = 0; i < query_domains.size(); ++i) {
      topk_queries[i] =
          TopKQuery{&sketches[i], query_domains[i].size(), deadline_ns};
    }
    std::vector<std::vector<TopKResult>> outs(topk_queries.size());
    QueryContext ctx;
    StopWatch watch;
    Status status = searcher->BatchSearch(
        topk_queries, static_cast<size_t>(flags.topk), &ctx, outs.data());
    if (!status.ok()) return Fail(status);
    const double elapsed = watch.ElapsedSeconds();
    for (size_t i = 0; i < query_domains.size(); ++i) {
      std::printf("top-%d containers of %s (|Q| = %zu):\n", flags.topk,
                  query_domains[i].name.c_str(), query_domains[i].size());
      for (const TopKResult& result : outs[i]) {
        std::printf("  %6.3f  %s\n", result.estimated_containment,
                    name_of(result.id).c_str());
      }
    }
    std::printf("%zu top-%d queries in %.1f ms (%.0f queries/sec)\n",
                topk_queries.size(), flags.topk, elapsed * 1e3,
                static_cast<double>(topk_queries.size()) / elapsed);
    return 0;
  }

  const uint64_t deadline_ns =
      flags.deadline_us > 0 ? DeadlineAfterMicros(flags.deadline_us) : 0;
  std::vector<QuerySpec> specs(query_domains.size());
  for (size_t i = 0; i < query_domains.size(); ++i) {
    specs[i] = QuerySpec{&sketches[i], query_domains[i].size(),
                         flags.threshold, deadline_ns};
  }
  std::vector<std::vector<uint64_t>> outs(specs.size());

  QueryContext ctx;
  StopWatch watch;
  Status status =
      sharded.has_value() ? sharded->BatchQuery(specs, outs.data())
      : dynamic.has_value() ? dynamic->BatchQuery(specs, &ctx, outs.data())
                            : ensemble->BatchQuery(specs, &ctx, outs.data());
  if (!status.ok()) return Fail(status);
  const double elapsed = watch.ElapsedSeconds();

  size_t total = 0;
  for (size_t i = 0; i < query_domains.size(); ++i) {
    total += outs[i].size();
    std::printf("%s (|Q| = %zu): %zu domains containing >= %.2f\n",
                query_domains[i].name.c_str(), query_domains[i].size(),
                outs[i].size(),
                flags.threshold);
    constexpr size_t kMaxPrinted = 20;
    for (size_t j = 0; j < outs[i].size() && j < kMaxPrinted; ++j) {
      std::printf("  %s\n", name_of(outs[i][j]).c_str());
    }
    if (outs[i].size() > kMaxPrinted) {
      std::printf("  ... %zu more\n", outs[i].size() - kMaxPrinted);
    }
  }
  std::printf(
      "%zu queries, %zu candidates in %.1f ms (%.0f queries/sec)\n",
      specs.size(), total, elapsed * 1e3,
      static_cast<double>(specs.size()) / elapsed);
  return 0;
}

int RunSnapshot(const Flags& flags) {
  if (flags.index.empty() || flags.out.empty()) {
    Usage();
    return 2;
  }
  StopWatch watch;
  if (flags.shards > 0) {
    // Rebuild the catalog into an N-shard serving layer and write a
    // per-shard snapshot set: `--out` names the snapshot directory.
    if (flags.catalog.empty()) {
      std::fprintf(stderr, "snapshot --shards needs --catalog\n");
      return 2;
    }
    auto ensemble = LoadEnsemble(flags.index);
    if (!ensemble.ok()) return Fail(ensemble.status());
    auto catalog = Catalog::Load(flags.catalog);
    if (!catalog.ok()) return Fail(catalog.status());
    ShardedEnsembleOptions options;
    options.base.base = ensemble->options();
    options.base.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
    options.num_shards = static_cast<size_t>(flags.shards);
    auto sharded = ShardedEnsemble::Create(options, catalog->family());
    if (!sharded.ok()) return Fail(sharded.status());
    for (const CatalogEntry& entry : catalog->entries()) {
      Status status = sharded->Insert(entry.id, entry.size, entry.signature);
      if (!status.ok()) return Fail(status);
    }
    Status status = sharded->Flush();
    if (status.ok()) status = sharded->SaveSnapshot(flags.out);
    if (!status.ok()) return Fail(status);
    std::printf(
        "wrote %d-shard v2 snapshot of %zu domains in %.2fs\n"
        "  dir: %s\n  open with: ShardedEnsemble::OpenSnapshot\n",
        flags.shards, sharded->size(), watch.ElapsedSeconds(),
        flags.out.c_str());
    return 0;
  }
  auto ensemble = LoadEnsemble(flags.index);
  if (!ensemble.ok()) return Fail(ensemble.status());
  Status status = WriteEnsembleSnapshot(*ensemble, flags.out);
  if (!status.ok()) return Fail(status);
  std::printf(
      "wrote v2 zero-copy snapshot of %zu domains in %.2fs\n"
      "  snapshot: %s\n  serve with: lshe query/batch-query --mmap\n",
      ensemble->size(), watch.ElapsedSeconds(), flags.out.c_str());
  return 0;
}

int RunStats(const Flags& flags) {
  if (flags.index.empty()) {
    Usage();
    return 2;
  }
  auto ensemble = OpenIndex(flags);
  if (!ensemble.ok()) return Fail(ensemble.status());
  std::printf("domains: %zu\n", ensemble->size());
  std::printf("hash functions: %d, tree depth: %d\n",
              ensemble->options().num_hashes,
              ensemble->options().tree_depth);
  std::printf("heap memory: %.2f MiB%s\n",
              static_cast<double>(ensemble->MemoryBytes()) / (1 << 20),
              flags.mmap ? " (arenas are mmap-served, not heap)" : "");
  if (const ProbeFilter* filter = ensemble->engine_probe_filter()) {
    uint64_t partition_blocks = 0;
    for (const ProbeFilter& pf : ensemble->partition_probe_filters()) {
      partition_blocks += pf.num_blocks();
    }
    std::printf(
        "probe filter: %llu engine + %llu partition blocks (32 B each, "
        "%s probe kernel)%s\n",
        static_cast<unsigned long long>(filter->num_blocks()),
        static_cast<unsigned long long>(partition_blocks),
        ActiveKernelOps().name,
        filter->is_view() ? ", mmap-served" : "");
  } else {
    std::printf("probe filter: none (built without or pre-filter image)\n");
  }
  std::printf("%-4s %12s %12s %10s\n", "#", "lower", "upper", "count");
  const auto& partitions = ensemble->partitions();
  for (size_t i = 0; i < partitions.size(); ++i) {
    std::printf("%-4zu %12llu %12llu %10zu\n", i,
                static_cast<unsigned long long>(partitions[i].lower),
                static_cast<unsigned long long>(partitions[i].upper),
                partitions[i].count);
  }
  if (!flags.catalog.empty()) {
    auto catalog = Catalog::Load(flags.catalog);
    if (!catalog.ok()) return Fail(catalog.status());
    std::printf("catalog entries: %zu\n", catalog->size());
  }
  return 0;
}

int RunVerify(const Flags& flags) {
  if (flags.positional.size() != 1) {
    Usage();
    return 2;
  }
  const std::string& path = flags.positional[0];
  Env* env = Env::Default();
  StopWatch watch;
  // A sharded snapshot directory is recognized by its MANIFEST; anything
  // else verifies as a single image file.
  const bool is_dir = env->FileExists(path + "/MANIFEST");
  auto report = is_dir ? VerifySnapshotDir(path, flags.quarantine)
                       : VerifySnapshotFile(path);
  if (!report.ok()) return Fail(report.status());
  if (report->sharded) {
    std::printf("OK: %zu-shard snapshot directory, every checksum passes "
                "(%.2fs)\n",
                report->shards_verified, watch.ElapsedSeconds());
  } else {
    std::printf("OK: v%u index image, every checksum passes (%.2fs)\n",
                report->format_version, watch.ElapsedSeconds());
  }
  if (!report->stray_files.empty()) {
    std::printf("%zu stray file(s) the manifest does not name%s:\n",
                report->stray_files.size(),
                report->strays_quarantined
                    ? " (moved to quarantine/)"
                    : " (re-run with --quarantine to move them aside)");
    for (const std::string& name : report->stray_files) {
      std::printf("  %s\n", name.c_str());
    }
  }
  return 0;
}

int RunCluster(const Flags& flags) {
  ClusterOptions options;
  options.threshold = flags.threshold;
  options.tile_size = flags.tile_size;
  if (Status status = options.Validate(); !status.ok()) return Fail(status);

  StopWatch watch;
  std::optional<ShardedEnsemble> index;
  if (flags.positional.size() == 1) {
    // Snapshot-directory form: adopt shard count and hash width from the
    // manifest (resharding on open is unsupported), open zero-copy.
    const std::string& dir = flags.positional[0];
    Result<ShardSnapshotManifest> manifest =
        ShardedEnsemble::ReadSnapshotManifest(dir);
    if (!manifest.ok()) return Fail(manifest.status());
    ShardedEnsembleOptions serving;
    serving.num_shards = static_cast<size_t>(manifest.value().num_shards);
    serving.base.base.num_hashes =
        static_cast<int>(manifest.value().num_hashes);
    serving.base.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
    SnapshotOpenOptions open_options;
    open_options.verify_checksums = flags.verify;
    open_options.apply_madvise = flags.madvise;
    auto opened = ShardedEnsemble::OpenSnapshot(dir, serving, open_options);
    if (!opened.ok()) return Fail(opened.status());
    index.emplace(std::move(opened).value());
  } else if (!flags.index.empty() && !flags.catalog.empty()) {
    // Catalog form: rebuild the catalog into a serving layer like
    // batch-query --shards does, then self-join that.
    auto ensemble = LoadEnsemble(flags.index);
    if (!ensemble.ok()) return Fail(ensemble.status());
    auto catalog = Catalog::Load(flags.catalog);
    if (!catalog.ok()) return Fail(catalog.status());
    ShardedEnsembleOptions serving;
    serving.base.base = ensemble->options();
    serving.base.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
    serving.num_shards = flags.shards > 0 ? static_cast<size_t>(flags.shards)
                                          : 1;
    auto built = ShardedEnsemble::Create(serving, catalog->family());
    if (!built.ok()) return Fail(built.status());
    index.emplace(std::move(built).value());
    for (const CatalogEntry& entry : catalog->entries()) {
      Status status = index->Insert(entry.id, entry.size, entry.signature);
      if (!status.ok()) return Fail(status);
    }
    if (Status status = index->Flush(); !status.ok()) return Fail(status);
  } else {
    Usage();
    return 2;
  }

  std::vector<ClusterRecord> records = CollectRecords(*index);
  // --verify-csv: re-extract the raw domains (same extraction pass as
  // `lshe index`, so ids line up) and attach one to every record; the
  // clusterer then drops candidate edges that fail exact containment.
  std::vector<Corpus> verify_corpora;
  if (!flags.verify_csv.empty()) {
    ExtractOptions extract;
    extract.min_domain_size = flags.min_domain_size;
    uint64_t next_id = 1;
    std::unordered_map<uint64_t, const Domain*> domains_by_id;
    for (const std::string& path : flags.verify_csv) {
      auto table = ReadCsvFile(path);
      if (!table.ok()) return Fail(table.status());
      verify_corpora.emplace_back(ExtractDomains(*table, next_id, extract));
      const Corpus& corpus = verify_corpora.back();
      for (size_t i = 0; i < corpus.size(); ++i) {
        const Domain& domain = corpus.domain(i);
        domains_by_id[domain.id] = &domain;
        next_id = std::max(next_id, domain.id + 1);
      }
    }
    for (ClusterRecord& record : records) {
      const auto it = domains_by_id.find(record.id);
      if (it == domains_by_id.end()) {
        return Fail(Status::InvalidArgument(
            "--verify-csv: indexed domain id " + std::to_string(record.id) +
            " has no re-extracted domain; pass the same CSVs (same order "
            "and --min-size) the index was built from"));
      }
      record.domain = it->second;
    }
    options.verify_exact = true;
  }
  const NearDupClusterer clusterer(options);
  ClusterStats stats;
  auto result = clusterer.Cluster(*index, records, &stats);
  if (!result.ok()) return Fail(result.status());
  const double elapsed = watch.ElapsedSeconds();

  std::FILE* out = stdout;
  if (!flags.out.empty()) {
    out = std::fopen(flags.out.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::IOError("cannot write " + flags.out));
    }
  }
  for (size_t i = 0; i < result->ids.size(); ++i) {
    std::fprintf(out, "%llu\t%llu\n",
                 static_cast<unsigned long long>(result->ids[i]),
                 static_cast<unsigned long long>(result->roots[i]));
  }
  if (out != stdout && std::fclose(out) != 0) {
    return Fail(Status::IOError("failed writing " + flags.out));
  }
  std::fprintf(
      stderr,
      "clustered %zu domains at t*=%.2f into %zu clusters "
      "(%zu duplicate groups covering %zu domains; %zu tiles, "
      "%zu candidate pairs, %.2fs, %.0f domains/sec)\n",
      stats.num_records, options.threshold, stats.num_clusters,
      stats.num_duplicate_groups, stats.num_duplicated_records,
      stats.num_tiles, stats.unique_pairs, elapsed,
      elapsed > 0 ? static_cast<double>(stats.num_records) / elapsed : 0.0);
  if (options.verify_exact) {
    std::fprintf(stderr,
                 "exact verification rejected %zu of %zu candidate pairs\n",
                 stats.verified_rejected, stats.unique_pairs);
  }
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) { g_serve_stop.store(true); }

int RunServe(const Flags& flags) {
  if (flags.positional.size() != 1) {
    Usage();
    return 2;
  }
  const std::string& dir = flags.positional[0];
  // Serve what's on disk: shard count and hash width are properties of
  // the snapshot (resharding on open is not supported), so adopt them
  // from the manifest instead of asking the operator to repeat them.
  Result<ShardSnapshotManifest> manifest =
      ShardedEnsemble::ReadSnapshotManifest(dir);
  if (!manifest.ok()) return Fail(manifest.status());
  // The manager owns generation lifetime: Acquire() per dispatch wave,
  // SwapTo() on reload requests. Engine-level degradation knobs come
  // from the serve flags so the server and engine agree.
  SnapshotManager::Options manager_options;
  manager_options.serving.num_shards =
      static_cast<size_t>(manifest.value().num_shards);
  manager_options.serving.base.base.num_hashes =
      static_cast<int>(manifest.value().num_hashes);
  manager_options.serving.max_in_flight_batches = flags.max_in_flight;
  manager_options.serving.partial_results = flags.partial;
  manager_options.open.verify_checksums = flags.verify;
  manager_options.open.apply_madvise = flags.madvise;
  auto manager = std::make_shared<SnapshotManager>(manager_options);
  Status status = manager->Open(dir);
  if (!status.ok()) return Fail(status);

  serve::ServerOptions options;
  options.bind_address = flags.bind;
  options.port = flags.port;
  options.num_reactors = flags.reactors;
  options.num_dispatchers = flags.dispatchers;
  options.batch_max = flags.batch_max;
  options.batch_linger_us = flags.linger_us;
  options.max_pending = flags.max_pending;
  options.default_deadline_us = flags.deadline_us;

  serve::Server::Hooks hooks;
  hooks.reload = [manager, dir]() -> Result<uint64_t> {
    LSHE_RETURN_IF_ERROR(manager->SwapTo(dir));
    return manager->epoch();
  };
  hooks.epoch = [manager] { return manager->epoch(); };
  hooks.extra_metrics = [manager](std::string* out) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "# HELP lshe_serve_retired_generations Displaced "
                  "generations still pinned by readers\n"
                  "# TYPE lshe_serve_retired_generations gauge\n"
                  "lshe_serve_retired_generations %zu\n",
                  manager->retired_count());
    out->append(line);
  };

  auto server = serve::Server::Start(
      options, [manager] { return manager->Acquire(); }, std::move(hooks));
  if (!server.ok()) return Fail(server.status());

  if (!flags.port_file.empty()) {
    std::FILE* f = std::fopen(flags.port_file.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write port file: " +
                                  flags.port_file));
    }
    std::fprintf(f, "%u\n", server.value()->port());
    std::fclose(f);
  }
  std::printf("serving %s on %s:%u (epoch %llu)\n", dir.c_str(),
              flags.bind.c_str(), server.value()->port(),
              static_cast<unsigned long long>(manager->epoch()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down\n");
  server.value()->Stop();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "index") return RunIndex(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "batch-query") return RunBatchQuery(flags);
  if (command == "snapshot") return RunSnapshot(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "verify") return RunVerify(flags);
  if (command == "cluster") return RunCluster(flags);
  if (command == "serve") return RunServe(flags);
  Usage();
  return 2;
}

}  // namespace
}  // namespace lshensemble

int main(int argc, char** argv) { return lshensemble::Main(argc, argv); }
