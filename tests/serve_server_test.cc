// Loopback tests for the micro-batching server: a real socket, a real
// port, real concurrent clients. The defining property mirrors the
// sharded layer's own: the network is invisible in the results. Every
// answer that comes back over the wire must equal — id for id, estimate
// for estimate — what a direct BatchQuery / BatchSearch on the same
// engine returns. On top of that equivalence: the shed path (engine at
// its admission bound answers retryable Unavailable), expired deadlines,
// hot engine swap through the reload hook, stats, the HTTP /metrics
// scrape, and the request-validation rejections.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "data/corpus.h"
#include "minhash/minhash.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/result.h"
#include "util/status.h"
#include "workload/generator.h"

namespace lshensemble {
namespace serve {
namespace {

constexpr int kNumHashes = 128;

ShardedEnsembleOptions ShardOptions(size_t num_shards) {
  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kNumHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 1 << 30;  // tests flush explicitly
  options.num_shards = num_shards;
  return options;
}

// Build a flushed 2-shard engine over `num_domains` generated domains.
// `seed` varies the corpus so two engines can be distinguishable (the
// hot-swap test serves A, swaps to B, and watches the answers change).
std::shared_ptr<const ShardedEnsemble> BuildEngine(
    const std::shared_ptr<const HashFamily>& family, const Corpus& corpus,
    const std::vector<MinHash>& sketches, size_t max_in_flight = 0) {
  ShardedEnsembleOptions options = ShardOptions(2);
  options.max_in_flight_batches = max_in_flight;
  auto engine = std::make_shared<ShardedEnsemble>(
      ShardedEnsemble::Create(options, family).value());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    EXPECT_TRUE(engine->Insert(domain.id, domain.size(), sketches[i]).ok());
  }
  EXPECT_TRUE(engine->Flush().ok());
  return engine;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(kNumHashes, 21).value();
    CorpusGenOptions gen;
    gen.num_domains = 200;
    gen.seed = 917;
    corpus_ = CorpusGenerator(gen).Generate().value();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      sketches_.push_back(
          MinHash::FromValues(family_, corpus_->domain(i).values));
    }
    engine_ = BuildEngine(family_, *corpus_, sketches_);
  }

  // Start a server over engine_ (or `engine` when given) on an ephemeral
  // loopback port.
  std::unique_ptr<Server> StartServer(
      ServerOptions options = {},
      std::shared_ptr<const ShardedEnsemble> engine = nullptr,
      Server::Hooks hooks = {}) {
    if (!engine) engine = engine_;
    auto started = Server::Start(
        options, [engine]() { return engine; }, std::move(hooks));
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    return std::move(started.value());
  }

  Client ConnectTo(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.value());
  }

  std::shared_ptr<const HashFamily> family_;
  std::optional<Corpus> corpus_;
  std::vector<MinHash> sketches_;
  std::shared_ptr<const ShardedEnsemble> engine_;
};

TEST_F(ServeServerTest, WireQueryEqualsDirectBatchQuery) {
  auto server = StartServer();
  Client client = ConnectTo(*server);

  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < 32; ++i) {
    const size_t pick = (i * 7) % corpus_->size();
    specs.push_back(
        QuerySpec{&sketches_[pick], corpus_->domain(pick).size(), 0.5});
  }
  std::vector<std::vector<uint64_t>> direct(specs.size());
  ASSERT_TRUE(engine_->BatchQuery(specs, direct.data()).ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto resp = client.Query(*specs[i].query, specs[i].query_size, 0.5);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().ids, direct[i]) << "query " << i;
    EXPECT_EQ(resp.value().flags, 0);
  }
}

TEST_F(ServeServerTest, WireTopKEqualsDirectBatchSearch) {
  auto server = StartServer();
  Client client = ConnectTo(*server);

  constexpr size_t kK = 10;
  std::vector<TopKQuery> queries;
  for (size_t i = 0; i < 16; ++i) {
    const size_t pick = (i * 13) % corpus_->size();
    queries.push_back(
        TopKQuery{&sketches_[pick], corpus_->domain(pick).size()});
  }
  std::vector<std::vector<TopKResult>> direct(queries.size());
  ASSERT_TRUE(engine_->BatchSearch(queries, kK, direct.data()).ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.TopK(*queries[i].query, queries[i].query_size, kK);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.value().entries.size(), direct[i].size()) << "query " << i;
    for (size_t j = 0; j < direct[i].size(); ++j) {
      EXPECT_EQ(resp.value().entries[j].id, direct[i][j].id);
      EXPECT_EQ(resp.value().entries[j].estimated_containment,
                direct[i][j].estimated_containment);
    }
  }
}

TEST_F(ServeServerTest, ConcurrentClientsGetCorrectAnswers) {
  // Many clients in flight at once is the micro-batcher's whole reason
  // to exist; correctness must survive the coalescing.
  ServerOptions options;
  options.batch_linger_us = 200;  // encourage cross-client coalescing
  auto server = StartServer(options);

  // Direct answers for every domain, computed once up front.
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < corpus_->size(); ++i) {
    specs.push_back(
        QuerySpec{&sketches_[i], corpus_->domain(i).size(), 0.5});
  }
  std::vector<std::vector<uint64_t>> direct(specs.size());
  ASSERT_TRUE(engine_->BatchQuery(specs, direct.data()).ok());

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t pick = (c * 31 + i * 17) % corpus_->size();
        auto resp = client.value().Query(sketches_[pick],
                                         corpus_->domain(pick).size(), 0.5);
        if (!resp.ok() || resp.value().ids != direct[pick]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // With 8 clients against a >=200us linger at least one wave must have
  // coalesced more than one request.
  EXPECT_GT(server->metrics().batched_requests.load(),
            server->metrics().batches_dispatched.load());
}

TEST_F(ServeServerTest, EngineAtAdmissionBoundShedsRetryable) {
  // An engine with max_in_flight_batches = 1 whose only slot the test
  // holds: every dispatch returns Unavailable, which the server must
  // surface as a retryable shed, not a hard failure.
  auto bounded = BuildEngine(family_, *corpus_, sketches_,
                             /*max_in_flight=*/1);
  auto server = StartServer({}, bounded);
  Client client = ConnectTo(*server);

  auto slot = bounded->TryAdmit();
  ASSERT_TRUE(slot.ok());

  auto resp = client.Query(sketches_[0], corpus_->domain(0).size(), 0.5);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status().ToString();
  EXPECT_GE(server->metrics().sheds.load(), 1u);

  // Release the slot: the same request now succeeds (shed was retryable).
  slot.value() = ShardedEnsemble::AdmissionSlot();
  auto retry = client.Query(sketches_[0], corpus_->domain(0).size(), 0.5);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ServeServerTest, ExpiredDeadlineFailsThatRequestAlone) {
  // A 1us budget against a 10ms linger is always expired by dispatch
  // time; it must fail with DeadlineExceeded without poisoning the
  // healthy request batched alongside it.
  ServerOptions options;
  options.batch_linger_us = 10000;
  auto server = StartServer(options);
  Client doomed = ConnectTo(*server);
  Client healthy = ConnectTo(*server);

  // Pipeline both so they land in the same wave.
  QueryRequest req;
  req.request_id = 1;
  req.family_seed = family_->seed();
  req.t_star = 0.5;
  req.query_size = corpus_->domain(0).size();
  req.deadline_us = 1;
  req.slots = sketches_[0].values();
  std::string doomed_frame;
  EncodeQueryRequest(req, &doomed_frame);
  ASSERT_TRUE(doomed.SendFrames(doomed_frame).ok());

  auto ok_resp = healthy.Query(sketches_[1], corpus_->domain(1).size(), 0.5);
  EXPECT_TRUE(ok_resp.ok()) << ok_resp.status().ToString();

  Message msg;
  auto received = doomed.ReceiveMessage();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  msg = std::move(received.value());
  ASSERT_EQ(msg.type, MessageType::kErrorResponse);
  EXPECT_TRUE(StatusFromError(msg.error).IsDeadlineExceeded());
  EXPECT_GE(server->metrics().deadline_exceeded.load(), 1u);
}

TEST_F(ServeServerTest, StatsReportEngineShape) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_shards, engine_->num_shards());
  EXPECT_EQ(stats.value().live_domains, engine_->size());
  EXPECT_EQ(stats.value().indexed_domains, engine_->indexed_size());
  EXPECT_EQ(stats.value().epoch, 0u);  // no epoch hook installed
}

TEST_F(ServeServerTest, ReloadHookHotSwapsTheServedEngine) {
  // Engine B holds a disjoint corpus. After Reload(), queries for an
  // A-domain stop matching it and B answers appear — with zero downtime
  // (the healthy client never reconnects).
  CorpusGenOptions gen;
  gen.num_domains = 200;
  gen.seed = 4242;
  Corpus corpus_b = CorpusGenerator(gen).Generate().value();
  std::vector<MinHash> sketches_b;
  for (size_t i = 0; i < corpus_b.size(); ++i) {
    sketches_b.push_back(
        MinHash::FromValues(family_, corpus_b.domain(i).values));
  }
  auto engine_b = BuildEngine(family_, corpus_b, sketches_b);

  struct Swap {
    std::mutex mutex;
    std::shared_ptr<const ShardedEnsemble> current;
    std::atomic<uint64_t> epoch{1};
  };
  auto swap = std::make_shared<Swap>();
  swap->current = engine_;

  Server::Hooks hooks;
  hooks.reload = [swap, engine_b]() -> Result<uint64_t> {
    std::lock_guard<std::mutex> lock(swap->mutex);
    swap->current = engine_b;
    return swap->epoch.fetch_add(1) + 1;
  };
  hooks.epoch = [swap]() { return swap->epoch.load(); };

  auto started = Server::Start(
      ServerOptions{},
      [swap]() {
        std::lock_guard<std::mutex> lock(swap->mutex);
        return swap->current;
      },
      std::move(hooks));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = std::move(started.value());
  Client client = ConnectTo(*server);

  // Self-query on an A domain: engine A must return the domain itself.
  auto before = client.Query(sketches_[0], corpus_->domain(0).size(), 0.9);
  ASSERT_TRUE(before.ok());
  const uint64_t a_id = corpus_->domain(0).id;
  EXPECT_TRUE(std::find(before.value().ids.begin(), before.value().ids.end(),
                        a_id) != before.value().ids.end());

  auto reload = client.Reload();
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload.value().epoch, 2u);

  // Same connection, new engine: answers now come from B.
  std::vector<QuerySpec> spec = {
      QuerySpec{&sketches_b[0], corpus_b.domain(0).size(), 0.9}};
  std::vector<uint64_t> direct_b;
  ASSERT_TRUE(engine_b->BatchQuery(spec, &direct_b).ok());
  auto after = client.Query(sketches_b[0], corpus_b.domain(0).size(), 0.9);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().ids, direct_b);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().epoch, 2u);
}

TEST_F(ServeServerTest, ReloadWithoutHookIsNotSupported) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  auto reload = client.Reload();
  ASSERT_FALSE(reload.ok());
  EXPECT_TRUE(reload.status().IsNotSupported()) << reload.status().ToString();
}

// Raw HTTP/1.0 one-shot scrape of /metrics on the data port; empty on a
// connection failure.
/// Send `request` in one write and read the reply until EOF.
std::string ScrapeMetrics(
    const Server& server,
    std::string_view request = "GET /metrics HTTP/1.0\r\n\r\n") {
  std::string response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  // MSG_NOSIGNAL: the server may close before a long request is fully
  // sent; that must fail the send, not raise SIGPIPE.
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1 &&
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  }
  ::close(fd);
  return response;
}

TEST_F(ServeServerTest, MetricsScrapeOverHttp) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  ASSERT_TRUE(
      client.Query(sketches_[0], corpus_->domain(0).size(), 0.5).ok());

  const std::string response = ScrapeMetrics(*server);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("lshe_serve_query_requests_total 1"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("lshe_serve_engine_shards 2"), std::string::npos);
  EXPECT_NE(response.find("lshe_serve_batch_fill_count"), std::string::npos);
}

// An HTTP connection gets one response: input after the request that
// was answered (here 64 KiB of filler in the same write, spanning many
// reads) is discarded instead of re-triggering the page.
TEST_F(ServeServerTest, MetricsRequestWithTrailingBytesGetsOneResponse) {
  auto server = StartServer();
  const std::string request =
      "GET /metrics HTTP/1.0\r\n\r\n" + std::string(64 * 1024, 'x');
  const std::string response = ScrapeMetrics(*server, request);
  size_t pages = 0;
  for (size_t at = response.find("HTTP/1.0 200 OK"); at != std::string::npos;
       at = response.find("HTTP/1.0 200 OK", at + 1)) {
    ++pages;
  }
  EXPECT_EQ(pages, 1u) << response.size() << " response bytes";
}

TEST_F(ServeServerTest, RejectsWrongFamilySeed) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  auto other_family = HashFamily::Create(kNumHashes, 999).value();
  MinHash sketch =
      MinHash::FromValues(other_family, corpus_->domain(0).values);
  auto resp = client.Query(sketch, corpus_->domain(0).size(), 0.5);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status().ToString();
}

TEST_F(ServeServerTest, RejectsWrongSlotCount) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  QueryRequest req;
  req.request_id = 1;
  req.family_seed = family_->seed();  // right family, wrong width
  req.t_star = 0.5;
  req.slots = std::vector<uint64_t>(kNumHashes / 2, 1);
  std::string frame;
  EncodeQueryRequest(req, &frame);
  ASSERT_TRUE(client.SendFrames(frame).ok());
  auto received = client.ReceiveMessage();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  ASSERT_EQ(received.value().type, MessageType::kErrorResponse);
  EXPECT_TRUE(StatusFromError(received.value().error).IsInvalidArgument());
}

TEST_F(ServeServerTest, RejectsBadTStarAndZeroK) {
  auto server = StartServer();
  Client client = ConnectTo(*server);

  auto bad_t = client.Query(sketches_[0], corpus_->domain(0).size(), 1.5);
  ASSERT_FALSE(bad_t.ok());
  EXPECT_TRUE(bad_t.status().IsInvalidArgument());

  auto bad_k = client.TopK(sketches_[0], corpus_->domain(0).size(), 0);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_TRUE(bad_k.status().IsInvalidArgument());
}

TEST_F(ServeServerTest, MalformedFramingDropsConnection) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  // A length prefix far above max_frame_bytes poisons the stream; the
  // server must drop the connection (read returns EOF client-side).
  std::string bad("\xff\xff\xff\x7f", 4);
  ASSERT_TRUE(client.SendFrames(bad).ok());
  auto received = client.ReceiveMessage();
  EXPECT_FALSE(received.ok());
  // A fresh connection still works: the drop was scoped to the offender.
  Client fresh = ConnectTo(*server);
  EXPECT_TRUE(
      fresh.Query(sketches_[0], corpus_->domain(0).size(), 0.5).ok());
  EXPECT_GE(server->metrics().protocol_errors.load(), 1u);
}

TEST_F(ServeServerTest, StopIsIdempotentAndClosesClients) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  server->Stop();
  server->Stop();
  auto resp = client.Query(sketches_[0], corpus_->domain(0).size(), 0.5);
  EXPECT_FALSE(resp.ok());
}

}  // namespace
}  // namespace serve
}  // namespace lshensemble
