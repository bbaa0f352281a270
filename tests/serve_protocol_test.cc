// The serving codec is the only part of the system that parses bytes
// from an untrusted peer, so its tests are adversarial: every message
// type round-trips exactly, a frame split at *every* byte boundary
// reassembles, and every corruption class (oversized prefix, zero-length
// frame, unknown tag, truncated body, trailing garbage, lying count
// field) is rejected with Corruption — never a crash. A seeded mutation
// loop then throws thousands of damaged streams at both decoders.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {
namespace serve {
namespace {

// Strip the u32 length prefix off a single encoded frame.
std::string_view PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes);
  return std::string_view(frame).substr(kFrameHeaderBytes);
}

TEST(ServeProtocolTest, QueryRequestRoundTrip) {
  QueryRequest req;
  req.request_id = 0x0123456789abcdefULL;
  req.family_seed = 42;
  req.t_star = 0.625;
  req.query_size = 900;
  req.deadline_us = 250;
  req.slots = {5, 0, UINT64_MAX, 77};
  std::string frame;
  EncodeQueryRequest(req, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Message& msg = decoded.value();
  ASSERT_EQ(msg.type, MessageType::kQueryRequest);
  EXPECT_EQ(msg.query.request_id, req.request_id);
  EXPECT_EQ(msg.query.family_seed, req.family_seed);
  EXPECT_EQ(msg.query.t_star, req.t_star);
  EXPECT_EQ(msg.query.query_size, req.query_size);
  EXPECT_EQ(msg.query.deadline_us, req.deadline_us);
  EXPECT_EQ(msg.query.slots, req.slots);
}

TEST(ServeProtocolTest, TopKRequestRoundTrip) {
  TopKRequest req;
  req.request_id = 7;
  req.family_seed = 21;
  req.k = 25;
  req.query_size = 0;  // "use the sketch estimate" is on-wire meaningful
  req.deadline_us = 0;
  req.slots = std::vector<uint64_t>(128, 3);
  std::string frame;
  EncodeTopKRequest(req, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().type, MessageType::kTopKRequest);
  EXPECT_EQ(decoded.value().topk.k, 25u);
  EXPECT_EQ(decoded.value().topk.slots.size(), 128u);
}

TEST(ServeProtocolTest, StatsAndReloadRequestsRoundTrip) {
  StatsRequest stats;
  stats.request_id = 11;
  ReloadRequest reload;
  reload.request_id = 12;
  std::string stats_frame, reload_frame;
  EncodeStatsRequest(stats, &stats_frame);
  EncodeReloadRequest(reload, &reload_frame);

  auto stats_decoded = DecodeMessage(PayloadOf(stats_frame));
  ASSERT_TRUE(stats_decoded.ok());
  ASSERT_EQ(stats_decoded.value().type, MessageType::kStatsRequest);
  EXPECT_EQ(stats_decoded.value().stats.request_id, 11u);

  auto reload_decoded = DecodeMessage(PayloadOf(reload_frame));
  ASSERT_TRUE(reload_decoded.ok());
  ASSERT_EQ(reload_decoded.value().type, MessageType::kReloadRequest);
  EXPECT_EQ(reload_decoded.value().reload.request_id, 12u);
}

TEST(ServeProtocolTest, QueryResponseRoundTripWithFlags) {
  QueryResponse resp;
  resp.request_id = 99;
  resp.flags = kResponseFlagPartial;
  resp.ids = {1, 2, 3, 1000000};
  std::string frame;
  EncodeQueryResponse(resp, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().type, MessageType::kQueryResponse);
  EXPECT_EQ(decoded.value().query_response.request_id, 99u);
  EXPECT_EQ(decoded.value().query_response.flags, kResponseFlagPartial);
  EXPECT_EQ(decoded.value().query_response.ids, resp.ids);
}

TEST(ServeProtocolTest, TopKResponseRoundTrip) {
  TopKResponse resp;
  resp.request_id = 5;
  resp.entries = {{10, 0.99}, {20, 0.5}, {30, 0.0}};
  std::string frame;
  EncodeTopKResponse(resp, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().type, MessageType::kTopKResponse);
  const TopKResponse& out = decoded.value().topk_response;
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].id, 10u);
  EXPECT_EQ(out.entries[0].estimated_containment, 0.99);
  EXPECT_EQ(out.entries[2].id, 30u);
}

TEST(ServeProtocolTest, StatsResponseRoundTrip) {
  StatsResponse resp;
  resp.request_id = 8;
  resp.num_shards = 4;
  resp.live_domains = 1000;
  resp.indexed_domains = 900;
  resp.delta_domains = 100;
  resp.tombstones = 7;
  resp.epoch = 3;
  std::string frame;
  EncodeStatsResponse(resp, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().type, MessageType::kStatsResponse);
  const StatsResponse& out = decoded.value().stats_response;
  EXPECT_EQ(out.num_shards, 4u);
  EXPECT_EQ(out.live_domains, 1000u);
  EXPECT_EQ(out.indexed_domains, 900u);
  EXPECT_EQ(out.delta_domains, 100u);
  EXPECT_EQ(out.tombstones, 7u);
  EXPECT_EQ(out.epoch, 3u);
}

TEST(ServeProtocolTest, ReloadResponseRoundTrip) {
  ReloadResponse resp;
  resp.request_id = 13;
  resp.epoch = 9;
  std::string frame;
  EncodeReloadResponse(resp, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().type, MessageType::kReloadResponse);
  EXPECT_EQ(decoded.value().reload_response.epoch, 9u);
}

TEST(ServeProtocolTest, ErrorResponseRoundTrip) {
  ErrorResponse err;
  err.request_id = 77;
  err.code = static_cast<uint8_t>(Status::Code::kUnavailable);
  err.retryable = 1;
  err.message = "shedding: dispatch queue full";
  std::string frame;
  EncodeErrorResponse(err, &frame);

  auto decoded = DecodeMessage(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().type, MessageType::kErrorResponse);
  EXPECT_EQ(decoded.value().error.request_id, 77u);
  EXPECT_EQ(decoded.value().error.code, err.code);
  EXPECT_EQ(decoded.value().error.retryable, 1);
  EXPECT_EQ(decoded.value().error.message, err.message);
}

TEST(ServeProtocolTest, FrameReaderYieldsSingleFrame) {
  StatsRequest req;
  req.request_id = 1;
  std::string frame;
  EncodeStatsRequest(req, &frame);

  FrameReader reader;
  reader.Append(frame);
  std::string_view payload;
  ASSERT_TRUE(reader.Next(&payload));
  EXPECT_EQ(payload, PayloadOf(frame));
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ServeProtocolTest, FrameReaderReassemblesEverySplitPoint) {
  QueryRequest req;
  req.request_id = 3;
  req.slots = {1, 2, 3};
  std::string frame;
  EncodeQueryRequest(req, &frame);

  // Split [header+payload] at every byte boundary: the reader must yield
  // nothing before the split completes, then exactly one payload.
  for (size_t split = 0; split <= frame.size(); ++split) {
    FrameReader reader;
    reader.Append(std::string_view(frame).substr(0, split));
    std::string_view payload;
    if (split < frame.size()) {
      EXPECT_FALSE(reader.Next(&payload)) << "split=" << split;
      EXPECT_TRUE(reader.status().ok()) << "split=" << split;
    }
    reader.Append(std::string_view(frame).substr(split));
    ASSERT_TRUE(reader.Next(&payload)) << "split=" << split;
    EXPECT_EQ(payload, PayloadOf(frame)) << "split=" << split;
    auto decoded = DecodeMessage(payload);
    ASSERT_TRUE(decoded.ok()) << "split=" << split;
    EXPECT_EQ(decoded.value().query.request_id, 3u);
  }
}

TEST(ServeProtocolTest, FrameReaderByteAtATime) {
  TopKRequest req;
  req.request_id = 4;
  req.slots = {9, 8, 7, 6};
  std::string frame;
  EncodeTopKRequest(req, &frame);

  FrameReader reader;
  std::string_view payload;
  for (size_t i = 0; i < frame.size(); ++i) {
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(reader.Next(&payload));
    }
    reader.Append(std::string_view(frame).substr(i, 1));
  }
  ASSERT_TRUE(reader.Next(&payload));
  EXPECT_EQ(payload, PayloadOf(frame));
}

TEST(ServeProtocolTest, FrameReaderYieldsPipelinedFrames) {
  std::string stream;
  for (uint64_t id = 1; id <= 5; ++id) {
    StatsRequest req;
    req.request_id = id;
    EncodeStatsRequest(req, &stream);
  }

  FrameReader reader;
  reader.Append(stream);
  std::string_view payload;
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(reader.Next(&payload)) << "frame " << id;
    auto decoded = DecodeMessage(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().stats.request_id, id);
  }
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_TRUE(reader.status().ok());
}

TEST(ServeProtocolTest, FrameReaderRejectsOversizedFrameAndStaysPoisoned) {
  FrameReader reader(/*max_frame_bytes=*/64);
  // Length prefix of 65: one byte over the ceiling.
  std::string bad;
  bad.append({65, 0, 0, 0});
  bad.append(65, 'x');
  reader.Append(bad);
  std::string_view payload;
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();

  // Poisoned for good: later (well-formed) input is ignored.
  StatsRequest req;
  req.request_id = 1;
  std::string good;
  EncodeStatsRequest(req, &good);
  reader.Append(good);
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST(ServeProtocolTest, FrameReaderRejectsZeroLengthFrame) {
  FrameReader reader;
  reader.Append(std::string_view("\0\0\0\0", 4));
  std::string_view payload;
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST(ServeProtocolTest, DecodeRejectsEmptyPayload) {
  auto decoded = DecodeMessage(std::string_view());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ServeProtocolTest, DecodeRejectsUnknownType) {
  std::string payload;
  payload.push_back(static_cast<char>(200));  // no such MessageType
  payload.append(8, '\0');
  auto decoded = DecodeMessage(payload);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ServeProtocolTest, DecodeRejectsTruncatedBodies) {
  // Every message type, truncated at every byte: always Corruption,
  // never a crash or an OK partial decode.
  std::vector<std::string> frames(9);
  QueryRequest query;
  query.slots = {1, 2};
  EncodeQueryRequest(query, &frames[0]);
  TopKRequest topk;
  topk.slots = {3};
  EncodeTopKRequest(topk, &frames[1]);
  EncodeStatsRequest(StatsRequest{}, &frames[2]);
  EncodeReloadRequest(ReloadRequest{}, &frames[3]);
  QueryResponse query_resp;
  query_resp.ids = {4, 5};
  EncodeQueryResponse(query_resp, &frames[4]);
  TopKResponse topk_resp;
  topk_resp.entries = {{6, 0.5}};
  EncodeTopKResponse(topk_resp, &frames[5]);
  EncodeStatsResponse(StatsResponse{}, &frames[6]);
  EncodeReloadResponse(ReloadResponse{}, &frames[7]);
  ErrorResponse err;
  err.message = "boom";
  EncodeErrorResponse(err, &frames[8]);

  for (size_t f = 0; f < frames.size(); ++f) {
    const std::string_view payload = PayloadOf(frames[f]);
    for (size_t len = 1; len < payload.size(); ++len) {
      auto decoded = DecodeMessage(payload.substr(0, len));
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "frame " << f << " truncated to " << len << " bytes";
    }
  }
}

TEST(ServeProtocolTest, DecodeRejectsTrailingGarbage) {
  StatsRequest req;
  req.request_id = 1;
  std::string frame;
  EncodeStatsRequest(req, &frame);
  std::string payload(PayloadOf(frame));
  payload.push_back('!');
  auto decoded = DecodeMessage(payload);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ServeProtocolTest, DecodeRejectsLyingSlotCount) {
  // A slot count claiming more elements than the payload could hold must
  // be rejected before any allocation happens.
  QueryRequest req;
  req.request_id = 1;
  req.slots = {1, 2, 3};
  std::string frame;
  EncodeQueryRequest(req, &frame);
  std::string payload(PayloadOf(frame));
  // The slot-count u32 sits 8+8+8+8+8 = 40 bytes into the body, i.e. at
  // offset 1 (type tag) + 40 = 41. Overwrite it with a huge count.
  ASSERT_GT(payload.size(), 45u);
  payload[41] = static_cast<char>(0xff);
  payload[42] = static_cast<char>(0xff);
  payload[43] = static_cast<char>(0xff);
  payload[44] = static_cast<char>(0x7f);
  auto decoded = DecodeMessage(payload);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// ------------------------------------------------------------ fuzzing

// One valid frame of every message type: the seeds of the mutation loop.
std::vector<std::string> SeedFrames() {
  std::vector<std::string> frames(9);
  QueryRequest query;
  query.request_id = 11;
  query.family_seed = 5;
  query.query_size = 40;
  query.deadline_us = 100;
  query.slots = {1, 2, 3, 4, 5, 6, 7, 8};
  EncodeQueryRequest(query, &frames[0]);
  TopKRequest topk;
  topk.request_id = 12;
  topk.family_seed = 5;
  topk.k = 3;
  topk.slots = query.slots;
  EncodeTopKRequest(topk, &frames[1]);
  EncodeStatsRequest(StatsRequest{13}, &frames[2]);
  EncodeReloadRequest(ReloadRequest{14}, &frames[3]);
  EncodeQueryResponse(QueryResponse{15, kResponseFlagPartial, {9, 10, 11}},
                      &frames[4]);
  EncodeTopKResponse(TopKResponse{16, {{9, 0.75}, {10, 0.5}}}, &frames[5]);
  EncodeStatsResponse(StatsResponse{17, 4, 100, 90, 10, 2, 3}, &frames[6]);
  EncodeReloadResponse(ReloadResponse{18, 4}, &frames[7]);
  EncodeErrorResponse(ErrorResponse{19, 3, 1, "overloaded"}, &frames[8]);
  return frames;
}

// Writes `value` little-endian over the 4 bytes at `offset`, clipped at
// the end of `bytes`.
void Overwrite32(std::string* bytes, size_t offset, uint32_t value) {
  for (size_t i = 0; i < 4 && offset + i < bytes->size(); ++i) {
    (*bytes)[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

// A length or count a hostile peer might send: huge, just past the
// frame ceiling, small enough to look plausible, or random.
uint32_t HostileU32(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return UINT32_MAX;
    case 1:
      return static_cast<uint32_t>(kDefaultMaxFrameBytes) + 1;
    case 2:
      return static_cast<uint32_t>(rng->NextBounded(64));
    default:
      return static_cast<uint32_t>(rng->Next());
  }
}

// One seeded mutation of seed frame `type`.
std::string Mutate(const std::vector<std::string>& seeds, size_t type,
                   Rng* rng) {
  std::string bytes = seeds[type];
  switch (rng->NextBounded(5)) {
    case 0: {  // bit flips anywhere, prefix included
      const uint64_t flips = 1 + rng->NextBounded(4);
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[rng->NextBounded(bytes.size())] ^=
            static_cast<char>(1u << rng->NextBounded(8));
      }
      break;
    }
    case 1:  // truncation
      bytes.resize(rng->NextBounded(bytes.size()));
      break;
    case 2:  // length prefix
      Overwrite32(&bytes, 0, HostileU32(rng));
      break;
    case 3: {  // a count or length field: any 4 bytes after the type tag
      const size_t body = kFrameHeaderBytes + 1;
      Overwrite32(&bytes, body + rng->NextBounded(bytes.size() - body),
                  HostileU32(rng));
      break;
    }
    default: {  // splice: a prefix of this frame, a suffix of another
      const std::string& other = seeds[rng->NextBounded(seeds.size())];
      bytes.resize(rng->NextBounded(bytes.size() + 1));
      bytes.append(other, rng->NextBounded(other.size()));
      break;
    }
  }
  return bytes;
}

// A decoder outcome a peer's bytes may produce: a message, or a clean
// rejection.
void ExpectCleanOutcome(const Result<Message>& message) {
  if (message.ok()) return;
  EXPECT_TRUE(message.status().IsCorruption() ||
              message.status().IsInvalidArgument())
      << message.status().ToString();
}

// Feeds `stream` to `reader` cut at random split points and decodes
// every frame it yields; returns how many decoded.
size_t FeedAndDecode(std::string_view stream, Rng* rng, FrameReader* reader) {
  size_t decoded = 0;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = 1 + rng->NextBounded(stream.size() - pos);
    reader->Append(stream.substr(pos, chunk));
    pos += chunk;
    std::string_view payload;
    while (reader->Next(&payload)) {
      const Result<Message> message = DecodeMessage(payload);
      ExpectCleanOutcome(message);
      decoded += message.ok() ? 1 : 0;
    }
  }
  return decoded;
}

// Seeded mutation fuzzing of both decoders, in the style of the snapshot
// fuzz sweep: bit flips, truncations, hostile length prefixes and count
// fields, and spliced frames. Every mutated stream must decode or fail
// cleanly, never crash or read out of bounds (the asan build runs it).
TEST(ServeProtocolTest, SeededMutationFuzz) {
  const std::vector<std::string> seeds = SeedFrames();
  Rng rng(20251019);
  size_t decoded = 0;
  size_t poisoned = 0;
  for (int round = 0; round < 500; ++round) {
    for (size_t type = 0; type < seeds.size(); ++type) {
      const std::string stream = Mutate(seeds, type, &rng);
      // The payload straight into the decoder too, whatever the prefix
      // says, so truncated and spliced bodies reach it.
      if (stream.size() > kFrameHeaderBytes) {
        ExpectCleanOutcome(
            DecodeMessage(std::string_view(stream).substr(kFrameHeaderBytes)));
      }
      FrameReader reader(/*max_frame_bytes=*/4096);
      decoded += FeedAndDecode(stream, &rng, &reader);
      if (reader.status().ok()) continue;
      ++poisoned;
      EXPECT_TRUE(reader.status().IsCorruption());
      // A poisoned reader ignores even a well-formed frame.
      reader.Append(seeds[type]);
      std::string_view payload;
      EXPECT_FALSE(reader.Next(&payload));
      EXPECT_TRUE(reader.status().IsCorruption());
    }
  }
  // The mutations reached both sides: frames that still decode, and
  // streams that poison the reader.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(poisoned, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace lshensemble
