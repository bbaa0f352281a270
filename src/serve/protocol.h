// The lshe serving wire protocol: length-prefixed binary frames.
//
// The network front-end (serve/server.h) exists to convert the engine's
// batched throughput into user-visible throughput, so the protocol is
// built for pipelining: every request carries a client-chosen request id
// that its response echoes, a connection may have any number of requests
// in flight, and responses may arrive in any order (the micro-batcher
// answers whole waves at once). Framing is the classic length prefix —
// one u32 little-endian payload length, then the payload — so a reader
// needs no lookahead and a partial read never confuses the stream.
//
//   frame    := [payload_len : u32 LE] [payload : payload_len bytes]
//   payload  := [msg_type : u8] [body...]
//
// All integers are little-endian fixed-width (io/coding.h); doubles
// travel as their IEEE-754 bit pattern in a u64. Queries carry the
// MinHash *signature* (m slot minima), not the raw values: sketching
// stays client-side, a query costs O(m) bytes regardless of the domain's
// size, and the server only has to check family compatibility (seed and
// m ride along). The full field-by-field spec lives in docs/serving.md;
// this header and that document must tell the same story.
//
// Robustness contract: decoders never trust the peer. Every read is
// bounds-checked, an oversized length prefix is rejected before any
// buffering happens (FrameReader::max_frame_bytes), and a malformed
// payload yields Status::Corruption — never a crash and never an
// out-of-bounds read. The codec is pure (no I/O), so every path is
// exercised directly by tests/serve_protocol_test.cc.

#ifndef LSHENSEMBLE_SERVE_PROTOCOL_H_
#define LSHENSEMBLE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace lshensemble {
namespace serve {

/// Frame header size: the u32 payload length prefix.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default ceiling on a single frame's payload (requests carry one
/// signature; responses carry one candidate list — 1 MiB covers m=4096
/// signatures and ~128k-candidate responses with room to spare).
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

/// Message type tags. Requests are < 128, responses >= 128.
enum class MessageType : uint8_t {
  kQueryRequest = 1,   ///< threshold (set-containment) query
  kTopKRequest = 2,    ///< top-k containment ranking
  kStatsRequest = 3,   ///< engine stats probe
  kReloadRequest = 4,  ///< republish: hot-swap to the current snapshot dir
  kQueryResponse = 129,
  kTopKResponse = 130,
  kStatsResponse = 131,
  kReloadResponse = 132,
  kErrorResponse = 255,
};

/// QueryResponse::flags bit: the deadline cut off some shards and the
/// candidate list covers only the shards that finished (the server runs
/// in partial-results mode).
inline constexpr uint8_t kResponseFlagPartial = 1;

/// \brief Threshold query: "which domains contain >= t_star of Q?".
struct QueryRequest {
  uint64_t request_id = 0;
  /// HashFamily seed the signature was sketched with; the server rejects
  /// mismatches (slots from another family estimate garbage).
  uint64_t family_seed = 0;
  /// Containment threshold t* in [0, 1].
  double t_star = 0.5;
  /// Exact |Q| if known; 0 = use the sketch's cardinality estimate.
  uint64_t query_size = 0;
  /// Per-request deadline budget in microseconds from server receipt
  /// (0 = none / server default). Absolute clocks never cross the wire.
  uint64_t deadline_us = 0;
  /// The query MinHash's slot minima (length m).
  std::vector<uint64_t> slots;
};

/// \brief Top-k query: "the k domains with the highest containment of Q".
struct TopKRequest {
  uint64_t request_id = 0;
  uint64_t family_seed = 0;
  /// Number of ranked results requested; must be >= 1.
  uint32_t k = 10;
  uint64_t query_size = 0;
  uint64_t deadline_us = 0;
  std::vector<uint64_t> slots;
};

/// \brief Engine stats probe (no body beyond the id).
struct StatsRequest {
  uint64_t request_id = 0;
};

/// \brief Republish request: re-open the serving snapshot directory and
/// hot-swap to it (SnapshotManager::SwapTo). Serving never pauses.
struct ReloadRequest {
  uint64_t request_id = 0;
};

/// \brief Candidate ids answering a QueryRequest (ascending id order —
/// the sharded engine's canonical merge order).
struct QueryResponse {
  uint64_t request_id = 0;
  uint8_t flags = 0;  ///< kResponseFlagPartial when shards were cut off
  std::vector<uint64_t> ids;
};

/// \brief One ranked answer of a TopKResponse.
struct TopKEntry {
  uint64_t id = 0;
  double estimated_containment = 0.0;
};

/// \brief Ranked results answering a TopKRequest (descending estimate,
/// ties ascending id — ShardedEnsemble::BatchSearch's order).
struct TopKResponse {
  uint64_t request_id = 0;
  std::vector<TopKEntry> entries;
};

/// \brief Engine shape answering a StatsRequest.
struct StatsResponse {
  uint64_t request_id = 0;
  uint64_t num_shards = 0;
  uint64_t live_domains = 0;
  uint64_t indexed_domains = 0;
  uint64_t delta_domains = 0;
  uint64_t tombstones = 0;
  /// Snapshot generation being served (0 when not snapshot-backed).
  uint64_t epoch = 0;
};

/// \brief Acknowledges a ReloadRequest with the new generation number.
struct ReloadResponse {
  uint64_t request_id = 0;
  uint64_t epoch = 0;
};

/// \brief Error answering any request. `code` mirrors Status::Code;
/// `retryable` marks load-shedding rejections (back off and resend) as
/// opposed to contract errors (fix the request).
struct ErrorResponse {
  uint64_t request_id = 0;
  uint8_t code = 0;
  uint8_t retryable = 0;
  std::string message;
};

/// \brief One decoded message: the type tag plus the matching struct
/// (only the member named by `type` is meaningful).
struct Message {
  MessageType type = MessageType::kErrorResponse;
  QueryRequest query;
  TopKRequest topk;
  StatsRequest stats;
  ReloadRequest reload;
  QueryResponse query_response;
  TopKResponse topk_response;
  StatsResponse stats_response;
  ReloadResponse reload_response;
  ErrorResponse error;
};

// Encoders append one complete frame (header + payload) to `out`.
void EncodeQueryRequest(const QueryRequest& msg, std::string* out);
void EncodeTopKRequest(const TopKRequest& msg, std::string* out);
void EncodeStatsRequest(const StatsRequest& msg, std::string* out);
void EncodeReloadRequest(const ReloadRequest& msg, std::string* out);
void EncodeQueryResponse(const QueryResponse& msg, std::string* out);
void EncodeTopKResponse(const TopKResponse& msg, std::string* out);
void EncodeStatsResponse(const StatsResponse& msg, std::string* out);
void EncodeReloadResponse(const ReloadResponse& msg, std::string* out);
void EncodeErrorResponse(const ErrorResponse& msg, std::string* out);

/// \brief Decode one frame payload (the bytes after the length prefix)
/// into a Message. Unknown type tags, truncated bodies and trailing
/// garbage all return Corruption.
Result<Message> DecodeMessage(std::string_view payload);

/// \brief Incremental frame splitter for a byte stream.
///
/// Feed whatever the socket produced with Append(); Next() then yields
/// complete frame payloads one at a time (views into the internal
/// buffer, valid until the next Append/Next call). Short reads are the
/// normal case: a frame split across any byte boundary reassembles
/// exactly. A length prefix above `max_frame_bytes` poisons the reader
/// (Corruption now and on every later call) — the stream has no
/// recoverable framing past a rejected length, so the connection must
/// be dropped.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffer `data` (bytes from the stream, any split).
  void Append(std::string_view data);

  /// \brief Yield the next complete payload into `*payload` and return
  /// true; return false when no complete frame is buffered (`status()`
  /// stays OK) or the stream is poisoned (`status()` holds Corruption).
  bool Next(std::string_view* payload);

  /// OK, or the framing error that poisoned the stream.
  const Status& status() const { return status_; }

  /// Bytes buffered but not yet yielded (for backpressure accounting).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already yielded
  Status status_;
};

}  // namespace serve
}  // namespace lshensemble

#endif  // LSHENSEMBLE_SERVE_PROTOCOL_H_
