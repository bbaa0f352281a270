#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>

#include "e2e.h"
#include "util/clock.h"
#include "util/random.h"

namespace lshensemble {
namespace e2e {
namespace {

/// Offset of the request id in a request frame: [len u32][type u8][id u64].
constexpr size_t kRequestIdOffset = serve::kFrameHeaderBytes + 1;
/// A phase waits this long after its last send for outstanding answers.
constexpr uint64_t kDrainNs = 1'000'000'000;

uint64_t SecondsToNs(double s) { return static_cast<uint64_t>(s * 1e9); }

uint64_t ResponseId(const serve::Message& msg) {
  switch (msg.type) {
    case serve::MessageType::kQueryResponse:
      return msg.query_response.request_id;
    case serve::MessageType::kTopKResponse:
      return msg.topk_response.request_id;
    case serve::MessageType::kErrorResponse:
      return msg.error.request_id;
    default:
      Die("load generator", Status::Corruption(
                                "unexpected response type " +
                                std::to_string(static_cast<int>(msg.type))));
  }
}

}  // namespace

Result<LoadGenerator> LoadGenerator::Connect(uint16_t port,
                                             size_t connections) {
  LoadGenerator gen;
  for (size_t c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(std::strerror(errno));
    gen.conns_.emplace_back();
    gen.conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return gen;
}

LoadGenerator::LoadGenerator(LoadGenerator&& other) noexcept
    : conns_(std::move(other.conns_)), next_id_(other.next_id_) {
  other.conns_.clear();
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) ::close(conn.fd);
}

LoadResult LoadGenerator::Run(const std::vector<WireRequest>& pool,
                              const LoadOptions& options) {
  struct Sent {
    uint64_t due;
    uint32_t pick;
    bool done;
  };
  LoadResult result;
  const bool open_loop = options.rate > 0.0;
  Rng rng(options.seed);
  const uint64_t base_id = next_id_;
  std::vector<Sent> sent;
  size_t outstanding = 0;

  const uint64_t t0 = SteadyNowNanos();
  const uint64_t measure_from = t0 + SecondsToNs(options.warmup_s);
  const uint64_t send_until = measure_from + SecondsToNs(options.measure_s);
  auto measured = [&](uint64_t due) {
    return due >= measure_from && due < send_until;
  };

  // Queue one request on connection `c`, due at `due` (now, in closed loop).
  auto send = [&](size_t c, uint64_t due, uint64_t now) {
    const auto pick = static_cast<uint32_t>(rng.NextBounded(pool.size()));
    Conn& conn = conns_[c];
    const size_t at = conn.out.size();
    conn.out += pool[pick].frame;
    uint64_t id = next_id_++;
    for (size_t b = 0; b < 8; ++b, id >>= 8) {
      conn.out[at + kRequestIdOffset + b] = static_cast<char>(id & 0xff);
    }
    sent.push_back({due, pick, false});
    result.outstanding_max = std::max(result.outstanding_max, ++outstanding);
    if (measured(due)) {
      ++result.sent;
      result.picks.push_back(pick);
      if (open_loop) {
        result.lateness_ms.push_back(static_cast<double>(now - due) / 1e6);
      }
    }
  };

  auto handle = [&](size_t c, std::string_view payload, uint64_t now) {
    const uint64_t d0 = options.time_decode ? SteadyNowNanos() : 0;
    Result<serve::Message> msg = serve::DecodeMessage(payload);
    if (options.time_decode) {
      result.decode_ns += SteadyNowNanos() - d0;
      ++result.decodes;
    }
    if (!msg.ok()) Die("load generator DecodeMessage", msg.status());
    const uint64_t id = ResponseId(msg.value());
    if (id < base_id || id - base_id >= sent.size()) return;  // earlier phase
    Sent& request = sent[id - base_id];
    if (request.done) {
      Die("load generator",
          Status::Corruption("duplicate response " + std::to_string(id)));
    }
    request.done = true;
    --outstanding;
    if (measured(request.due)) {
      ++result.answered;
      if (msg.value().type == serve::MessageType::kErrorResponse) {
        ++(msg.value().error.retryable ? result.sheds : result.errors);
      } else {
        const double ms = static_cast<double>(now - request.due) / 1e6;
        (pool[request.pick].topk ? result.topk_ms : result.threshold_ms)
            .push_back(ms);
      }
    }
    if (!open_loop && now < send_until) send(c, now, now);
  };

  double next_due_s = 0.0;  // open loop: seconds after t0
  auto next_due = [&] { return t0 + SecondsToNs(next_due_s); };
  if (open_loop) {
    next_due_s = -std::log(rng.NextDoubleOpenLow()) / options.rate;
  } else {
    for (size_t c = 0; c < conns_.size(); ++c) {
      for (size_t i = 0; i < options.window; ++i) send(c, t0, t0);
    }
  }

  size_t rr = 0;
  uint64_t drain_deadline = 0;
  std::vector<pollfd> fds(conns_.size());
  char buf[1 << 16];
  for (;;) {
    uint64_t now = SteadyNowNanos();
    if (open_loop) {
      while (next_due() <= now && next_due() < send_until) {
        send(rr++ % conns_.size(), next_due(), now);
        next_due_s += -std::log(rng.NextDoubleOpenLow()) / options.rate;
      }
    }
    const bool sending = open_loop ? next_due() < send_until : now < send_until;
    if (!sending && drain_deadline == 0) drain_deadline = now + kDrainNs;
    if (!sending && (outstanding == 0 || now >= drain_deadline)) break;

    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      while (conn.out_offset < conn.out.size()) {
        const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_offset,
                                  conn.out.size() - conn.out_offset);
        if (n > 0) {
          conn.out_offset += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          Die("load generator write", Status::IOError(std::strerror(errno)));
        }
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
      fds[c] = {conn.fd,
                static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                0};
    }

    uint64_t wake = sending ? (open_loop ? next_due() : send_until)
                            : drain_deadline;
    wake = std::max(wake, now);
    const timespec timeout{static_cast<time_t>((wake - now) / 1'000'000'000),
                           static_cast<long>((wake - now) % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      Die("load generator poll", Status::IOError(std::strerror(errno)));
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[c];
      for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
          conn.reader.Append(std::string_view(buf, static_cast<size_t>(n)));
          if (static_cast<size_t>(n) < sizeof(buf)) break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n == 0) {
          Die("load generator read",
              Status::IOError("server closed the connection"));
        } else {
          Die("load generator read", Status::IOError(std::strerror(errno)));
        }
      }
      now = SteadyNowNanos();
      std::string_view payload;
      while (conn.reader.Next(&payload)) handle(c, payload, now);
      if (!conn.reader.status().ok()) {
        Die("load generator framing", conn.reader.status());
      }
    }
  }
  result.elapsed_s = options.measure_s;
  result.unanswered = result.sent - result.answered;
  return result;
}

}  // namespace e2e
}  // namespace lshensemble
