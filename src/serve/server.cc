#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/lsh_ensemble.h"
#include "core/topk.h"
#include "minhash/minhash.h"
#include "util/clock.h"

namespace lshensemble {
namespace serve {
namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string("serve: ") + what + ": " +
                         std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void AppendGauge(std::string* out, const char* name, const char* help,
                 double value) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "# HELP %s %s\n# TYPE %s gauge\n%s %.17g\n", name, help, name,
                name, value);
  out->append(line);
}

/// \brief One client connection. Owned by exactly one reactor; the
/// output buffer is the only cross-thread surface (dispatchers append
/// response frames under `mutex`, the owning reactor drains it).
struct Connection {
  explicit Connection(size_t max_frame_bytes) : reader(max_frame_bytes) {}

  int fd = -1;
  size_t reactor_index = 0;

  // Reactor-thread-only input state.
  FrameReader reader;
  bool mode_known = false;  // sniffed binary vs HTTP yet?
  bool http = false;
  std::string http_buf;  // sniff prefix, then the HTTP request text
  bool http_answered = false;  // response queued; later input is dropped

  // Reactor-thread-only poller interest, changed under `mutex` beside the
  // output it follows.
  bool write_armed = false;  // EPOLLOUT: unsent output waits on the socket
  bool read_paused = false;  // no EPOLLIN: output above the high-water mark

  // Cross-thread output state, guarded by `mutex`.
  std::mutex mutex;
  std::string out;
  size_t out_offset = 0;
  bool closed = false;
  bool close_after_flush = false;
};

using ConnPtr = std::shared_ptr<Connection>;

/// \brief Level-triggered readiness: epoll on Linux, poll(2) elsewhere.
/// Single-threaded — each reactor owns one.
class Poller {
 public:
  Poller() {
#ifdef __linux__
    epfd_ = ::epoll_create1(0);
#endif
  }
  ~Poller() {
#ifdef __linux__
    if (epfd_ >= 0) ::close(epfd_);
#endif
  }

  void Add(int fd) {
    Set(fd, /*want_read=*/true, /*want_write=*/false, /*add=*/true);
  }
  void Update(int fd, bool want_read, bool want_write) {
    Set(fd, want_read, want_write, /*add=*/false);
  }

  void Remove(int fd) {
#ifdef __linux__
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#else
    interest_.erase(fd);
#endif
  }

  /// Block until events (or a signal); invoke cb(fd, readable, writable)
  /// per ready descriptor.
  void Wait(const std::function<void(int, bool, bool)>& cb) {
#ifdef __linux__
    struct epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, -1);
    for (int i = 0; i < n; ++i) {
      const uint32_t ev = events[i].events;
      // Errors/hangups surface as readability: the read() sees EOF or
      // the error and the connection is closed there.
      cb(events[i].data.fd, (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0,
         (ev & EPOLLOUT) != 0);
    }
#else
    scratch_.clear();
    for (const auto& [fd, want] : interest_) {
      scratch_.push_back({fd,
                          static_cast<short>((want.first ? POLLIN : 0) |
                                             (want.second ? POLLOUT : 0)),
                          0});
    }
    if (::poll(scratch_.data(), scratch_.size(), -1) <= 0) return;
    for (const auto& p : scratch_) {
      if (p.revents == 0) continue;
      cb(p.fd, (p.revents & (POLLIN | POLLERR | POLLHUP)) != 0,
         (p.revents & POLLOUT) != 0);
    }
#endif
  }

 private:
  void Set(int fd, bool want_read, bool want_write, bool add) {
#ifdef __linux__
    struct epoll_event ev = {};
    ev.events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
                (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev);
#else
    (void)add;
    interest_[fd] = {want_read, want_write};
#endif
  }

#ifdef __linux__
  int epfd_ = -1;
#else
  std::unordered_map<int, std::pair<bool, bool>> interest_;
  std::vector<struct pollfd> scratch_;
#endif
};

/// \brief One validated request waiting in a batcher lane.
struct PendingRequest {
  ConnPtr conn;
  uint64_t request_id = 0;
  MinHash sketch;
  uint64_t query_size = 0;
  double t_star = 0.0;   // query lane
  uint32_t k = 0;        // top-k lane
  uint64_t deadline_ns = 0;
  uint64_t enqueue_ns = 0;
};

/// \brief One reactor: an event loop, the connections it owns, and the
/// mailboxes other threads use to reach it (guarded by queue_mutex,
/// signalled through the wake pipe).
struct Reactor {
  Poller poller;
  int wake_read = -1;
  int wake_write = -1;
  std::thread thread;
  std::unordered_map<int, ConnPtr> conns;  // reactor-thread-only

  std::mutex queue_mutex;
  std::vector<ConnPtr> pending_incoming;
  std::vector<ConnPtr> pending_writable;

  ~Reactor() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_write, &byte, 1);
  }
};

}  // namespace

Status ServerOptions::Validate() const {
  if (num_reactors < 1) {
    return Status::InvalidArgument("serve: num_reactors must be >= 1");
  }
  if (num_dispatchers < 1) {
    return Status::InvalidArgument("serve: num_dispatchers must be >= 1");
  }
  if (batch_max < 1) {
    return Status::InvalidArgument("serve: batch_max must be >= 1");
  }
  if (max_pending < batch_max) {
    return Status::InvalidArgument("serve: max_pending must be >= batch_max");
  }
  if (max_frame_bytes < 64 || max_frame_bytes > (1u << 30)) {
    return Status::InvalidArgument(
        "serve: max_frame_bytes must be in [64, 1GiB]");
  }
  return Status::OK();
}

struct Server::Impl {
  ServerOptions options;
  EngineSource source;
  Hooks hooks;
  ServerMetrics metrics;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  uint64_t family_seed = 0;
  int family_hashes = 0;
  std::shared_ptr<const HashFamily> family;

  std::vector<std::unique_ptr<Reactor>> reactors;
  std::atomic<size_t> next_reactor{0};
  std::atomic<bool> reactors_stop{false};

  // The micro-batcher: two lanes, drained by dispatcher threads.
  std::mutex batch_mutex;
  std::condition_variable batch_cv;
  std::deque<PendingRequest> query_lane;
  std::deque<PendingRequest> topk_lane;
  bool stopping = false;  // guarded by batch_mutex
  std::vector<std::thread> dispatchers;

  // Admin thread: reload requests (slow snapshot opens) run here.
  std::mutex admin_mutex;
  std::condition_variable admin_cv;
  std::deque<std::pair<ConnPtr, uint64_t>> admin_queue;
  bool admin_stopping = false;  // guarded by admin_mutex
  std::thread admin_thread;

  std::atomic<bool> stopped{false};

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // ---- output path ------------------------------------------------------

  /// Append a response frame to conn's output buffer and ask its owning
  /// reactor to flush. Safe from any thread; a closed conn drops it.
  void EnqueueOutput(const ConnPtr& conn, const std::string& frame) {
    bool first_pending = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      first_pending = conn->out.empty();
      conn->out.append(frame);
      const uint64_t unsent = conn->out.size() - conn->out_offset;
      uint64_t peak =
          metrics.output_buffered_peak_bytes.load(std::memory_order_relaxed);
      while (unsent > peak &&
             !metrics.output_buffered_peak_bytes.compare_exchange_weak(
                 peak, unsent, std::memory_order_relaxed)) {
      }
    }
    metrics.responses_sent.fetch_add(1, std::memory_order_relaxed);
    // Only the empty -> non-empty transition needs a wakeup: a non-empty
    // buffer already has a flush notification or EPOLLOUT arming in
    // flight, and later frames ride out with it (one write syscall can
    // carry a whole wave's responses to this connection).
    if (!first_pending) return;
    Reactor& r = *reactors[conn->reactor_index];
    {
      std::lock_guard<std::mutex> lock(r.queue_mutex);
      r.pending_writable.push_back(conn);
    }
    r.Wake();
  }

  void SendError(const ConnPtr& conn, uint64_t request_id, const Status& s) {
    ErrorResponse err;
    err.request_id = request_id;
    err.code = static_cast<uint8_t>(s.code());
    err.retryable = s.IsUnavailable() ? 1 : 0;
    err.message = s.message();
    if (s.IsUnavailable()) {
      metrics.sheds.fetch_add(1, std::memory_order_relaxed);
    } else if (s.IsDeadlineExceeded()) {
      metrics.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics.request_errors.fetch_add(1, std::memory_order_relaxed);
    }
    std::string frame;
    EncodeErrorResponse(err, &frame);
    EnqueueOutput(conn, frame);
  }

  // ---- reactor side -----------------------------------------------------

  void ReactorLoop(size_t index) {
    Reactor& r = *reactors[index];
    while (!reactors_stop.load(std::memory_order_acquire)) {
      r.poller.Wait([&](int fd, bool readable, bool writable) {
        if (fd == r.wake_read) {
          DrainWake(r);
          return;
        }
        if (index == 0 && fd == listen_fd) {
          AcceptAll();
          return;
        }
        auto it = r.conns.find(fd);
        if (it == r.conns.end()) return;
        ConnPtr conn = it->second;  // keep alive across Close
        if (readable) HandleReadable(r, conn);
        if (writable && !IsClosed(conn)) FlushConnection(r, conn);
      });
    }
    for (auto& [fd, conn] : r.conns) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->closed = true;
      }
      ::close(fd);
      metrics.connections_closed.fetch_add(1, std::memory_order_relaxed);
    }
    r.conns.clear();
  }

  static bool IsClosed(const ConnPtr& conn) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    return conn->closed;
  }

  void DrainWake(Reactor& r) {
    char buf[256];
    while (::read(r.wake_read, buf, sizeof(buf)) > 0) {
    }
    std::vector<ConnPtr> incoming, writable;
    {
      std::lock_guard<std::mutex> lock(r.queue_mutex);
      incoming.swap(r.pending_incoming);
      writable.swap(r.pending_writable);
    }
    for (ConnPtr& conn : incoming) {
      r.conns[conn->fd] = conn;
      r.poller.Add(conn->fd);
    }
    for (ConnPtr& conn : writable) {
      if (!IsClosed(conn)) FlushConnection(r, conn);
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: drained
      }
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      SetNoDelay(fd);
      auto conn = std::make_shared<Connection>(options.max_frame_bytes);
      conn->fd = fd;
      conn->reactor_index =
          next_reactor.fetch_add(1, std::memory_order_relaxed) %
          reactors.size();
      metrics.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      Reactor& target = *reactors[conn->reactor_index];
      if (conn->reactor_index == 0) {
        target.conns[fd] = conn;
        target.poller.Add(fd);
      } else {
        {
          std::lock_guard<std::mutex> lock(target.queue_mutex);
          target.pending_incoming.push_back(conn);
        }
        target.Wake();
      }
    }
  }

  void CloseConnection(Reactor& r, const ConnPtr& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      conn->closed = true;
    }
    r.poller.Remove(conn->fd);
    r.conns.erase(conn->fd);
    ::close(conn->fd);
    metrics.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void HandleReadable(Reactor& r, const ConnPtr& conn) {
    char buf[16384];
    // A paused connection only reaches here on an error or hangup, which
    // the flush below turns into a close.
    while (!PauseReadsIfBacklogged(r, conn)) {
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        metrics.bytes_read.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
        if (!ProcessInput(conn, std::string_view(buf, n))) {
          CloseConnection(r, conn);
          return;
        }
        continue;
      }
      if (n == 0) {
        CloseConnection(r, conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(r, conn);
      return;
    }
    FlushConnection(r, conn);
  }

  /// Stop reading `conn` while its unsent output is above the high-water
  /// mark (FlushConnection resumes it once the output is all written).
  /// Returns whether its reads are paused.
  bool PauseReadsIfBacklogged(Reactor& r, const ConnPtr& conn) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!conn->read_paused &&
        conn->out.size() - conn->out_offset > kOutputHighWaterBytes) {
      conn->read_paused = true;
      r.poller.Update(conn->fd, /*want_read=*/false, conn->write_armed);
      metrics.output_paused.fetch_add(1, std::memory_order_relaxed);
    }
    return conn->read_paused;
  }

  /// Feed freshly read bytes through mode sniffing into frame decoding
  /// or HTTP handling. Returns false when the connection must close.
  bool ProcessInput(const ConnPtr& conn, std::string_view data) {
    if (!conn->mode_known) {
      conn->http_buf.append(data);
      if (conn->http_buf.size() < 4) return true;
      conn->mode_known = true;
      conn->http = conn->http_buf.compare(0, 4, "GET ") == 0;
      if (conn->http) return ProcessHttp(conn);
      std::string staged = std::move(conn->http_buf);
      conn->http_buf.clear();
      conn->reader.Append(staged);
      return DrainFrames(conn);
    }
    if (conn->http) {
      // One request per connection: bytes after the request that got its
      // response (a pipelined request, filler) are discarded, so they can
      // neither trigger another response nor grow http_buf.
      if (conn->http_answered) return true;
      conn->http_buf.append(data);
      return ProcessHttp(conn);
    }
    conn->reader.Append(data);
    return DrainFrames(conn);
  }

  bool ProcessHttp(const ConnPtr& conn) {
    if (conn->http_buf.find("\r\n\r\n") == std::string::npos &&
        conn->http_buf.find("\n\n") == std::string::npos) {
      // Still reading headers; cap what a scraper may send.
      return conn->http_buf.size() <= 16384;
    }
    const bool is_metrics =
        conn->http_buf.compare(0, 13, "GET /metrics ") == 0;
    std::string body = is_metrics ? RenderMetricsPage() : "not found\n";
    char head[160];
    std::snprintf(head, sizeof(head),
                  "HTTP/1.0 %s\r\nContent-Type: text/plain; charset=utf-8\r\n"
                  "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                  is_metrics ? "200 OK" : "404 Not Found", body.size());
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return false;
      conn->out.append(head);
      conn->out.append(body);
      conn->close_after_flush = true;
    }
    conn->http_answered = true;
    std::string().swap(conn->http_buf);
    return true;
  }

  bool DrainFrames(const ConnPtr& conn) {
    std::string_view payload;
    while (conn->reader.Next(&payload)) {
      Result<Message> msg = DecodeMessage(payload);
      if (!msg.ok() || !HandleMessage(conn, msg.value())) {
        metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    if (!conn->reader.status().ok()) {
      metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Route one decoded request. Returns false only for protocol
  /// violations (e.g. a client sending response types); request-level
  /// problems answer with an error frame and keep the connection.
  bool HandleMessage(const ConnPtr& conn, Message& msg) {
    switch (msg.type) {
      case MessageType::kQueryRequest:
        metrics.query_requests.fetch_add(1, std::memory_order_relaxed);
        EnqueueQuery(conn, msg.query);
        return true;
      case MessageType::kTopKRequest:
        metrics.topk_requests.fetch_add(1, std::memory_order_relaxed);
        EnqueueTopK(conn, msg.topk);
        return true;
      case MessageType::kStatsRequest:
        metrics.stats_requests.fetch_add(1, std::memory_order_relaxed);
        AnswerStats(conn, msg.stats.request_id);
        return true;
      case MessageType::kReloadRequest:
        metrics.reload_requests.fetch_add(1, std::memory_order_relaxed);
        EnqueueReload(conn, msg.reload.request_id);
        return true;
      default:
        return false;  // response types never flow client -> server
    }
  }

  /// Family/shape validation shared by both query kinds. On success
  /// fills sketch/deadline in `out`.
  Status ValidateQuery(uint64_t seed, const std::vector<uint64_t>& slots,
                       uint64_t deadline_us, PendingRequest* out) {
    if (seed != family_seed) {
      return Status::InvalidArgument(
          "serve: signature family seed does not match the index");
    }
    if (slots.size() != static_cast<size_t>(family_hashes)) {
      return Status::InvalidArgument(
          "serve: signature length does not match the index family");
    }
    LSHE_ASSIGN_OR_RETURN(out->sketch, MinHash::FromSlots(family, slots));
    const uint64_t budget_us =
        deadline_us != 0 ? deadline_us : options.default_deadline_us;
    out->deadline_ns = budget_us != 0 ? DeadlineAfterMicros(budget_us) : 0;
    out->enqueue_ns = SteadyNowNanos();
    return Status::OK();
  }

  void EnqueueQuery(const ConnPtr& conn, QueryRequest& req) {
    PendingRequest pending;
    pending.conn = conn;
    pending.request_id = req.request_id;
    pending.query_size = req.query_size;
    pending.t_star = req.t_star;
    if (req.t_star < 0.0 || req.t_star > 1.0) {
      SendError(conn, req.request_id,
                Status::InvalidArgument("serve: t_star must be in [0, 1]"));
      return;
    }
    Status s =
        ValidateQuery(req.family_seed, req.slots, req.deadline_us, &pending);
    if (!s.ok()) {
      SendError(conn, req.request_id, s);
      return;
    }
    Push(std::move(pending), /*topk=*/false);
  }

  void EnqueueTopK(const ConnPtr& conn, TopKRequest& req) {
    PendingRequest pending;
    pending.conn = conn;
    pending.request_id = req.request_id;
    pending.query_size = req.query_size;
    pending.k = req.k;
    if (req.k < 1) {
      SendError(conn, req.request_id,
                Status::InvalidArgument("serve: k must be >= 1"));
      return;
    }
    Status s =
        ValidateQuery(req.family_seed, req.slots, req.deadline_us, &pending);
    if (!s.ok()) {
      SendError(conn, req.request_id, s);
      return;
    }
    Push(std::move(pending), /*topk=*/true);
  }

  void Push(PendingRequest pending, bool topk) {
    {
      std::lock_guard<std::mutex> lock(batch_mutex);
      if (!stopping &&
          query_lane.size() + topk_lane.size() < options.max_pending) {
        (topk ? topk_lane : query_lane).push_back(std::move(pending));
        batch_cv.notify_one();
        return;
      }
    }
    SendError(pending.conn, pending.request_id,
              Status::Unavailable("serve: pending queue full, retry"));
  }

  void AnswerStats(const ConnPtr& conn, uint64_t request_id) {
    std::shared_ptr<const ShardedEnsemble> engine = source();
    if (!engine) {
      SendError(conn, request_id,
                Status::Unavailable("serve: no engine generation available"));
      return;
    }
    StatsResponse resp;
    resp.request_id = request_id;
    resp.num_shards = engine->num_shards();
    resp.live_domains = engine->size();
    resp.indexed_domains = engine->indexed_size();
    resp.delta_domains = engine->delta_size();
    resp.tombstones = engine->tombstone_count();
    resp.epoch = hooks.epoch ? hooks.epoch() : 0;
    std::string frame;
    EncodeStatsResponse(resp, &frame);
    EnqueueOutput(conn, frame);
  }

  void EnqueueReload(const ConnPtr& conn, uint64_t request_id) {
    if (!hooks.reload) {
      SendError(conn, request_id,
                Status::NotSupported(
                    "serve: this server has no reload hook (fixed engine)"));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(admin_mutex);
      admin_queue.emplace_back(conn, request_id);
    }
    admin_cv.notify_one();
  }

  /// Write as much buffered output as the socket accepts; arm EPOLLOUT
  /// for the rest, and resume paused reads once it is all written.
  /// Reactor-thread-only (the sole writer of the fd).
  void FlushConnection(Reactor& r, const ConnPtr& conn) {
    bool close_now = false;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      while (conn->out_offset < conn->out.size()) {
        const ssize_t n =
            ::write(conn->fd, conn->out.data() + conn->out_offset,
                    conn->out.size() - conn->out_offset);
        if (n > 0) {
          conn->out_offset += static_cast<size_t>(n);
          metrics.bytes_written.fetch_add(static_cast<uint64_t>(n),
                                          std::memory_order_relaxed);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_now = true;  // peer went away; drop the connection
        break;
      }
      if (!close_now) {
        if (conn->out_offset == conn->out.size()) {
          conn->out.clear();
          conn->out_offset = 0;
          if (conn->write_armed || conn->read_paused) {
            r.poller.Update(conn->fd, /*want_read=*/true,
                            /*want_write=*/false);
            conn->write_armed = false;
            conn->read_paused = false;
          }
          close_now = conn->close_after_flush;
        } else if (!conn->write_armed) {
          r.poller.Update(conn->fd, !conn->read_paused, /*want_write=*/true);
          conn->write_armed = true;
        }
      }
    }
    if (close_now) CloseConnection(r, conn);
  }

  // ---- batcher / dispatcher side ----------------------------------------

  void DispatcherLoop() {
    std::unique_lock<std::mutex> lock(batch_mutex);
    const uint64_t linger_ns = options.batch_linger_us * 1000;
    for (;;) {
      if (query_lane.empty() && topk_lane.empty()) {
        if (stopping) return;
        batch_cv.wait(lock);
        continue;
      }
      const uint64_t now = SteadyNowNanos();
      const auto due = [&](const std::deque<PendingRequest>& lane) {
        return !lane.empty() && (stopping || lane.size() >= options.batch_max ||
                                 now >= lane.front().enqueue_ns + linger_ns);
      };
      const bool query_due = due(query_lane);
      const bool topk_due = !query_due && due(topk_lane);
      if (!query_due && !topk_due) {
        uint64_t wake = UINT64_MAX;
        if (!query_lane.empty()) {
          wake = std::min(wake, query_lane.front().enqueue_ns + linger_ns);
        }
        if (!topk_lane.empty()) {
          wake = std::min(wake, topk_lane.front().enqueue_ns + linger_ns);
        }
        batch_cv.wait_for(lock,
                          std::chrono::nanoseconds(wake > now ? wake - now : 1));
        continue;
      }
      std::vector<PendingRequest> wave;
      uint32_t wave_k = 0;
      if (query_due) {
        const size_t take = std::min(query_lane.size(), options.batch_max);
        wave.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          wave.push_back(std::move(query_lane.front()));
          query_lane.pop_front();
        }
      } else {
        // One BatchSearch wave shares one k: group the oldest request
        // with every same-k request behind it; different-k requests keep
        // their place (and their linger clock) for a later wave.
        wave_k = topk_lane.front().k;
        for (auto it = topk_lane.begin();
             it != topk_lane.end() && wave.size() < options.batch_max;) {
          if (it->k == wave_k) {
            wave.push_back(std::move(*it));
            it = topk_lane.erase(it);
          } else {
            ++it;
          }
        }
      }
      lock.unlock();
      if (query_due) {
        DispatchQueryWave(std::move(wave));
      } else {
        DispatchTopKWave(std::move(wave), wave_k);
      }
      lock.lock();
    }
  }

  /// Record wave-level metrics and drop already-expired requests (each
  /// fails alone instead of poisoning the whole wave). Returns the
  /// surviving requests.
  std::vector<PendingRequest> BeginWave(std::vector<PendingRequest> wave,
                                        uint64_t now) {
    metrics.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
    metrics.batched_requests.fetch_add(wave.size(),
                                       std::memory_order_relaxed);
    metrics.batch_fill.Record(wave.size());
    std::vector<PendingRequest> live;
    live.reserve(wave.size());
    for (PendingRequest& p : wave) {
      metrics.coalesce_latency_us.Record((now - p.enqueue_ns) / 1000);
      if (p.deadline_ns != 0 && now >= p.deadline_ns) {
        SendError(p.conn, p.request_id,
                  Status::DeadlineExceeded(
                      "serve: deadline expired before dispatch"));
      } else {
        live.push_back(std::move(p));
      }
    }
    return live;
  }

  void FailWave(const std::vector<PendingRequest>& wave, const Status& s) {
    for (const PendingRequest& p : wave) SendError(p.conn, p.request_id, s);
  }

  void DispatchQueryWave(std::vector<PendingRequest> wave) {
    const uint64_t start = SteadyNowNanos();
    wave = BeginWave(std::move(wave), start);
    if (wave.empty()) return;
    std::shared_ptr<const ShardedEnsemble> engine = source();
    if (!engine) {
      FailWave(wave, Status::Unavailable("serve: no engine generation"));
      return;
    }
    std::vector<QuerySpec> specs(wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      specs[i].query = &wave[i].sketch;
      specs[i].query_size = wave[i].query_size;
      specs[i].t_star = wave[i].t_star;
      specs[i].deadline_ns = wave[i].deadline_ns;
    }
    std::vector<std::vector<uint64_t>> outs(wave.size());
    std::vector<QueryStats> stats(wave.size());
    const Status s = engine->BatchQuery(specs, outs.data(), stats.data());
    metrics.dispatch_latency_us.Record((SteadyNowNanos() - start) / 1000);
    if (s.ok()) {
      uint64_t admits = 0, false_admits = 0;
      for (const QueryStats& st : stats) {
        admits += st.partitions_probed - st.partitions_filter_skipped;
        false_admits += st.filter_false_admits;
      }
      metrics.filter_admits.fetch_add(admits, std::memory_order_relaxed);
      metrics.filter_false_admits.fetch_add(false_admits,
                                            std::memory_order_relaxed);
      for (size_t i = 0; i < wave.size(); ++i) {
        QueryResponse resp;
        resp.request_id = wave[i].request_id;
        resp.ids = std::move(outs[i]);
        // Nonzero only when the engine runs in partial-results mode.
        if (stats[i].shards_skipped > 0) {
          resp.flags |= kResponseFlagPartial;
          metrics.partial_responses.fetch_add(1, std::memory_order_relaxed);
        }
        std::string frame;
        EncodeQueryResponse(resp, &frame);
        EnqueueOutput(wave[i].conn, frame);
      }
      return;
    }
    if (wave.size() == 1 || s.IsUnavailable()) {
      FailWave(wave, s);
      return;
    }
    // A batch-level failure with several requests aboard: retry each
    // alone so one bad request (e.g. a tight deadline) cannot take its
    // wave-mates down with it.
    for (size_t i = 0; i < wave.size(); ++i) {
      std::vector<uint64_t> out;
      const Status one =
          engine->BatchQuery(std::span<const QuerySpec>(&specs[i], 1), &out);
      if (one.ok()) {
        QueryResponse resp;
        resp.request_id = wave[i].request_id;
        resp.ids = std::move(out);
        std::string frame;
        EncodeQueryResponse(resp, &frame);
        EnqueueOutput(wave[i].conn, frame);
      } else {
        SendError(wave[i].conn, wave[i].request_id, one);
      }
    }
  }

  void DispatchTopKWave(std::vector<PendingRequest> wave, uint32_t k) {
    const uint64_t start = SteadyNowNanos();
    wave = BeginWave(std::move(wave), start);
    if (wave.empty()) return;
    std::shared_ptr<const ShardedEnsemble> engine = source();
    if (!engine) {
      FailWave(wave, Status::Unavailable("serve: no engine generation"));
      return;
    }
    std::vector<TopKQuery> queries(wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      queries[i].query = &wave[i].sketch;
      queries[i].query_size = wave[i].query_size;
      queries[i].deadline_ns = wave[i].deadline_ns;
    }
    std::vector<std::vector<TopKResult>> outs(wave.size());
    Status s = engine->BatchSearch(queries, k, outs.data());
    metrics.dispatch_latency_us.Record((SteadyNowNanos() - start) / 1000);
    if (!s.ok() && wave.size() > 1 && !s.IsUnavailable()) {
      for (size_t i = 0; i < wave.size(); ++i) {
        std::vector<TopKResult> out;
        const Status one = engine->BatchSearch(
            std::span<const TopKQuery>(&queries[i], 1), k, &out);
        if (one.ok()) {
          SendTopK(wave[i], out);
        } else {
          SendError(wave[i].conn, wave[i].request_id, one);
        }
      }
      return;
    }
    if (!s.ok()) {
      FailWave(wave, s);
      return;
    }
    for (size_t i = 0; i < wave.size(); ++i) SendTopK(wave[i], outs[i]);
  }

  void SendTopK(const PendingRequest& p,
                const std::vector<TopKResult>& results) {
    TopKResponse resp;
    resp.request_id = p.request_id;
    resp.entries.reserve(results.size());
    for (const TopKResult& r : results) {
      resp.entries.push_back({r.id, r.estimated_containment});
    }
    std::string frame;
    EncodeTopKResponse(resp, &frame);
    EnqueueOutput(p.conn, frame);
  }

  // ---- admin side -------------------------------------------------------

  void AdminLoop() {
    std::unique_lock<std::mutex> lock(admin_mutex);
    for (;;) {
      if (admin_queue.empty()) {
        if (admin_stopping) return;
        admin_cv.wait(lock);
        continue;
      }
      auto [conn, request_id] = std::move(admin_queue.front());
      admin_queue.pop_front();
      lock.unlock();
      Result<uint64_t> epoch = hooks.reload();
      if (epoch.ok()) {
        ReloadResponse resp;
        resp.request_id = request_id;
        resp.epoch = epoch.value();
        std::string frame;
        EncodeReloadResponse(resp, &frame);
        EnqueueOutput(conn, frame);
      } else {
        SendError(conn, request_id, epoch.status());
      }
      lock.lock();
    }
  }

  // ---- metrics ----------------------------------------------------------

  std::string RenderMetricsPage() const {
    std::string out = metrics.RenderPrometheus();
    AppendGauge(&out, "lshe_serve_open_connections", "Connections open now",
                static_cast<double>(
                    metrics.connections_accepted.load(
                        std::memory_order_relaxed) -
                    metrics.connections_closed.load(std::memory_order_relaxed)));
    AppendGauge(&out, "lshe_serve_output_buffered_peak_bytes",
                "Most unsent output bytes one connection has held",
                static_cast<double>(metrics.output_buffered_peak_bytes.load(
                    std::memory_order_relaxed)));
    std::shared_ptr<const ShardedEnsemble> engine = source();
    if (engine) {
      AppendGauge(&out, "lshe_serve_engine_shards", "Shards in the engine",
                  static_cast<double>(engine->num_shards()));
      AppendGauge(&out, "lshe_serve_engine_live_domains",
                  "Live (searchable) domains",
                  static_cast<double>(engine->size()));
      AppendGauge(&out, "lshe_serve_engine_delta_domains",
                  "Domains awaiting the next rebuild",
                  static_cast<double>(engine->delta_size()));
      AppendGauge(&out, "lshe_serve_engine_tombstones", "Tombstoned domains",
                  static_cast<double>(engine->tombstone_count()));
      // Imbalance = max shard size / mean shard size: 1.0 is perfect,
      // and a hot shard bounds every wave's latency.
      size_t max_size = 0;
      for (size_t i = 0; i < engine->num_shards(); ++i) {
        max_size = std::max(max_size, engine->shard(i).size());
      }
      const double mean = static_cast<double>(engine->size()) /
                          static_cast<double>(engine->num_shards());
      AppendGauge(&out, "lshe_serve_shard_imbalance",
                  "Max shard size over mean shard size",
                  mean > 0 ? static_cast<double>(max_size) / mean : 1.0);
    }
    if (hooks.epoch) {
      AppendGauge(&out, "lshe_serve_snapshot_epoch",
                  "Snapshot generation being served",
                  static_cast<double>(hooks.epoch()));
    }
    if (hooks.extra_metrics) hooks.extra_metrics(&out);
    return out;
  }

  // ---- lifecycle --------------------------------------------------------

  Status Bind() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      return Status::InvalidArgument("serve: bad IPv4 bind address: " +
                                     options.bind_address);
    }
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Errno("bind");
    }
    if (::listen(listen_fd, 128) < 0) return Errno("listen");
    LSHE_RETURN_IF_ERROR(SetNonBlocking(listen_fd));
    struct sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &len) < 0) {
      return Errno("getsockname");
    }
    bound_port = ntohs(bound.sin_port);
    return Status::OK();
  }

  Status SpawnThreads() {
    for (int i = 0; i < options.num_reactors; ++i) {
      auto r = std::make_unique<Reactor>();
      int fds[2];
      if (::pipe(fds) < 0) return Errno("pipe");
      r->wake_read = fds[0];
      r->wake_write = fds[1];
      LSHE_RETURN_IF_ERROR(SetNonBlocking(r->wake_read));
      LSHE_RETURN_IF_ERROR(SetNonBlocking(r->wake_write));
      r->poller.Add(r->wake_read);
      reactors.push_back(std::move(r));
    }
    reactors[0]->poller.Add(listen_fd);
    for (size_t i = 0; i < reactors.size(); ++i) {
      reactors[i]->thread = std::thread([this, i] { ReactorLoop(i); });
    }
    for (int i = 0; i < options.num_dispatchers; ++i) {
      dispatchers.emplace_back([this] { DispatcherLoop(); });
    }
    admin_thread = std::thread([this] { AdminLoop(); });
    return Status::OK();
  }

  void Stop() {
    bool expected = false;
    if (!stopped.compare_exchange_strong(expected, true)) return;
    // Dispatchers first: they drain queued waves (stopping makes every
    // nonempty lane immediately due), then exit.
    {
      std::lock_guard<std::mutex> lock(batch_mutex);
      stopping = true;
    }
    batch_cv.notify_all();
    for (std::thread& t : dispatchers) t.join();
    {
      std::lock_guard<std::mutex> lock(admin_mutex);
      admin_stopping = true;
    }
    admin_cv.notify_all();
    if (admin_thread.joinable()) admin_thread.join();
    reactors_stop.store(true, std::memory_order_release);
    for (auto& r : reactors) r->Wake();
    for (auto& r : reactors) {
      if (r->thread.joinable()) r->thread.join();
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }
};

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options,
                                              EngineSource source,
                                              Hooks hooks) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  if (!source) {
    return Status::InvalidArgument("serve: an engine source is required");
  }
  std::shared_ptr<const ShardedEnsemble> initial = source();
  if (!initial) {
    return Status::FailedPrecondition(
        "serve: engine source returned null at startup");
  }
  auto server = std::unique_ptr<Server>(new Server());
  server->impl_ = std::make_unique<Impl>();
  Impl& impl = *server->impl_;
  impl.options = options;
  impl.source = std::move(source);
  impl.hooks = std::move(hooks);
  // The hash family is fixed for the server's lifetime: hot swap reopens
  // the same corpus, and a different family would invalidate every
  // client-side sketch anyway.
  impl.family = initial->family();
  impl.family_seed = impl.family->seed();
  impl.family_hashes = impl.family->num_hashes();
  LSHE_RETURN_IF_ERROR(impl.Bind());
  LSHE_RETURN_IF_ERROR(impl.SpawnThreads());
  return server;
}

Server::~Server() {
  if (impl_) impl_->Stop();
}

void Server::Stop() { impl_->Stop(); }

uint16_t Server::port() const { return impl_->bound_port; }

const ServerMetrics& Server::metrics() const { return impl_->metrics; }

std::string Server::RenderMetrics() const {
  return impl_->RenderMetricsPage();
}

}  // namespace serve
}  // namespace lshensemble
