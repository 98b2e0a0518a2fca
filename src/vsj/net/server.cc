#include "vsj/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "vsj/fault/fault.h"
#include "vsj/net/wire.h"
#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj::net {

namespace {

// Most bytes one read(2) takes from a connection.
constexpr size_t kReadBytes = 64 << 10;

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
}

Server::~Server() {
  Stop();
  WaitUntilStopped();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

IoStatus Server::Start() {
  if (options_.registry == nullptr) {
    return IoStatus::Fail(IoError::kIoError, "server requires a registry");
  }
  if (!loop_.ok()) {
    return IoStatus::Fail(IoError::kIoError, "epoll setup failed");
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return IoStatus::Fail(IoError::kIoError, "socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return IoStatus::Fail(IoError::kIoError,
                          "bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return IoStatus::Fail(
        IoError::kIoError,
        "bind to " + options_.bind_address + " failed: " +
            std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return IoStatus::Fail(IoError::kIoError, "listen() failed");
  }
  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);

  if (!loop_.Add(listen_fd_, EPOLLIN | EPOLLET,
                 [this](uint32_t) { OnAcceptable(); })) {
    return IoStatus::Fail(IoError::kIoError, "epoll registration failed");
  }
  loop_thread_ = std::thread([this] { LoopThread(); });
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  started_.store(true, std::memory_order_release);
  return IoStatus::Ok();
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  loop_.Wake();
}

void Server::Stop() {
  draining_.store(true, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  stop_workers_.store(true, std::memory_order_release);
  work_cv_.notify_all();
  loop_.Wake();
}

void Server::WaitUntilStopped() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

// ---------------------------------------------------------------- loop

void Server::LoopThread() {
  bool accepting = true;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire) && accepting) {
      // Drain step 1: no new connections. Closing the listening socket
      // (not just deregistering it) makes the kernel refuse connects
      // immediately — otherwise the backlog would keep accepting peers
      // that can never be served.
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      accepting = false;
    }
    // While draining, poll with a timeout so drain-completion is checked
    // even if no event arrives. While requests are in flight, poll at
    // least every kPublishInterval: workers publish answers before their
    // run ends without waking the loop.
    int timeout_ms = draining_.load(std::memory_order_acquire) ? 50 : -1;
    if (inflight_.load(std::memory_order_acquire) > 0) {
      timeout_ms = static_cast<int>(kPublishInterval.count());
    }
    loop_.Poll(timeout_ms);
    DrainCompletions();
    if (draining_.load(std::memory_order_acquire) && DrainComplete()) break;
  }
  // Workers stop once the loop is down (on graceful drain their queues
  // are already empty; on hard stop leftover queue entries are dropped).
  stop_workers_.store(true, std::memory_order_release);
  work_cv_.notify_all();
  for (const auto& [id, conn] : connections_) loop_.DeferClose(conn->fd);
  connections_.clear();
  if (accepting) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stopped_.store(true, std::memory_order_release);
}

void Server::OnAcceptable() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN, or a transient accept error
    if (VSJ_FAULT_HIT("net.accept").fired()) {
      // Injected accept failure: the client sees an immediate hangup, as
      // with an accept() that ran out of descriptors.
      VSJ_COUNTER_ADD("server.injected_accept_failures", 1);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->id = id;
    conn->fd = fd;
    if (!loop_.Add(fd, EPOLLIN | EPOLLRDHUP | EPOLLET,
                   [this, id](uint32_t events) {
                     OnConnectionEvent(id, events);
                     // After the event's last use of its connection (this
                     // may close it): workers' answers go out while the
                     // loop reads the next connection's burst.
                     DrainCompletions();
                   })) {
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    VSJ_COUNTER_ADD("server.accepts", 1);
    VSJ_GAUGE_ADD("server.connections", 1);
  }
}

void Server::OnConnectionEvent(uint64_t conn_id, uint32_t events) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;

  bool peer_closed = false;
  if (events & EPOLLIN) {
    std::vector<Pending> admitted;
    while (true) {
      // read(2) fills the decoder's own tail: no copy, and no room beyond
      // this read plus the partial frame the last one left.
      const ssize_t n =
          ::read(conn.fd, conn.decoder.Reserve(kReadBytes), kReadBytes);
      if (n > 0) {
        // A dying connection's further bytes are read and dropped.
        if (conn.close_after_flush) continue;
        conn.decoder.Commit(static_cast<size_t>(n));
        // Each read is decoded and handed off before the next, so the
        // decoder holds at most one read plus one partial frame. Before
        // the next read: drain detection relies on every admitted request
        // being counted in inflight_ once the loop pass ends.
        DecodeFrames(conn, &admitted);
        HandOff(&admitted);
        VSJ_HIST_RECORD("server.input_buffered_bytes",
                        conn.decoder.buffered_bytes());
        continue;
      }
      if (n == 0) {
        peer_closed = true;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        peer_closed = true;
      }
      break;
    }
  }
  // One write for everything this event staged, and before the reaping
  // below, so inline replies reach a peer that has already hung up.
  FlushWrites(conn);
  if (peer_closed || (events & (EPOLLHUP | EPOLLERR))) {
    // Peer is gone: responses still in flight for this connection are
    // dropped when the completion finds no connection to deliver to.
    CloseConnection(conn_id);
    return;
  }
  if (events & EPOLLRDHUP) conn.close_after_flush = true;
  if (conn.close_after_flush && conn.out_offset == conn.out.size()) {
    CloseConnection(conn_id);
  }
}

void Server::DecodeFrames(Connection& conn, std::vector<Pending>* admitted) {
  std::string_view payload;
  while (!conn.close_after_flush) {
    const FrameDecoder::Status status = conn.decoder.Next(&payload);
    if (status == FrameDecoder::Status::kFrame) {
      HandleFrame(conn, payload, admitted);
      if (admitted->size() >= options_.max_batch) HandOff(admitted);
      continue;
    }
    if (status == FrameDecoder::Status::kTooLarge) {
      // The prefix was rejected before any payload buffering; the
      // stream cannot be resynchronized, so answer and hang up.
      VSJ_COUNTER_ADD("server.bad_frames", 1);
      Respond(conn,
              MakeErrorPayload(0, RpcError::kBadFrame,
                               "frame length exceeds the " +
                                   std::to_string(options_.max_frame_bytes) +
                                   " byte limit"));
      conn.close_after_flush = true;
    }
    break;
  }
}

void Server::HandleFrame(Connection& conn, std::string_view payload,
                         std::vector<Pending>* admitted) {
  if (VSJ_FAULT_HIT("net.frame").fired()) {
    // Injected connection reset mid-request: the frame is dropped with no
    // response and the connection closes, exercising the client's
    // reconnect/retry path. Replies already staged for earlier frames go
    // out first. Must not CloseConnection here — the decode loop in
    // OnConnectionEvent still holds `conn`.
    VSJ_COUNTER_ADD("server.injected_resets", 1);
    FlushWrites(conn);
    conn.out.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    return;
  }
  VSJ_COUNTER_ADD("server.requests", 1);
  const bool timed = obs::MetricsEnabled();
  const uint64_t decode_start_ns = timed ? obs::MonotonicNowNs() : 0;
  RpcRequest request;
  std::string error;
  const RpcError code = DecodeRpcRequest(payload, &request, &error);
  if (timed) {
    VSJ_HIST_RECORD("server.decode_ns",
                    obs::MonotonicNowNs() - decode_start_ns);
  }
  if (code != RpcError::kNone) {
    Respond(conn, MakeErrorPayload(request.id, code, error));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    Respond(conn, MakeErrorPayload(request.id, RpcError::kShuttingDown,
                                   "server is draining"));
    return;
  }
  if (request.op == RpcOp::kPing) {
    Respond(conn, MakeOkResponse(request.id)
                      .Set("pong", JsonValue::Bool(true))
                      .Serialize());
    return;
  }
  if (inflight_.load(std::memory_order_acquire) + admitted->size() >=
      options_.max_inflight) {
    VSJ_COUNTER_ADD("server.overloaded", 1);
    Respond(conn, MakeErrorPayload(
                      request.id, RpcError::kOverloaded,
                      "server is at its in-flight request limit (" +
                          std::to_string(options_.max_inflight) + ")"));
    return;
  }
  admitted->push_back(MakePending(conn, std::move(request)));
}

Server::Pending Server::MakePending(const Connection& conn,
                                    RpcRequest request) const {
  const uint64_t timeout_ms = request.timeout_ms != 0
                                  ? request.timeout_ms
                                  : options_.default_timeout_ms;
  Pending pending;
  pending.conn_id = conn.id;
  pending.enqueued = Clock::now();
  pending.deadline = timeout_ms == 0
                         ? Clock::time_point::max()
                         : pending.enqueued +
                               std::chrono::milliseconds(timeout_ms);
  pending.request = std::move(request);
  return pending;
}

void Server::HandOff(std::vector<Pending>* admitted) {
  if (admitted->empty()) return;
  VSJ_HIST_RECORD("server.handoff_size", admitted->size());
  if (obs::MetricsEnabled()) {
    for (Pending& pending : *admitted) {
      if (pending.request.tenant.empty()) continue;
      pending.metrics = MetricsFor(pending.request.tenant);
      pending.metrics->queue_depth->Add(1);
    }
  }
  // Counted before any worker can finish one and count it out.
  inflight_.fetch_add(admitted->size(), std::memory_order_acq_rel);
  VSJ_GAUGE_SET("server.inflight",
                static_cast<int64_t>(inflight_.load(std::memory_order_relaxed)));
  size_t readied = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (Pending& pending : *admitted) {
      // Tenantless debug ops (sleep) queue under "" — their own serial
      // queue.
      const std::string& key = pending.request.tenant;
      TenantQueue& tq = tenant_queues_[key];
      if (!tq.busy && !tq.scheduled) {
        tq.scheduled = true;
        ready_.push_back(key);
        ++readied;
      }
      tq.queue.push_back(std::move(pending));
    }
  }
  admitted->clear();
  // One wakeup per newly ready tenant: a tenant already scheduled or busy
  // has its wakeup coming.
  for (size_t i = 0; i < readied; ++i) work_cv_.notify_one();
}

const Server::TenantMetrics* Server::MetricsFor(const std::string& tenant) {
  std::unique_ptr<TenantMetrics>& metrics = tenant_metrics_[tenant];
  if (metrics == nullptr) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    const std::string prefix = "server.tenant." + tenant;
    metrics = std::make_unique<TenantMetrics>();
    metrics->requests = &registry.GetCounter(prefix + ".requests");
    metrics->latency_ns = &registry.GetHistogram(prefix + ".latency_ns");
    metrics->batch_size = &registry.GetHistogram(prefix + ".batch_size");
    metrics->queue_depth = &registry.GetGauge(prefix + ".queue_depth");
  }
  return metrics.get();
}

void Server::Respond(Connection& conn, std::string_view payload) {
  AppendFrame(&conn.out, payload);
  VSJ_COUNTER_ADD("server.responses", 1);
  // With EPOLLOUT armed the socket is full (or a short write is being
  // resumed); that event flushes.
  if (!conn.want_write &&
      conn.out.size() - conn.out_offset >= kEagerFlushBytes) {
    FlushWrites(conn);
  }
}

void Server::StageFrames(Connection& conn, std::string_view frames,
                         size_t responses) {
  // Copied, not swapped in: conn.out keeps the capacity it grew to. A swap
  // made each connection regrow its buffer after every burst, which raised
  // peak RSS (DESIGN.md "Framing and parsing").
  conn.out.append(frames);
  VSJ_COUNTER_ADD("server.responses", responses);
  if (!conn.want_write &&
      conn.out.size() - conn.out_offset >= kEagerFlushBytes) {
    FlushWrites(conn);
  }
}

void Server::FlushWrites(Connection& conn) {
  bool injected_short_write = false;
  while (conn.out_offset < conn.out.size()) {
    size_t chunk = conn.out.size() - conn.out_offset;
    bool short_write = false;
    const fault::FaultHit hit = VSJ_FAULT_HIT("net.write");
    if (hit.fired()) {
      if (hit.kind == fault::FaultKind::kShortWrite) {
        // Deliver at most `arg` bytes this round, then yield as if the
        // socket buffer filled — the rest flushes on EPOLLOUT. Responses
        // must still arrive intact (framing survives partial writes).
        chunk = std::min<size_t>(chunk, hit.arg > 0 ? hit.arg : 1);
        short_write = true;
      } else {
        // Anything else injected here behaves like EPIPE below.
        VSJ_COUNTER_ADD("server.injected_resets", 1);
        conn.out.clear();
        conn.out_offset = 0;
        conn.close_after_flush = true;
        break;
      }
    }
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_offset,
                              chunk);
    if (n > 0) {
      VSJ_COUNTER_ADD("server.writes", 1);
      conn.out_offset += static_cast<size_t>(n);
      if (short_write) {  // pretend the buffer filled
        injected_short_write = true;
        break;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Undeliverable (EPIPE & co): drop the buffer and let the top-level
    // close check reap the connection.
    conn.out.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    break;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
    if (conn.want_write) {
      loop_.Modify(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLET);
      conn.want_write = false;
    }
  } else if (!conn.want_write || injected_short_write) {
    // On an injected short write the socket never actually blocked, so no
    // EPOLLOUT edge is coming; EPOLL_CTL_MOD re-arms the edge-triggered
    // state and redelivers the still-writable condition.
    loop_.Modify(conn.fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET);
    conn.want_write = true;
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  loop_.DeferClose(it->second->fd);
  connections_.erase(it);
  VSJ_GAUGE_ADD("server.connections", -1);
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  if (obs::MetricsEnabled()) {
    const uint64_t now_ns = obs::MonotonicNowNs();
    size_t backlog_bytes = 0;
    for (const Completion& completion : batch) {
      backlog_bytes += completion.frames.size();
      if (completion.published_ns == 0) continue;  // published with it off
      VSJ_HIST_RECORD("server.completion_wait_ns",
                      now_ns - completion.published_ns);
    }
    VSJ_HIST_RECORD("server.completion_backlog_bytes", backlog_bytes);
  }
  std::vector<uint64_t> touched;
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // disconnected mid-request
    Connection& conn = *it->second;
    if (conn.close_after_flush) continue;
    StageFrames(conn, completion.frames, completion.responses);
    touched.push_back(completion.conn_id);
  }
  {
    // The buffers go back to the workers, within the pool's bounds; the
    // rest are freed with `batch`.
    std::lock_guard<std::mutex> lock(completion_mutex_);
    for (Completion& completion : batch) {
      if (spare_frames_.size() == kMaxSpareFrames) break;
      if (completion.frames.capacity() > kMaxSpareFrameBytes) continue;
      completion.frames.clear();
      spare_frames_.push_back(std::move(completion.frames));
    }
  }
  // One write per connection for the whole batch. Nothing above closes a
  // connection, so every touched id is still live.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const uint64_t conn_id : touched) {
    Connection& conn = *connections_.at(conn_id);
    FlushWrites(conn);
    if (conn.close_after_flush && conn.out_offset == conn.out.size()) {
      CloseConnection(conn_id);
    }
  }
}

bool Server::DrainComplete() {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (conn->out_offset != conn->out.size()) return false;
  }
  return true;
}

// -------------------------------------------------------------- workers

void Server::WorkerThread() {
  while (true) {
    std::string name;
    std::vector<Pending> run;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_cv_.wait(lock, [&] {
        return stop_workers_.load(std::memory_order_acquire) ||
               !ready_.empty();
      });
      if (stop_requested_.load(std::memory_order_acquire)) return;
      if (ready_.empty()) return;  // graceful stop, queues empty
      name = std::move(ready_.front());
      ready_.pop_front();
      TenantQueue& tq = tenant_queues_[name];
      tq.scheduled = false;
      tq.busy = true;
      const size_t take = std::min(options_.max_batch, tq.queue.size());
      run.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        run.push_back(std::move(tq.queue.front()));
        tq.queue.pop_front();
      }
    }
    // Undo the hand-off's count of each request it gave a handle.
    const TenantMetrics* metrics = nullptr;
    int64_t counted = 0;
    for (const Pending& pending : run) {
      if (pending.metrics == nullptr) continue;
      metrics = pending.metrics;
      ++counted;
    }
    if (metrics != nullptr) metrics->queue_depth->Add(-counted);
    ProcessRun(name, std::move(run));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      TenantQueue& tq = tenant_queues_[name];
      tq.busy = false;
      if (!tq.queue.empty()) {
        if (!tq.scheduled) {
          tq.scheduled = true;
          ready_.push_back(name);
        }
        work_cv_.notify_one();
      } else if (!tq.scheduled) {
        tenant_queues_.erase(name);
      }
    }
  }
}

std::string Server::TakeFrameBuffer() {
  std::lock_guard<std::mutex> lock(completion_mutex_);
  if (spare_frames_.empty()) return std::string();
  std::string frames = std::move(spare_frames_.back());
  spare_frames_.pop_back();
  return frames;
}

template <typename WritePayload>
void Server::CompleteWith(RunOutput* out, const Pending& pending,
                          WritePayload&& write_payload) {
  if (obs::MetricsEnabled()) {
    const uint64_t latency_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - pending.enqueued)
            .count());
    VSJ_HIST_RECORD("server.latency_ns", latency_ns);
    if (pending.metrics != nullptr) {
      pending.metrics->requests->Add(1);
      pending.metrics->latency_ns->Record(latency_ns);
    }
  }
  // Searched from the back: a run's consecutive requests mostly share a
  // connection.
  std::vector<Completion>& completions = out->completions;
  const auto found = std::find_if(
      completions.rbegin(), completions.rend(),
      [&](const Completion& c) { return c.conn_id == pending.conn_id; });
  Completion* completion =
      found != completions.rend()
          ? &*found
          : &completions.emplace_back(
                Completion{pending.conn_id, TakeFrameBuffer()});
  const size_t start = BeginFrame(&completion->frames);
  write_payload(&completion->frames);
  EndFrame(&completion->frames, start);
  ++completion->responses;
  ++out->responses;
}

void Server::Complete(RunOutput* out, const Pending& pending,
                      std::string_view payload) {
  CompleteWith(out, pending,
               [payload](std::string* frames) { frames->append(payload); });
}

void Server::Publish(RunOutput* out) {
  if (out->responses == 0) return;
  const uint64_t published_ns =
      obs::MetricsEnabled() ? obs::MonotonicNowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    for (Completion& completion : out->completions) {
      completion.published_ns = published_ns;
      completions_.push_back(std::move(completion));
    }
  }
  // Order matters for drain detection: completions are visible before the
  // in-flight count drops by exactly the responses they hold, so
  // inflight_ == 0 implies every response has been published. Each
  // request is framed once, so a run's publications together count out
  // its size, never more.
  inflight_.fetch_sub(out->responses, std::memory_order_acq_rel);
  out->unpublished -= out->responses;
  // server.publications: completion-queue pushes. Against server.batches
  // it shows how often a batch's answers went out in more than one piece;
  // with it, estimate.latency_ns.* and server.latency_ns stop when the
  // request's sweep group finishes, not when its whole batch does.
  VSJ_COUNTER_ADD("server.publications", 1);
  out->completions.clear();
  out->responses = 0;
}

void Server::ProcessRun(const std::string& tenant_name,
                        std::vector<Pending> run) {
  RunOutput out;
  out.completions.reserve(run.size());
  out.unpublished = run.size();
  const Clock::time_point now = Clock::now();

  // Deadline sweep: a request that expired while queued gets its clean
  // timeout without ever occupying an engine.
  std::vector<Pending> live;
  live.reserve(run.size());
  for (Pending& pending : run) {
    if (pending.deadline < now) {
      VSJ_COUNTER_ADD("server.timeouts", 1);
      Complete(&out, pending,
               MakeErrorPayload(pending.request.id, RpcError::kTimeout,
                                "deadline expired while queued"));
    } else {
      VSJ_HIST_RECORD(
          "server.queue_wait_ns",
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - pending.enqueued)
              .count());
      live.push_back(std::move(pending));
    }
  }

  std::shared_ptr<Tenant> tenant;
  if (!tenant_name.empty() && !live.empty()) {
    const IoStatus status = options_.registry->Acquire(tenant_name, &tenant);
    if (!status.ok()) {
      const RpcError code = status.code == IoError::kNotFound
                                ? RpcError::kUnknownTenant
                                : RpcError::kTenantUnavailable;
      VSJ_COUNTER_ADD("server.tenant_failures", 1);
      for (const Pending& pending : live) {
        Complete(&out, pending,
                 MakeErrorPayload(pending.request.id, code,
                                  status.ToString()));
      }
      live.clear();
    }
  }

  // Cross-connection batching: consecutive estimate requests of the run
  // become one batch — one cache pre-pass, one round of miss-grouping —
  // while mutations flush the pending batch so per-tenant
  // mutation/estimate order is preserved. The engine hands each response
  // to `on_ready` as it exists (cache hits first, then each sweep group as
  // it finishes), which frames it; the batch's returned vector holds
  // nothing new. While the run computes, whatever it holds is published
  // when due (see kPublishInterval) — before a batch starts (the
  // timeouts, refusals and acks framed so far) and as its answers arrive.
  std::vector<EstimateRequest> batch;
  std::vector<const Pending*> owners;
  const auto publish_when_due = [&] {
    const Clock::time_point due_check = Clock::now();
    if (out.responses == 0 || due_check < out.next_publish) return;
    const size_t responses = out.responses;
    Publish(&out);
    out.next_publish = due_check + out.publish_gap;
    out.publish_gap *= 2;
    // Responses that left while their run still had answers to give;
    // against server.responses, the share the early path sped up.
    if (out.unpublished > 0) {
      VSJ_COUNTER_ADD("server.early_responses", responses);
    }
  };
  const ReadySink on_ready = [&](std::span<const size_t> ready,
                                 std::span<const EstimateResponse> responses) {
    for (const size_t i : ready) {
      const uint64_t id = owners[i]->request.id;
      CompleteWith(&out, *owners[i], [&](std::string* frames) {
        AppendEstimatePayload(frames, id, responses[i]);
      });
    }
    publish_when_due();
  };
  const auto flush = [&] {
    if (batch.empty()) return;
    VSJ_COUNTER_ADD("server.batches", 1);
    VSJ_HIST_RECORD("server.batch_size", batch.size());
    if (owners.front()->metrics != nullptr && obs::MetricsEnabled()) {
      owners.front()->metrics->batch_size->Record(batch.size());
    }
    publish_when_due();
    tenant->EstimateBatchShared(batch, on_ready);
    batch.clear();
    owners.clear();
  };

  for (const Pending& pending : live) {
    const RpcRequest& request = pending.request;
    switch (request.op) {
      case RpcOp::kEstimate: {
        const TenantOpResult check = tenant->ValidateEstimate(request.estimate);
        if (!check.ok()) {
          Complete(&out, pending,
                   MakeErrorPayload(request.id, RpcError::kBadRequest,
                                    check.message));
          break;
        }
        batch.push_back(request.estimate);
        owners.push_back(&pending);
        break;
      }
      case RpcOp::kInsert:
      case RpcOp::kRemove:
      case RpcOp::kErase:
      case RpcOp::kAddVector: {
        flush();
        TenantOpResult result;
        if (request.op == RpcOp::kInsert) {
          result = tenant->Insert(request.vector_id);
        } else if (request.op == RpcOp::kRemove) {
          result = tenant->Remove(request.vector_id);
        } else if (request.op == RpcOp::kErase) {
          result = tenant->Erase(request.vector_id);
        } else {
          result = tenant->AddVector(request.features);
        }
        if (result.ok()) {
          JsonValue ok = MakeOkResponse(request.id);
          if (request.op == RpcOp::kAddVector) {
            ok.Set("vector_id",
                   JsonValue::Number(static_cast<double>(result.value)));
          } else {
            ok.Set("epoch",
                   JsonValue::Number(static_cast<double>(result.value)));
          }
          Complete(&out, pending, ok.Serialize());
        } else {
          const RpcError code =
              result.code == TenantOpResult::Code::kUnsupported
                  ? RpcError::kUnsupported
                  : RpcError::kBadRequest;
          Complete(&out, pending,
                   MakeErrorPayload(request.id, code, result.message));
        }
        break;
      }
      case RpcOp::kStats: {
        flush();
        const TenantStats stats = tenant->Stats();
        JsonValue ok = MakeOkResponse(request.id);
        ok.Set("tenant", JsonValue::Str(tenant_name));
        ok.Set("streaming", JsonValue::Bool(stats.streaming));
        ok.Set("epoch",
               JsonValue::Number(static_cast<double>(stats.epoch)));
        ok.Set("num_vectors",
               JsonValue::Number(static_cast<double>(stats.num_vectors)));
        ok.Set("num_live",
               JsonValue::Number(static_cast<double>(stats.num_live)));
        ok.Set("cache_hits",
               JsonValue::Number(static_cast<double>(stats.cache_hits)));
        ok.Set("cache_misses",
               JsonValue::Number(static_cast<double>(stats.cache_misses)));
        ok.Set("dirty", JsonValue::Bool(stats.dirty));
        ok.Set("checkpoint_failures",
               JsonValue::Number(
                   static_cast<double>(stats.checkpoint_failures)));
        Complete(&out, pending, ok.Serialize());
        break;
      }
      case RpcOp::kSleep: {
        flush();
        if (!options_.enable_debug_ops) {
          Complete(&out, pending,
                   MakeErrorPayload(request.id, RpcError::kBadRequest,
                                    "sleep is a debug op; start the server "
                                    "with debug ops enabled"));
          break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(request.sleep_ms));
        Complete(&out, pending,
                 MakeOkResponse(request.id)
                     .Set("slept_ms",
                          JsonValue::Number(
                              static_cast<double>(request.sleep_ms)))
                     .Serialize());
        break;
      }
      case RpcOp::kPing:
        // Pings are answered on the loop thread; tolerate one here anyway.
        Complete(&out, pending,
                 MakeOkResponse(request.id)
                     .Set("pong", JsonValue::Bool(true))
                     .Serialize());
        break;
    }
  }
  flush();
  Publish(&out);
  VSJ_DCHECK(out.unpublished == 0);
  // Every publication of the run happened before this wake, and the loop
  // drains the queue after each wake it takes, so none waits past it.
  loop_.Wake();
}

}  // namespace vsj::net
