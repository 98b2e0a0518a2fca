// The network serving layer: a non-blocking epoll server multiplexing
// many client connections onto the estimation engines of a
// TenantRegistry, with cross-connection request batching.
//
// Threading model
// ---------------
// One *loop thread* owns every socket: it accepts, reads, splits frames
// (net/wire), decodes each request in one pass (DecodeRpcRequest: no JSON
// DOM), writes responses, and never touches an estimation engine. Each
// read(2) of at most 64 KiB is decoded before the next, so a connection's
// decoder holds at most one read plus one partial frame. The requests
// admitted from one read go into per-tenant FIFO queues together (one
// lock per hand-off of at most max_batch requests, one wakeup per tenant
// it readies); N *worker
// threads* drain them. A worker takes one tenant's pending run (up to
// max_batch requests, order preserved), resolves the tenant through the
// registry (lazily opening snapshots), groups the consecutive estimate
// requests of the run into ONE EstimateBatchShared() call — this is the
// cross-connection batching: requests that arrived on different sockets
// within the same drain amortize the sequential cache pre-pass and the
// miss-grouping of the trial runner — executes mutations in arrival order
// (each mutation flushes the estimate run collected so far, preserving
// mutation/estimate ordering per tenant), and writes each response
// straight into a frame (wire.h BeginFrame/EndFrame) in one buffer per
// connection of the run. An estimate's frame is written the moment its
// sweep group finishes — on the pool thread that finished it, through the
// engine's ready-sink — so one session's answers never wait for the
// slowest group of the batch. The run publishes its buffers onto a
// completion queue as they fill, at spreading intervals while it computes
// (kPublishInterval; the first publication also carries the run's
// timeouts, refusals and mutation acks framed so far), and once more at
// the end of the run. Only the end of a run wakes the loop thread
// (eventfd); while requests are in flight the loop looks at the queue
// every kPublishInterval on its own. It appends each buffer to its
// connection's output in one copy, with no per-response string or
// re-framing, and hands the buffers back for the workers to reuse. The
// loop takes the queue after every connection event as well as after each
// poll, so answers go out while the loop reads the next connection's
// burst. Responses are staged per connection and written once per
// connection event or queue take (or as soon as a connection stages
// kEagerFlushBytes), not once per response.
//
// Per-tenant metrics (server.tenant.<name>.*) are resolved to registry
// handles once per tenant, at hand-off, and carried by each request; with
// metrics off nothing is resolved, recorded or timed.
//
// Because a batched request draws from the same RNG stream as a solo
// one, every response is bit-identical to an in-process Estimate() call
// with the same parameters — how the server happened to pack concurrent
// connections into batches is unobservable in the results.
//
// Admission control: at most max_inflight requests may be queued or
// executing (a burst's admitted requests count before their hand-off);
// beyond that requests are refused immediately with "overloaded". Each
// request carries a deadline (its timeout_ms, or the server default); a
// request whose deadline expires while still queued gets a clean
// "timeout" error instead of occupying an engine.
//
// Graceful drain: BeginDrain() stops accepting connections and refuses
// new requests with "shutting_down", but everything already admitted
// runs to completion and every response is flushed before the loop
// exits. The vsjoin_server tool wires SIGTERM to BeginDrain and flushes
// dirty tenants after WaitUntilStopped().
//
// Robustness contract (pinned by tests/net/server_test.cc): truncated
// frames, oversized length prefixes, garbage JSON, unknown tenants and
// mid-request disconnects each produce a typed error (or a silently
// dropped response, for disconnects) and never stop the server from
// serving other connections.

#ifndef VSJ_NET_SERVER_H_
#define VSJ_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vsj/io/io_status.h"
#include "vsj/net/event_loop.h"
#include "vsj/net/protocol.h"
#include "vsj/net/wire.h"
#include "vsj/obs/metrics.h"
#include "vsj/service/tenant_registry.h"

namespace vsj::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; Server::port() reports the bound one.
  uint16_t port = 0;

  /// Worker threads draining tenant queues.
  size_t num_workers = 1;

  /// Admission cap: requests queued or executing. Beyond it new requests
  /// are refused with "overloaded".
  size_t max_inflight = 1024;

  /// Frame payload cap; larger length prefixes poison the connection
  /// (typed "bad_frame" response, then close) without allocating.
  uint32_t max_frame_bytes = 1u << 20;

  /// Default per-request deadline (0 = none). A request's own timeout_ms
  /// overrides it.
  uint64_t default_timeout_ms = 0;

  /// Most requests one worker drain takes from a tenant queue — the
  /// upper bound on cross-connection batch size.
  size_t max_batch = 64;

  /// Enables the "sleep" debug op, an in-process test hook that occupies
  /// workers deterministically; vsjoin_server never sets it.
  bool enable_debug_ops = false;

  /// Borrowed; must outlive the server. Required.
  TenantRegistry* registry = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the loop + worker threads. On failure the
  /// IoStatus says why (address in use, bad bind address, ...).
  IoStatus Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Graceful drain; see file comment. Safe from any thread / a signal
  /// handler's forwarding thread.
  void BeginDrain();

  /// Hard stop: abandons queued requests (their responses are dropped)
  /// and tears connections down. Safe from any thread.
  void Stop();

  /// Joins every server thread. Returns immediately if never started.
  void WaitUntilStopped();

  /// True once the loop thread has exited.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    std::string out;            ///< Bytes framed but not yet written.
    size_t out_offset = 0;      ///< Prefix of `out` already written.
    bool close_after_flush = false;
    bool want_write = false;    ///< EPOLLOUT currently armed.

    explicit Connection(uint32_t max_frame_bytes)
        : decoder(max_frame_bytes) {}
  };

  /// A tenant's server.tenant.<name>.* metrics. Registry entries are
  /// never destroyed, so the handles stay valid for the process.
  struct TenantMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_ns = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  struct Pending {
    uint64_t conn_id = 0;
    RpcRequest request;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< Clock::time_point::max() = none.
    /// Set at hand-off while metrics are on; nullptr for tenantless ops.
    const TenantMetrics* metrics = nullptr;
  };

  /// One run's responses to one connection, each already framed.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frames;
    size_t responses = 0;
    /// obs::MonotonicNowNs() at publication; 0 with metrics off.
    uint64_t published_ns = 0;
  };

  /// One run's framed responses not yet published. Filled by ProcessRun
  /// and by the engine's ready-sink on pool threads; never by both at once
  /// (the sink runs only inside EstimateBatchShared, one call at a time).
  struct RunOutput {
    std::vector<Completion> completions;
    size_t responses = 0;    ///< Framed into `completions`.
    size_t unpublished = 0;  ///< The run's requests not yet published.
    /// Earliest time the run may publish again before it ends, and the
    /// gap after the next such publication (see kPublishInterval); the
    /// epoch lets the first one go at once.
    Clock::time_point next_publish{};
    Clock::duration publish_gap = kPublishInterval;
  };

  struct TenantQueue {
    std::deque<Pending> queue;
    bool busy = false;       ///< A worker is draining this tenant.
    bool scheduled = false;  ///< Present in ready_.
  };

  /// Unwritten staged bytes at which Respond flushes a connection before
  /// the end of the loop pass; bounds the staging buffer's memory.
  static constexpr size_t kEagerFlushBytes = 64 * 1024;

  /// How soon answers published before their run ends reach the loop.
  /// While it computes, a run publishes at once, then after gaps of one
  /// interval, two, four and so on, so a run of T ms publishes early
  /// about log2(T) + 1 times however many tiny sweep groups it has; each
  /// taken publication costs the loop a pass and a write(2) per
  /// connection it touches, about 10 µs. A τ-sweep group takes
  /// milliseconds, so the groups of a served batch still go out as they
  /// finish. While requests are in flight the loop polls the completion
  /// queue once per interval instead of being woken for each
  /// publication: on sweep_cold one extra eventfd wake per batch, sent
  /// by the compute thread that finished a group, cost 7–8% of
  /// estimates/s even with nothing to publish (DESIGN.md, "Early
  /// answers"). The end of a run wakes the loop at once, as before.
  static constexpr std::chrono::milliseconds kPublishInterval{1};

  /// Bounds on the spare frame buffers kept for reuse: how many, and the
  /// largest capacity worth keeping (bigger ones are freed).
  static constexpr size_t kMaxSpareFrames = 64;
  static constexpr size_t kMaxSpareFrameBytes = 16 * 1024;

  // --- loop thread ---
  void LoopThread();
  void OnAcceptable();
  void OnConnectionEvent(uint64_t conn_id, uint32_t events);
  /// Handles every complete frame `conn`'s decoder holds, handing off
  /// each max_batch admitted; stops once the connection is dying.
  void DecodeFrames(Connection& conn, std::vector<Pending>* admitted);
  /// Answers `payload` inline, or appends its admitted request to
  /// `admitted` for the next HandOff.
  void HandleFrame(Connection& conn, std::string_view payload,
                   std::vector<Pending>* admitted);
  Pending MakePending(const Connection& conn, RpcRequest request) const;
  /// Pushes `admitted` onto the tenant queues under one lock, wakes one
  /// worker per newly ready tenant, and counts it in flight; leaves
  /// `admitted` empty.
  void HandOff(std::vector<Pending>* admitted);
  /// The tenant's metric handles, resolved on first use.
  const TenantMetrics* MetricsFor(const std::string& tenant);
  /// Frames `payload` and stages it.
  void Respond(Connection& conn, std::string_view payload);
  /// Stages `responses` frames already framed in `frames`; writes only
  /// past kEagerFlushBytes.
  void StageFrames(Connection& conn, std::string_view frames,
                   size_t responses);
  void FlushWrites(Connection& conn);
  void CloseConnection(uint64_t conn_id);
  void DrainCompletions();
  bool DrainComplete();

  // --- worker threads ---
  void WorkerThread();
  void ProcessRun(const std::string& tenant_name, std::vector<Pending> run);
  /// Finishes `pending`: `write_payload(std::string*)` appends its response
  /// into a frame of the run's buffer for its connection.
  template <typename WritePayload>
  void CompleteWith(RunOutput* out, const Pending& pending,
                    WritePayload&& write_payload);
  void Complete(RunOutput* out, const Pending& pending,
                std::string_view payload);
  /// Hands `out`'s responses to the loop: pushes them onto the completion
  /// queue and counts them out of inflight_. It does not wake the loop;
  /// the loop's next poll takes them (see kPublishInterval). No-op when
  /// `out` holds none.
  void Publish(RunOutput* out);
  /// A spare frame buffer, or a new one.
  std::string TakeFrameBuffer();

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  EventLoop loop_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stopped_{false};
  std::mutex join_mutex_;

  // Loop-thread-owned. Workers read a TenantMetrics only through the
  // pointer its requests carry; the loop never changes one once made.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<std::string, std::unique_ptr<TenantMetrics>>
      tenant_metrics_;

  // Shared queue state.
  std::mutex queue_mutex_;
  std::condition_variable work_cv_;
  std::unordered_map<std::string, TenantQueue> tenant_queues_;
  std::deque<std::string> ready_;
  std::atomic<size_t> inflight_{0};

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
  std::vector<std::string> spare_frames_;  ///< Empty, for reuse.
};

}  // namespace vsj::net

#endif  // VSJ_NET_SERVER_H_
