// load: the load generator. One process, one poll loop, at most four
// connections to a running vsjoin_server (run.py spawns it as a child).
//
// Phases: (1) the verification sweep of every tenant the workload touches
// (fixed seed, on the freshly restored state, so rel_error repeats
// exactly); (2) warm-up traffic (point_hot first asks every hot key once);
// (3) the timed window; (4) drain, and on churn_mixed a post-run sample of
// cold estimates on the final live set; (5) byte comparison of a seeded
// sample of served responses against Tenant::EstimateBatchShared on the
// same snapshot in-process (the writer's acknowledged ops replayed first
// for the final-state sample).

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "commands.h"
#include "vsj/net/json.h"
#include "vsj/net/protocol.h"
#include "vsj/net/wire.h"
#include "vsj/service/tenant_registry.h"
#include "workload.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

constexpr uint64_t kNoRound = UINT64_MAX;

/// One request on the wire, awaiting its response.
struct Sent {
  bool is_write = false;
  bool timed = false;       ///< issued inside the timed window
  Clock::time_point due;    ///< when it was due (session start on sweeps)
  size_t ask_slot = SIZE_MAX;  ///< index into Load::kept_ when sampled
  uint64_t round = kNoRound;   ///< the round it belongs to, if any
};

struct Connection {
  int fd = -1;
  bool writer = false;
  std::unique_ptr<TrafficGen> gen;
  vsj::net::FrameDecoder decoder;
  std::string out;
  size_t out_offset = 0;
  std::unordered_map<uint64_t, Sent> inflight;
};

/// A served estimate kept for byte comparison.
struct Kept {
  Ask ask;
  std::string payload;
  bool final_state = false;  ///< churn_mixed: asked after the writer stopped
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

/// The fields the generator reads from a response.
struct Reply {
  uint64_t id = 0;
  bool ok = false;
  bool from_cache = false;
  uint64_t trials = 0;
  uint64_t pairs = 0;
  uint64_t unguaranteed = 0;
};

/// The unsigned integer after `"key":` in `payload`; false when absent.
bool ScanNumber(std::string_view payload, std::string_view key, uint64_t* out) {
  size_t at = payload.find(key);
  if (at == std::string_view::npos) return false;
  at += key.size();
  if (at >= payload.size() || payload[at] < '0' || payload[at] > '9') return false;
  uint64_t value = 0;
  for (; at < payload.size() && payload[at] >= '0' && payload[at] <= '9'; ++at) {
    value = value * 10 + static_cast<uint64_t>(payload[at] - '0');
  }
  *out = value;
  return true;
}

/// Reads a served estimate in the fixed layout of MakeEstimatePayload
/// without building a JSON tree, so the generator stays cheaper per answer
/// than the server's event loop. False for any other payload (errors,
/// mutation acks), which ParseReply then reads.
bool ScanEstimateReply(std::string_view payload, Reply* reply) {
  constexpr std::string_view kOk = ",\"ok\":true,\"estimator\":";
  if (payload.rfind("{\"id\":", 0) != 0 || !ScanNumber(payload, "{\"id\":", &reply->id)) {
    return false;
  }
  const size_t ok = payload.find(kOk);
  if (ok == std::string_view::npos || payload.find(',') != ok) return false;
  reply->ok = true;
  if (payload.ends_with(",\"from_cache\":true}")) {
    reply->from_cache = true;
  } else if (!payload.ends_with(",\"from_cache\":false}")) {
    return false;
  }
  return ScanNumber(payload, ",\"trials\":", &reply->trials) &&
         ScanNumber(payload, ",\"pairs_evaluated\":", &reply->pairs) &&
         ScanNumber(payload, ",\"num_unguaranteed\":", &reply->unguaranteed);
}

/// Reads any response through the JSON parser; false without a numeric id.
bool ParseReply(std::string_view payload, Reply* reply) {
  vsj::net::JsonValue doc;
  std::string error;
  const vsj::net::JsonValue* id = nullptr;
  if (!vsj::net::ParseJson(payload, &doc, &error) ||
      (id = doc.Find("id")) == nullptr || !id->is_number()) {
    return false;
  }
  const auto boolean = [&](const char* key) {
    const vsj::net::JsonValue* v = doc.Find(key);
    return v != nullptr && v->is_bool() && v->AsBool();
  };
  const auto number = [&](const char* key) {
    const vsj::net::JsonValue* v = doc.Find(key);
    return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->AsNumber())
                                          : uint64_t{0};
  };
  *reply = Reply{};
  reply->id = static_cast<uint64_t>(id->AsNumber());
  reply->ok = boolean("ok");
  reply->from_cache = boolean("from_cache");
  reply->trials = number("trials");
  reply->pairs = number("pairs_evaluated");
  reply->unguaranteed = number("num_unguaranteed");
  return true;
}

class Load {
 public:
  Load(const Workload& workload, const Scale& scale, uint64_t seed)
      : workload_(workload), scale_(scale), sample_rng_(seed ^ 0xc0ffeeULL) {}

  ~Load() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  bool Open(uint16_t port, uint64_t seed) {
    conns_.resize(workload_.connections);
    for (size_t c = 0; c < conns_.size(); ++c) {
      Connection& conn = conns_[c];
      conn.fd = Connect(port);
      if (conn.fd < 0) {
        Check("cannot connect to port " + std::to_string(port));
        return false;
      }
      conn.writer = workload_.writer_rate > 0 && c == 0;
      if (!conn.writer) conn.gen = std::make_unique<TrafficGen>(workload_, seed, c);
    }
    return true;
  }

  /// Sends `asks` on connection 0 and waits for every answer; the served
  /// payloads come back in order.
  std::vector<std::string> AskAll(const std::vector<Ask>& asks, bool final_state) {
    std::vector<std::string> answers(asks.size());
    for (size_t i = 0; i < asks.size(); ++i) {
      Sent sent;
      sent.due = Clock::now();
      sent.ask_slot = kept_.size();
      kept_.push_back(Kept{asks[i], "", final_state});
      Issue(&conns_[reader_index()], EncodeEstimate(next_id_, asks[i]), sent);
    }
    const size_t first = kept_.size() - asks.size();
    Pump(Clock::now() + std::chrono::seconds(60), /*issue=*/false);
    for (size_t i = 0; i < asks.size(); ++i) answers[i] = kept_[first + i].payload;
    return answers;
  }

  /// Closed-loop traffic until `until`, then drain. `timed` marks the
  /// window whose requests and completions are counted.
  void Run(Clock::time_point until, bool timed) {
    timed_ = timed;
    if (timed) {
      window_start_ = Clock::now();
      window_end_ = until;
    }
    Pump(until, /*issue=*/true);
    Pump(Clock::now() + std::chrono::seconds(30), /*issue=*/false);
    timed_ = false;
  }

  void Check(const std::string& failure) { failures_.push_back(failure); }

  /// Self-test hook: "cache", "miss", "errors" or "bytes" makes the run
  /// violate one check on purpose (see selftest.py).
  std::string sabotage;

  /// Alters one kept answer so its byte comparison must fail.
  void TamperKept() {
    if (!kept_.empty()) kept_.front().payload.insert(1, " ");
  }

  // Results.
  const std::vector<Kept>& kept() const { return kept_; }
  uint64_t writer_ops_acked() const { return writer_acked_; }
  std::vector<std::string> failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mutations_in_window = 0;
  uint64_t timed_estimates = 0;
  uint64_t timed_from_cache = 0;
  uint64_t timed_pairs = 0;
  uint64_t timed_trials = 0;
  uint64_t timed_unguaranteed = 0;
  std::vector<double> latencies_ms;
  /// Seconds from the window start to each timed completion; answers that
  /// arrive while draining lie past window_seconds().
  std::vector<float> completion_s;
  double window_seconds() const { return Seconds(window_end_ - window_start_); }

 private:
  size_t reader_index() const { return workload_.writer_rate > 0 ? 1 : 0; }

  void Issue(Connection* conn, const std::string& payload, Sent sent) {
    sent.timed = timed_;
    if (timed_) ++attempted;
    vsj::net::AppendFrame(&conn->out, payload);
    conn->inflight.emplace(next_id_++, sent);
  }

  /// Queues the reader's next ask on `conn`, due `now`.
  void IssueAsk(Connection* conn, Clock::time_point now, uint64_t round) {
    Ask ask = conn->gen->Next();
    if (sabotage == "cache") {
      ask.request.seed = 1;  // cold traffic repeats one key
    } else if (sabotage == "miss") {
      ask.request.seed = 1 + sabotage_counter_++;  // hot traffic misses
    } else if (sabotage == "errors" && sabotage_counter_++ % 10 == 0) {
      ask.tenant = "missing";  // answered unknown_tenant
    }
    Sent sent;
    sent.due = now;
    sent.round = round;
    // Seeded sample of timed answers for byte comparison; churn readers
    // race the writer, so their state is compared only after the writer
    // stops (final-state sample).
    if (timed_ && workload_.kind != WorkloadKind::kChurnMixed &&
        sample_rng_.NextDouble() < 0.02 && sampled_ < 16) {
      ++sampled_;
      sent.ask_slot = kept_.size();
      kept_.push_back(Kept{ask, "", false});
    }
    Issue(conn, EncodeEstimate(next_id_, ask), sent);
  }

  /// Tops up every connection's pipeline (closed loop).
  void Refill() {
    const Clock::time_point now = Clock::now();
    for (Connection& conn : conns_) {
      if (conn.fd < 0) continue;
      if (conn.writer) {
        // Open loop: op i is due writer_start_ + i / rate, sent late rather
        // than skipped when the loop was busy.
        if (writer_start_ == Clock::time_point{}) writer_start_ = now;
        const auto due = [&](uint64_t i) {
          return writer_start_ + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         i / workload_.writer_rate));
        };
        while (due(writer_next_) <= now && conn.inflight.size() < kWriterMaxInflight) {
          Sent sent;
          sent.is_write = true;
          sent.due = due(writer_next_);
          Issue(&conn, EncodeWriterOp(next_id_, WriterOpAt(scale_, writer_next_++)),
                sent);
        }
        continue;
      }
      if (workload_.rounds > 0) continue;  // filled round by round below
      while (conn.inflight.size() < workload_.pipeline) IssueAsk(&conn, now, kNoRound);
    }
    // A round is one page on every reader, sent together; a new round
    // starts once the oldest one in flight is wholly answered.
    while (round_pending_.size() < workload_.rounds) {
      round_pending_.push_back(0);
      const uint64_t round = first_round_ + round_pending_.size() - 1;
      for (Connection& conn : conns_) {
        if (conn.fd < 0 || conn.writer) continue;
        for (size_t i = 0; i < workload_.pipeline; ++i) IssueAsk(&conn, now, round);
        round_pending_.back() += workload_.pipeline;
      }
    }
  }

  void Pump(Clock::time_point until, bool issue) {
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      if (issue) Refill();
      bool pending = false;
      for (size_t c = 0; c < conns_.size(); ++c) {
        Connection& conn = conns_[c];
        Flush(&conn);
        fds[c].fd = conn.fd;
        fds[c].events = POLLIN;
        if (conn.out_offset < conn.out.size()) fds[c].events |= POLLOUT;
        fds[c].revents = 0;
        pending = pending || !conn.inflight.empty();
      }
      const Clock::time_point now = Clock::now();
      if (now >= until) break;
      if (!issue && !pending) return;
      const int wait_ms = static_cast<int>(std::min<double>(
          workload_.writer_rate > 0 ? 1.0 : 10.0, std::ceil(Seconds(until - now) * 1e3)));
      if (::poll(fds.data(), fds.size(), wait_ms) < 0) continue;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) Receive(&conns_[c]);
      }
    }
    if (issue) return;
    // Drain deadline passed with answers outstanding: count them lost.
    for (Connection& conn : conns_) {
      for (const auto& [id, sent] : conn.inflight) {
        if (sent.timed) ++failed;
      }
      if (!conn.inflight.empty()) {
        Check(std::to_string(conn.inflight.size()) + " request(s) never answered");
      }
      conn.inflight.clear();
    }
    first_round_ += round_pending_.size();
    round_pending_.clear();
  }

  void Flush(Connection* conn) {
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n <= 0) break;
      conn->out_offset += static_cast<size_t>(n);
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
    }
  }

  void Receive(Connection* conn) {
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
      // Closed or broken: its outstanding requests are lost.
      Check("server closed a connection");
      for (const auto& [id, sent] : conn->inflight) {
        if (sent.timed) ++failed;
      }
      conn->inflight.clear();
      ::close(conn->fd);
      conn->fd = -1;
      break;
    }
    std::string_view payload;
    while (conn->decoder.Next(&payload) == vsj::net::FrameDecoder::Status::kFrame) {
      OnResponse(conn, payload);
    }
  }

  void OnResponse(Connection* conn, std::string_view payload) {
    const Clock::time_point now = Clock::now();
    Reply reply;
    if (!ScanEstimateReply(payload, &reply) && !ParseReply(payload, &reply)) {
      Check("unparseable response: " + std::string(payload.substr(0, 120)));
      return;
    }
    const auto it = conn->inflight.find(reply.id);
    if (it == conn->inflight.end()) {
      Check("response to an unknown id");
      return;
    }
    const Sent sent = it->second;
    conn->inflight.erase(it);
    if (sent.round != kNoRound) {
      --round_pending_[sent.round - first_round_];
      while (!round_pending_.empty() && round_pending_.front() == 0) {
        round_pending_.pop_front();
        ++first_round_;
      }
    }
    if (sent.ask_slot != SIZE_MAX) kept_[sent.ask_slot].payload = payload;
    if (sent.is_write) {
      if (reply.ok) ++writer_acked_;
      else Check("writer op refused: " + std::string(payload.substr(0, 160)));
    }
    if (!sent.timed) {
      if (!reply.ok) Check("untimed request refused: " + std::string(payload.substr(0, 160)));
      return;
    }
    if (!reply.ok) {
      ++failed;
      return;
    }
    if (sent.is_write) {
      if (now <= window_end_) ++mutations_in_window;
      return;
    }
    latencies_ms.push_back(Seconds(now - sent.due) * 1e3);
    completion_s.push_back(static_cast<float>(Seconds(now - window_start_)));
    ++timed_estimates;
    if (reply.from_cache) ++timed_from_cache;
    timed_pairs += reply.pairs;
    timed_trials += reply.trials;
    timed_unguaranteed += reply.unguaranteed;
  }

  const Workload& workload_;
  const Scale& scale_;
  std::vector<Connection> conns_;
  vsj::Rng sample_rng_;
  uint64_t next_id_ = 1;
  /// Bounds the open-loop writer's backlog if the server stalls.
  static constexpr size_t kWriterMaxInflight = 256;
  Clock::time_point writer_start_{};
  uint64_t writer_next_ = 0;
  uint64_t writer_acked_ = 0;
  size_t sampled_ = 0;
  bool timed_ = false;
  uint64_t sabotage_counter_ = 0;
  /// Unanswered asks of each round in flight, oldest (first_round_) first.
  std::deque<size_t> round_pending_;
  uint64_t first_round_ = 0;
  Clock::time_point window_start_{};
  Clock::time_point window_end_{};
  std::vector<Kept> kept_;
  std::vector<std::string> failures_;
};

/// Exact join sizes per tenant, from prepare's truth.json.
bool ReadTruth(const std::string& path,
               std::unordered_map<std::string, std::vector<double>>* truth) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  vsj::net::JsonValue doc;
  std::string error;
  if (!in || !vsj::net::ParseJson(text.str(), &doc, &error)) return false;
  for (const auto& [tenant, value] : doc.members()) {
    const vsj::net::JsonValue* joins = value.Find("join_sizes");
    if (joins == nullptr) return false;
    std::vector<double>& sizes = (*truth)[tenant];
    for (const vsj::net::JsonValue& pair : joins->elements()) {
      sizes.push_back(pair[1].AsNumber());
    }
  }
  return true;
}

/// Nearest-rank percentile; NaN when `samples` is empty.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return NAN;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median (mean of the middle two for an even count); NaN when empty.
double Median(std::vector<double> samples) {
  if (samples.empty()) return NAN;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
}

/// The timed window is cut into this many equal slices for the p50 median.
constexpr size_t kTimeSlices = 10;

double EstimateOf(const std::string& payload) {
  vsj::net::JsonValue doc;
  std::string error;
  if (!vsj::net::ParseJson(payload, &doc, &error)) return NAN;
  const vsj::net::JsonValue* estimate = doc.Find("estimate");
  return estimate != nullptr && estimate->is_number() ? estimate->AsNumber() : NAN;
}

/// Recomputes kept answers in-process and compares bytes. Returns the
/// number compared; mismatches are reported through `load->Check`.
size_t CompareInProcess(Load* load, const Scale& scale, const std::string& ref_root,
                        const EngineConfig& engine) {
  vsj::TenantRegistry registry(RegistryOptions(ref_root, engine));
  size_t compared = 0;
  if (load->sabotage == "bytes") load->TamperKept();
  // Initial-state answers first, then the writer's acknowledged ops, then
  // the final-state answers.
  for (const bool final_state : {false, true}) {
    if (final_state && load->writer_ops_acked() > 0) {
      std::shared_ptr<vsj::Tenant> tenant;
      if (!registry.Acquire(kStreamingTenant, &tenant).ok()) {
        load->Check("in-process reference cannot open the streaming tenant");
        return compared;
      }
      for (uint64_t i = 0; i < load->writer_ops_acked(); ++i) {
        const WriterOp op = WriterOpAt(scale, i);
        const vsj::TenantOpResult result =
            op.insert ? tenant->Insert(op.id) : tenant->Remove(op.id);
        if (!result.ok()) {
          load->Check("in-process replay of writer op failed: " + result.message);
          return compared;
        }
      }
    }
    std::unordered_map<std::string, std::vector<const Kept*>> by_tenant;
    for (const Kept& kept : load->kept()) {
      if (kept.final_state == final_state) by_tenant[kept.ask.tenant].push_back(&kept);
    }
    for (const auto& [name, kept] : by_tenant) {
      std::shared_ptr<vsj::Tenant> tenant;
      if (!registry.Acquire(name, &tenant).ok()) {
        load->Check("in-process reference cannot open tenant " + name);
        continue;
      }
      std::vector<vsj::EstimateRequest> batch;
      for (const Kept* k : kept) batch.push_back(k->ask.request);
      const std::vector<vsj::EstimateResponse> answers =
          tenant->EstimateBatchShared(batch);
      for (size_t i = 0; i < kept.size(); ++i) {
        const std::string want =
            StripVolatileFields(vsj::net::MakeEstimatePayload(0, answers[i]));
        const std::string got = StripVolatileFields(kept[i]->payload);
        ++compared;
        if (want != got) {
          load->Check("served answer differs from in-process answer: served " +
                      got + " vs " + want);
        }
      }
    }
  }
  return compared;
}

}  // namespace

int RunLoad(const Flags& flags) {
  Workload workload;
  Scale scale;
  if (!LookupWorkload(flags.Get("workload", ""), &workload) ||
      !LookupScale(flags.Get("scale", "full"), &scale)) {
    std::cerr << "load: unknown --workload or --scale\n";
    return 2;
  }
  const uint64_t seed = flags.GetU64("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const double warmup = flags.GetDouble("warmup", 1.0);
  const uint16_t port = static_cast<uint16_t>(flags.GetU64("port", 0));
  EngineConfig engine;
  engine.threads = flags.GetU64("threads", engine.threads);
  std::unordered_map<std::string, std::vector<double>> truth;
  if (!ReadTruth(flags.Get("truth", ""), &truth)) {
    std::cerr << "load: cannot read --truth\n";
    return 2;
  }

  Load load(workload, scale, seed);
  load.sabotage = flags.Get("sabotage", "");
  if (!load.Open(port, seed)) {
    std::cerr << "load: " << load.failures().front() << "\n";
    return 1;
  }

  // (1) Verification sweep on the freshly opened tenants → rel_error.
  const std::vector<double> taus = SweepThresholds();
  double error_sum = 0.0;
  size_t error_terms = 0;
  for (const std::string& tenant : workload.tenants) {
    std::vector<Ask> asks;
    for (const vsj::EstimateRequest& request : VerifySweep()) {
      asks.push_back(Ask{tenant, request});
    }
    const std::vector<std::string> answers = load.AskAll(asks, false);
    for (size_t t = 0; t < taus.size(); ++t) {
      const double exact = truth[tenant].size() > t ? truth[tenant][t] : 0.0;
      if (exact <= 0.0) continue;
      error_sum += std::fabs(EstimateOf(answers[t]) - exact) / exact;
      ++error_terms;
    }
  }
  const double rel_error = error_terms > 0 ? error_sum / error_terms : NAN;
  if (!std::isfinite(rel_error)) load.Check("rel_error is not finite");

  // (2) Warm-up, then (3) the timed window.
  if (workload.kind == WorkloadKind::kPointHot) load.AskAll(HotKeys(), false);
  load.Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(warmup)),
           /*timed=*/false);
  load.Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)),
           /*timed=*/true);

  // (4) churn_mixed: cold answers on the final live set.
  if (workload.kind == WorkloadKind::kChurnMixed) {
    std::vector<Ask> asks;
    for (size_t i = 0; i < 4; ++i) {
      Ask ask;
      ask.tenant = kStreamingTenant;
      ask.request.tau = taus[(seed + i) % taus.size()];
      ask.request.trials = kTrials;
      ask.request.seed = VerifySweep()[0].seed + 100 + i;
      asks.push_back(ask);
    }
    load.AskAll(asks, true);
  }

  // (5) Byte comparison against the in-process engine.
  const size_t compared =
      CompareInProcess(&load, scale, flags.Get("ref-root", ""), engine);

  // p50 is taken per tenth of the window (by completion time) and reported
  // as the median over the slices, so a host stall that covers less than
  // half the window does not move it. p99 is the median of the p99s of up
  // to ten consecutive blocks (completion order) of at least 1000 samples,
  // so each block has at least ten samples beyond its p99, and a burst of
  // host stalls inside one block moves one block's value, not the figure.
  const double window = load.window_seconds();
  std::vector<std::vector<double>> slices(kTimeSlices);
  size_t in_window = 0;
  for (size_t i = 0; i < load.completion_s.size(); ++i) {
    if (load.completion_s[i] > window) continue;
    ++in_window;
    const size_t s = std::min<size_t>(
        kTimeSlices - 1, static_cast<size_t>(load.completion_s[i] / window * kTimeSlices));
    slices[s].push_back(load.latencies_ms[i]);
  }
  vsj::net::JsonValue slice_p50s = vsj::net::JsonValue::Array();
  std::vector<double> p50s;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    p50s.push_back(Percentile(slice, 0.5));
    slice_p50s.Append(vsj::net::JsonValue::Number(p50s.back()));
  }
  const double p50 = Median(p50s);

  const std::vector<double>& lat = load.latencies_ms;
  const size_t blocks = std::min<size_t>(10, lat.size() / 1000);
  std::vector<double> block_p99;
  size_t beyond_p99 = blocks > 0 ? SIZE_MAX : 0;
  for (size_t b = 0; b < blocks; ++b) {
    const std::vector<double> block(lat.begin() + b * lat.size() / blocks,
                                    lat.begin() + (b + 1) * lat.size() / blocks);
    block_p99.push_back(Percentile(block, 0.99));
    beyond_p99 = std::min<size_t>(
        beyond_p99, std::count_if(block.begin(), block.end(),
                                  [&](double v) { return v > block_p99.back(); }));
  }
  const double p99 = blocks > 0 ? Median(block_p99) : Percentile(lat, 0.99);
  const double hit_rate =
      load.timed_estimates > 0
          ? static_cast<double>(load.timed_from_cache) / load.timed_estimates
          : 0.0;
  if (workload.kind == WorkloadKind::kPointHot) {
    if (hit_rate < 0.99) {
      load.Check("point_hot hit rate " + std::to_string(hit_rate) + " < 0.99");
    }
  } else if (load.timed_from_cache > 0) {
    load.Check(std::to_string(load.timed_from_cache) +
               " timed answer(s) of a cold workload came from the cache");
  }
  // The reported tail needs at least ten samples beyond it (the traced
  // halves report no latency metric and pass 0).
  const uint64_t min_beyond = flags.GetU64("min-beyond-p99", scale.name == "full" ? 10 : 0);
  if (beyond_p99 < min_beyond) {
    load.Check("only " + std::to_string(beyond_p99) +
               " latency samples beyond p99; lengthen the run");
  }
  if (load.timed_estimates == 0) load.Check("no estimate completed");
  if (compared == 0) load.Check("no served answer was byte-compared");
  const double error_rate =
      load.attempted > 0 ? static_cast<double>(load.failed) / load.attempted : 1.0;
  if (error_rate > 0.01) load.Check("error_rate above 1%");

  vsj::net::JsonValue checks = vsj::net::JsonValue::Array();
  for (const std::string& failure : load.failures()) {
    checks.Append(vsj::net::JsonValue::Str(failure));
  }
  const auto num = [](double v) { return vsj::net::JsonValue::Number(v); };
  vsj::net::JsonValue result = vsj::net::JsonValue::Object();
  result.Set("correct", vsj::net::JsonValue::Bool(load.failures().empty()))
      .Set("checks", checks)
      .Set("attempted", num(static_cast<double>(load.attempted)))
      .Set("failed", num(static_cast<double>(load.failed)))
      .Set("estimates_per_s", num(in_window / window))
      .Set("mutations_per_s", num(load.mutations_in_window / window))
      .Set("latency_p50_ms", num(p50))
      .Set("slice_p50s", slice_p50s)
      .Set("latency_p99_ms", num(p99))
      .Set("latency_samples", num(static_cast<double>(lat.size())))
      .Set("tail_blocks", num(static_cast<double>(blocks)))
      .Set("beyond_p99", num(static_cast<double>(beyond_p99)))
      .Set("rel_error", num(rel_error))
      .Set("error_rate", num(error_rate))
      .Set("cache_hit_rate", num(hit_rate))
      .Set("pairs_per_estimate",
           num(load.timed_estimates > 0
                   ? static_cast<double>(load.timed_pairs) / load.timed_estimates
                   : 0.0))
      .Set("unguaranteed_frac",
           num(load.timed_trials > 0 ? static_cast<double>(load.timed_unguaranteed) /
                                           load.timed_trials
                                     : 0.0))
      .Set("writer_ops", num(static_cast<double>(load.writer_ops_acked())))
      .Set("compared", num(static_cast<double>(compared)));
  std::printf("%s\n", result.Serialize().c_str());
  return 0;
}

}  // namespace servebench
