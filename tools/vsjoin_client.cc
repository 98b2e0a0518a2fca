// vsjoin_client: request client and load generator for vsjoin_server.
//
// Request mode (default) — send JSON request lines, print responses:
//
//   vsjoin_client --port 7077 --ops requests.jsonl
//   echo '{"op":"estimate","tenant":"wiki","tau":0.8}' |
//       vsjoin_client --port 7077
//
// Each input line is framed and sent on one connection, strictly in
// order, one at a time; each response payload prints as one stdout line.
// The CI loopback smoke test drives this mode and diffs the output
// against in-process vsjoin_estimate goldens (the responses are
// bit-identical by the shared-stream batching contract).
//
// Load mode (--load) — sustained traffic with latency accounting:
//
//   vsjoin_client --port 7077 --load --connections 64 --duration-s 10
//       --tenants churn:3,archive:1 --taus 0.7,0.8,0.9 --trials 1
//       [--rate 20000] [--pipeline 4] [--json out.json]
//
// Opens --connections sockets driven by one nonblocking poll loop. With
// --rate R, arrivals are open-loop Poisson at R requests/s aggregate
// (arrival times don't depend on responses, so queueing delay is
// measured honestly, not gated by it); connections are picked round-
// robin. With --rate 0 the loop runs closed-loop: every connection keeps
// --pipeline requests outstanding, which measures peak throughput.
// Tenants are drawn from the weighted --tenants mix and τ round-robins
// through --taus, so server-side caching and cross-connection batching
// see a realistic mostly-repeating workload. The summary (stdout table,
// one JSON object with --json) reports throughput, error counts by code,
// and the client-observed latency distribution (p50/p90/p99/max).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vsj/net/json.h"
#include "vsj/net/wire.h"
#include "vsj/obs/metrics.h"
#include "vsj/util/flags.h"
#include "vsj/util/rng.h"

namespace {

struct TenantWeight {
  std::string name;
  double weight = 1.0;
};

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string ops_path;  // request mode input; empty = stdin

  bool load = false;
  size_t connections = 8;
  double duration_s = 5.0;
  double rate = 0.0;  // open-loop aggregate RPS; 0 = closed loop
  size_t pipeline = 4;
  std::vector<TenantWeight> tenants;
  std::vector<double> taus = {0.8};
  size_t trials = 1;
  std::string estimator = "LSH-SS";
  uint64_t req_seed = 1;
  uint64_t mix_seed = 42;
  uint64_t timeout_ms = 0;
  std::string json_path;

  /// Request mode: extra attempts per request after a transport failure
  /// (connection reset/refused) or a response the server flagged
  /// "retryable":true. 0 = fail fast (the pre-retry behavior).
  uint64_t retries = 0;
  /// Base of the jittered exponential backoff between attempts.
  uint64_t backoff_ms = 100;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Float flag values must be finite and inside the flag's range, so NaN,
// ±inf and overflowing literals ("1e999") never reach the load loop's
// arithmetic.

/// Prints one diagnostic naming `flag`, its `rule` and the offending
/// `token`; returns false.
bool RejectValue(const std::string& flag, const char* rule,
                 const std::string& token) {
  std::cerr << "bad " << flag << " value (" << rule << "): " << token << "\n";
  return false;
}

/// `token` as a finite double: the whole token, neither NaN nor ±inf.
bool ParseFinite(const std::string& token, double* out) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// The longest --duration-s: its deadline in ns stays far inside uint64_t.
constexpr double kMaxDurationS = 1e7;

bool ParseTenants(const std::string& spec, std::vector<TenantWeight>* out) {
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) return RejectValue("--tenants", "empty entry", spec);
    TenantWeight tw;
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      tw.name = item;
    } else {
      tw.name = item.substr(0, colon);
      if (!ParseFinite(item.substr(colon + 1), &tw.weight) ||
          !(tw.weight > 0.0)) {
        return RejectValue("--tenants", "weight must be a finite number > 0",
                           item);
      }
    }
    out->push_back(std::move(tw));
  }
  return !out->empty() || RejectValue("--tenants", "empty list", spec);
}

bool ParseTaus(const std::string& spec, std::vector<double>* out) {
  out->clear();
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    double tau = 0.0;
    if (!ParseFinite(item, &tau) || !(tau > 0.0 && tau <= 1.0)) {
      return RejectValue("--taus", "tau must be a finite number in (0, 1]",
                         item);
    }
    out->push_back(tau);
  }
  return !out->empty() || RejectValue("--taus", "empty list", spec);
}

void Usage() {
  std::cerr
      << "usage: vsjoin_client --port N [--host H] [--ops FILE]\n"
         "                     [--retries N] [--backoff-ms N]\n"
         "       vsjoin_client --port N --load [--connections N]\n"
         "                     [--duration-s S] [--rate RPS] [--pipeline N]\n"
         "                     [--tenants a:3,b:1] [--taus 0.7,0.8]\n"
         "                     [--trials N] [--estimator NAME] [--seed N]\n"
         "                     [--timeout-ms N] [--json PATH]\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // An unsigned value in [min, max]; a rejection names flag and token.
    const auto next_u64 = [&](uint64_t* out, uint64_t min,
                              uint64_t max = UINT64_MAX) {
      return vsj::ParseFlagU64(flag.c_str(), next(), out, min, max);
    };
    uint64_t u = 0;
    if (flag == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      args->host = v;
    } else if (flag == "--port") {
      if (!next_u64(&u, 1, 65535)) return false;
      args->port = static_cast<uint16_t>(u);
    } else if (flag == "--ops") {
      const char* v = next();
      if (v == nullptr) return false;
      args->ops_path = v;
    } else if (flag == "--load") {
      args->load = true;
    } else if (flag == "--connections") {
      if (!next_u64(&u, 1, 4096)) return false;
      args->connections = u;
    } else if (flag == "--duration-s") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseFinite(v, &args->duration_s) ||
          !(args->duration_s > 0.0 && args->duration_s <= kMaxDurationS)) {
        return RejectValue(flag, "must be a finite number in (0, 1e7]", v);
      }
    } else if (flag == "--rate") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseFinite(v, &args->rate) || args->rate < 0.0) {
        return RejectValue(flag, "must be a finite number >= 0", v);
      }
    } else if (flag == "--pipeline") {
      if (!next_u64(&u, 1)) return false;
      args->pipeline = u;
    } else if (flag == "--tenants") {
      const char* v = next();
      if (v == nullptr || !ParseTenants(v, &args->tenants)) return false;
    } else if (flag == "--taus") {
      const char* v = next();
      if (v == nullptr || !ParseTaus(v, &args->taus)) return false;
    } else if (flag == "--trials") {
      if (!next_u64(&u, 1)) return false;
      args->trials = u;
    } else if (flag == "--estimator") {
      const char* v = next();
      if (v == nullptr) return false;
      args->estimator = v;
    } else if (flag == "--seed") {
      if (!next_u64(&args->req_seed, 0)) return false;
    } else if (flag == "--mix-seed") {
      if (!next_u64(&args->mix_seed, 0)) return false;
    } else if (flag == "--timeout-ms") {
      if (!next_u64(&args->timeout_ms, 0)) return false;
    } else if (flag == "--retries") {
      if (!next_u64(&args->retries, 0)) return false;
    } else if (flag == "--backoff-ms") {
      if (!next_u64(&args->backoff_ms, 0, 60'000)) return false;
    } else if (flag == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->json_path = v;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return args->port != 0;
}

int Connect(const std::string& host, uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) {
    // Switch after the blocking connect so startup stays simple.
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  return fd;
}

// ----------------------------------------------------------- request mode

/// Jittered exponential backoff before retry `attempt` (1-based):
/// backoff_ms · 2^(attempt-1), capped at 2^10, scaled by a uniform draw
/// in [0.5, 1.5) so synchronized clients desynchronize.
void BackoffSleep(const Args& args, uint64_t attempt, vsj::Rng* rng) {
  const uint64_t shift = std::min<uint64_t>(attempt - 1, 10);
  const double base =
      static_cast<double>(args.backoff_ms) * static_cast<double>(1ull << shift);
  const double jittered = base * (0.5 + rng->NextDouble());
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(jittered * 1e3)));
}

int RunRequestMode(const Args& args) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.ops_path.empty()) {
    file.open(args.ops_path);
    if (!file) {
      std::cerr << "vsjoin_client: cannot open " << args.ops_path << "\n";
      return 1;
    }
    in = &file;
  }

  vsj::Rng backoff_rng(args.mix_seed);
  int fd = -1;
  vsj::net::FrameDecoder decoder;
  uint64_t retransmits = 0;

  // (Re)establishes the connection, itself retried with backoff: a
  // server restarting after a crash briefly refuses connections.
  const auto connect_with_retry = [&]() -> bool {
    for (uint64_t attempt = 0;; ++attempt) {
      fd = Connect(args.host, args.port, /*nonblocking=*/false);
      if (fd >= 0) {
        decoder = vsj::net::FrameDecoder();  // no carry-over bytes
        return true;
      }
      if (attempt >= args.retries) return false;
      BackoffSleep(args, attempt + 1, &backoff_rng);
    }
  };

  if (!connect_with_retry()) {
    std::cerr << "vsjoin_client: cannot connect to " << args.host << ":"
              << args.port << "\n";
    return 1;
  }

  std::string line;
  int failures = 0;
  while (std::getline(*in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string frame;
    vsj::net::AppendFrame(&frame, line);

    // One attempt = send the frame, read exactly one response. A
    // transport failure anywhere in the attempt tears the connection
    // down and (with retries left) reconnects and resends — estimates
    // are deterministic and read-only, so a replayed request returns the
    // identical response and exactly one line prints either way.
    bool delivered = false;
    std::string response;
    for (uint64_t attempt = 0; attempt <= args.retries; ++attempt) {
      if (attempt > 0) {
        ++retransmits;
        BackoffSleep(args, attempt, &backoff_rng);
      }
      if (fd < 0 && !connect_with_retry()) break;

      bool transport_ok = true;
      size_t sent = 0;
      while (sent < frame.size()) {
        const ssize_t n =
            ::write(fd, frame.data() + sent, frame.size() - sent);
        if (n <= 0) {
          transport_ok = false;
          break;
        }
        sent += static_cast<size_t>(n);
      }
      std::string_view payload;
      if (transport_ok) {
        while (decoder.Next(&payload) !=
               vsj::net::FrameDecoder::Status::kFrame) {
          char buffer[65536];
          const ssize_t n = ::read(fd, buffer, sizeof(buffer));
          if (n <= 0) {
            transport_ok = false;
            break;
          }
          decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
        }
      }
      if (!transport_ok) {
        ::close(fd);
        fd = -1;
        if (attempt == args.retries) {
          std::cerr << "vsjoin_client: connection lost\n";
        }
        continue;
      }

      // A server-side error flagged retryable (overloaded, timeout,
      // shutting_down) is retried on the same connection; anything else
      // is the final answer.
      if (attempt < args.retries &&
          payload.find("\"ok\":false") != std::string_view::npos &&
          payload.find("\"retryable\":true") != std::string_view::npos) {
        continue;
      }
      response = std::string(payload);
      delivered = true;
      break;
    }

    if (!delivered) {
      if (fd >= 0) ::close(fd);
      if (retransmits > 0) {
        std::cerr << "vsjoin_client: " << retransmits
                  << " retransmission(s) before giving up\n";
      }
      return 1;
    }
    std::cout << response << "\n";
    if (response.find("\"ok\":false") != std::string::npos) ++failures;
  }
  if (fd >= 0) ::close(fd);
  if (retransmits > 0) {
    std::cerr << "vsjoin_client: recovered via " << retransmits
              << " retransmission(s)\n";
  }
  return failures == 0 ? 0 : 3;
}

// -------------------------------------------------------------- load mode

struct LoadConn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  vsj::net::FrameDecoder decoder;
  size_t outstanding = 0;
};

struct LoadStats {
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t ok = 0;
  std::map<std::string, uint64_t> errors;          // error code → count
  std::map<std::string, uint64_t> tenant_requests;  // tenant → sent
};

int RunLoadMode(const Args& args) {
  std::vector<TenantWeight> tenants = args.tenants;
  if (tenants.empty()) {
    std::cerr << "vsjoin_client: --load needs --tenants\n";
    return 2;
  }
  double total_weight = 0.0;
  for (const TenantWeight& tw : tenants) total_weight += tw.weight;

  std::vector<LoadConn> conns(args.connections);
  for (LoadConn& conn : conns) {
    conn.fd = Connect(args.host, args.port, /*nonblocking=*/true);
    if (conn.fd < 0) {
      std::cerr << "vsjoin_client: cannot connect to " << args.host << ":"
                << args.port << "\n";
      return 1;
    }
  }

  // Pre-encode the invariant part of every (tenant, tau) request so the
  // send path is a couple of appends, not a serializer run.
  struct Variant {
    std::string prefix;  // {"id":
    std::string suffix;  // ,"op":"estimate",...}
  };
  std::vector<std::vector<Variant>> variants(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (const double tau : args.taus) {
      Variant variant;
      variant.prefix = "{\"id\":";
      std::string& s = variant.suffix;
      s += ",\"op\":\"estimate\",\"tenant\":";
      vsj::net::JsonValue::AppendQuoted(&s, tenants[t].name);
      s += ",\"estimator\":";
      vsj::net::JsonValue::AppendQuoted(&s, args.estimator);
      s += ",\"tau\":";
      vsj::net::JsonValue::AppendNumber(&s, tau);
      s += ",\"trials\":" + std::to_string(args.trials);
      s += ",\"seed\":" + std::to_string(args.req_seed);
      if (args.timeout_ms > 0) {
        s += ",\"timeout_ms\":" + std::to_string(args.timeout_ms);
      }
      s += "}";
      variants[t].push_back(std::move(variant));
    }
  }

  vsj::Rng rng(args.mix_seed);
  auto histogram = std::make_unique<vsj::obs::Histogram>();
  std::unordered_map<uint64_t, uint64_t> send_time_ns;
  send_time_ns.reserve(1 << 16);
  LoadStats stats;
  uint64_t next_id = 1;
  size_t round_robin = 0;
  size_t tau_cursor = 0;

  const uint64_t start_ns = NowNs();
  const uint64_t end_ns =
      start_ns + static_cast<uint64_t>(args.duration_s * 1e9);
  double next_arrival_ns = static_cast<double>(start_ns);

  const auto pick_tenant = [&]() -> size_t {
    double draw = rng.NextDouble() * total_weight;
    for (size_t t = 0; t < tenants.size(); ++t) {
      draw -= tenants[t].weight;
      if (draw <= 0.0) return t;
    }
    return tenants.size() - 1;
  };

  const auto enqueue_request = [&](LoadConn& conn) {
    const size_t t = pick_tenant();
    const Variant& variant =
        variants[t][tau_cursor++ % variants[t].size()];
    const uint64_t id = next_id++;
    std::string payload = variant.prefix;
    payload += std::to_string(id);
    payload += variant.suffix;
    vsj::net::AppendFrame(&conn.out, payload);
    send_time_ns.emplace(id, NowNs());
    ++conn.outstanding;
    ++stats.sent;
    ++stats.tenant_requests[tenants[t].name];
  };

  const auto flush_conn = [&](LoadConn& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_offset,
                                conn.out.size() - conn.out_offset);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.out.clear();
    conn.out_offset = 0;
    return true;
  };

  const auto read_conn = [&](LoadConn& conn) {
    char buffer[65536];
    while (true) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn.decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    std::string_view payload;
    while (conn.decoder.Next(&payload) ==
           vsj::net::FrameDecoder::Status::kFrame) {
      ++stats.received;
      if (conn.outstanding > 0) --conn.outstanding;
      vsj::net::JsonValue doc;
      std::string error;
      if (!ParseJson(payload, &doc, &error)) {
        ++stats.errors["unparseable"];
        continue;
      }
      const vsj::net::JsonValue* id = doc.Find("id");
      if (id != nullptr && id->is_number()) {
        auto it = send_time_ns.find(static_cast<uint64_t>(id->AsNumber()));
        if (it != send_time_ns.end()) {
          histogram->Record(NowNs() - it->second);
          send_time_ns.erase(it);
        }
      }
      const vsj::net::JsonValue* ok = doc.Find("ok");
      if (ok != nullptr && ok->is_bool() && ok->AsBool()) {
        ++stats.ok;
      } else {
        const vsj::net::JsonValue* code = doc.Find("error");
        ++stats.errors[code != nullptr && code->is_string()
                           ? code->AsString()
                           : "unknown"];
      }
    }
    return true;
  };

  bool sending = true;
  std::vector<struct pollfd> pollfds(conns.size());
  while (true) {
    const uint64_t now = NowNs();
    if (now >= end_ns) sending = false;

    if (sending) {
      if (args.rate > 0.0) {
        // Open loop: Poisson arrivals, round-robin over connections —
        // arrival times never wait for responses.
        while (static_cast<double>(now) >= next_arrival_ns) {
          enqueue_request(conns[round_robin++ % conns.size()]);
          const double u = rng.NextDouble();
          next_arrival_ns +=
              -std::log(1.0 - u) * (1e9 / args.rate);
        }
      } else {
        // Closed loop: keep every connection's pipeline full.
        for (LoadConn& conn : conns) {
          while (conn.outstanding < args.pipeline) enqueue_request(conn);
        }
      }
    }

    size_t total_outstanding = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      pollfds[i].fd = conns[i].fd;
      pollfds[i].events = POLLIN;
      if (conns[i].out_offset < conns[i].out.size()) {
        pollfds[i].events |= POLLOUT;
      }
      total_outstanding += conns[i].outstanding;
    }
    if (!sending && total_outstanding == 0) break;

    int timeout_ms = 100;
    if (sending && args.rate > 0.0) {
      const double wait_ns =
          next_arrival_ns - static_cast<double>(NowNs());
      timeout_ms = wait_ns <= 0
                       ? 0
                       : std::min(100, static_cast<int>(wait_ns / 1e6) + 1);
    }
    ::poll(pollfds.data(), pollfds.size(), timeout_ms);
    bool connection_lost = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      if (pollfds[i].revents & POLLOUT) {
        if (!flush_conn(conns[i])) connection_lost = true;
      }
      if (pollfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!read_conn(conns[i])) connection_lost = true;
      }
      // Newly enqueued bytes may never have hit the socket yet.
      if (conns[i].out_offset < conns[i].out.size()) {
        if (!flush_conn(conns[i])) connection_lost = true;
      }
    }
    if (connection_lost) {
      std::cerr << "vsjoin_client: a connection was lost; aborting run\n";
      break;
    }
    if (!sending && NowNs() > end_ns + 5'000'000'000ull) {
      std::cerr << "vsjoin_client: timed out waiting for "
                << total_outstanding << " responses\n";
      break;
    }
  }
  const uint64_t stop_ns = NowNs();
  for (LoadConn& conn : conns) ::close(conn.fd);

  const double elapsed_s =
      static_cast<double>(stop_ns - start_ns) / 1e9;
  const double qps =
      elapsed_s > 0 ? static_cast<double>(stats.received) / elapsed_s : 0;
  const vsj::obs::HistogramSnapshot latency = histogram->Snapshot();

  std::printf("connections      %zu\n", args.connections);
  std::printf("sent             %llu\n",
              static_cast<unsigned long long>(stats.sent));
  std::printf("received         %llu\n",
              static_cast<unsigned long long>(stats.received));
  std::printf("ok               %llu\n",
              static_cast<unsigned long long>(stats.ok));
  std::printf("elapsed_s        %.3f\n", elapsed_s);
  std::printf("throughput_rps   %.1f\n", qps);
  std::printf("latency_p50_us   %.1f\n",
              static_cast<double>(latency.ValueAtPercentile(50)) / 1e3);
  std::printf("latency_p90_us   %.1f\n",
              static_cast<double>(latency.ValueAtPercentile(90)) / 1e3);
  std::printf("latency_p99_us   %.1f\n",
              static_cast<double>(latency.ValueAtPercentile(99)) / 1e3);
  std::printf("latency_max_us   %.1f\n",
              static_cast<double>(latency.max) / 1e3);
  for (const auto& [tenant, count] : stats.tenant_requests) {
    std::printf("tenant.%s        %llu\n", tenant.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const auto& [code, count] : stats.errors) {
    std::printf("error.%s         %llu\n", code.c_str(),
                static_cast<unsigned long long>(count));
  }

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path, std::ios::trunc);
    vsj::net::JsonValue doc = vsj::net::JsonValue::Object();
    doc.Set("connections",
            vsj::net::JsonValue::Number(
                static_cast<double>(args.connections)));
    doc.Set("sent", vsj::net::JsonValue::Number(
                        static_cast<double>(stats.sent)));
    doc.Set("received", vsj::net::JsonValue::Number(
                            static_cast<double>(stats.received)));
    doc.Set("ok",
            vsj::net::JsonValue::Number(static_cast<double>(stats.ok)));
    doc.Set("elapsed_s", vsj::net::JsonValue::Number(elapsed_s));
    doc.Set("throughput_rps", vsj::net::JsonValue::Number(qps));
    doc.Set("latency_p50_us",
            vsj::net::JsonValue::Number(
                static_cast<double>(latency.ValueAtPercentile(50)) / 1e3));
    doc.Set("latency_p90_us",
            vsj::net::JsonValue::Number(
                static_cast<double>(latency.ValueAtPercentile(90)) / 1e3));
    doc.Set("latency_p99_us",
            vsj::net::JsonValue::Number(
                static_cast<double>(latency.ValueAtPercentile(99)) / 1e3));
    vsj::net::JsonValue errors = vsj::net::JsonValue::Object();
    for (const auto& [code, count] : stats.errors) {
      errors.Set(code, vsj::net::JsonValue::Number(
                           static_cast<double>(count)));
    }
    doc.Set("errors", std::move(errors));
    vsj::net::JsonValue per_tenant = vsj::net::JsonValue::Object();
    for (const auto& [tenant, count] : stats.tenant_requests) {
      per_tenant.Set(tenant, vsj::net::JsonValue::Number(
                                 static_cast<double>(count)));
    }
    doc.Set("tenant_requests", std::move(per_tenant));
    out << doc.Serialize() << "\n";
    if (!out) {
      std::cerr << "vsjoin_client: cannot write " << args.json_path << "\n";
      return 1;
    }
  }
  // Any transport-level shortfall is an error exit; protocol errors are
  // reported in the table/JSON but don't fail the run (load tests push
  // the server into overload on purpose).
  return stats.received == stats.sent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  return args.load ? RunLoadMode(args) : RunRequestMode(args);
}
