// End-to-end tests of the epoll serving layer against a real loopback
// socket. The two headline contracts:
//
//   * Bit-identity: an estimate answered over the wire is byte-for-byte
//     the payload an in-process engine produces for the same request —
//     across both tenant flavors, before and after mutations —
//     regardless of how the server packed concurrent connections into
//     EstimateBatchShared runs.
//   * Robustness: truncated frames, oversized length prefixes, garbage
//     JSON, unknown tenants and mid-request disconnects each produce a
//     typed error (or a silently dropped response) and never stop the
//     server from serving other connections.
//
// Plus the serving-policy behaviors: admission control (max_inflight →
// "overloaded"), per-request deadlines ("timeout"), the sleep debug-op
// gate, and graceful drain (admitted work finishes and flushes, new
// work is refused with "shutting_down"). And the batched wire path: a
// pipelined burst's replies are staged and written together, its
// requests handed to the workers together, without losing a reply or
// an admission decision.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/fault/fault.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/io/dataset_io.h"
#include "vsj/net/protocol.h"
#include "vsj/net/server.h"
#include "vsj/net/wire.h"
#include "vsj/obs/metrics.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/service/tenant_registry.h"

namespace vsj::net {
namespace {

constexpr size_t kCorpusSize = 120;
constexpr uint64_t kFamilySeed = 0x5eedULL;

/// Minimal blocking client against the loopback server.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Hang protection: a buggy server must fail the test, not wedge it.
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool SendRaw(std::string_view bytes) {
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Send(std::string_view json) {
    std::string frame;
    AppendFrame(&frame, json);
    return SendRaw(frame);
  }

  /// Next response payload; "" on EOF / error / timeout.
  std::string ReadPayload() {
    std::string_view payload;
    char buf[8192];
    for (;;) {
      if (decoder_.Next(&payload) == FrameDecoder::Status::kFrame) {
        return std::string(payload);
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return "";
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// Reads `count` responses and keys them by correlation id (worker
  /// scheduling may reorder responses across tenant queues).
  std::map<uint64_t, std::string> ReadById(size_t count) {
    std::map<uint64_t, std::string> by_id;
    for (size_t i = 0; i < count; ++i) {
      const std::string payload = ReadPayload();
      if (payload.empty()) break;
      JsonValue doc;
      std::string error;
      if (!ParseJson(payload, &doc, &error)) break;
      by_id[static_cast<uint64_t>(doc.Find("id")->AsNumber())] = payload;
    }
    return by_id;
  }

  /// True while no further response byte has arrived: nothing buffered
  /// past the last payload read, and nothing readable on the socket.
  bool NothingMoreYet() {
    if (decoder_.buffered_bytes() != 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) == 0;
  }

  /// Half-closes the connection: the server sees EOF, reads still work.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_{1u << 20};
};

/// Parses a payload and returns doc["error"] ("" for ok responses).
std::string ErrorCode(const std::string& payload) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(payload, &doc, &error)) return "unparseable: " + payload;
  const JsonValue* ok = doc.Find("ok");
  if (ok == nullptr) return "no-ok-field: " + payload;
  if (ok->AsBool()) return "";
  return doc.Find("error")->AsString();
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    root_ = ::testing::TempDir() + "/server_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(root_.c_str(), 0755);
    std::remove((root_ + "/churn.vsjs").c_str());
    std::remove((root_ + "/wiki.vsjb").c_str());

    StreamingEstimationService engine(
        GenerateCorpus(DblpLikeConfig(kCorpusSize, 3)), StreamingOptions());
    for (VectorId id = 0; id < kCorpusSize; ++id) engine.Insert(id);
    ASSERT_TRUE(engine.Checkpoint(root_ + "/churn.vsjs").ok());
    ASSERT_TRUE(SaveDatasetToFile(
                    GenerateCorpus(DblpLikeConfig(kCorpusSize, 4)),
                    root_ + "/wiki.vsjb")
                    .ok());
  }

  void TearDown() override {
    fault::ClearAll();
    if (server_ != nullptr) {
      server_->Stop();
      server_->WaitUntilStopped();
    }
  }

  static StreamingEstimationServiceOptions StreamingOptions() {
    StreamingEstimationServiceOptions options;
    options.k = 8;
    options.family_seed = kFamilySeed;
    return options;
  }

  static EstimationServiceOptions StaticOptions() {
    EstimationServiceOptions options;
    options.k = 8;
    options.family_seed = kFamilySeed;
    return options;
  }

  void StartServer(size_t workers = 2, size_t max_inflight = 1024,
                   bool debug_ops = true,
                   uint32_t max_frame_bytes = 1u << 20,
                   size_t engine_threads = 1) {
    TenantRegistryOptions registry_options;
    registry_options.root = root_;
    registry_options.static_options = StaticOptions();
    registry_options.static_options.num_threads = engine_threads;
    registry_ = std::make_unique<TenantRegistry>(registry_options);

    ServerOptions options;
    options.port = 0;
    options.num_workers = workers;
    options.max_inflight = max_inflight;
    options.enable_debug_ops = debug_ops;
    options.max_frame_bytes = max_frame_bytes;
    options.registry = registry_.get();
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  uint16_t port() const { return server_->port(); }

  static std::string EstimateJson(uint64_t id, const std::string& tenant,
                                  double tau, size_t trials = 3,
                                  uint64_t seed = 9,
                                  const std::string& estimator = "LSH-SS") {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"op\":\"estimate\",\"tenant\":\"%s\","
                  "\"estimator\":\"%s\",\"tau\":%.3f,\"trials\":%zu,"
                  "\"seed\":%llu}",
                  static_cast<unsigned long long>(id), tenant.c_str(),
                  estimator.c_str(), tau, trials,
                  static_cast<unsigned long long>(seed));
    return buf;
  }

  /// A 1-trial estimate made slow by its sampling overrides — m_L = δ =
  /// 2^21 stratum-L draws, well inside the default
  /// --max-pairs-per-request — on the 120-vector static tenant.
  static std::string SlowEstimateJson(uint64_t id) {
    std::string json = EstimateJson(id, "wiki", 0.7, /*trials=*/1);
    json.insert(json.size() - 1,
                ",\"sample_size_l\":2097152,\"delta\":2097152");
    return json;
  }

  static std::string PingJson(uint64_t id) {
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"ping\"}";
  }

  static std::string PongPayload(uint64_t id) {
    return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"pong\":true}";
  }

  static EstimateRequest Request(double tau, size_t trials = 3,
                                 uint64_t seed = 9) {
    EstimateRequest request;
    request.estimator_name = "LSH-SS";
    request.tau = tau;
    request.trials = trials;
    request.seed = seed;
    return request;
  }

  std::string root_;
  std::unique_ptr<TenantRegistry> registry_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingPong) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":3,\"op\":\"ping\"}"));
  EXPECT_EQ(client.ReadPayload(), "{\"id\":3,\"ok\":true,\"pong\":true}");
}

TEST_F(ServerTest, BitIdentityAcrossBothTenantFlavors) {
  StartServer();

  // The reference engines, built exactly as the registry builds them.
  std::unique_ptr<StreamingEstimationService> churn_engine;
  ASSERT_TRUE(StreamingEstimationService::Restore(root_ + "/churn.vsjs",
                                                  &churn_engine,
                                                  StreamingOptions())
                  .ok());
  EstimationService wiki_engine(GenerateCorpus(DblpLikeConfig(kCorpusSize, 4)),
                                StaticOptions());

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  uint64_t id = 1;
  for (const double tau : {0.6, 0.7, 0.8}) {
    for (const std::string tenant : {"churn", "wiki"}) {
      ASSERT_TRUE(client.Send(EstimateJson(id, tenant, tau)));
      const std::string wire_payload = client.ReadPayload();
      const EstimateResponse reference =
          tenant == "churn" ? churn_engine->Estimate(Request(tau))
                            : wiki_engine.Estimate(Request(tau));
      EXPECT_EQ(wire_payload, MakeEstimatePayload(id, reference))
          << tenant << " tau=" << tau;
      ++id;
    }
  }
}

TEST_F(ServerTest, BitIdentitySurvivesMutations) {
  StartServer();
  std::unique_ptr<StreamingEstimationService> reference;
  ASSERT_TRUE(StreamingEstimationService::Restore(root_ + "/churn.vsjs",
                                                  &reference,
                                                  StreamingOptions())
                  .ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));

  // Apply the same mutation stream to both sides.
  ASSERT_TRUE(client.Send(
      "{\"id\":1,\"op\":\"remove\",\"tenant\":\"churn\",\"vector_id\":5}"));
  reference->Remove(5);
  ASSERT_TRUE(client.Send(
      "{\"id\":2,\"op\":\"insert\",\"tenant\":\"churn\",\"vector_id\":5}"));
  reference->Insert(5);
  ASSERT_TRUE(
      client.Send("{\"id\":3,\"op\":\"add_vector\",\"tenant\":\"churn\","
                  "\"features\":[[7,1.5],[19,0.25]]}"));
  const VectorId added =
      reference->AddVector(SparseVector({{7, 1.5f}, {19, 0.25f}}));
  ASSERT_TRUE(client.Send("{\"id\":4,\"op\":\"insert\",\"tenant\":\"churn\","
                          "\"vector_id\":" +
                          std::to_string(added) + "}"));
  reference->Insert(added);

  // Mutation responses carry the post-op epoch / the new vector id.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(client.ReadPayload(), &doc, &error));
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  EXPECT_NE(doc.Find("epoch"), nullptr);
  ASSERT_TRUE(ParseJson(client.ReadPayload(), &doc, &error));  // insert 5
  ASSERT_TRUE(ParseJson(client.ReadPayload(), &doc, &error));  // add_vector
  ASSERT_EQ(doc.Find("vector_id")->AsNumber(),
            static_cast<double>(added));
  ASSERT_TRUE(ParseJson(client.ReadPayload(), &doc, &error));  // insert new

  // Post-mutation estimates still match the in-process engine exactly.
  ASSERT_TRUE(client.Send(EstimateJson(9, "churn", 0.7)));
  EXPECT_EQ(client.ReadPayload(),
            MakeEstimatePayload(9, reference->Estimate(Request(0.7))));

  // And the stats op sees the mutated state.
  ASSERT_TRUE(client.Send("{\"id\":10,\"op\":\"stats\",\"tenant\":\"churn\"}"));
  ASSERT_TRUE(ParseJson(client.ReadPayload(), &doc, &error));
  EXPECT_EQ(doc.Find("epoch")->AsNumber(),
            static_cast<double>(reference->epoch()));
  EXPECT_EQ(doc.Find("num_live")->AsNumber(),
            static_cast<double>(kCorpusSize + 1));
}

TEST_F(ServerTest, CrossConnectionPipelinesStayCorrelated) {
  StartServer();
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 16;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(port()));
  }
  // Fire everything before reading anything: concurrent connections land
  // in shared batches, but every response must echo its request id.
  for (size_t i = 0; i < kPerClient; ++i) {
    for (size_t c = 0; c < kClients; ++c) {
      const std::string tenant = (c % 2 == 0) ? "churn" : "wiki";
      ASSERT_TRUE(clients[c]->Send(
          EstimateJson(100 * c + i, tenant, 0.6 + 0.1 * (i % 3))));
    }
  }
  for (size_t c = 0; c < kClients; ++c) {
    const std::map<uint64_t, std::string> responses =
        clients[c]->ReadById(kPerClient);
    ASSERT_EQ(responses.size(), kPerClient) << "client " << c;
    for (const auto& [id, payload] : responses) {
      EXPECT_EQ(ErrorCode(payload), "") << payload;
      EXPECT_GE(id, 100 * c);
      EXPECT_LT(id, 100 * c + kPerClient);
    }
  }
}

TEST_F(ServerTest, PipelinedBurstAnswersEveryFrameOnce) {
  // One read burst carries thousands of frames: their replies are staged
  // and written together, and their requests reach the workers in
  // hand-offs of up to max_batch. Neither may drop, duplicate or alter a
  // response. Every estimate asks a fresh seed, so none is a cache hit
  // and each must equal a cold in-process answer byte for byte.
  StartServer(/*workers=*/2, /*max_inflight=*/8192);
  obs::MetricRegistry::Global().ResetValues();
  obs::EnableMetrics(true);
  struct MetricsOff {
    ~MetricsOff() { obs::EnableMetrics(false); }
  } metrics_off;

  std::unique_ptr<StreamingEstimationService> churn_engine;
  ASSERT_TRUE(StreamingEstimationService::Restore(root_ + "/churn.vsjs",
                                                  &churn_engine,
                                                  StreamingOptions())
                  .ok());
  EstimationService wiki_engine(GenerateCorpus(DblpLikeConfig(kCorpusSize, 4)),
                                StaticOptions());

  constexpr uint64_t kFrames = 4096;
  constexpr uint64_t kGarbageId = kFrames / 2;
  std::string burst;
  std::map<uint64_t, std::string> expected;  // id -> exact payload
  for (uint64_t id = 1; id <= kFrames; ++id) {
    if (id == kGarbageId) {
      AppendFrame(&burst, "{\"id\":");  // answered as id 0
      continue;
    }
    if (id % 8 == 1 || id % 8 == 5) {
      const bool churn = id % 8 == 1;
      AppendFrame(&burst, EstimateJson(id, churn ? "churn" : "wiki", 0.7,
                                       /*trials=*/2, /*seed=*/id));
      const EstimateRequest request = Request(0.7, 2, id);
      expected[id] = MakeEstimatePayload(
          id, churn ? churn_engine->Estimate(request)
                    : wiki_engine.Estimate(request));
      continue;
    }
    AppendFrame(&burst, PingJson(id));
    expected[id] = PongPayload(id);
  }

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(burst));
  std::map<uint64_t, size_t> seen;
  for (uint64_t i = 0; i < kFrames; ++i) {
    const std::string payload = client.ReadPayload();
    ASSERT_FALSE(payload.empty()) << "after " << i << " responses";
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJson(payload, &doc, &error)) << payload;
    const uint64_t id = static_cast<uint64_t>(doc.Find("id")->AsNumber());
    ++seen[id];
    if (id == 0) {
      EXPECT_EQ(ErrorCode(payload), "bad_json") << payload;
    } else {
      EXPECT_EQ(payload, expected[id]) << "id " << id;
    }
  }
  EXPECT_EQ(seen.size(), kFrames);
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1u) << "id " << id;

  // Coalesced: far fewer write(2) calls than responses.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const uint64_t responses = registry.GetCounter("server.responses").Value();
  EXPECT_EQ(responses, kFrames);
  EXPECT_LE(registry.GetCounter("server.writes").Value(), responses / 16);
  EXPECT_GT(registry.GetHistogram("server.handoff_size").Snapshot().count,
            0u);
}

TEST_F(ServerTest, MultiMegabyteBurstsStreamThroughTheDecoder) {
  // Two connections each send one write of over 4 MiB: pings and estimates
  // padded with JSON whitespace to sizes whose ends fall all over the
  // server's 64 KiB reads. Each read is decoded and handed off before the
  // next, so a decoder never holds more than one read plus one partial
  // frame. Every frame is still answered exactly once: the pongs in
  // request order, each tenant's estimates in request order, and every
  // estimate (a fresh seed each, so never a cache hit) byte-equal to its
  // cold in-process answer.
  constexpr uint32_t kMaxFrameBytes = 1u << 20;
  StartServer(/*workers=*/2, /*max_inflight=*/8192, /*debug_ops=*/true,
              kMaxFrameBytes);
  obs::MetricRegistry::Global().ResetValues();
  obs::EnableMetrics(true);
  struct MetricsOff {
    ~MetricsOff() { obs::EnableMetrics(false); }
  } metrics_off;

  std::unique_ptr<StreamingEstimationService> churn_engine;
  ASSERT_TRUE(StreamingEstimationService::Restore(root_ + "/churn.vsjs",
                                                  &churn_engine,
                                                  StreamingOptions())
                  .ok());
  EstimationService wiki_engine(GenerateCorpus(DblpLikeConfig(kCorpusSize, 4)),
                                StaticOptions());

  // What a request must be answered with, and the lane whose answers keep
  // request order on one connection: 0 pongs, 1 churn, 2 wiki.
  struct Expected {
    size_t position = 0;
    int lane = 0;
    std::string payload;
  };
  constexpr size_t kClients = 2;
  constexpr size_t kMinBurstBytes = 4u << 20;
  std::vector<std::string> bursts(kClients);
  std::vector<std::map<uint64_t, Expected>> expected(kClients);
  uint64_t id = 1;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t frame = 0; bursts[c].size() < kMinBurstBytes; ++frame, ++id) {
      Expected& want = expected[c][id];
      want.position = frame;
      std::string json;
      if (frame % 4 == 1) {
        const bool churn = frame % 8 == 1;
        json = EstimateJson(id, churn ? "churn" : "wiki", 0.7, /*trials=*/2,
                            /*seed=*/id);
        const EstimateRequest request = Request(0.7, 2, id);
        want.lane = churn ? 1 : 2;
        want.payload = MakeEstimatePayload(
            id, churn ? churn_engine->Estimate(request)
                      : wiki_engine.Estimate(request));
      } else {
        json = PingJson(id);
        want.payload = PongPayload(id);
      }
      // 0 to 4092 spaces, stepping by a prime: about 2 KiB per frame.
      json.insert(1, std::string(frame * 7919 % 4093, ' '));
      AppendFrame(&bursts[c], json);
    }
  }

  std::vector<std::unique_ptr<TestClient>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(port()));
  }
  bool sent[kClients] = {};
  std::vector<std::thread> senders;
  for (size_t c = 0; c < kClients; ++c) {
    senders.emplace_back(
        [&, c] { sent[c] = clients[c]->SendRaw(bursts[c]); });
  }
  for (std::thread& sender : senders) sender.join();

  size_t frames = 0;
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(sent[c]) << "client " << c;
    std::map<uint64_t, size_t> seen;
    long last_position[3] = {-1, -1, -1};
    for (size_t i = 0; i < expected[c].size(); ++i) {
      const std::string payload = clients[c]->ReadPayload();
      ASSERT_FALSE(payload.empty())
          << "client " << c << " after " << i << " responses";
      JsonValue doc;
      std::string error;
      ASSERT_TRUE(ParseJson(payload, &doc, &error)) << payload;
      const uint64_t got = static_cast<uint64_t>(doc.Find("id")->AsNumber());
      const auto want = expected[c].find(got);
      ASSERT_NE(want, expected[c].end()) << "client " << c << ": " << payload;
      ++seen[got];
      EXPECT_EQ(payload, want->second.payload) << "id " << got;
      long& last = last_position[want->second.lane];
      EXPECT_GT(static_cast<long>(want->second.position), last)
          << "id " << got << " overtook an earlier request of its lane";
      last = static_cast<long>(want->second.position);
    }
    EXPECT_EQ(seen.size(), expected[c].size()) << "client " << c;
    for (const auto& [got, count] : seen) EXPECT_EQ(count, 1u) << got;
    frames += expected[c].size();
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  EXPECT_EQ(registry.GetCounter("server.responses").Value(), frames);
  const obs::HistogramSnapshot buffered =
      registry.GetHistogram("server.input_buffered_bytes").Snapshot();
  EXPECT_GT(buffered.count, 0u);
  EXPECT_LE(buffered.max, 65536u + kMaxFrameBytes);
  EXPECT_GT(
      registry.GetHistogram("server.completion_backlog_bytes").Snapshot().count,
      0u);
}

TEST_F(ServerTest, FramesBeforeAnOversizedPrefixAreAnsweredFirst) {
  // One write: pings filling more than one 64 KiB read, an oversized
  // length prefix, then a ping the server must never answer. The pings
  // are answered in order, then bad_frame, then the server hangs up.
  StartServer(/*workers=*/1, /*max_inflight=*/1024, /*debug_ops=*/false,
              /*max_frame_bytes=*/4096);
  constexpr uint64_t kPings = 4000;
  std::string burst;
  for (uint64_t id = 1; id <= kPings; ++id) AppendFrame(&burst, PingJson(id));
  ASSERT_GT(burst.size(), 65536u);
  burst.append("\xff\xff\xff\xff", 4);
  AppendFrame(&burst, PingJson(kPings + 1));

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(burst));
  for (uint64_t id = 1; id <= kPings; ++id) {
    ASSERT_EQ(client.ReadPayload(), PongPayload(id));
  }
  const std::string payload = client.ReadPayload();
  EXPECT_EQ(ErrorCode(payload), "bad_frame") << payload;
  EXPECT_EQ(client.ReadPayload(), "");
}

TEST_F(ServerTest, OneBurstPastMaxInflightRefusesExactlyTheExcess) {
  // The sleep and the first three estimates fill max_inflight = 4 even
  // though they arrive in one burst and are handed off together: requests
  // admitted but not yet handed off count against the limit.
  StartServer(/*workers=*/1, /*max_inflight=*/4);
  std::string burst;
  AppendFrame(&burst, "{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":300}");
  for (uint64_t id = 2; id <= 8; ++id) {
    AppendFrame(&burst, EstimateJson(id, "churn", 0.7));
  }
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(burst));
  const std::map<uint64_t, std::string> responses = client.ReadById(8);
  ASSERT_EQ(responses.size(), 8u);
  for (uint64_t id = 1; id <= 8; ++id) {
    EXPECT_EQ(ErrorCode(responses.at(id)), id <= 4 ? "" : "overloaded")
        << "id " << id;
  }
}

TEST_F(ServerTest, HalfClosedPeerStillGetsInlineReplies) {
  // The server reads the pings and the EOF in one pass; the staged pongs
  // are flushed before the connection is reaped.
  StartServer();
  std::string burst;
  for (uint64_t id = 1; id <= 8; ++id) AppendFrame(&burst, PingJson(id));
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(burst));
  client.ShutdownWrite();
  for (uint64_t id = 1; id <= 8; ++id) {
    EXPECT_EQ(client.ReadPayload(), PongPayload(id));
  }
  EXPECT_EQ(client.ReadPayload(), "");
}

TEST_F(ServerTest, ShortWritesNeverTearACoalescedBurst) {
  StartServer();
  // Every write moves at most 3 bytes of a 256-response staging buffer;
  // EPOLLOUT resumption must deliver all of it intact and in order.
  fault::FaultSpec spec;
  spec.point = "net.write";
  spec.kind = fault::FaultKind::kShortWrite;
  spec.repeat = true;
  spec.arg = 3;
  fault::Arm(spec);

  std::string burst;
  for (uint64_t id = 1; id <= 256; ++id) AppendFrame(&burst, PingJson(id));
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(burst));
  for (uint64_t id = 1; id <= 256; ++id) {
    ASSERT_EQ(client.ReadPayload(), PongPayload(id));
  }
}

TEST_F(ServerTest, TruncatedFrameThenDisconnectLeavesServerServing) {
  StartServer();
  {
    TestClient half;
    ASSERT_TRUE(half.Connect(port()));
    std::string frame;
    AppendFrame(&frame, "{\"id\":1,\"op\":\"ping\"}");
    ASSERT_TRUE(half.SendRaw(frame.substr(0, frame.size() / 2)));
    // Disconnect mid-frame: no response owed, no server damage.
  }
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");
}

TEST_F(ServerTest, OversizedPrefixGetsBadFrameAndHangup) {
  StartServer(/*workers=*/1, /*max_inflight=*/1024, /*debug_ops=*/false,
              /*max_frame_bytes=*/4096);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendRaw(std::string("\xff\xff\xff\xff", 4)));
  const std::string payload = client.ReadPayload();
  EXPECT_EQ(ErrorCode(payload), "bad_frame") << payload;
  // The stream is unsynchronized: the server hangs up after responding.
  EXPECT_EQ(client.ReadPayload(), "");

  TestClient next;
  ASSERT_TRUE(next.Connect(port()));
  ASSERT_TRUE(next.Send("{\"id\":1,\"op\":\"ping\"}"));
  EXPECT_EQ(ErrorCode(next.ReadPayload()), "");
}

TEST_F(ServerTest, GarbageJsonIsTypedAndNonFatal) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":1,"));
  const std::string payload = client.ReadPayload();
  EXPECT_EQ(ErrorCode(payload), "bad_json") << payload;
  // The framing layer is still synchronized — same connection keeps
  // working.
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");
}

TEST_F(ServerTest, RequestErrorTaxonomy) {
  // A hostile snapshot under the root: its header claims a 2^40-byte name.
  vsj::testing::WriteBytes(
      root_ + "/bad.vsjs",
      vsj::testing::HostileNameHeader(kVsjsMagic, kVsjsVersion));
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));

  const auto ask = [&](const std::string& json) {
    EXPECT_TRUE(client.Send(json));
    return ErrorCode(client.ReadPayload());
  };

  EXPECT_EQ(ask("{\"id\":1,\"op\":\"frobnicate\"}"), "unknown_op");
  EXPECT_EQ(ask(EstimateJson(2, "ghost", 0.7)), "unknown_tenant");
  EXPECT_EQ(ask(EstimateJson(3, "../churn", 0.7)), "unknown_tenant");
  // Schema violations.
  EXPECT_EQ(ask("{\"id\":4,\"op\":\"estimate\",\"tenant\":\"churn\"}"),
            "bad_request");  // no tau
  EXPECT_EQ(ask("{\"id\":5,\"op\":\"estimate\",\"tenant\":\"churn\","
                "\"tau\":1e999,\"trials\":2}"),
            "bad_request");  // non-finite tau, the 1e999 regression
  EXPECT_EQ(ask("{\"id\":6,\"op\":\"estimate\",\"tenant\":\"churn\","
                "\"tau\":0.7,\"trials\":2.5}"),
            "bad_request");  // non-integral integer field
  // Estimator rules per tenant flavor.
  EXPECT_EQ(ask(EstimateJson(7, "churn", 0.7, 2, 9, "LSH-S")),
            "bad_request");
  EXPECT_EQ(ask(EstimateJson(8, "wiki", 0.7, 2, 9, "LSH-S")), "");
  // Mutations on the static mmap tenant.
  EXPECT_EQ(ask("{\"id\":9,\"op\":\"remove\",\"tenant\":\"wiki\","
                "\"vector_id\":0}"),
            "unsupported");
  // Streaming preconditions.
  EXPECT_EQ(ask("{\"id\":10,\"op\":\"insert\",\"tenant\":\"churn\","
                "\"vector_id\":0}"),
            "bad_request");  // already live
  // Malformed features must be rejected in parsing, not abort the server.
  EXPECT_EQ(ask("{\"id\":11,\"op\":\"add_vector\",\"tenant\":\"churn\","
                "\"features\":[[5,1.0],[5,2.0]]}"),
            "bad_request");  // non-increasing dims
  EXPECT_EQ(ask("{\"id\":12,\"op\":\"add_vector\",\"tenant\":\"churn\","
                "\"features\":[]}"),
            "bad_request");
  // The hostile tenant fails to open, named, and the server keeps serving.
  EXPECT_EQ(ask(EstimateJson(13, "bad", 0.7)), "tenant_unavailable");
  EXPECT_EQ(ask("{\"id\":14,\"op\":\"ping\"}"), "");
}

TEST_F(ServerTest, OversizedPredictedWorkIsRefusedAndTheTenantKeepsServing) {
  // One request asking for m_H = 10^12 draws over a 400-vector tenant: its
  // predicted work, trials × (m_H + m_L) with m_L resolved to n, is far
  // past the default --max-pairs-per-request, so it is refused before it
  // can reach the engine, and a 1-trial follow-up is answered at once.
  ASSERT_TRUE(SaveDatasetToFile(GenerateCorpus(DblpLikeConfig(400, 5)),
                                root_ + "/big.vsjb")
                  .ok());
  StartServer(/*workers=*/1);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::string abusive = EstimateJson(1, "big", 0.7, /*trials=*/3);
  abusive.insert(abusive.size() - 1,
                 ",\"sample_size_h\":1000000000000,\"timeout_ms\":500");
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Send(abusive));
  const std::string refusal = client.ReadPayload();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(600));
  EXPECT_EQ(ErrorCode(refusal), "bad_request") << refusal;
  EXPECT_NE(refusal.find("3 trials x (m_H 1000000000000 + m_L 400) = "
                         "3000000001200 pair draws"),
            std::string::npos)
      << refusal;
  EXPECT_NE(refusal.find("--max-pairs-per-request 67108864"),
            std::string::npos)
      << refusal;

  ASSERT_TRUE(client.Send(EstimateJson(2, "big", 0.7, /*trials=*/1)));
  const std::string answer = client.ReadPayload();
  EXPECT_EQ(ErrorCode(answer), "") << answer;
}

TEST_F(ServerTest, SleepIsGatedBehindDebugOps) {
  StartServer(/*workers=*/1, /*max_inflight=*/1024, /*debug_ops=*/false);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":1}"));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "bad_request");
}

TEST_F(ServerTest, MidRequestDisconnectDropsTheResponse) {
  StartServer(/*workers=*/1);
  {
    TestClient doomed;
    ASSERT_TRUE(doomed.Connect(port()));
    ASSERT_TRUE(
        doomed.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":100}"));
    // Close while the request is executing; its completion will find no
    // connection and must be dropped, not crash.
  }
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send(EstimateJson(2, "churn", 0.7)));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");
}

TEST_F(ServerTest, AdmissionControlRefusesBeyondMaxInflight) {
  StartServer(/*workers=*/1, /*max_inflight=*/2);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  // Two sleeps fill the in-flight budget (one executing, one queued)...
  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":300}"));
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"sleep\",\"sleep_ms\":300}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...so the third request is refused immediately.
  ASSERT_TRUE(client.Send(EstimateJson(3, "churn", 0.7)));
  const std::map<uint64_t, std::string> responses = client.ReadById(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(ErrorCode(responses.at(3)), "overloaded");
  EXPECT_EQ(ErrorCode(responses.at(1)), "");
  EXPECT_EQ(ErrorCode(responses.at(2)), "");
}

TEST_F(ServerTest, QueuedDeadlineExpiryYieldsTimeout) {
  StartServer(/*workers=*/1);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":300}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // 50ms deadline, but the only worker is held for ~300ms: the deadline
  // expires in queue and the request must never occupy the engine.
  ASSERT_TRUE(client.Send(EstimateJson(2, "churn", 0.7) ));
  std::string with_timeout = EstimateJson(3, "churn", 0.7);
  with_timeout.insert(with_timeout.size() - 1, ",\"timeout_ms\":50");
  ASSERT_TRUE(client.Send(with_timeout));
  const std::map<uint64_t, std::string> responses = client.ReadById(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(ErrorCode(responses.at(1)), "");
  EXPECT_EQ(ErrorCode(responses.at(2)), "");  // no deadline: runs late
  EXPECT_EQ(ErrorCode(responses.at(3)), "timeout");
}

TEST_F(ServerTest, AFinishedSweepGroupIsAnsweredBeforeItsBatchEnds) {
  // A slow estimate and then a default one, in one burst to one tenant, so
  // they share a run and a batch but form two sweep groups. On two engine
  // threads the default group's trials run beside the slow group's one
  // trial and finish first; its answer must go out then, not when the
  // slow group finishes and the batch ends.
  StartServer(/*workers=*/1, /*max_inflight=*/1024, /*debug_ops=*/true,
              /*max_frame_bytes=*/1u << 20, /*engine_threads=*/2);
  obs::MetricRegistry::Global().ResetValues();
  obs::EnableMetrics(true);
  struct MetricsOff {
    ~MetricsOff() { obs::EnableMetrics(false); }
  } metrics_off;

  EstimationService wiki_engine(GenerateCorpus(DblpLikeConfig(kCorpusSize, 4)),
                                StaticOptions());
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::string burst;
  AppendFrame(&burst, SlowEstimateJson(1));
  AppendFrame(&burst, EstimateJson(2, "wiki", 0.7));
  ASSERT_TRUE(client.SendRaw(burst));

  const std::string first = client.ReadPayload();
  EXPECT_EQ(first, MakeEstimatePayload(2, wiki_engine.Estimate(Request(0.7))));
  const std::string second = client.ReadPayload();
  EXPECT_EQ(ErrorCode(second), "") << second;
  EXPECT_EQ(second.rfind("{\"id\":1,", 0), 0u) << second;

  // One batch, answered in two publications; the first left early.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  EXPECT_EQ(registry.GetCounter("server.batches").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("server.publications").Value(), 2u);
  EXPECT_EQ(registry.GetCounter("server.early_responses").Value(), 1u);
}

TEST_F(ServerTest, AnswersARunHoldsGoOutBeforeItsEstimatesCompute) {
  // The only worker sleeps while a slow estimate and a 50 ms-deadline one
  // queue behind it on the static tenant; when it wakes, they are one run
  // and the second has expired. Its timeout is known before anything
  // computes, so it must arrive while the slow estimate still runs.
  StartServer(/*workers=*/1);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":300}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::string expiring = EstimateJson(3, "wiki", 0.7);
  expiring.insert(expiring.size() - 1, ",\"timeout_ms\":50");
  std::string burst;
  AppendFrame(&burst, SlowEstimateJson(2));
  AppendFrame(&burst, expiring);
  ASSERT_TRUE(client.SendRaw(burst));

  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");  // the sleep
  const std::string timeout = client.ReadPayload();
  EXPECT_EQ(ErrorCode(timeout), "timeout") << timeout;
  EXPECT_TRUE(client.NothingMoreYet());
  const std::string slow = client.ReadPayload();
  EXPECT_EQ(ErrorCode(slow), "") << slow;
  EXPECT_EQ(slow.rfind("{\"id\":2,", 0), 0u) << slow;
}

TEST_F(ServerTest, GracefulDrainFinishesAdmittedWork) {
  StartServer(/*workers=*/1);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"sleep\",\"sleep_ms\":200}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server_->BeginDrain();
  // New work after the drain began is refused...
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"ping\"}"));

  const std::map<uint64_t, std::string> responses = client.ReadById(2);
  ASSERT_EQ(responses.size(), 2u);
  // ...but the admitted sleep ran to completion and its response was
  // flushed before the server tore the connection down.
  EXPECT_EQ(ErrorCode(responses.at(1)), "");
  EXPECT_NE(responses.at(1).find("\"slept_ms\":200"), std::string::npos);
  EXPECT_EQ(ErrorCode(responses.at(2)), "shutting_down");

  EXPECT_EQ(client.ReadPayload(), "");  // server closed the connection
  server_->WaitUntilStopped();
  EXPECT_TRUE(server_->stopped());
  // The listening socket closed with the drain: connects are refused by
  // the kernel, not parked in a backlog nobody will ever accept.
  TestClient late;
  EXPECT_FALSE(late.Connect(port()));
}

TEST_F(ServerTest, ErrorPayloadsCarryTheRetryableFlag) {
  // The error taxonomy is explicit about what a client may replay:
  // request defects are terminal, capacity/lifecycle refusals are not.
  EXPECT_FALSE(RpcErrorRetryable(RpcError::kBadRequest));
  EXPECT_FALSE(RpcErrorRetryable(RpcError::kUnknownTenant));
  EXPECT_TRUE(RpcErrorRetryable(RpcError::kOverloaded));
  EXPECT_TRUE(RpcErrorRetryable(RpcError::kTimeout));
  EXPECT_TRUE(RpcErrorRetryable(RpcError::kShuttingDown));

  StartServer(/*workers=*/1);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));

  ASSERT_TRUE(client.Send("{\"id\":1,\"op\":\"frobnicate\"}"));
  std::string payload = client.ReadPayload();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(payload, &doc, &error));
  ASSERT_NE(doc.Find("retryable"), nullptr) << payload;
  EXPECT_FALSE(doc.Find("retryable")->AsBool());

  // Drain refusals are the canonical retry-me error.
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"sleep\",\"sleep_ms\":100}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server_->BeginDrain();
  ASSERT_TRUE(client.Send("{\"id\":3,\"op\":\"ping\"}"));
  const std::map<uint64_t, std::string> responses = client.ReadById(2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCode(responses.at(3)), "shutting_down");
  ASSERT_TRUE(ParseJson(responses.at(3), &doc, &error));
  ASSERT_NE(doc.Find("retryable"), nullptr);
  EXPECT_TRUE(doc.Find("retryable")->AsBool());
}

TEST_F(ServerTest, InjectedConnectionResetHangsUpOnlyThatConnection) {
  StartServer();
  fault::FaultSpec spec;
  spec.point = "net.frame";
  spec.kind = fault::FaultKind::kReset;
  fault::Arm(spec);

  TestClient doomed;
  ASSERT_TRUE(doomed.Connect(port()));
  ASSERT_TRUE(doomed.Send("{\"id\":1,\"op\":\"ping\"}"));
  // The injected reset drops the frame and hangs up without a response.
  EXPECT_EQ(doomed.ReadPayload(), "");

  // One-shot fault: the server keeps serving fresh connections.
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");
  EXPECT_EQ(fault::FiredCount("net.frame"), 1u);
}

TEST_F(ServerTest, ShortWritesNeverTearFrames) {
  StartServer();
  // Every flush moves at most 3 bytes; responses must still arrive
  // byte-perfect via EPOLLOUT resumption.
  fault::FaultSpec spec;
  spec.point = "net.write";
  spec.kind = fault::FaultKind::kShortWrite;
  spec.repeat = true;
  spec.arg = 3;
  fault::Arm(spec);

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.Send(EstimateJson(id, "churn", 0.7)));
  }
  const std::map<uint64_t, std::string> responses = client.ReadById(5);
  ASSERT_EQ(responses.size(), 5u);
  for (const auto& [id, payload] : responses) {
    EXPECT_EQ(ErrorCode(payload), "") << payload;
  }
  EXPECT_GE(fault::FiredCount("net.write"), 5u);
}

TEST_F(ServerTest, InjectedAcceptFailureRefusesOneConnectionThenRecovers) {
  StartServer();
  fault::FaultSpec spec;
  spec.point = "net.accept";
  fault::Arm(spec);

  // The kernel completes the handshake; the server closes the accepted
  // fd immediately, so the first connection sees EOF without a response.
  TestClient refused;
  ASSERT_TRUE(refused.Connect(port()));
  refused.Send("{\"id\":1,\"op\":\"ping\"}");
  EXPECT_EQ(refused.ReadPayload(), "");

  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.Send("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_EQ(ErrorCode(client.ReadPayload()), "");
}

}  // namespace
}  // namespace vsj::net
