#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "http/client.h"
#include "http/server.h"

namespace ceems::http {
namespace {

// ---------- message helpers ----------

TEST(Message, QueryParams) {
  Request request;
  request.target = "/api/v1/query?query=up%7Bx%3D%22y%22%7D&time=1.5&time=2";
  EXPECT_EQ(request.path(), "/api/v1/query");
  auto params = request.query_params();
  EXPECT_EQ(params["query"], "up{x=\"y\"}");
  EXPECT_EQ(params["time"], "1.5");  // first wins
  auto all = request.query_param_all("time");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1], "2");
}

TEST(Message, HeadersCaseInsensitive) {
  Request request;
  request.headers["Content-Type"] = "text/plain";
  EXPECT_TRUE(request.header("content-type").has_value());
  EXPECT_TRUE(request.header("CONTENT-TYPE").has_value());
}

TEST(Message, UrlEncodeDecode) {
  std::string original = "a b+c/d?e=f&g\"h";
  EXPECT_EQ(url_decode(url_encode(original)), original);
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("%41%zz"), "A%zz");  // bad escape passes through
}

TEST(Message, Base64RoundTrip) {
  for (const std::string& text :
       {std::string(""), std::string("a"), std::string("ab"),
        std::string("abc"), std::string("user:pass"),
        std::string("\x00\xff\x7f", 3)}) {
    EXPECT_EQ(*base64_decode(base64_encode(text)), text);
  }
  EXPECT_FALSE(base64_decode("!!!").has_value());
}

TEST(Message, BasicAuthRoundTrip) {
  std::string header = basic_auth_header("prometheus", "s3cret");
  auto creds = decode_basic_auth(header);
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->first, "prometheus");
  EXPECT_EQ(creds->second, "s3cret");
  EXPECT_FALSE(decode_basic_auth("Bearer xyz").has_value());
}

// ---------- server + client over real sockets ----------

class HttpRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(ServerConfig{});
    server_->handle("/hello", [](const Request& request) {
      Response response = Response::text(200, "hi " + request.method);
      return response;
    });
    server_->handle("/echo", [](const Request& request) {
      return Response::text(200, request.body);
    });
    server_->handle_prefix("/api/", [](const Request& request) {
      return Response::json(200, "{\"path\":\"" + request.path() + "\"}");
    });
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<Server> server_;
};

TEST_F(HttpRoundTrip, GetExactRoute) {
  Client client;
  auto result = client.get(server_->base_url() + "/hello");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.body, "hi GET");
}

TEST_F(HttpRoundTrip, PostBodyEchoed) {
  Client client;
  std::string body(100000, 'x');  // larger than one recv chunk
  auto result = client.post(server_->base_url() + "/echo", body);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.body, body);
}

TEST_F(HttpRoundTrip, PrefixRoute) {
  Client client;
  auto result = client.get(server_->base_url() + "/api/v1/anything");
  ASSERT_TRUE(result.ok);
  EXPECT_NE(result.response.body.find("/api/v1/anything"), std::string::npos);
}

TEST_F(HttpRoundTrip, UnknownRouteIs404) {
  Client client;
  auto result = client.get(server_->base_url() + "/nope");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 404);
}

TEST_F(HttpRoundTrip, KeepAliveReusesConnection) {
  Client client;
  for (int i = 0; i < 20; ++i) {
    auto result = client.get(server_->base_url() + "/hello");
    ASSERT_TRUE(result.ok) << result.error;
  }
  EXPECT_EQ(server_->requests_served(), 20u);
}

TEST_F(HttpRoundTrip, ConcurrentClients) {
  constexpr int kThreads = 8, kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Client client;
      for (int i = 0; i < kRequests; ++i) {
        auto result = client.get(server_->base_url() + "/hello");
        if (result.ok && result.response.status == 200) ++ok_count;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequests);
}

TEST_F(HttpRoundTrip, HandlerExceptionBecomes500) {
  server_->handle("/boom", [](const Request&) -> Response {
    throw std::runtime_error("kaboom");
  });
  Client client;
  auto result = client.get(server_->base_url() + "/boom");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 500);
  EXPECT_NE(result.response.body.find("kaboom"), std::string::npos);
}

TEST(HttpAuth, BasicAuthEnforced) {
  ServerConfig config;
  config.basic_auth = {"ceems", "secret"};
  Server server(config);
  server.handle("/metrics",
                [](const Request&) { return Response::text(200, "data"); });
  server.start();

  Client anonymous;
  auto denied = anonymous.get(server.base_url() + "/metrics");
  ASSERT_TRUE(denied.ok);
  EXPECT_EQ(denied.response.status, 401);
  EXPECT_TRUE(denied.response.headers.count("WWW-Authenticate"));

  ClientConfig wrong_config;
  wrong_config.basic_auth = {"ceems", "wrong"};
  Client wrong(wrong_config);
  auto bad = wrong.get(server.base_url() + "/metrics");
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.response.status, 401);

  ClientConfig auth_config;
  auth_config.basic_auth = {"ceems", "secret"};
  Client authorized(auth_config);
  auto granted = authorized.get(server.base_url() + "/metrics");
  ASSERT_TRUE(granted.ok);
  EXPECT_EQ(granted.response.status, 200);
  EXPECT_EQ(granted.response.body, "data");
  server.stop();
}

TEST(HttpFilter, ConnectionFilterRejects) {
  ServerConfig config;
  config.connection_filter = [](const std::string&) { return false; };
  Server server(config);
  server.handle("/x", [](const Request&) { return Response::text(200, "y"); });
  server.start();
  ClientConfig client_config;
  client_config.io_timeout_ms = 500;
  Client client(client_config);
  auto result = client.get(server.base_url() + "/x");
  EXPECT_FALSE(result.ok);  // connection closed before any response
  server.stop();
}

TEST(HttpClient, ConnectRefusedReportsTransportError) {
  ClientConfig config;
  config.connect_timeout_ms = 300;
  Client client(config);
  auto result = client.get("http://127.0.0.1:1/metrics");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(HttpClient, BadUrlRejected) {
  Client client;
  EXPECT_FALSE(client.get("ftp://example.com/x").ok);
  EXPECT_FALSE(client.get("http://127.0.0.1:99999/x").ok);
}

TEST(HttpServer, OversizedBodyRejected) {
  ServerConfig config;
  config.max_body_bytes = 1024;
  Server server(config);
  server.handle("/echo", [](const Request& request) {
    return Response::text(200, request.body);
  });
  server.start();
  ClientConfig client_config;
  client_config.io_timeout_ms = 1000;
  Client client(client_config);
  // Within the limit: fine.
  auto small = client.post(server.base_url() + "/echo", std::string(512, 'x'));
  ASSERT_TRUE(small.ok);
  EXPECT_EQ(small.response.status, 200);
  // Over the limit: the server drops the connection rather than buffering.
  Client fresh(client_config);
  auto big = fresh.post(server.base_url() + "/echo", std::string(4096, 'x'));
  EXPECT_FALSE(big.ok);
  server.stop();
}

TEST(HttpServer, SlowClientTimesOutWithoutBlockingOthers) {
  Server server{ServerConfig{}};
  server.handle("/ping", [](const Request&) {
    return Response::text(200, "pong");
  });
  server.start();
  // A connection that sends nothing: the per-connection idle timeout must
  // reap it while other clients keep being served.
  int idle_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  Client client;
  for (int i = 0; i < 5; ++i) {
    auto result = client.get(server.base_url() + "/ping");
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.response.body, "pong");
  }
  ::close(idle_fd);
  server.stop();
}

TEST(HttpServer, GarbageRequestLineClosesConnection) {
  Server server{ServerConfig{}};
  server.handle("/x", [](const Request&) { return Response::text(200, "y"); });
  server.start();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "NOT_HTTP\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  char buffer[64];
  // Server closes without a response (no valid request line).
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_LE(n, 0);
  ::close(fd);
  // And stays healthy.
  Client client;
  EXPECT_TRUE(client.get(server.base_url() + "/x").ok);
  server.stop();
}

TEST(HttpServer, EphemeralPortAssigned) {
  Server server{ServerConfig{}};
  server.start();
  EXPECT_GT(server.port(), 0);
  server.stop();
}

// ---------- body framing: empty vs truncated ----------

// One-connection raw responder: accepts a single client, reads the request
// and writes `wire` verbatim, then closes — for responses a well-behaved
// Server cannot produce (truncated bodies, missing framing headers).
class RawResponder {
 public:
  explicit RawResponder(std::string wire) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, wire = std::move(wire)] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        char buffer[4096];
        ::recv(fd, buffer, sizeof(buffer), 0);
        ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
        ::close(fd);
      }
    });
  }
  ~RawResponder() {
    thread_.join();
    ::close(listen_fd_);
  }
  std::string url(const std::string& path) const {
    return "http://127.0.0.1:" + std::to_string(port_) + path;
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(HttpClient, ContentLengthZeroIsEmptyBodyNotError) {
  RawResponder responder(
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
  ClientConfig config;
  config.io_timeout_ms = 1000;
  Client client(config);
  auto result = client.get(responder.url("/empty"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, 200);
  EXPECT_TRUE(result.response.body.empty());
}

TEST(HttpClient, ShortBodyIsTruncationError) {
  // Promises 100 bytes, delivers 7, closes: must surface as a transport
  // error, not an ok response with a short body.
  RawResponder responder(
      "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial");
  ClientConfig config;
  config.io_timeout_ms = 1000;
  Client client(config);
  auto result = client.get(responder.url("/truncated"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("truncated body"), std::string::npos)
      << result.error;
}

TEST(HttpClient, NoContentLengthWithCloseReadsToEof) {
  RawResponder responder(
      "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil-eof");
  ClientConfig config;
  config.io_timeout_ms = 1000;
  Client client(config);
  auto result = client.get(responder.url("/eof"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.body, "until-eof");
}

// ---------- retries + fault injection ----------

TEST(HttpClient, RetriesRecoverFlakyServer) {
  Server server{ServerConfig{}};
  std::atomic<int> hits{0};
  server.handle("/flaky", [&](const Request&) {
    return ++hits <= 2 ? Response::text(503, "not yet")
                       : Response::text(200, "recovered");
  });
  server.start();
  ClientConfig config;
  config.retry.max_retries = 3;
  Client client(config);
  auto result = client.get(server.base_url() + "/flaky");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.body, "recovered");
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(client.stats().retries, 2u);
  server.stop();
}

TEST(HttpClient, NonRetryableStatusReturnsImmediately) {
  Server server{ServerConfig{}};
  std::atomic<int> hits{0};
  server.handle("/gone", [&](const Request&) {
    ++hits;
    return Response::text(404, "nope");
  });
  server.start();
  ClientConfig config;
  config.retry.max_retries = 3;
  Client client(config);
  auto result = client.get(server.base_url() + "/gone");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 404);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(hits.load(), 1);
  server.stop();
}

TEST(HttpClient, FaultHookInjectsAndRetriesConsume) {
  int decisions = 0;
  ClientConfig config;
  config.retry.max_retries = 2;
  config.fault_hook = [&](std::string_view site, std::string_view) {
    EXPECT_EQ(site, "http.client");
    faults::FaultDecision fault;
    if (decisions++ < 2) fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  Server server{ServerConfig{}};
  server.handle("/x", [](const Request&) { return Response::text(200, "y"); });
  server.start();
  Client client(config);
  auto result = client.get(server.base_url() + "/x");
  ASSERT_TRUE(result.ok) << result.error;  // third attempt passes the hook
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(client.stats().faults_injected, 2u);
  server.stop();
}

TEST(HttpClient, InjectedStatusFaultSynthesizesResponse) {
  ClientConfig config;
  config.fault_hook = [](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    fault.kind = faults::FaultKind::kHttpStatus;
    fault.http_status = 429;
    return fault;
  };
  config.retry.retry_on_status = false;
  Client client(config);
  // No server needed: the fault short-circuits before the socket.
  auto result = client.get("http://127.0.0.1:1/x");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, 429);
}

}  // namespace
}  // namespace ceems::http
