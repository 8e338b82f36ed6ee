// Blocking HTTP/1.1 client with optional connection reuse. Used by the
// scrape manager (GET /metrics against every node), the LB (proxying to
// Prometheus backends) and the API server (ownership checks).
//
// Failure handling: every request can be retried with exponential backoff
// and jitter under a cumulative backoff budget (RetryConfig). Transport
// errors always qualify; 429/5xx responses qualify when
// retry.retry_on_status is set. Backoff sleeps on the injected clock —
// with no clock, retries are immediate, which is what the deterministic
// simulated-time pipeline uses.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/rng.h"
#include "faults/fault.h"
#include "http/message.h"

namespace ceems::http {

struct RetryConfig {
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kJitter = 0.2;  // backoff randomized by +/- this
  static constexpr int64_t kRetryBudgetMs = 10000;  // cumulative per request

  int max_retries = 0;            // extra attempts after the first
  int initial_backoff_ms = 200;   // doubled per retry
  // Retry 429/5xx responses, not just transport errors.
  bool retry_on_status = true;

  static bool retryable_status(int status) {
    return status == 429 || status == 500 || status == 502 ||
           status == 503 || status == 504;
  }
};

struct ClientConfig {
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 5000;
  BasicAuthConfig basic_auth;
  RetryConfig retry;
  // Backoff sleeps run on this clock; nullptr retries without sleeping.
  common::ClockPtr clock;
  // Chaos injection (faults/fault.h); empty in production.
  faults::FaultHook fault_hook;
};

// Result of a request; `ok` is false on transport errors (connect refused,
// timeout, malformed response, truncated body), with `error` describing
// the failure. HTTP error statuses are NOT transport errors.
struct FetchResult {
  bool ok = false;
  std::string error;
  Response response;
  int attempts = 1;  // 1 + retries spent on this request
};

// Counters across the client's lifetime (observable as the
// ceems_http_retries_total self-metric on scrape targets).
struct ClientStats {
  uint64_t requests = 0;
  uint64_t retries = 0;
  uint64_t faults_injected = 0;
};

class Client {
 public:
  explicit Client(ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  // url must be http://host:port/path?query
  FetchResult get(const std::string& url, const HeaderMap& headers = {});
  FetchResult post(const std::string& url, const std::string& body,
                   const std::string& content_type = "application/json",
                   const HeaderMap& headers = {});
  // Retrying wrapper around request_once().
  FetchResult request(const std::string& method, const std::string& url,
                      const std::string& body, const HeaderMap& headers);

  ClientStats stats() const;

 private:
  struct ParsedUrl {
    std::string host;
    uint16_t port = 80;
    std::string target;
  };
  static std::optional<ParsedUrl> parse_url(const std::string& url);
  int connect_to(const ParsedUrl& url, std::string& error);
  // One attempt, no retries.
  FetchResult request_once(const std::string& method, const std::string& url,
                           const std::string& body, const HeaderMap& headers);

  ClientConfig config_;
  // Kept-alive connection to the most recent host:port.
  int cached_fd_ = -1;
  std::string cached_endpoint_;
  // Deterministic backoff jitter (no random_device: reproducible tests).
  common::Rng jitter_rng_{0xCEE5C1E27ULL};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace ceems::http
