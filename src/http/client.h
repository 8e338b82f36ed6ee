// Blocking HTTP/1.1 client with optional connection reuse. Used by the
// scrape manager (GET /metrics against every node), the LB (proxying to
// Prometheus backends) and the API server (ownership checks).
//
// Failure handling: a request is retried up to retry.max_retries times
// (RetryConfig), immediately: there is no backoff, and the one caller that
// retries, the scrape sweep, retries within the sweep. Transport errors
// always qualify; 429/5xx responses qualify when retry.retry_on_status is
// set.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "faults/fault.h"
#include "http/message.h"

namespace ceems::http {

struct RetryConfig {
  int max_retries = 0;  // extra attempts after the first
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
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace ceems::http
