#include "http/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/strutil.h"

namespace ceems::http {

namespace {

bool send_all(int fd, std::string_view data, int timeout_ms) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() {
  if (cached_fd_ >= 0) ::close(cached_fd_);
}

Client::Client(Client&& other) noexcept
    : config_(std::move(other.config_)),
      cached_fd_(other.cached_fd_),
      cached_endpoint_(std::move(other.cached_endpoint_)),
      requests_(other.requests_.load()),
      retries_(other.retries_.load()),
      faults_injected_(other.faults_injected_.load()) {
  other.cached_fd_ = -1;
}

ClientStats Client::stats() const {
  ClientStats out;
  out.requests = requests_.load();
  out.retries = retries_.load();
  out.faults_injected = faults_injected_.load();
  return out;
}

std::optional<Client::ParsedUrl> Client::parse_url(const std::string& url) {
  std::string_view rest = url;
  if (!common::starts_with(rest, "http://")) return std::nullopt;
  rest.remove_prefix(7);
  std::size_t slash = rest.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  ParsedUrl parsed;
  parsed.target = slash == std::string_view::npos
                      ? "/"
                      : std::string(rest.substr(slash));
  std::size_t colon = authority.rfind(':');
  if (colon == std::string_view::npos) {
    parsed.host = std::string(authority);
    parsed.port = 80;
  } else {
    parsed.host = std::string(authority.substr(0, colon));
    auto port = common::parse_int64(authority.substr(colon + 1));
    if (!port || *port <= 0 || *port > 65535) return std::nullopt;
    parsed.port = static_cast<uint16_t>(*port);
  }
  if (parsed.host == "localhost") parsed.host = "127.0.0.1";
  return parsed;
}

int Client::connect_to(const ParsedUrl& url, std::string& error) {
  std::string endpoint = url.host + ":" + std::to_string(url.port);
  if (cached_fd_ >= 0 && cached_endpoint_ == endpoint) {
    int fd = cached_fd_;
    cached_fd_ = -1;
    return fd;
  }
  if (cached_fd_ >= 0) {
    ::close(cached_fd_);
    cached_fd_ = -1;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "socket() failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(url.port);
  if (::inet_pton(AF_INET, url.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    error = "unresolvable host " + url.host + " (only IPv4 literals supported)";
    return -1;
  }
  // Non-blocking connect with timeout.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    error = "connect failed: " + std::string(std::strerror(errno));
    return -1;
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, config_.connect_timeout_ms) <= 0) {
      ::close(fd);
      error = "connect timeout to " + endpoint;
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      ::close(fd);
      error = "connect failed: " + std::string(std::strerror(so_error));
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  cached_endpoint_ = endpoint;
  return fd;
}

FetchResult Client::get(const std::string& url, const HeaderMap& headers) {
  return request("GET", url, "", headers);
}

FetchResult Client::post(const std::string& url, const std::string& body,
                         const std::string& content_type,
                         const HeaderMap& headers) {
  HeaderMap all = headers;
  all["Content-Type"] = content_type;
  return request("POST", url, body, all);
}

FetchResult Client::request(const std::string& method, const std::string& url,
                            const std::string& body, const HeaderMap& headers) {
  ++requests_;
  const RetryConfig& retry = config_.retry;
  FetchResult result;
  for (int attempt = 0;; ++attempt) {
    result = request_once(method, url, body, headers);
    result.attempts = attempt + 1;
    bool retryable =
        !result.ok ||
        (retry.retry_on_status &&
         RetryConfig::retryable_status(result.response.status));
    if (!retryable || attempt >= retry.max_retries) return result;
    ++retries_;
  }
}

FetchResult Client::request_once(const std::string& method,
                                 const std::string& url,
                                 const std::string& body,
                                 const HeaderMap& headers) {
  FetchResult result;

  // Chaos injection: the hook decides, this function implements. Faults
  // that prevent the exchange return before any socket work.
  faults::FaultDecision fault;
  if (config_.fault_hook) {
    fault = config_.fault_hook("http.client", url);
    if (fault) ++faults_injected_;
    switch (fault.kind) {
      case faults::FaultKind::kConnectTimeout:
        result.error = "connect timeout (injected)";
        return result;
      case faults::FaultKind::kIoTimeout:
        result.error = "response header timeout (injected)";
        return result;
      case faults::FaultKind::kUnavailable:
        result.error = "connect failed: connection refused (injected)";
        return result;
      case faults::FaultKind::kHttpStatus:
        result.ok = true;
        result.response.status = fault.http_status;
        result.response.body = "injected fault";
        return result;
      case faults::FaultKind::kSlowResponse:
        // The response would arrive after delay_ms; past the IO timeout it
        // is indistinguishable from a hang.
        if (fault.delay_ms >= config_.io_timeout_ms) {
          result.error = "response body timeout (injected slow response)";
          return result;
        }
        break;  // arrives late but in time: proceed normally
      case faults::FaultKind::kTruncateBody:
        break;  // exchange happens, body is cut below
      default:
        break;
    }
  }

  auto parsed = parse_url(url);
  if (!parsed) {
    result.error = "bad url: " + url;
    return result;
  }
  int fd = connect_to(*parsed, result.error);
  if (fd < 0) return result;

  std::string wire = method + " " + parsed->target + " HTTP/1.1\r\n";
  wire += "Host: " + parsed->host + ":" + std::to_string(parsed->port) + "\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (config_.basic_auth.enabled() && headers.find("Authorization") == headers.end()) {
    wire += "Authorization: " +
            basic_auth_header(config_.basic_auth.username,
                              config_.basic_auth.password) +
            "\r\n";
  }
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  wire += "Connection: keep-alive\r\n\r\n";
  wire += body;

  if (!send_all(fd, wire, config_.io_timeout_ms)) {
    ::close(fd);
    result.error = "send failed";
    return result;
  }

  // Read headers.
  std::string buffer;
  std::size_t header_end;
  for (;;) {
    header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, config_.io_timeout_ms) <= 0) {
      ::close(fd);
      result.error = "response header timeout";
      return result;
    }
    char chunk[16384];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ::close(fd);
      result.error = "connection closed reading headers";
      return result;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  std::string_view head(buffer.data(), header_end);
  auto lines = common::split(head, '\n');
  auto status_fields = common::split_fields(lines.empty() ? "" : lines[0]);
  if (status_fields.size() < 2) {
    ::close(fd);
    result.error = "malformed status line";
    return result;
  }
  auto status = common::parse_int64(status_fields[1]);
  if (!status) {
    ::close(fd);
    result.error = "malformed status code";
    return result;
  }
  result.response.status = static_cast<int>(*status);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = common::trim(lines[i]);
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    result.response.headers[std::string(common::trim(line.substr(0, colon)))] =
        std::string(common::trim(line.substr(colon + 1)));
  }

  std::size_t body_start = header_end + 4;
  auto connection = result.response.headers.find("Connection");
  bool keep = connection == result.response.headers.end() ||
              common::to_lower(connection->second) != "close";

  auto cl = result.response.headers.find("Content-Length");
  if (cl == result.response.headers.end()) {
    if (keep) {
      // Keep-alive with no Content-Length: HTTP/1.1 requires a length (or
      // chunked coding, which we don't speak) for a body to exist, so this
      // is a bodiless response — NOT the same as a truncated one.
      result.response.body.clear();
      result.ok = true;
      cached_fd_ = fd;
      return result;
    }
    // Connection: close with no Content-Length: the body is everything
    // until EOF (HTTP/1.0-style streaming).
    for (;;) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, config_.io_timeout_ms) <= 0) {
        ::close(fd);
        result.error = "response body timeout";
        return result;
      }
      char chunk[16384];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0) {
        ::close(fd);
        result.error = "connection error reading body";
        return result;
      }
      if (n == 0) break;  // clean EOF terminates the body
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    result.response.body = buffer.substr(body_start);
    result.ok = true;
    return result;
  }

  auto parsed_len = common::parse_int64(cl->second);
  if (!parsed_len || *parsed_len < 0) {
    ::close(fd);
    result.error = "bad content-length";
    return result;
  }
  std::size_t body_len = static_cast<std::size_t>(*parsed_len);
  while (buffer.size() < body_start + body_len) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, config_.io_timeout_ms) <= 0) {
      ::close(fd);
      result.error = "response body timeout";
      return result;
    }
    char chunk[16384];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      // The server promised body_len bytes and the connection died first:
      // a truncated body, distinct from a legitimate empty/short body
      // (Content-Length: 0 lands here only if the headers promised more).
      ::close(fd);
      std::size_t got = buffer.size() - std::min(buffer.size(), body_start);
      result.error = "truncated body: got " + std::to_string(got) + " of " +
                     std::to_string(body_len) + " bytes";
      return result;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  if (fault.kind == faults::FaultKind::kTruncateBody) {
    // Simulates the peer closing mid-body: the truncated prefix arrived,
    // the Content-Length check (above, for real truncation) fails it.
    ::close(fd);
    std::size_t keep_bytes =
        static_cast<std::size_t>(static_cast<double>(body_len) *
                                 std::clamp(fault.keep_fraction, 0.0, 1.0));
    result.error = "truncated body: got " + std::to_string(keep_bytes) +
                   " of " + std::to_string(body_len) + " bytes (injected)";
    return result;
  }

  result.response.body = buffer.substr(body_start, body_len);
  result.ok = true;

  if (keep && buffer.size() == body_start + body_len) {
    cached_fd_ = fd;  // reuse for the next request to the same endpoint
  } else {
    ::close(fd);
  }
  return result;
}

}  // namespace ceems::http
