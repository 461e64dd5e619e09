#ifndef DEEPEVEREST_NET_HTTP_CLIENT_H_
#define DEEPEVEREST_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "net/http.h"

namespace deepeverest {
namespace net {

/// \brief A small blocking HTTP/1.1 client over one keep-alive connection.
///
/// Exactly what the tests and the e2e CI driver need:
/// sequential request/response on a single connection (open several clients
/// for concurrency), with incremental consumption of chunked NDJSON streams.
/// Not a general-purpose client — no TLS, no redirects, no proxies.
class HttpClient {
 public:
  /// One decoded NDJSON line from a streaming response. Return false to
  /// abandon the stream: the client closes the connection immediately,
  /// which the server observes as a client disconnect (this is how the
  /// tests exercise disconnect-triggered query cancellation).
  using LineCallback = std::function<bool(const std::string& line)>;

  /// Connects to `host:port` (host is a dotted-quad IPv4 literal; the
  /// serving story is loopback). `timeout_seconds` is the *idle* read
  /// timeout while awaiting response bytes — it resets on every received
  /// byte, so a long stream that keeps making progress never trips it.
  static Result<HttpClient> Connect(const std::string& host, uint16_t port,
                                    double timeout_seconds = 10.0);

  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  ~HttpClient();

  /// Sends one request and reads the complete response (chunked bodies are
  /// de-chunked into `HttpResponse::body`). `body` is sent with
  /// Content-Length framing when non-empty or when the method is POST.
  Result<HttpResponse> Request(const std::string& method,
                               const std::string& target,
                               const std::string& body = "",
                               const std::string& content_type =
                                   "application/json");

  Result<HttpResponse> Get(const std::string& target) {
    return Request("GET", target);
  }
  Result<HttpResponse> Post(const std::string& target,
                            const std::string& body) {
    return Request("POST", target, body);
  }

  /// Sends a GET and delivers the chunked response line by line as data
  /// arrives (lines are '\n'-terminated; the terminator is stripped). The
  /// returned response carries status and headers with an empty body; any
  /// final partial line is delivered before returning. When the callback
  /// returns false the connection is torn down mid-stream and the call
  /// returns with what was read so far.
  Result<HttpResponse> GetStream(const std::string& target,
                                 const LineCallback& on_line);

  /// GetStream with a POST body — how a client drives a streamed
  /// `POST /v1/ql?stream=1` query.
  Result<HttpResponse> PostStream(const std::string& target,
                                  const std::string& body,
                                  const LineCallback& on_line);

  /// True while the connection is usable for another request.
  bool connected() const { return fd_ >= 0; }

  /// Closes the connection (abandoning any in-flight stream).
  void Close();

 private:
  HttpClient(int fd, double timeout_seconds)
      : fd_(fd), timeout_seconds_(timeout_seconds) {}

  Status SendAll(const std::string& data);

  /// Serialises and sends one request head + body (the single place the
  /// request framing lives — Request, GetStream, and PostStream all go
  /// through it).
  Status SendRequest(const std::string& method, const std::string& target,
                     const std::string& body,
                     const std::string& content_type);
  /// Reads the response head + body. When `on_line` is set, chunked payload
  /// is surfaced through it incrementally instead of being buffered.
  Result<HttpResponse> ReadResponse(const LineCallback* on_line);

  int fd_ = -1;
  double timeout_seconds_ = 10.0;
  std::string read_buffer_;  // bytes past the previous response
};

}  // namespace net
}  // namespace deepeverest

#endif  // DEEPEVEREST_NET_HTTP_CLIENT_H_
