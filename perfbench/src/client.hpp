// Minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection: the load generator's side of the closed loop. It only frames
// requests, reads `Content-Length` responses and scans eval replies; it
// shares no code with the serving front or its JSON codec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
  std::size_t wire_bytes = 0;  ///< header + body bytes received
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connect(int port);
  /// POST `body` to `path`; false on a transport or framing error.
  bool post(const std::string& path, const std::string& body,
            HttpReply* reply);
  /// The serialized request `post` sends (used by the per-layer probes).
  static std::string frame(const std::string& path, const std::string& body);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One `/v1/eval` response entry: the model name, version, and each
/// point's matrix in row-major order.
struct EvalReply {
  std::string model;
  std::uint64_t version = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::vector<cplx>> values;
};

/// False when the body is not a single successful entry of that shape.
bool scan_eval_reply(const std::string& body, EvalReply* out);

}  // namespace perfbench
