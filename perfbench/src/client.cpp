#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace perfbench {

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpClient::connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

std::string HttpClient::frame(const std::string& path,
                              const std::string& body) {
  std::string out = "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  out += "Content-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

bool HttpClient::post(const std::string& path, const std::string& body,
                      HttpReply* reply) {
  const std::string request = frame(path, body);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  // Read until the header block is complete, then the announced body.
  std::size_t header_end = std::string::npos;
  char chunk[65536];
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string head = buffer_.substr(0, header_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  reply->status = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  bool has_length = false;
  std::size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string::npos) {
    pos += 2;
    if (strncasecmp(head.c_str() + pos, "content-length:", 15) == 0) {
      length = std::strtoull(head.c_str() + pos + 15, nullptr, 10);
      has_length = true;
    }
  }
  if (!has_length) return false;
  const std::size_t total = header_end + 4 + length;
  while (buffer_.size() < total) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  reply->body.assign(buffer_, header_end + 4, length);
  reply->wire_bytes = total;
  buffer_.erase(0, total);
  return true;
}

namespace {

// Position just past `"key":` at or after `from`, or npos.
std::size_t after_key(const std::string& s, const char* key, std::size_t from) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = s.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

bool scan_numbers(const std::string& s, std::size_t* pos,
                  std::vector<double>* out) {
  if (*pos >= s.size() || s[*pos] != '[') return false;
  ++*pos;
  while (*pos < s.size() && s[*pos] != ']') {
    char* end = nullptr;
    out->push_back(std::strtod(s.c_str() + *pos, &end));
    if (end == s.c_str() + *pos) return false;
    *pos = static_cast<std::size_t>(end - s.c_str());
    if (*pos < s.size() && s[*pos] == ',') ++*pos;
  }
  return *pos < s.size();
}

}  // namespace

bool scan_eval_reply(const std::string& body, EvalReply* out) {
  // {"responses":[{"model":..,"unique_points":..,"values":[{"cols":c,
  //  "im":[..],"re":[..],"rows":r},..],"version":v}]}  (keys sorted)
  if (body.find("\"error\"") != std::string::npos) return false;
  std::size_t pos = after_key(body, "model", 0);
  if (pos == std::string::npos || body[pos] != '"') return false;
  const std::size_t name_end = body.find('"', pos + 1);
  if (name_end == std::string::npos) return false;
  out->model = body.substr(pos + 1, name_end - pos - 1);
  const std::size_t values = after_key(body, "values", name_end);
  if (values == std::string::npos) return false;
  pos = values;
  while (true) {
    const std::size_t cols = after_key(body, "cols", pos);
    const std::size_t version = after_key(body, "version", pos);
    if (cols == std::string::npos || cols > version) break;
    std::vector<double> re, im;
    std::size_t p_im = after_key(body, "im", cols);
    std::size_t p_re = after_key(body, "re", cols);
    const std::size_t p_rows = after_key(body, "rows", cols);
    if (p_im == std::string::npos || p_re == std::string::npos ||
        p_rows == std::string::npos || !scan_numbers(body, &p_im, &im) ||
        !scan_numbers(body, &p_re, &re) || re.size() != im.size()) {
      return false;
    }
    out->cols = std::strtoull(body.c_str() + cols, nullptr, 10);
    out->rows = std::strtoull(body.c_str() + p_rows, nullptr, 10);
    if (re.size() != out->rows * out->cols) return false;
    std::vector<cplx> m(re.size());
    for (std::size_t i = 0; i < m.size(); ++i) m[i] = cplx(re[i], im[i]);
    out->values.push_back(std::move(m));
    pos = p_rows;
  }
  const std::size_t version = after_key(body, "version", pos);
  if (version == std::string::npos) return false;
  out->version = std::strtoull(body.c_str() + version, nullptr, 10);
  return !out->values.empty();
}

}  // namespace perfbench
