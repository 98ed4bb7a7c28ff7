// glova-serve client CLI (docs/serve.md#client).
//
//   glova_client --port N [--connect-timeout SEC] <command> [args...]
//
//   submit <tenant> <spec tokens...>   submit a sweep, print the job id
//   submit-file <tenant> <path>        spec read from a file (newlines join)
//   status <job-id>                    one-line state
//   result <job-id>                    terminal state + canonical result text
//   watch <job-id>                     stream EVENT lines until the job ends
//   cancel <job-id>
//   wait <job-id> [timeout-sec]        poll status until terminal (default 300)
//   list
//   shutdown
//
// Exit code 0 on OK responses, 1 on ERR or connection failure, 2 on usage
// errors.  Connects to 127.0.0.1 only, retrying for --connect-timeout
// seconds (default 5) so scripts can race a freshly started daemon.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/text.hpp"
#include "serve/protocol.hpp"

namespace {

using glova::serve::LineIo;

int usage() {
  std::cerr << "usage: glova_client --port N [--connect-timeout SEC] "
               "submit|submit-file|status|result|watch|cancel|wait|list|shutdown [args...]\n"
               "  N is 1..65535; SEC (and wait's timeout) an unsigned decimal\n";
  return 2;
}

constexpr std::uint64_t kMaxSeconds = std::numeric_limits<int>::max();

int connect_loopback(std::uint16_t port, int timeout_sec) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// Send one request; print the first response line and, when it opens a
/// multi-line payload, every line up to END.  Returns 0 for OK, 1 for ERR.
int request(LineIo& io, const std::string& line, bool multi_line) {
  if (!io.write_line(line)) {
    std::cerr << "glova_client: connection lost\n";
    return 1;
  }
  std::string response;
  if (!io.read_line(response)) {
    std::cerr << "glova_client: connection closed before a response\n";
    return 1;
  }
  std::cout << response << '\n';
  const bool ok = response.rfind("OK", 0) == 0;
  if (ok && multi_line) {
    while (io.read_line(response) && response != glova::serve::kEndLine) {
      std::cout << response << '\n';
    }
  }
  return ok ? 0 : 1;
}

/// STATUS states that end a wait.
bool state_terminal(const std::string& status_line) {
  for (const char* state : {" Done ", " Failed ", " Cancelled "}) {
    if (status_line.find(state) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int connect_timeout = 5;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      const std::optional<std::uint64_t> n = glova::parse_unsigned(argv[++i], 65535);
      if (!n) return usage();
      port = static_cast<std::uint16_t>(*n);  // 0 is a usage error below
    } else if (arg == "--connect-timeout" && i + 1 < argc) {
      const std::optional<std::uint64_t> n = glova::parse_unsigned(argv[++i], kMaxSeconds);
      if (!n) return usage();
      connect_timeout = static_cast<int>(*n);
    } else {
      break;
    }
  }
  if (port == 0 || i >= argc) return usage();
  const std::string command = argv[i++];
  std::vector<std::string> args(argv + i, argv + argc);
  std::optional<std::uint64_t> wait_timeout = 300;
  if (command == "wait" && args.size() == 2) {
    wait_timeout = glova::parse_unsigned(args[1], kMaxSeconds);
  }
  if (!wait_timeout) return usage();

  const int fd = connect_loopback(port, connect_timeout);
  if (fd < 0) {
    std::cerr << "glova_client: cannot connect to 127.0.0.1:" << port << '\n';
    return 1;
  }
  LineIo io(fd);
  int code = 2;
  if (command == "submit" && args.size() >= 2) {
    std::string line = "SUBMIT " + args[0];
    for (std::size_t a = 1; a < args.size(); ++a) line += ' ' + args[a];
    code = request(io, line, /*multi_line=*/false);
  } else if (command == "submit-file" && args.size() == 2) {
    std::ifstream in(args[1]);
    if (!in) {
      std::cerr << "glova_client: cannot read " << args[1] << '\n';
      ::close(fd);
      return 1;
    }
    std::string token, spec;
    while (in >> token) spec += (spec.empty() ? "" : " ") + token;
    code = request(io, "SUBMIT " + args[0] + ' ' + spec, /*multi_line=*/false);
  } else if (command == "status" && args.size() == 1) {
    code = request(io, "STATUS " + args[0], /*multi_line=*/false);
  } else if (command == "result" && args.size() == 1) {
    code = request(io, "RESULT " + args[0], /*multi_line=*/true);
  } else if (command == "watch" && args.size() == 1) {
    code = request(io, "WATCH " + args[0], /*multi_line=*/true);
  } else if (command == "cancel" && args.size() == 1) {
    code = request(io, "CANCEL " + args[0], /*multi_line=*/false);
  } else if (command == "list" && args.empty()) {
    code = request(io, "LIST", /*multi_line=*/true);
  } else if (command == "shutdown" && args.empty()) {
    code = request(io, "SHUTDOWN", /*multi_line=*/false);
  } else if (command == "wait" && (args.size() == 1 || args.size() == 2)) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(*wait_timeout);
    code = 1;
    for (;;) {
      if (!io.write_line("STATUS " + args[0])) break;
      std::string response;
      if (!io.read_line(response)) break;
      if (response.rfind("ERR", 0) == 0) {
        std::cout << response << '\n';
        break;
      }
      if (state_terminal(response + ' ')) {
        std::cout << response << '\n';
        code = 0;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        std::cerr << "glova_client: timed out waiting for " << args[0] << '\n';
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  } else {
    ::close(fd);
    return usage();
  }
  ::close(fd);
  return code;
}
