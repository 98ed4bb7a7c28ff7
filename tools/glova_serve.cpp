// glova-serve daemon: the long-lived campaign service (docs/serve.md).
//
//   glova_serve --spool DIR [--port N] [--port-file PATH] [--workers N]
//               [--max-jobs N] [--steps-per-quantum N] [--checkpoint-every N]
//               [--cache-dir DIR]
//
// Binds 127.0.0.1 (port 0 = ephemeral; --port-file publishes the bound port
// for scripts), serves the line protocol until a client sends SHUTDOWN or
// the process receives SIGINT/SIGTERM, then checkpoints every in-flight
// campaign and exits 0.  A SIGKILL skips the final checkpoint — by design,
// the periodic spool checkpoints are enough to resume bit-identically on the
// next start (the CI serve-smoke job kills and restarts exactly this way).
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/fsio.hpp"
#include "common/text.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

/// Upper bound on --workers: each worker is one campaign-driving thread.
constexpr std::uint64_t kMaxWorkers = 256;
constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();

void on_signal(int) { g_signal = 1; }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --spool DIR [--port N] [--port-file PATH] [--workers N] [--max-jobs N]"
               " [--steps-per-quantum N] [--checkpoint-every N] [--cache-dir DIR]\n"
               "  N is an unsigned decimal; --port at most 65535, --workers at most "
            << kMaxWorkers << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  glova::serve::ServerConfig config;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    // The flag's value as an unsigned number no larger than `max`; nullopt
    // (a usage error) when it is missing, not a number, signed or too large.
    const auto number = [&](std::uint64_t max) -> std::optional<std::uint64_t> {
      const char* text = value();
      return text ? glova::parse_unsigned(text, max) : std::nullopt;
    };
    const char* v = nullptr;
    std::optional<std::uint64_t> n;
    if (arg == "--spool" && (v = value())) {
      config.spool_dir = v;
    } else if (arg == "--port" && (n = number(65535))) {
      config.port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--port-file" && (v = value())) {
      port_file = v;
    } else if (arg == "--workers" && (n = number(kMaxWorkers))) {
      config.workers = static_cast<std::size_t>(*n);
    } else if (arg == "--max-jobs" && (n = number(kMaxSize))) {
      config.max_jobs = static_cast<std::size_t>(*n);
    } else if (arg == "--steps-per-quantum" && (n = number(kMaxSize))) {
      config.steps_per_quantum = static_cast<std::size_t>(*n);
    } else if (arg == "--checkpoint-every" && (n = number(kMaxSize))) {
      config.checkpoint_every_steps = static_cast<std::size_t>(*n);
    } else if (arg == "--cache-dir" && (v = value())) {
      config.cache_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.spool_dir.empty()) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    glova::serve::Server server(std::move(config));
    server.start();
    std::cout << "glova-serve: port " << server.port() << std::endl;
    if (!port_file.empty()) {
      glova::atomic_write_file(port_file, std::to_string(server.port()) + "\n");
    }
    // Poll instead of blocking in wait(): a signal handler cannot safely
    // notify a condition variable, and 100 ms of shutdown latency is fine
    // for a daemon.
    while (g_signal == 0 && !server.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop(/*checkpoint=*/true);
  } catch (const std::exception& e) {
    std::cerr << "glova-serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
