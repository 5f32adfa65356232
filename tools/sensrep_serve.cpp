// sensrep_serve — long-running service daemon around one simulation.
//
//   sensrep_serve [flags]            commands on stdin, replies on stdout
//   echo "fail 42" | sensrep_serve --algo centralized
//
// Commands (one per line; blank lines and '#' comments are skipped):
//   fail <sensor-slot>      kill a sensor's unit now
//   crash-robot <index>     kill robot <index> now
//   repair-robot <index>    resurrect robot <index> now
//   advance <seconds>       run the virtual clock forward (telemetry streams
//                           in between; SIGINT interrupts cleanly)
//   status                  print the deterministic state digest (plus
//                           jsonl_dropped=N when a telemetry sink is wired)
//   telemetry               print one telemetry sample now
//   snapshot <path>         write a restorable snapshot
//   dump-flightrec <path>   dump the flight-recorder ring as JSONL
//   quit                    leave the loop (a final "bye <digest>" prints)
//
// Flags:
//   --algorithm=centralized|fixed|dynamic   (alias: --algo; default centralized)
//   --robots=N            maintenance robots (default 4)
//   --seed=N              master seed (default 1)
//   --horizon=S           virtual-clock ceiling (default 1e9 — "forever")
//   --mean-lifetime=S     E[sensor lifetime] seconds (default 16000)
//   --no-auto-failures    sensors only die via `fail` commands
//   --loss=P              per-reception Bernoulli loss probability
//   --telemetry-period=S  sample telemetry every S sim seconds (0 = off)
//   --telemetry-jsonl=PATH  also write telemetry samples as JSON lines
//   --retention-window=S  keep only the last S sim seconds of closed trace
//                         spans (soak mode)
//   --trace-stages        attach the span tracer; telemetry gains per-stage
//                         p50/p90/p99
//   --restore=PATH        resume from a snapshot instead of a fresh start
//                         (config flags are then forbidden — the snapshot
//                         is the config; sink/serving flags still apply)
//   --listen=PORT         serve one TCP client on 127.0.0.1:PORT instead of
//                         stdin/stdout
//   --metrics-listen=PORT expose Prometheus text at
//                         http://127.0.0.1:PORT/metrics (0 = ephemeral; the
//                         bound port prints to stderr). Enables the registry.
//   --metrics-influx=T    InfluxDB line-protocol sink: file path or
//                         tcp://host:port (requires --telemetry-period)
//   --metrics-webhook=P   batched webhook POST bodies as JSONL to file P
//                         (requires --telemetry-period)
//   --webhook-url=URL     logical URL stamped into webhook bodies
//   --flightrec-capacity=N  flight-recorder ring size in records
//                           (default 65536; 0 disables)
//   --flightrec-dump=PATH   where SIGUSR1 dumps the ring
//                           (default flightrec.jsonl)
//   --log-level=off|debug|info|warn|error   (default warn)
//
// The protocol, snapshot format, and determinism contract are specified in
// docs/SERVICE.md.

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/exporters.hpp"
#include "service/daemon.hpp"
#include "service/signal.hpp"
#include "service/snapshot.hpp"
#include "tools/args.hpp"
#include "trace/log.hpp"

namespace {

using namespace sensrep;

core::Algorithm parse_algorithm(const std::string& s) {
  if (s == "centralized") return core::Algorithm::kCentralized;
  if (s == "fixed") return core::Algorithm::kFixedDistributed;
  if (s == "dynamic") return core::Algorithm::kDynamicDistributed;
  throw std::invalid_argument("--algorithm: expected centralized|fixed|dynamic, got " + s);
}

/// Minimal bidirectional streambuf over a connected socket fd, enough to run
/// the line protocol through std::istream/std::ostream.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof out_);
  }

 protected:
  int underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof in_);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int overflow(int ch) override {
    if (!flush_out()) return traits_type::eof();
    if (ch != traits_type::eof()) {
      out_[0] = static_cast<char>(ch);
      pbump(1);
    }
    return ch;
  }

  int sync() override { return flush_out() ? 0 : -1; }

 private:
  bool flush_out() {
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof out_);
    return true;
  }

  int fd_;
  char in_[4096] = {};
  char out_[4096] = {};
};

/// Binds 127.0.0.1:port, accepts exactly one client, serves it, returns.
int serve_tcp(service::Daemon& daemon, std::uint16_t port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "sensrep_serve: socket: " << std::strerror(errno) << "\n";
    return 2;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listener, 1) < 0) {
    std::cerr << "sensrep_serve: bind/listen 127.0.0.1:" << port << ": "
              << std::strerror(errno) << "\n";
    ::close(listener);
    return 2;
  }
  std::cerr << "sensrep_serve: listening on 127.0.0.1:" << port << "\n";
  const int client = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (client < 0) {
    std::cerr << "sensrep_serve: accept: " << std::strerror(errno) << "\n";
    return 2;
  }
  {
    FdStreambuf buf(client);
    std::istream in(&buf);
    std::ostream out(&buf);
    daemon.serve(in, out);
    out.flush();
  }
  ::close(client);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::Args args(argc, argv);
    if (args.has("help")) {
      std::cout << "see the header of tools/sensrep_serve.cpp for the protocol and flags\n";
      return 0;
    }
    const auto log_level = args.get_string("log-level", "");
    if (!log_level.empty()) {
      trace::Logger::global().set_threshold(tools::parse_log_level(log_level));
    }

    const auto restore = args.get_string("restore", "");
    const auto listen = args.get_u64("listen", 0);
    const auto telemetry_jsonl = args.get_string("telemetry-jsonl", "");

    // Observability sinks — like --telemetry-jsonl these are the serving
    // process's choice, so they compose with --restore.
    const bool metrics_listen_given = args.has("metrics-listen");
    const auto metrics_listen = args.get_u64("metrics-listen", 0);
    const auto metrics_influx = args.get_string("metrics-influx", "");
    const auto metrics_webhook = args.get_string("metrics-webhook", "");
    const auto webhook_url = args.get_string("webhook-url", "http://localhost/metrics");
    const auto flightrec_capacity = args.get_u64("flightrec-capacity", 65536);
    const auto flightrec_dump = args.get_string("flightrec-dump", "flightrec.jsonl");
    const bool metrics_on =
        metrics_listen_given || !metrics_influx.empty() || !metrics_webhook.empty();
    const auto apply_sinks = [&](service::DaemonOptions& o) {
      o.telemetry_jsonl = telemetry_jsonl;
      o.metrics = metrics_on;
      o.metrics_influx = metrics_influx;
      o.metrics_webhook = metrics_webhook;
      o.webhook_url = webhook_url;
      o.flightrec_capacity = static_cast<std::size_t>(flightrec_capacity);
      o.flightrec_dump = flightrec_dump;
    };

    std::unique_ptr<service::Daemon> daemon;
    if (!restore.empty()) {
      for (const char* flag : {"algorithm", "algo", "robots", "seed", "horizon",
                               "mean-lifetime", "no-auto-failures", "loss",
                               "telemetry-period", "retention-window", "trace-stages"}) {
        if (args.has(flag)) {
          throw std::invalid_argument(std::string("--") + flag +
                                      " conflicts with --restore (the snapshot is the "
                                      "configuration)");
        }
      }
      args.reject_unknown();
      service::Snapshot snap = service::Snapshot::load(restore);
      // Where the restored daemon writes telemetry/metrics is the restorer's
      // choice.
      apply_sinks(snap.options);
      daemon = std::make_unique<service::Daemon>(snap);
    } else {
      service::DaemonOptions opts;
      opts.algorithm =
          parse_algorithm(args.get_string("algo", args.get_string("algorithm", "centralized")));
      opts.robots = args.get_u64("robots", 4);
      opts.seed = args.get_u64("seed", 1);
      opts.horizon = args.get_double_in("horizon", 1e9, 1.0,
                                        std::numeric_limits<double>::infinity());
      opts.mean_lifetime = args.get_double_in("mean-lifetime", 16000.0, 1.0,
                                              std::numeric_limits<double>::infinity());
      opts.spontaneous_failures = !args.has("no-auto-failures");
      opts.loss = args.get_double_in("loss", 0.0, 0.0, 1.0);
      opts.telemetry_period = args.get_double_in("telemetry-period", 0.0, 0.0, 1e18);
      opts.retention_window = args.get_double_in("retention-window", 0.0, 0.0, 1e18);
      opts.trace_stages = args.has("trace-stages");
      apply_sinks(opts);
      args.reject_unknown();
      daemon = std::make_unique<service::Daemon>(opts);
    }

    obs::MetricsHttpServer metrics_http;
    if (metrics_listen_given) {
      if (metrics_listen > 65535) {
        throw std::invalid_argument("--metrics-listen: port out of range");
      }
      std::string err;
      if (!metrics_http.start(static_cast<std::uint16_t>(metrics_listen), &err)) {
        throw std::runtime_error("metrics endpoint: " + err);
      }
      std::cerr << "sensrep_serve: metrics on http://127.0.0.1:" << metrics_http.port()
                << "/metrics\n";
    }

    service::install_signal_handlers();
    service::install_usr1_handler();
    if (listen != 0) {
      if (listen > 65535) throw std::invalid_argument("--listen: port out of range");
      return serve_tcp(*daemon, static_cast<std::uint16_t>(listen));
    }
    daemon->serve(std::cin, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sensrep_serve: " << e.what() << "\n";
    return 2;
  }
}
