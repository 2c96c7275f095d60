// serve_whatif: an in-process serve::Server on loopback TCP, driven by
// min(4, nproc) closed-loop clients replaying the seeded request log
// (reads, writes each followed by a fresh analyze, sweeps).  Latencies
// are client-side.  report_s is the what-if turnaround: a write's
// latency plus that of the analyze that follows it.  The traced run also
// replays the same log socket-free through serve::handle_line, so the
// transport and queue share of each request can be told apart.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "inputs.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace json = awesim::obs::json;

/// The low-rank warm path's documented drift bound (DESIGN.md section
/// 14): |delta delay| <= 1e-9 s against a full refactorization.
constexpr double kDriftToleranceS = 1e-9;

/// Blocking NDJSON client over loopback TCP with a receive timeout, so a
/// stuck server fails the run instead of hanging it.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string roundtrip(const std::string& request) {
    const std::string framed = request + "\n";
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("recv failed or timed out");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct Sample {
  std::string verb;
  std::string kind;
  double ms = 0.0;
};

/// What the analyze and sweep responses say about the work behind them.
struct WorkSeen {
  // Per generation, the analyze response's cost counters (first seen).
  std::map<std::uint64_t, json::Value> reports;
  std::uint64_t sweep_low_rank_points = 0;
  std::uint64_t sweep_low_rank_refactorizations = 0;
  double levels = 0.0;
};

/// The member `key` of object `v`; throws when it is absent.
const json::Value& field(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  if (f == nullptr) throw std::runtime_error("missing '" + std::string(key) + "'");
  return *f;
}

/// Empty when the response is a well-formed success for its verb.
std::string check_response(const LoggedRequest& req, const std::string& line,
                           WorkSeen& seen) {
  const json::Value v = json::parse(line);
  const json::Value* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return req.verb + " answered " + line.substr(0, 200);
  }
  const json::Value& result = field(v, "result");
  if (req.verb == "analyze" || req.verb == "analyze_fresh") {
    if (field(result, "stage_count").as_number() != kServeNets ||
        field(result, "failed_stages").as_number() != 0) {
      return "analyze report incomplete or has failed stages";
    }
    seen.reports.emplace(
        static_cast<std::uint64_t>(field(v, "generation").as_number()),
        field(result, "stats"));
    seen.levels = field(result, "levels").as_number();
  } else if (req.verb == "worst_paths") {
    if (field(result, "paths").size() != 100 ||
        field(result, "truncated").as_bool()) {
      return "worst_paths returned a short or truncated list";
    }
  } else if (req.verb == "sweep") {
    if (field(result, "points").size() != 8) return "sweep lost points";
    seen.sweep_low_rank_points += static_cast<std::uint64_t>(
        field(result, "low_rank_points").as_number());
    seen.sweep_low_rank_refactorizations += static_cast<std::uint64_t>(
        field(result, "low_rank_refactorizations").as_number());
  }
  return {};
}

struct Window {
  std::vector<Sample> samples;
  std::vector<double> turnaround_s;
  double seconds = 0.0;
};

/// One closed-loop client: its connection and its share of the log.  The
/// connection stays open for the whole run, so the traced run's slices do
/// not churn connections against the daemon's max_clients limit.
struct Client {
  Client(int port, const awesim::timing::Design& design, std::uint64_t seed,
         unsigned index)
      : connection(port), log(design, seed, index) {}
  LineClient connection;
  RequestLog log;
};

/// Runs every client for `seconds` (a client finishes its pending
/// write/analyze pair first), checking each response; appends the
/// samples to `window`.
void drive(std::vector<std::unique_ptr<Client>>& clients, double seconds,
           Results& r, WorkSeen& seen, Window& window) {
  std::mutex mutex;  // guards r, seen and window
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (const std::unique_ptr<Client>& c : clients) {
    threads.emplace_back([&, me = c.get()] {
      std::vector<Sample> samples;
      std::vector<double> turnaround;
      WorkSeen local;
      std::vector<std::string> failures;
      std::uint64_t attempted = 0;
      try {
        LineClient& client = me->connection;
        RequestLog* log = &me->log;
        double write_ms = 0.0;
        bool pending = false;
        while (pending || seconds_since(t0) < seconds) {
          const LoggedRequest req = log->next();
          const Clock::time_point start = Clock::now();
          const std::string line = client.roundtrip(req.line);
          const double ms = seconds_since(start) * 1e3;
          samples.push_back({req.verb, req.kind, ms});
          ++attempted;
          std::string why;
          try {
            why = check_response(req, line, local);
          } catch (const std::exception& e) {
            why = req.verb + " response malformed: " + e.what();
          }
          if (!why.empty()) failures.push_back(why);
          pending = req.kind == "write";
          if (pending) write_ms = ms;
          if (req.kind == "fresh") turnaround.push_back((write_ms + ms) * 1e-3);
        }
      } catch (const std::exception& e) {
        ++attempted;
        failures.push_back(std::string("client: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (std::uint64_t i = failures.size(); i < attempted; ++i) {
        r.attempt(true);
      }
      for (const std::string& why : failures) r.attempt(false, why);
      window.samples.insert(window.samples.end(), samples.begin(),
                            samples.end());
      window.turnaround_s.insert(window.turnaround_s.end(),
                                 turnaround.begin(), turnaround.end());
      seen.reports.insert(local.reports.begin(), local.reports.end());
      seen.sweep_low_rank_points += local.sweep_low_rank_points;
      seen.sweep_low_rank_refactorizations +=
          local.sweep_low_rank_refactorizations;
      seen.levels = std::max(seen.levels, local.levels);
    });
  }
  for (std::thread& t : threads) t.join();
  window.seconds += seconds_since(t0);
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              const std::string& key, bool by_kind) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if ((by_kind ? s.kind : s.verb) == key) out.push_back(s.ms);
  }
  return out;
}

double mean_ms(const std::vector<Sample>& samples) {
  double sum = 0.0;
  for (const Sample& s : samples) sum += s.ms;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

const char* const kVerbs[] = {"analyze",  "analyze_fresh", "worst_paths",
                              "stats",    "set_value",     "set_gate",
                              "sweep"};

}  // namespace

std::string check_serve_response(const std::string& verb,
                                 const std::string& line) {
  WorkSeen seen;
  try {
    return check_response({verb, "", ""}, line, seen);
  } catch (const std::exception& e) {
    return verb + " response malformed: " + e.what();
  }
}

void run_serve_whatif(const RunConfig& config, Results& r) {
  awesim::timing::AnalysisOptions analysis;
  analysis.threads = 1;  // requests, not stages, are the concurrency unit
  awesim::serve::ServeOptions options;
  options.tcp_port = 0;
  options.workers = static_cast<int>(config.threads);
  // The clients plus the stats probe, with one to spare for a set-up
  // connection the daemon has not yet reaped.
  options.max_clients = config.threads + 2;
  options.max_queue = 256;

  // Set-up: generate the design, start the daemon, and wait for its
  // first (cold) report, so the measured window starts warm.
  std::vector<double> setup;
  awesim::timing::Design design;
  std::unique_ptr<awesim::serve::Server> server;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    design = serve_design(config.seed);
    server = std::make_unique<awesim::serve::Server>(design, analysis,
                                                     options);
    server->start();
    LineClient(server->tcp_port()).roundtrip(R"({"id":0,"method":"analyze"})");
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup));
  r.note("serve_whatif: setup " + describe(setup, "s"));

  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < config.threads; ++c) {
    clients.push_back(
        std::make_unique<Client>(server->tcp_port(), design, config.seed, c));
  }
  WorkSeen seen;
  Window plain;
  Window traced;
  if (!config.trace) {
    drive(clients, config.seconds, r, seen, plain);
  } else {
    // One-second slices alternate untraced / traced for three quarters
    // of the run; the last quarter replays the log socket-free.
    awesim::obs::reset_phases();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i % 2 == 1 || seconds_since(t0) < 0.75 * config.seconds;
         ++i) {
      awesim::obs::set_tracing(i % 2 == 1);
      drive(clients, 1.0, r, seen, i % 2 == 1 ? traced : plain);
      awesim::obs::set_tracing(false);
    }
  }
  r.set("report_s", median(plain.turnaround_s));
  r.set("qps", static_cast<double>(plain.samples.size()) / plain.seconds);
  r.note("serve_whatif: " + std::to_string(config.threads) +
         " closed-loop clients, " + std::to_string(plain.samples.size()) +
         " requests in " + std::to_string(plain.seconds) + " s");
  r.note("serve_whatif: report_s (write + fresh analyze) " +
         describe(plain.turnaround_s, "s"));
  for (const char* kind : {"read", "write", "sweep"}) {
    r.note(std::string("serve_whatif: ") + kind + " latency " +
           describe(latencies(plain.samples, kind, true), "ms"));
  }

  if (config.trace) {
    const std::vector<double> reads = latencies(plain.samples, "read", true);
    const std::vector<double> writes = latencies(plain.samples, "write", true);
    r.set("serve.read_p50_ms", median(reads));
    r.set("serve.read_p99_ms", percentile(reads, 0.99));
    r.set("serve.write_p50_ms", median(writes));
    r.set("serve.write_p90_ms", percentile(writes, 0.90));
    r.set("serve.sweep_p50_ms",
          median(latencies(plain.samples, "sweep", true)));
    for (const char* verb : kVerbs) {
      r.set(std::string("serve.") + verb + ".p50_ms",
            median(latencies(plain.samples, verb, false)));
    }
    record_spans(r, awesim::obs::snapshot(),
                 static_cast<double>(traced.samples.size()));
    double traced_turnaround = 0.0;
    for (const double t : traced.turnaround_s) traced_turnaround += t;
    traced_turnaround /= static_cast<double>(traced.turnaround_s.size());
    r.set("traced.report_s", traced_turnaround);
    r.set("trace.overhead_ratio",
          mean_ms(traced.samples) / mean_ms(plain.samples));

    // Socket-free replay of the same log on a fresh store, one thread,
    // clients round-robin.  A write and the analyze after it replay back
    // to back, as their client sent them.
    awesim::timing::SnapshotStore store(design, analysis);
    awesim::serve::handle_line(store, R"({"id":0,"method":"analyze"})");
    std::vector<RequestLog> replay_logs;
    for (unsigned c = 0; c < config.threads; ++c) {
      replay_logs.emplace_back(design, config.seed, c);
    }
    std::vector<Sample> handled;
    const Clock::time_point t0 = Clock::now();
    bool pending = false;
    for (std::size_t c = 0; pending || seconds_since(t0) < config.seconds / 4;
         c = pending ? c : (c + 1) % replay_logs.size()) {
      const LoggedRequest req = replay_logs[c].next();
      const Clock::time_point start = Clock::now();
      const awesim::serve::HandleResult out =
          awesim::serve::handle_line(store, req.line);
      handled.push_back({req.verb, req.kind, seconds_since(start) * 1e3});
      r.attempt(out.ok, "handle_line replay: " + out.line.substr(0, 200));
      pending = req.kind == "write";
    }
    for (const char* verb : kVerbs) {
      r.set(std::string("serve.") + verb + ".handle_ms",
            median(latencies(handled, verb, false)));
    }
    r.set("serve.transport_queue_ms", mean_ms(plain.samples) - mean_ms(handled));
    // The turnaround's timed layer calls are handle_line for the write and
    // for the analyze after it; the rest is transport, queueing and
    // contention between clients.  It can be negative: under concurrency
    // another client's read may already have computed the fresh report.
    std::vector<Sample> write_handled;
    std::vector<Sample> fresh_handled;
    for (const Sample& s : handled) {
      if (s.kind == "write") write_handled.push_back(s);
      if (s.kind == "fresh") fresh_handled.push_back(s);
    }
    r.set("unattributed_s",
          traced_turnaround -
              (mean_ms(write_handled) + mean_ms(fresh_handled)) * 1e-3);
  }

  // Cache and cost counters, from the stats verb and analyze responses.
  LineClient probe(server->tcp_port());
  const json::Value stats =
      json::parse(probe.roundtrip(R"({"id":1,"method":"stats"})"));
  const json::Value& cache = field(field(stats, "result"), "cache");
  const double hits = field(cache, "hits").as_number();
  const double misses = field(cache, "misses").as_number();
  r.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  // Run totals grow with the window, so they are reported per request.
  const double requests =
      static_cast<double>(plain.samples.size() + traced.samples.size());
  r.set("cache.evictions", field(cache, "evictions").as_number() / requests);
  double recomputed = 0.0, stages = 0.0, factorizations = 0.0,
         substitutions = 0.0, matches = 0.0, low_rank = 0.0,
         low_rank_refactor = 0.0;
  std::size_t generations = 0;
  for (const auto& [gen, st] : seen.reports) {
    if (gen == 0) continue;  // the cold report, before any write
    ++generations;
    recomputed += field(st, "stages_recomputed").as_number();
    stages += field(st, "stages").as_number();
    factorizations += field(st, "factorizations").as_number();
    substitutions += field(st, "substitutions").as_number();
    matches += field(st, "matches").as_number();
    low_rank += field(st, "low_rank_points").as_number();
    low_rank_refactor += field(st, "low_rank_refactorizations").as_number();
  }
  const double per_gen = generations > 0 ? 1.0 / generations : 0.0;
  r.set("cache.stages_recomputed_per_write", recomputed * per_gen);
  r.set("timing.stages", stages * per_gen);
  r.set("timing.levels", seen.levels);
  r.set("core.factorizations_per_stage",
        stages > 0 ? factorizations / stages : 0.0);
  r.set("core.substitutions_per_stage",
        stages > 0 ? substitutions / stages : 0.0);
  r.set("core.matches", matches * per_gen);
  r.set("lowrank.points",
        (low_rank + static_cast<double>(seen.sweep_low_rank_points)) /
            requests);
  r.set("lowrank.refactorizations",
        (low_rank_refactor +
         static_cast<double>(seen.sweep_low_rank_refactorizations)) /
            requests);

  const awesim::serve::ServeCounters counters = server->counters();
  r.set("serve.shed",
        static_cast<double>(counters.shed_queue + counters.shed_inflight));
  r.set("serve.responses_error", static_cast<double>(counters.responses_error));
  // A refused connection is the benchmark's own doing (too many clients
  // open at once), reported apart from the program's failures.
  r.set("serve.refused", static_cast<double>(counters.refused));
  r.note("serve_whatif: connections refused by the daemon " +
         std::to_string(counters.refused));
  r.attempt(counters.shed_queue + counters.shed_inflight == 0,
          "the daemon shed requests");

  // The final snapshot against a cold analysis of the same edited design.
  const std::shared_ptr<const awesim::timing::Snapshot> snap =
      server->store().current();
  const awesim::timing::TimingReport cold = snap->design().analyze(analysis);
  const std::string drift = compare_reports(cold, *snap->report(),
                                            kDriftToleranceS);
  r.attempt(drift.empty(), "final snapshot vs cold analyze: " + drift);
  server->stop();
  r.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
