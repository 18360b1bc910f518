// Copyright 2026 The balanced-clique Authors.
//
// The untraced half of the benchmark: mbc_serve runs as its own process
// (so its resident high-water mark is the serving process's alone) and
// the workload's closed-loop clients talk to it over TCP. Every answer is
// checked against a direct library solve.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "servicebench/servicebench.h"
#include "src/common/fingerprint.h"
#include "src/common/timer.h"
#include "src/graph/binary_io.h"

namespace servicebench {

/// The live server's pid, for main()'s watchdog (0 = none).
std::atomic<pid_t> g_server_pid{0};

namespace {

using Clock = std::chrono::steady_clock;

/// One mbc_serve child process listening on an ephemeral loopback port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::vector<std::string>& args, std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    g_server_pid.store(pid_);
    ::close(fds[1]);
    stdout_fd_ = fds[0];
    // mbc_serve prints the bound port alone on its first stdout line.
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd = {stdout_fd_, POLLIN, 0};
      char chunk[64];
      if (::poll(&pfd, 1, 10000) <= 0) break;
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      line.append(chunk, static_cast<size_t>(n));
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str()));
    if (port_ == 0) {
      *error = "mbc_serve did not report a port";
      Stop();
      return false;
    }
    return true;
  }

  uint16_t port() const { return port_; }

  /// VmHWM of the server: its resident high-water mark since exec.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0.0;
  }

  /// Graceful drain (SIGTERM), SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > give_up) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      g_server_pid.store(0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One persistent JSONL connection: write a request line, read the
/// response line.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool RoundTrip(const std::string& request, std::string* response) {
    std::string framed = request;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        response->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

uint64_t ParseCount(const std::optional<std::string>& raw) {
  return raw ? std::strtoull(raw->c_str(), nullptr, 10) : 0;
}

/// What one client thread of the timed phase saw.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done;  // when each latency_ms op ended
  std::vector<double> service_ms;
  std::vector<double> transport_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t batches = 0;
  uint64_t invalidated = 0;
  uint64_t rekeyed = 0;
  uint64_t core_visited = 0;
  std::vector<std::string> errors;
  Clock::time_point end;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(why);
  }
};

/// State the writer shares with the readers of a mutated graph.
struct WriteState {
  explicit WriteState(const SignedGraph* base) : history(base) {}
  std::mutex mutex;
  EdgeHistory history;  // guarded by mutex
  std::atomic<uint32_t> sent{0};
  std::atomic<uint32_t> acked{0};
};

struct TimedPhase {
  const Workload* workload;
  const std::map<std::string, GraphInput>* inputs;
  const std::vector<Answer>* references;
  uint64_t seed;
  uint16_t port;
  Clock::time_point deadline;
  WriteState* writes;  // null for read-only workloads
};

void RunClient(const TimedPhase& phase, size_t client, ClientLog* log) {
  const Workload& workload = *phase.workload;
  Connection conn;
  if (!conn.Connect(phase.port)) {
    ++log->attempted;
    log->Fail("connect failed");
    log->end = Clock::now();
    return;
  }
  const VertexId write_vertices =
      phase.writes != nullptr
          ? phase.inputs->at(workload.write_graph).graph.NumVertices()
          : 0;
  RequestStream stream(workload, phase.seed, client, write_vertices);
  std::string response;
  while (Clock::now() < phase.deadline || !stream.AtCycleBoundary()) {
    const StreamOp op = stream.Next();
    ++log->attempted;
    if (op.IsWrite()) {
      uint32_t batch = 0;
      {
        std::lock_guard<std::mutex> lock(phase.writes->mutex);
        batch = phase.writes->sent.load() + 1;
        phase.writes->history.Record(batch, op.write);
        phase.writes->sent.store(batch);
      }
      mbc::Timer timer;
      const bool sent = conn.RoundTrip(op.write.line, &response);
      log->latency_ms.push_back(timer.ElapsedSeconds() * 1e3);
      log->done.push_back(Clock::now());
      if (!sent || RawField(response, "ok") != "true") {
        log->Fail("write failed: " + response);
        break;
      }
      phase.writes->acked.store(batch);
      ++log->batches;
      log->invalidated += ParseCount(RawField(response, "cache_invalidated"));
      log->rekeyed += ParseCount(RawField(response, "cache_rekeyed"));
      log->core_visited += ParseCount(RawField(response, "core_visited"));
      continue;
    }
    const Shape& shape = workload.shapes[static_cast<size_t>(op.shape)];
    const uint32_t lo =
        phase.writes != nullptr ? phase.writes->acked.load() : 0;
    mbc::Timer timer;
    const bool sent = conn.RoundTrip(shape.line, &response);
    const double latency_ms = timer.ElapsedSeconds() * 1e3;
    const uint32_t hi = phase.writes != nullptr ? phase.writes->sent.load() : 0;
    log->latency_ms.push_back(latency_ms);
    log->done.push_back(Clock::now());
    if (!sent) {
      log->Fail("connection lost");
      break;
    }
    Answer got;
    if (!ParseAnswer(response, shape.kind, &got)) {
      log->Fail("bad response: " + response);
      continue;
    }
    if (const auto seconds = RawField(response, "seconds")) {
      const double service_ms = std::atof(seconds->c_str()) * 1e3;
      log->service_ms.push_back(service_ms);
      log->transport_ms.push_back(latency_ms - service_ms);
    }
    const GraphInput& input = phase.inputs->at(shape.graph);
    std::string why;
    if (phase.writes != nullptr && shape.graph == workload.write_graph &&
        hi > 0) {
      // The head moved: the answer must be valid at some version this
      // read could have seen; exact answers are checked after the run.
      bool valid = false;
      std::lock_guard<std::mutex> lock(phase.writes->mutex);
      for (uint32_t b = lo; b <= hi && !valid; ++b) {
        valid = phase.writes->history.IsValidCliqueAt(b, got.clique,
                                                      shape.tau);
      }
      if (!valid) log->Fail("clique invalid at every version: " + response);
    } else if (!CheckAnswer(shape, input.graph,
                            (*phase.references)[static_cast<size_t>(op.shape)],
                            got, &why)) {
      log->Fail(shape.line + ": " + why);
    }
  }
  log->end = Clock::now();
}

/// Sends `shape` on `conn` and checks the answer against `expected`.
bool QueryAndCheck(Connection& conn, const Shape& shape,
                   const SignedGraph& graph, const Answer& expected,
                   std::string* why) {
  std::string response;
  if (!conn.RoundTrip(shape.line, &response)) {
    *why = "connection lost";
    return false;
  }
  Answer got;
  if (!ParseAnswer(response, shape.kind, &got)) {
    *why = "bad response: " + response;
    return false;
  }
  if (!CheckAnswer(shape, graph, expected, got, why)) {
    *why = shape.line + ": " + *why;
    return false;
  }
  return true;
}

}  // namespace

bool RunSocket(const Workload& workload,
               const std::map<std::string, GraphInput>& inputs,
               const std::vector<Answer>& references, uint64_t seed,
               double seconds, int setup_reps, const std::string& serve_binary,
               SocketRunResult* result, std::string* error) {
  std::vector<std::string> args = {serve_binary, "--listen", "127.0.0.1:0",
                                   "--workers",
                                   std::to_string(kServerWorkers),
                                   "--max-connections", "16"};
  if (workload.intra_query_threads > 0) {
    args.push_back("--intra-query-threads");
    args.push_back(std::to_string(workload.intra_query_threads));
  }
  const auto record_failure = [result](const std::string& why) {
    ++result->failed;
    if (result->errors.size() < 8) result->errors.push_back(why);
  };

  // Set-up, timed `setup_reps` times: process start, the load op of every
  // graph (binary v2, mmap), and the first correct answer on each graph.
  std::unique_ptr<ServerProcess> server;
  Connection control;
  std::string response;
  for (int rep = 0; rep < setup_reps; ++rep) {
    server = std::make_unique<ServerProcess>();  // stops the previous one
    mbc::Timer timer;
    if (!server->Start(args, error)) return false;
    if (!control.Connect(server->port())) {
      *error = "cannot connect to mbc_serve";
      return false;
    }
    for (const std::string& graph : workload.graphs) {
      const std::string load = "{\"op\":\"load\",\"name\":\"" + graph +
                               "\",\"path\":\"" + inputs.at(graph).path +
                               "\"}";
      if (!control.RoundTrip(load, &response) ||
          RawField(response, "ok") != "true") {
        *error = "load failed: " + response;
        return false;
      }
    }
    for (size_t index : workload.setup_shapes) {
      const Shape& shape = workload.shapes[index];
      std::string why;
      ++result->attempted;
      if (!QueryAndCheck(control, shape, inputs.at(shape.graph).graph,
                         references[index], &why)) {
        record_failure("setup: " + why);
      }
    }
    result->setup_seconds.push_back(timer.ElapsedSeconds());
  }

  // Cache-using workloads start hot: one untimed pass over every shape.
  for (size_t index = 0; index < workload.shapes.size(); ++index) {
    const Shape& shape = workload.shapes[index];
    if (shape.no_cache) continue;
    std::string why;
    ++result->attempted;
    if (!QueryAndCheck(control, shape, inputs.at(shape.graph).graph,
                       references[index], &why)) {
      record_failure("warm-up: " + why);
    }
  }
  if (!control.RoundTrip("{\"op\":\"stats\"}", &response)) {
    *error = "stats failed";
    return false;
  }
  const uint64_t hits_before = ParseCount(RawField(response, "hits"));
  const uint64_t misses_before = ParseCount(RawField(response, "misses"));

  // The timed phase: closed-loop clients until the deadline, then to the
  // end of their current cycle; every op sent completes and counts.
  std::unique_ptr<WriteState> writes;
  if (workload.write_every > 0) {
    writes = std::make_unique<WriteState>(
        &inputs.at(workload.write_graph).graph);
  }
  TimedPhase phase{&workload, &inputs, &references, seed, server->port(),
                   Clock::now() + std::chrono::microseconds(
                                      static_cast<int64_t>(seconds * 1e6)),
                   writes.get()};
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, std::cref(phase), c, &logs[c]);
    }
    for (std::thread& client : clients) client.join();
  }
  Clock::time_point end = start;
  std::vector<std::pair<Clock::time_point, double>> timeline;
  for (const ClientLog& log : logs) {
    end = std::max(end, log.end);
    for (size_t i = 0; i < log.latency_ms.size(); ++i) {
      timeline.emplace_back(log.done[i], log.latency_ms[i]);
    }
    result->latency_ms.insert(result->latency_ms.end(),
                              log.latency_ms.begin(), log.latency_ms.end());
    result->service_ms.insert(result->service_ms.end(),
                              log.service_ms.begin(), log.service_ms.end());
    result->transport_ms.insert(result->transport_ms.end(),
                                log.transport_ms.begin(),
                                log.transport_ms.end());
    result->attempted += log.attempted;
    result->batches += log.batches;
    result->invalidated += log.invalidated;
    result->rekeyed += log.rekeyed;
    result->core_visited += log.core_visited;
    for (const std::string& why : log.errors) record_failure(why);
    result->failed += log.failed - log.errors.size();
  }
  result->window_seconds = std::chrono::duration<double>(end - start).count();
  // The tail of a cache-hot run is set by how often the host preempts a
  // serving thread, which drifts over minutes; the quietest window's p90
  // follows the code instead (README.md, "Noise").
  std::sort(timeline.begin(), timeline.end());
  const size_t windows = std::clamp<size_t>(timeline.size() / kMinWindowOps,
                                            1, kLatencyWindows);
  result->latency_p90_ms = std::numeric_limits<double>::infinity();
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * timeline.size() / windows;
         i < (w + 1) * timeline.size() / windows; ++i) {
      window.push_back(timeline[i].second);
    }
    result->latency_p90_ms =
        std::min(result->latency_p90_ms, Percentile(window, 0.9));
  }
  result->peak_rss_mb = server->PeakRssMb();

  if (!control.RoundTrip("{\"op\":\"stats\"}", &response)) {
    *error = "stats failed";
    return false;
  }
  result->cache_hits = ParseCount(RawField(response, "hits")) - hits_before;
  result->cache_misses =
      ParseCount(RawField(response, "misses")) - misses_before;
  for (const std::string& raw : RawFields(response, "mdc_arena_hwm_bytes")) {
    result->mdc_arena_hwm_bytes = std::max<uint64_t>(
        result->mdc_arena_hwm_bytes, std::strtoull(raw.c_str(), nullptr, 10));
  }

  // After the last write: the head the service persists must equal the
  // bench's own replay of the write stream, and every key's answer must
  // match a fresh solve of that head.
  if (writes != nullptr) {
    const SignedGraph head = writes->history.Head();
    const uint64_t head_fingerprint = mbc::FingerprintSignedGraph(head);
    const std::string path = inputs.at(workload.write_graph).path + ".head";
    const std::string snapshot = "{\"op\":\"snapshot\",\"name\":\"" +
                                 workload.write_graph + "\",\"path\":\"" +
                                 path + "\"}";
    ++result->attempted;
    if (!control.RoundTrip(snapshot, &response) ||
        RawField(response, "ok") != "true") {
      record_failure("snapshot failed: " + response);
    } else {
      mbc::Result<SignedGraph> persisted = mbc::ReadSignedGraphBinary(path);
      if (!persisted.ok() ||
          mbc::FingerprintSignedGraph(persisted.value()) != head_fingerprint) {
        record_failure("snapshot head differs from the write stream");
      }
      // A compacting snapshot re-addresses the head by content. One whose
      // log netted out to nothing reports compacted:false and keeps the
      // lineage fingerprint (README.md, "Known behaviour").
      const uint64_t reported = std::strtoull(
          RawField(response, "fingerprint").value_or("").c_str(), nullptr, 16);
      if (RawField(response, "compacted") == "true" &&
          reported != head_fingerprint) {
        record_failure("compacted snapshot fingerprint is not the content "
                       "fingerprint: " + response);
      }
    }
    std::remove(path.c_str());
    for (size_t index = 0; index < workload.shapes.size(); ++index) {
      const Shape& shape = workload.shapes[index];
      const bool mutated = shape.graph == workload.write_graph;
      const SignedGraph& graph = mutated ? head : inputs.at(shape.graph).graph;
      const Answer expected =
          mutated ? SolveDirect(shape, head) : references[index];
      std::string why;
      ++result->attempted;
      if (!QueryAndCheck(control, shape, graph, expected, &why)) {
        record_failure("final: " + why);
      }
    }
  }
  control.Close();
  server->Stop();
  return true;
}

}  // namespace servicebench
