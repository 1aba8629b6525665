// The serve-mix workload: a closed loop from this process, over 4
// connections, against a morph-served daemon started with pool 2,
// --host-workers=2 and a write-ahead journal (default fsync, default
// admission settings).
//
//   * 3 job clients each keep one one-shot job outstanding (submit + flush,
//     then wait for the reply);
//   * 1 session client streams stamped session-update batches to an MST
//     session and a PTA session, one pass per round of job replies.
//
// The daemon's default admission never drains its leaky bucket, so one
// daemon admits only a bounded number of jobs (see rounds_per_epoch). The
// measured phase is a series of epochs, each sending a fresh daemon no more
// than that; the traced run shows the defect with one probe job.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gpu/device.hpp"
#include "graph/generators.hpp"
#include "mst/incremental.hpp"
#include "pta/constraints.hpp"
#include "pta/incremental.hpp"
#include "serve/client.hpp"
#include "serve/executor.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using morph::Status;
using morph::gpu::Device;
using morph::gpu::DeviceConfig;
using morph::serve::Client;
using morph::serve::JobKind;
using morph::serve::JobRequest;
using morph::telemetry::Json;

constexpr std::uint32_t kDaemonHostWorkers = 2;
constexpr std::uint32_t kDaemonPool = 2;
constexpr int kJobClients = 3;

// --- the daemon process ---

/// A morph-served child process. The destructor kills and reaps it if it
/// is still running, so no exit path leaves it behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& journal) {
    const std::vector<std::string> args = {
        binary, "--socket=" + socket,
        "--pool=" + std::to_string(kDaemonPool),
        "--host-workers=" + std::to_string(kDaemonHostWorkers),
        "--journal=" + journal};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out[0]);
      ::close(out[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    try {
      wait_listening();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the daemon to exit (after a client "shutdown"); fills its
  /// peak RSS in MB. Returns false on an abnormal exit.
  bool wait(double* peak_rss_mb) {
    // Drain stdout so the daemon's final lines never block on the pipe.
    char buf[256];
    while (::read(out_fd_, buf, sizeof(buf)) > 0) {
    }
    const int status = reap();
    *peak_rss_mb = static_cast<double>(ru_.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// CPU seconds (user + system, all threads) the running daemon has used,
  /// from utime and stime, fields 14 and 15 of /proc/<pid>/stat.
  double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t comm_end = line.rfind(')');
    if (comm_end == std::string::npos) throw std::runtime_error("cannot read the daemon's CPU time");
    std::istringstream fields(line.substr(comm_end + 1));
    std::string f;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i >= 14) ticks += std::stod(f);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  /// The daemon prints "listening on <path>" once its socket accepts.
  void wait_listening() {
    std::string line;
    while (line.find("listening on") == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0) throw std::runtime_error("daemon start timed out");
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) throw std::runtime_error("daemon exited during start");
      line.append(buf, static_cast<std::size_t>(n));
    }
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  int reap() {
    int status = 0;
    while (::wait4(pid_, &status, 0, &ru_) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  rusage ru_{};
};

// --- the job list ---

/// Small one-shot jobs: serve_loadtest's spec table (bench/serve_loadtest.cpp
/// kTable: kinds, sizes, SP sweeps/phases and validate flags) with every size
/// scaled 10x, so dmr jobs refine 600-1400 target triangles. Each template
/// keeps a fixed input seed; --seed picks the order in which each client
/// walks the table.
struct JobTemplate {
  JobKind kind;
  std::uint64_t size;
  std::uint32_t sweeps, phases;
  bool validate;
};
const JobTemplate kJobTable[] = {
    {JobKind::kDmr, 60, 0, 0, false},  {JobKind::kSp, 40, 4, 1, false},
    {JobKind::kPta, 60, 0, 0, true},   {JobKind::kMst, 120, 0, 0, false},
    {JobKind::kDmr, 90, 0, 0, true},   {JobKind::kSp, 60, 4, 1, true},
    {JobKind::kPta, 100, 0, 0, false}, {JobKind::kMst, 200, 0, 0, true},
    {JobKind::kDmr, 140, 0, 0, false}, {JobKind::kSp, 80, 3, 1, false},
    {JobKind::kPta, 140, 0, 0, false}, {JobKind::kMst, 300, 0, 0, false},
};
constexpr std::size_t kNumJobs = sizeof(kJobTable) / sizeof(kJobTable[0]);
constexpr std::uint64_t kJobScale = 10;

JobRequest job_request(const Options& opt, std::size_t t) {
  const JobTemplate& j = kJobTable[t];
  JobRequest r;
  r.spec.kind = j.kind;
  r.spec.size = opt.tiny ? j.size : j.size * kJobScale;
  if (j.sweeps != 0) r.spec.sweeps = j.sweeps;
  if (j.phases != 0) r.spec.phases = j.phases;
  r.spec.seed = 1 + t;
  r.spec.validate = j.validate;
  return r;
}

/// Expected reply of one template, from serve::run_job in this process.
struct Expected {
  std::string outputs, exec;
  double wall_s = 0.0;
  std::uint64_t launches = 0;
};

// --- the session streams ---

struct SessionStream {
  std::string name, kind;
  std::uint64_t count = 0;          ///< nodes (mst) or vars (pta)
  std::vector<Json> batches;        ///< wire rows per update
  std::vector<std::vector<morph::mst::EdgeUpdate>> mst_ups;  ///< mst batches
  std::vector<std::vector<morph::pta::Constraint>> pta_ups;  ///< pta batches
  std::vector<std::string> digests; ///< expected digest after each batch
  std::vector<double> apply_s, apply_model_ms;  ///< in-process engine cost
};

std::string hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  morph::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

Json row(std::initializer_list<std::uint64_t> cells) {
  Json r = Json::array();
  for (std::uint64_t c : cells) r.push_back(c);
  return r;
}

/// MST stream: a clustered graph fed in shuffled insert batches, each also
/// deleting a few edges inserted two batches earlier.
SessionStream mst_stream(const Options& opt, std::size_t batches) {
  SessionStream s{"mst0", "mst", opt.tiny ? 4096u : 65536u, {}, {}, {}, {}, {}, {}};
  auto edges = morph::graph::gen_clustered(static_cast<morph::graph::Node>(s.count),
                                           1024, 4.0, 1 << 20, mix(opt.seed, 100));
  shuffle(edges, mix(opt.seed, 101));
  const std::size_t ins = 48, del = 8;
  for (std::size_t b = 0; b < batches && (b + 1) * ins <= edges.size(); ++b) {
    std::vector<morph::mst::EdgeUpdate> ups;
    Json rows = Json::array();
    auto add = [&](bool insert, const morph::graph::Edge& e) {
      ups.push_back({insert, e.src, e.dst, e.weight});
      rows.push_back(row({insert ? 1u : 0u, e.src, e.dst, e.weight}));
    };
    for (std::size_t i = 0; i < ins; ++i) add(true, edges[b * ins + i]);
    if (b >= 2) {
      for (std::size_t i = 0; i < del; ++i) add(false, edges[(b - 2) * ins + i * 5]);
    }
    s.mst_ups.push_back(std::move(ups));
    s.batches.push_back(std::move(rows));
  }
  return s;
}

/// PTA stream: a block-local constraint program fed in shuffled batches.
SessionStream pta_stream(const Options& opt, std::size_t batches) {
  SessionStream s{"pta0", "pta", opt.tiny ? 4096u : 131072u, {}, {}, {}, {}, {}, {}};
  auto all = morph::pta::clustered_program(static_cast<std::uint32_t>(s.count), 64, 72,
                                           mix(opt.seed, 200))
                 .constraints;
  shuffle(all, mix(opt.seed, 201));
  const std::size_t per = 64;
  for (std::size_t b = 0; b < batches && (b + 1) * per <= all.size(); ++b) {
    std::vector<morph::pta::Constraint> ups(all.begin() + b * per, all.begin() + (b + 1) * per);
    Json rows = Json::array();
    for (const auto& c : ups) {
      rows.push_back(row({static_cast<std::uint64_t>(c.kind), c.dst, c.src}));
    }
    s.pta_ups.push_back(std::move(ups));
    s.batches.push_back(std::move(rows));
  }
  return s;
}

/// Expected digests: the incremental engines in this process, on the
/// daemon's device configuration, applied to the same batches.
void expect_digests(SessionStream& s, Spans& spans) {
  DeviceConfig cfg;
  cfg.host_workers = kDaemonHostWorkers;
  Device dev(cfg);
  std::optional<morph::mst::MstState> mst;
  std::optional<morph::pta::PtaState> pta;
  if (s.kind == "mst") {
    mst = morph::mst::make_mst_state(static_cast<std::uint32_t>(s.count), {}, dev);
  } else {
    pta = morph::pta::make_pta_state(static_cast<std::uint32_t>(s.count));
  }
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    const double c0 = dev.stats().modeled_cycles;
    Scope sp(spans, s.kind + ".update");
    const auto t0 = Clock::now();
    if (mst) {
      morph::mst::apply_updates(*mst, s.mst_ups[b], dev);
    } else {
      morph::pta::apply_updates(*pta, s.pta_ups[b], dev);
    }
    s.apply_s.push_back(seconds_since(t0));
    s.apply_model_ms.push_back((dev.stats().modeled_cycles - c0) * 1e-6);
    s.digests.push_back(hex(mst ? morph::mst::state_digest(*mst)
                                : morph::pta::state_digest(*pta)));
  }
}

// --- the client side ---

/// Stamps frames with the global arrival sequence. Taking a stamp and
/// sending under one lock keeps every connection's frames in stamp order.
struct Stamper {
  std::mutex mu;
  std::int64_t next = 0;
};

Status expect_type(Client& c, const std::string& type, Json* out) {
  Status s = c.next_message(out);
  if (!s.ok()) return s;
  const Json* t = out->find("type");
  if (t == nullptr || !t->is_string() || t->as_string() != type) {
    return Status(morph::StatusCode::kBadRequest,
                  "expected " + type + ", got " + out->dump());
  }
  return Status::Ok();
}

/// What the clients saw during the measured phase, over every epoch.
struct Observed {
  std::mutex mu;
  std::vector<double> job_ms, job_model_ms, update_ms, queue_model_ms;
  std::vector<std::vector<double>> ms_by_job = std::vector<std::vector<double>>(kNumJobs);
  std::uint64_t jobs_ok = 0, jobs_attempted = 0, rejected = 0, updates = 0;
  std::uint64_t failed = 0;
  double deposited = 0.0;  ///< estimated cycles submitted to this epoch's daemon
  std::vector<std::string> wrong;
  morph::gpu::DeviceStats dev;  ///< summed exec stats of OK replies

  // Progress of the current epoch, which paces the session client.
  std::condition_variable progress;
  std::uint64_t epoch_replies = 0;
  int clients_done = 0;
};

void add_exec(Observed& o, const Json& exec) {
  auto num = [&](const char* k) {
    const Json* v = exec.find(k);
    return v != nullptr && v->is_number() ? static_cast<std::uint64_t>(v->as_double()) : 0;
  };
  o.dev.launches += num("launches");
  o.dev.barriers += num("barriers");
  o.dev.warp_steps += num("warp_steps");
  o.dev.total_work += num("total_work");
  o.dev.atomics += num("atomics");
  o.dev.wl_contended_ops += num("wl_contended_ops");
  o.dev.bytes_allocated += num("bytes_allocated");
}

/// One job client's share of an epoch: `rounds` rounds of the job table,
/// one job outstanding at a time, until they are done or `deadline` passes.
void job_client(int c, int epoch, std::uint64_t rounds, Client& cl, Stamper& stamper,
                const Options& opt, const std::vector<Expected>& expected,
                Clock::time_point deadline, Observed& obs, Spans& spans) {
  // Each round walks the whole table in an order drawn from --seed: every
  // client sends every job kind in equal shares, and the clients do not
  // lock into one fixed interleaving of big and small jobs for the run.
  std::vector<std::size_t> order(kNumJobs);
  for (std::uint64_t i = 0; i < rounds * kNumJobs && Clock::now() < deadline; ++i) {
    if (i % kNumJobs == 0) {
      for (std::size_t t = 0; t < kNumJobs; ++t) order[t] = t;
      shuffle(order, mix(opt.seed, static_cast<std::uint64_t>(epoch) << 48 |
                                       static_cast<std::uint64_t>(c) << 32 | i / kNumJobs));
    }
    const std::size_t t = order[i % kNumJobs];
    JobRequest req = job_request(opt, t);
    req.id = (static_cast<std::uint64_t>(c) + 1) * 1000000000ull + i;
    Scope job(spans, "serve.job", -1, req.id);
    const auto t0 = Clock::now();
    {
      Scope s(spans, "serve.submit", job.id(), req.id);
      std::lock_guard<std::mutex> lk(stamper.mu);
      Status st = cl.submit(req, stamper.next++);
      if (st.ok()) st = cl.send_flush(stamper.next++);
      if (!st.ok()) {
        std::lock_guard<std::mutex> olk(obs.mu);
        obs.wrong.push_back("submit failed: " + st.to_string());
        return;
      }
    }
    Json m;
    Status st;
    {
      Scope s(spans, "serve.wait", job.id(), req.id);
      st = cl.next_message(&m);
    }
    const double ms = seconds_since(t0) * 1e3;
    std::lock_guard<std::mutex> lk(obs.mu);
    ++obs.jobs_attempted;
    ++obs.epoch_replies;
    obs.deposited += morph::serve::estimate_job_cycles(req.spec);
    obs.progress.notify_all();
    if (!st.ok()) {
      obs.wrong.push_back("job connection lost: " + st.to_string());
      return;
    }
    const Json* type = m.find("type");
    const std::string ty = type != nullptr && type->is_string() ? type->as_string() : "";
    const Json* status = m.find("status");
    if (ty == "reject") ++obs.rejected;
    if (ty != "result" || status == nullptr || status->as_string() != "ok") {
      ++obs.failed;  // a refused or failed job is a failure, not a wrong answer
      continue;
    }
    const Expected& e = expected[t];
    std::string outputs = m.at("outputs").dump();
    if (opt.corrupt == "serve") outputs += " ";
    if (outputs != e.outputs || m.at("exec").dump() != e.exec) {
      obs.wrong.push_back("job " + std::to_string(req.id) + " (" +
                          req.spec.signature() + ") reply differs from run_job");
      continue;
    }
    ++obs.jobs_ok;
    obs.ms_by_job[t].push_back(ms);
    obs.job_ms.push_back(ms);
    obs.job_model_ms.push_back(m.at("exec").at("modeled_cycles").as_double() * 1e-6);
    obs.queue_model_ms.push_back(m.at("serve").at("queue_cycles").as_double() * 1e-6);
    add_exec(obs, m.at("exec"));
  }
}

/// Streams one pass (one batch per session) per round of job replies: pass
/// p goes out once the job clients have had p * kNumJobs replies in this
/// epoch, so the daemon serves session updates and one-shot jobs in a fixed
/// proportion whatever its speed. Stops when the job clients are done.
void session_client(Client& cl, Stamper& stamper, const std::vector<SessionStream>& streams,
                    Observed& obs, Spans& spans) {
  const std::size_t passes = streams[0].batches.size();
  for (std::size_t p = 0; p < passes; ++p) {
    {
      std::unique_lock<std::mutex> lk(obs.mu);
      obs.progress.wait(lk, [&] {
        return obs.epoch_replies >= p * kNumJobs || obs.clients_done == kJobClients;
      });
      if (obs.clients_done == kJobClients) return;
    }
    for (const SessionStream& s : streams) {
      if (p >= s.batches.size()) continue;
      const std::uint64_t id = 1 + p * streams.size() + (&s - streams.data());
      Scope sp(spans, "serve.update", -1, id);
      const auto t0 = Clock::now();
      {
        std::lock_guard<std::mutex> lk(stamper.mu);
        const Status st = cl.send_session_update(s.name, s.batches[p], id, stamper.next++);
        if (!st.ok()) {
          std::lock_guard<std::mutex> olk(obs.mu);
          obs.wrong.push_back("session update send failed: " + st.to_string());
          return;
        }
      }
      Json m;
      const Status st = expect_type(cl, "session-result", &m);
      const double ms = seconds_since(t0) * 1e3;
      std::lock_guard<std::mutex> lk(obs.mu);
      ++obs.updates;
      if (!st.ok()) {
        obs.wrong.push_back("session update failed: " + st.to_string());
        return;
      }
      if (m.at("digest").as_string() != s.digests[p]) {
        obs.wrong.push_back("session " + s.name + " digest after batch " +
                            std::to_string(p) + " differs from the expected digest");
      }
      obs.update_ms.push_back(ms);
      add_exec(obs, m.at("exec"));
    }
  }
}

/// The daemon's socket or journal file, short and inside the checkout.
std::string served_file(const Options& opt, const char* ext) {
  return opt.out_dir + "/serve-" + std::to_string(::getpid()) + ext;
}

/// Daemon start, hello on every connection, and the session opens.
struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;  ///< [0] = session client
};

Served start_served(const Options& opt, const std::vector<SessionStream>& streams,
                    Stamper& stamper, Spans& spans, int parent) {
  const std::string sock = served_file(opt, ".sock");
  const std::string journal = served_file(opt, ".wal");
  ::unlink(journal.c_str());
  stamper.next = 0;
  Served s;
  {
    Scope sp(spans, "serve.daemon_start", parent);
    s.daemon = std::make_unique<Daemon>(opt.bin_dir + "/morph-served", sock, journal);
  }
  {
    Scope sp(spans, "serve.hello", parent);
    for (int i = 0; i <= kJobClients; ++i) {
      auto c = std::make_unique<Client>();
      morph::throw_if_error(c->connect(sock));
      s.clients.push_back(std::move(c));
    }
  }
  Scope sp(spans, "serve.session_open", parent);
  Client& sc = *s.clients[0];
  for (const SessionStream& st : streams) {
    morph::throw_if_error(sc.send_session_open(st.name, st.kind, st.count, 0, stamper.next++));
    Json m;
    morph::throw_if_error(expect_type(sc, "session-opened", &m));
  }
  return s;
}

/// What a daemon reported when it was stopped, summed over daemons.
struct Stopped {
  double batches = 0, placed = 0, rejected = 0, journal_records = 0, journal_bytes = 0;
  double peak_rss_mb = 0;
  bool clean = true;
};

/// Asks the daemon for its stats, shuts it down and reaps it.
void stop_served(Served& s, const std::string& journal_path, Stopped* out) {
  Client& c = *s.clients[0];
  Json stats;
  morph::throw_if_error(c.send_stats());
  morph::throw_if_error(expect_type(c, "stats", &stats));
  auto num = [&](const char* k) {
    const Json* v = stats.find(k);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  out->batches += num("batches_sealed");
  out->placed += num("placed");
  out->rejected += num("rejected");
  out->journal_records += num("journal_records");
  struct stat sb {};
  if (::stat(journal_path.c_str(), &sb) == 0) out->journal_bytes += static_cast<double>(sb.st_size);
  morph::throw_if_error(c.send_shutdown());
  Json bye;
  morph::throw_if_error(expect_type(c, "bye", &bye));
  for (auto& cl : s.clients) cl->close();
  double rss_mb = 0;
  out->clean = s.daemon->wait(&rss_mb) && out->clean;
  out->peak_rss_mb = std::max(out->peak_rss_mb, rss_mb);
  s.daemon.reset();
  ::unlink(journal_path.c_str());
}

/// Rounds of the job table one daemon is sent. The daemon's admission
/// bucket never drains (no arrival time reaches the scheduler and the
/// default gap is 0), so every estimate a daemon admits stays in it for the
/// daemon's life and a daemon sent more than the default queue cap of
/// estimates rejects every later submit. An epoch therefore sends one daemon
/// at most this many whole rounds, split evenly over the job clients, and
/// the next epoch starts a new daemon.
std::uint64_t rounds_per_epoch(const Options& opt) {
  double round = 0.0;
  for (std::size_t t = 0; t < kNumJobs; ++t) {
    round += morph::serve::estimate_job_cycles(job_request(opt, t).spec);
  }
  auto rounds = static_cast<std::uint64_t>(morph::serve::SchedulerConfig{}.queue_cap_cycles / round);
  rounds -= rounds % kJobClients;
  if (rounds == 0) throw std::runtime_error("one round of jobs exceeds the admission cap");
  return rounds;
}

/// The admission defect, shown on the last epoch's daemon after all its
/// jobs are answered: a dmr job whose estimate alone fits the queue cap but
/// not on top of what the daemon has already admitted. A bucket that drains
/// as work completes admits it; the defective one rejects it. Returns the
/// daemon's reply type.
std::string admission_probe(Client& cl, Stamper& stamper, double deposited) {
  JobRequest req;
  req.id = 1;
  req.spec.kind = JobKind::kDmr;
  req.spec.seed = 1;
  const double cap = morph::serve::SchedulerConfig{}.queue_cap_cycles;
  req.spec.size = 1;
  const double per_triangle = morph::serve::estimate_job_cycles(req.spec);
  req.spec.size = static_cast<std::uint64_t>((cap - deposited) / per_triangle) + 1;
  {
    std::lock_guard<std::mutex> lk(stamper.mu);
    morph::throw_if_error(cl.submit(req, stamper.next++));
    morph::throw_if_error(cl.send_flush(stamper.next++));
  }
  Json m;
  morph::throw_if_error(cl.next_message(&m));
  const std::string type = m.at("type").as_string();
  std::cout << "admission probe: dmr job of " << req.spec.size << " target triangles ("
            << morph::serve::estimate_job_cycles(req.spec) << " estimated cycles, cap " << cap
            << ", " << deposited << " admitted before it, all answered): " << type;
  if (const Json* msg = m.find("message")) std::cout << " (" << msg->as_string() << ")";
  std::cout << "\n";
  return type;
}

}  // namespace

Result run_serve_mix(const Options& opt, Spans& spans) {
  Result res;

  // Expected replies, computed before the timed phase: run_job in this
  // process on the daemon's device configuration.
  DeviceConfig dcfg;
  dcfg.host_workers = kDaemonHostWorkers;
  std::vector<Expected> expected;
  for (std::size_t t = 0; t < kNumJobs; ++t) {
    const JobRequest req = job_request(opt, t);
    Scope sp(spans, "serve.execute");
    const auto t0 = Clock::now();
    const morph::serve::JobOutcome out = morph::serve::run_job(req, dcfg);
    const double wall = seconds_since(t0);
    if (!out.ok()) throw std::runtime_error("reference run_job failed: " + out.status.to_string());
    expected.push_back({out.outputs.dump(), out.exec.to_json().dump(), wall,
                        out.exec.launches});
  }
  const std::uint64_t rounds = rounds_per_epoch(opt);
  // Set-up, several times: session input generation, daemon start, hello
  // on every connection, and the session opens.
  const int setups = opt.tiny ? 1 : 9;
  std::vector<double> setup_times;
  std::vector<SessionStream> streams;
  Served served;
  Stamper stamper;
  Stopped stopped;
  const std::string journal = served_file(opt, ".wal");
  for (int i = 0; i < setups; ++i) {
    if (served.daemon) stop_served(served, journal, &stopped);
    Scope sp(spans, "setup");
    const auto t0 = Clock::now();
    streams.clear();
    {
      Scope gen(spans, "serve.session_gen", sp.id());
      streams.push_back(mst_stream(opt, rounds + 1));
      streams.push_back(pta_stream(opt, rounds + 1));
    }
    served = start_served(opt, streams, stamper, spans, sp.id());
    setup_times.push_back(seconds_since(t0));
  }
  // The set-ups' daemons served nothing; only their exit status counts.
  const bool setups_clean = stopped.clean;
  stopped = Stopped{};
  stopped.clean = setups_clean;
  for (SessionStream& st : streams) expect_digests(st, spans);
  if (opt.corrupt == "serve-digest") streams[0].digests[0][0] ^= 1;

  // Measured phase: epochs of the closed loop, each on a fresh daemon, until
  // --seconds of measured time have passed. Replacing a daemon is not timed.
  Observed obs;
  double measured_s = 0.0, daemon_cpu_s = 0.0;
  std::string probe;
  for (int epoch = 0;; ++epoch) {
    if (!served.daemon) served = start_served(opt, streams, stamper, spans, -1);
    obs.epoch_replies = 0;
    obs.clients_done = 0;
    obs.deposited = 0.0;
    const double cpu0 = served.daemon->cpu_seconds();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(opt.seconds - measured_s));
    std::vector<std::thread> threads;
    for (int c = 0; c < kJobClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          job_client(c, epoch, rounds / kJobClients,
                     *served.clients[static_cast<std::size_t>(c) + 1], stamper, opt, expected,
                     deadline, obs, spans);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lk(obs.mu);
          obs.wrong.push_back(std::string("job client: ") + e.what());
        }
        std::lock_guard<std::mutex> lk(obs.mu);
        ++obs.clients_done;
        obs.progress.notify_all();
      });
    }
    try {
      session_client(*served.clients[0], stamper, streams, obs, spans);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(obs.mu);
      obs.wrong.push_back(std::string("session client: ") + e.what());
    }
    for (auto& t : threads) t.join();
    measured_s += seconds_since(start);
    daemon_cpu_s += served.daemon->cpu_seconds() - cpu0;
    const bool more = measured_s < opt.seconds && obs.wrong.empty();
    if (opt.trace && !more) probe = admission_probe(*served.clients[1], stamper, obs.deposited);
    stop_served(served, journal, &stopped);
    if (!more) {
      std::cout << "epochs " << epoch + 1 << " of at most " << rounds << " job rounds each\n";
      break;
    }
  }

  if (!stopped.clean) res.wrong("morph-served exited abnormally");
  for (const std::string& w : obs.wrong) res.wrong(w);
  res.attempted = obs.jobs_attempted + obs.updates;
  res.failed += obs.failed;

  // The CPU the daemon spends on one round of work: kNumJobs one-shot jobs
  // and one session pass (an MST and a PTA update batch).
  const double rounds_done = static_cast<double>(obs.jobs_ok) / kNumJobs;
  double model_ms_sum = 0.0;
  for (double ms : obs.job_model_ms) model_ms_sum += ms;
  res.set("solve_cpu_s", safe_div(daemon_cpu_s, rounds_done), "s");
  res.set("model_ms", safe_div(model_ms_sum, static_cast<double>(obs.job_model_ms.size())),
          "ms");
  res.set("setup_s", median(setup_times), "s");
  res.set("peak_rss_mb", stopped.peak_rss_mb, "MB");
  const double jobs_per_s = safe_div(static_cast<double>(obs.jobs_ok), measured_s);
  std::cout << "jobs attempted " << obs.jobs_attempted << ", ok " << obs.jobs_ok
            << ", rejected " << obs.rejected << "; session updates " << obs.updates
            << "; measured " << measured_s << " s, " << jobs_per_s << " jobs/s; daemon cpu "
            << daemon_cpu_s << " s\n";
  std::cout << "job latency ms (" << obs.job_ms.size() << " OK jobs) p10 "
            << quantile(obs.job_ms, 0.1) << " p50 " << quantile(obs.job_ms, 0.5) << " p90 "
            << quantile(obs.job_ms, 0.9) << "; session update ms p50 "
            << quantile(obs.update_ms, 0.5) << "\n";
  for (std::size_t t = 0; t < kNumJobs; ++t) {
    std::cout << "job " << job_request(opt, t).spec.signature() << " median_ms "
              << median(obs.ms_by_job[t]) << " (" << obs.ms_by_job[t].size() << " OK)\n";
  }

  if (!opt.trace) return res;

  std::vector<double> exec_ms;
  double exec_total_s = 0.0;
  std::uint64_t exec_launches = 0;
  for (const Expected& e : expected) {
    exec_ms.push_back(e.wall_s * 1e3);
    exec_total_s += e.wall_s;
    exec_launches += e.launches;
  }
  const double execute_ms = median(exec_ms);
  res.set("serve.jobs_per_s", jobs_per_s, "1/s");
  res.set("serve.job_p50_ms", quantile(obs.job_ms, 0.5), "ms");
  res.set("serve.job_p90_ms", quantile(obs.job_ms, 0.9), "ms");
  res.set("serve.execute_ms", execute_ms, "ms");
  res.set("serve.overhead_ms", quantile(obs.job_ms, 0.5) - execute_ms, "ms");
  res.set("serve.update_p50_ms", median(obs.update_ms), "ms");
  res.set("serve.batches", stopped.batches, "count");
  res.set("serve.batch_occupancy", safe_div(stopped.placed, stopped.batches), "jobs/batch");
  // Under the admission defect only the probe is rejected.
  res.set("serve.rejected", stopped.rejected, "count");
  res.set("serve.journal_records", stopped.journal_records, "count");
  res.set("serve.journal_bytes", stopped.journal_bytes, "bytes");
  res.set("serve.queue_p50_model_ms", median(obs.queue_model_ms), "ms");
  res.set("mst.update_s", median(streams[0].apply_s), "s");
  res.set("pta.update_s", median(streams[1].apply_s), "s");
  res.set("mst.update_model_ms", median(streams[0].apply_model_ms), "ms");
  res.set("pta.update_model_ms", median(streams[1].apply_model_ms), "ms");
  if (probe != "reject") std::cout << "admission probe was not rejected: the defect is gone\n";

  const morph::gpu::DeviceStats& st = obs.dev;
  res.set("gpu.launches", static_cast<double>(st.launches), "count");
  res.set("gpu.barriers", static_cast<double>(st.barriers), "count");
  res.set("gpu.warp_steps", static_cast<double>(st.warp_steps), "count");
  res.set("gpu.total_work", static_cast<double>(st.total_work), "count");
  res.set("gpu.atomics", static_cast<double>(st.atomics), "count");
  res.set("gpu.divergence", st.divergence(32), "ratio");
  res.set("gpu.wl_contended_ops", static_cast<double>(st.wl_contended_ops), "count");
  res.set("gpu.bytes_allocated", static_cast<double>(st.bytes_allocated), "bytes");
  res.set("gpu.us_per_launch", safe_div(exec_total_s, static_cast<double>(exec_launches)) * 1e6,
          "us");
  // The daemon runs pool x host-workers threads.
  res.set("gpu.pool_util",
          safe_div(daemon_cpu_s, measured_s * kDaemonPool * kDaemonHostWorkers), "ratio");
  std::vector<double> dev_new;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    Device d(dcfg);
    dev_new.push_back(seconds_since(t0) * 1e3);
  }
  res.set("gpu.device_new_ms", median(dev_new), "ms");

  // Single-thread baseline and tracing cost of the same job list, in
  // process: run_job at host_workers = 1, and with a TraceSink attached.
  DeviceConfig hw1 = dcfg;
  hw1.host_workers = 1;
  double hw1_s = 0.0, traced_s = 0.0, plain_s = 0.0;
  std::uint64_t trace_events = 0;
  for (std::size_t t = 0; t < kNumJobs; ++t) {
    JobRequest req = job_request(opt, t);
    auto timed = [&](const DeviceConfig& cfg, double* acc) {
      const auto t0 = Clock::now();
      morph::serve::JobOutcome out = morph::serve::run_job(req, cfg);
      *acc += seconds_since(t0);
      return out;
    };
    const auto o1 = timed(hw1, &hw1_s);
    if (o1.exec.to_json().dump() != expected[t].exec) {
      res.wrong("job template " + std::to_string(t) + ": exec stats differ at host_workers=1");
    }
    timed(dcfg, &plain_s);
    req.trace = true;
    trace_events += timed(dcfg, &traced_s).trace_events;
  }
  res.set("gpu.host_speedup", safe_div(hw1_s, plain_s), "ratio");
  res.set("telemetry.trace_events", static_cast<double>(trace_events), "count");
  res.set("telemetry.trace_overhead_frac", safe_div(traced_s - plain_s, plain_s), "ratio");
  return res;
}

}  // namespace perfbench
