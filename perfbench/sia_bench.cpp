/// \file sia_bench.cpp
/// Helper of the perfbench benchmark (see README.md beside this file). It
/// makes the inputs the Python driver cannot make itself, drives siad as a
/// closed-loop client, audits WAL directories, and runs the traced
/// in-process passes that give the per-layer metrics:
///
///   sia_bench gen-figs DIR
///   sia_bench gen-hist --seed N --out DIR
///   sia_bench load --mode monitor|durable --port P --seed N --seconds S
///                  --shards N [--status-every N]
///   sia_bench wal-audit DIR
///   sia_bench trace-lint --spans FILE [--witness F ...] FILE...
///   sia_bench trace-decide --spans FILE FILE...
///   sia_bench trace-service --mode monitor|durable --seed N --spans FILE
///                           --wal-dir DIR
///
/// Every subcommand prints one JSON object as its last stdout line. Spans
/// (thread, id, parent, name, start_ns, end_ns) are kept in memory and
/// written to the --spans file once the pass is over.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chopping/criteria.hpp"
#include "chopping/static_chopping_graph.hpp"
#include "core/parallel.hpp"
#include "graph/enumeration.hpp"
#include "graph/incremental.hpp"
#include "lint/checks.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "mvcc/recorder_log.hpp"
#include "robustness/robustness.hpp"
#include "service/client.hpp"
#include "service/replication.hpp"
#include "service/wire.hpp"
#include "tools/analysis_json.hpp"
#include "tools/history_parser.hpp"
#include "tools/program_parser.hpp"
#include "witness/witness.hpp"
#include "workload/generator.hpp"
#include "workload/paper_examples.hpp"
#include "workload/stream_source.hpp"

using namespace sia;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// The host's CPU time so far, in clock ticks over all CPUs: {steal, total}
/// from the first line of /proc/stat.
std::pair<double, double> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v[8] = {};
  double total = 0;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

// ----- spans ---------------------------------------------------------------

/// One timed interval; `parent` indexes the same thread's span list.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
};

/// In-memory span recorder. Each thread appends to its own buffer (found
/// through a thread_local pointer), so recording takes no lock; the
/// buffers are merged when the pass ends. Disabled, a Scope costs one
/// branch.
class Tracer {
 public:
  struct Buffer {
    std::uint32_t thread{0};
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
  };

  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    thread_local Tracer* owner = nullptr;
    if (mine == nullptr || owner != this) {
      const std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }

  std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
  }

  /// Durations in ns of every span named \p name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) {
        if (name == s.name) out.push_back(double(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "thread,id,parent,name,start_ns,end_ns\n";
    for (const auto& b : buffers_) {
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Span& s = b->spans[i];
        out << b->thread << ',' << i << ',' << s.parent << ',' << s.name
            << ',' << s.start_ns << ',' << s.end_ns << '\n';
      }
    }
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer g_tracer;

/// Whether this thread records spans.
thread_local bool t_tracing = false;

/// Records one span around its lifetime when this thread is tracing.
class Scope {
 public:
  explicit Scope(const char* name) {
    if (!t_tracing) return;
    buf_ = &g_tracer.local();
    const std::int32_t parent = buf_->open.empty() ? -1 : buf_->open.back();
    index_ = static_cast<std::int32_t>(buf_->spans.size());
    buf_->spans.push_back(Span{name, now_ns(), 0, parent});
    buf_->open.push_back(index_);
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    buf_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Buffer* buf_{nullptr};
  std::int32_t index_{0};
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Time of the units of a paired pass, untraced and traced.
struct Paired {
  std::atomic<std::int64_t> untraced_ns{0};
  std::atomic<std::int64_t> traced_ns{0};

  /// trace.overhead_pct is 100 * (ratio() - 1).
  [[nodiscard]] double ratio() const {
    return double(traced_ns.load()) / double(untraced_ns.load());
  }
};

/// Runs \p unit (bool traced) twice back to back on this thread, once
/// untraced and once traced; a hash of \p k picks which goes first, so
/// that the order follows no period of the workload (siad-monitor's GC
/// falls on every 1,024th batch, and the first of two runs of a GC batch
/// is the slower). Separate untraced and traced passes over the same
/// inputs differ by the drift of the host's speed between them (up to 25%
/// between 3-s passes on a shared 4-vCPU host), which hides the cost of
/// tracing; a unit paired with itself sees the same speed on both sides.
template <typename Unit>
void run_paired(std::size_t k, Unit&& unit, Paired& p) {
  for (int side = 0; side < 2; ++side) {
    const bool traced = (side == 0) == (((mix(k, 0) >> 17) & 1) == 1);
    t_tracing = traced;
    const std::int64_t t0 = now_ns();
    unit(traced);
    const std::int64_t dt = now_ns() - t0;
    t_tracing = false;
    (traced ? p.traced_ns : p.untraced_ns).fetch_add(dt);
  }
}

// ----- tiny JSON output ----------------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ << '"' << k << "\":" << buf;
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    sep();
    out_ << '"' << k << "\":" << v;
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, json_quote(v));
  }
  [[nodiscard]] std::string done() const { return "{" + out_.str() + "}"; }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_{true};
};

// ----- arguments -----------------------------------------------------------

struct Args {
  std::map<std::string, std::vector<std::string>> flags;
  std::vector<std::string> positional;

  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& def = "") const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : it->second.back();
  }
  [[nodiscard]] std::uint64_t num(const std::string& k,
                                  std::uint64_t def) const {
    const std::string v = get(k);
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::vector<std::string> all(const std::string& k) const {
    const auto it = flags.find(k);
    return it == flags.end() ? std::vector<std::string>{} : it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0 && i + 1 < argc) {
      a.flags[s.substr(2)].push_back(argv[++i]);
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw ModelError("cannot write '" + path + "'");
  out << text;
}

// ----- gen-figs ------------------------------------------------------------

int gen_figs(const Args& a) {
  if (a.positional.empty()) return 2;
  const std::string dir = a.positional[0];
  const std::pair<const char*, paper::NamedPrograms> figs[] = {
      {"fig5", paper::fig5_programs()},
      {"fig6", paper::fig6_programs()},
      {"fig11", paper::fig11_programs()},
      {"fig12", paper::fig12_programs()}};
  for (const auto& [name, np] : figs) {
    write_file(dir + "/" + name + ".sia",
               format_programs(np.programs, np.objects));
  }
  std::printf("%s\n", Json().num("files", 4).done().c_str());
  return 0;
}

// ----- gen-hist ------------------------------------------------------------

/// The planted anomaly of a history; each is the paper's Fig. 2 shape on
/// objects and sessions of its own, so the history's verdict under each
/// model is the anomaly's (a serial engine run is allowed everywhere).
enum class Plant { kNone, kLostUpdate, kLongFork, kWriteSkew };

const char* plant_name(Plant p) {
  switch (p) {
    case Plant::kNone:
      return "none";
    case Plant::kLostUpdate:
      return "lost-update";
    case Plant::kLongFork:
      return "long-fork";
    case Plant::kWriteSkew:
      return "write-skew";
  }
  return "?";
}

History plant(const History& base, ObjectTable& objects, Plant p) {
  std::vector<std::vector<Event>> txns;
  std::vector<ObjId> fresh;
  const auto obj = [&](const char* name) {
    const ObjId id = objects.intern(name);
    fresh.push_back(id);
    return id;
  };
  switch (p) {
    case Plant::kNone:
      break;
    case Plant::kLostUpdate: {
      const ObjId x = obj("lu_x");
      txns = {{read(x, 0), write(x, 50)}, {read(x, 0), write(x, 25)}};
      break;
    }
    case Plant::kLongFork: {
      const ObjId x = obj("lf_x");
      const ObjId y = obj("lf_y");
      txns = {{write(x, 1)},
              {write(y, 1)},
              {read(x, 1), read(y, 0)},
              {read(x, 0), read(y, 1)}};
      break;
    }
    case Plant::kWriteSkew: {
      const ObjId x = obj("ws_x");
      const ObjId y = obj("ws_y");
      txns = {{read(x, 0), read(y, 0), write(x, 1)},
              {read(x, 0), read(y, 0), write(y, 1)}};
      break;
    }
  }
  // Transaction 0 of a recorded run is the initialiser; it also
  // initialises the planted objects.
  std::vector<Event> init = base.txn(0).events();
  for (const ObjId x : fresh) init.push_back(write(x, 0));
  History out;
  out.append_singleton(Transaction(std::move(init)));
  SessionId next = 1;
  for (std::size_t s = 0; s < base.session_count(); ++s) {
    bool any = false;
    for (const TxnId t : base.session(static_cast<SessionId>(s))) {
      if (t == 0) continue;
      out.append(next, base.txn(t));
      any = true;
    }
    if (any) ++next;
  }
  for (auto& t : txns) out.append(next++, Transaction(std::move(t)));
  return out;
}

/// Candidate dependency graphs of \p h: every WW order of every object's
/// writers (the values the generator writes are unique, so WR is fixed).
/// enumerate_dependency_graphs visits all of them when a model rejects.
double candidate_space(const History& h) {
  double space = 1;
  for (const ObjId x : h.objects()) {
    const std::size_t w = h.writers_of(x).size();
    for (std::size_t k = 2; k <= w; ++k) space *= double(k);
  }
  return space;
}

/// Models (of SER, SI, PSI) that reject a history carrying \p p.
int rejections(Plant p) {
  switch (p) {
    case Plant::kNone:
      return 0;
    case Plant::kLostUpdate:
      return 3;
    case Plant::kLongFork:
      return 2;
    case Plant::kWriteSkew:
      return 1;
  }
  return 0;
}

/// Writes a history set of fixed make-up: for each planted anomaly (and
/// none) and each candidate-space bucket [2^k, 2^(k+1)), k = 8..11,
/// exactly kHistQuota histories. Every seed's set then has the same count,
/// the same plant mix and nearly the same forced enumeration work; only
/// the engine runs differ. Runs whose space falls outside the buckets are
/// not used: the exhaustive decision takes seconds to minutes on the
/// larger ones.
constexpr std::size_t kHistQuota = 14;  // histories per plant and bucket

int gen_hist(const Args& a) {
  constexpr int kMinBucket = 8;
  constexpr int kMaxBucket = 11;
  constexpr int kBuckets = kMaxBucket - kMinBucket + 1;
  const std::uint64_t seed = a.num("seed", 1);
  const std::string dir = a.get("out");
  std::size_t filled[4][kBuckets] = {};
  const std::size_t wanted = 4 * kBuckets * kHistQuota;
  std::string manifest = "[";
  double work = 0;
  std::size_t kept = 0;
  std::uint64_t i = 0;
  for (; kept < wanted; ++i) {
    if (i > 1000000) throw ModelError("history quotas not filled");
    workload::WorkloadSpec spec;
    const std::uint64_t h = mix(seed, i);
    spec.seed = h;
    spec.concurrent = false;
    spec.sessions = 2;
    spec.txns_per_session = 2 + (h >> 8) % 2;
    spec.ops_per_txn = 3;
    spec.num_keys = static_cast<std::uint32_t>(4 + (h >> 16) % 3);
    const int engine = static_cast<int>((h >> 24) % 3);
    const mvcc::RecordedRun run = engine == 0   ? workload::run_si(spec)
                                  : engine == 1 ? workload::run_ser(spec)
                                                : workload::run_psi(spec, 2);
    for (int k = 0; k < 4; ++k) {
      const auto p = static_cast<Plant>((i + k) % 4);
      ObjectTable objects;
      for (std::uint32_t key = 0; key < spec.num_keys; ++key) {
        objects.intern("k" + std::to_string(key));
      }
      const History hist = plant(run.history, objects, p);
      const double space = candidate_space(hist);
      const int bucket = static_cast<int>(std::floor(std::log2(space)));
      if (bucket < kMinBucket || bucket > kMaxBucket) continue;
      std::size_t& slot = filled[static_cast<int>(p)][bucket - kMinBucket];
      if (slot == kHistQuota) continue;
      ++slot;
      work += space * rejections(p);
      char name[32];
      std::snprintf(name, sizeof name, "h%03zu.hist", kept);
      write_file(dir + "/" + name, format_history(hist, objects));
      const char* engines[] = {"si", "ser", "psi"};
      manifest += std::string(kept == 0 ? "" : ",") + "{\"file\":\"" +
                  name + "\",\"engine\":\"" + engines[engine] +
                  "\",\"plant\":\"" + plant_name(p) + "\",\"txns\":" +
                  std::to_string(hist.txn_count()) + ",\"space\":" +
                  std::to_string(static_cast<std::uint64_t>(space)) + "}";
      ++kept;
      break;
    }
  }
  manifest += "]";
  write_file(dir + "/manifest.json", manifest + "\n");
  std::printf("%s\n", Json()
                          .num("histories", double(kept))
                          .num("engine_runs", double(i))
                          .num("forced_candidates", work)
                          .done()
                          .c_str());
  return 0;
}

// ----- commit streams (shared by load and trace-service) -------------------

using Batch = std::vector<MonitoredCommit>;

struct StreamPlan {
  std::vector<Batch> batches;
  std::size_t commits{0};
};

struct Plan {
  /// Per connection: the streams it drives (monitor: long streams it
  /// cycles through; durable: a pool of short streams opened in turn).
  std::vector<std::vector<StreamPlan>> conns;
  /// monitor mode: a short stream ending in a planted lost update.
  StreamPlan planted;
  TxnId planted_id{0};
};

constexpr std::size_t kConns = 2;  // client connections
constexpr std::size_t kMonitorStreamsPerConn = 2;
constexpr std::size_t kMonitorStreamLen = 81920;  // 10x the GC window
constexpr std::size_t kMonitorBatch = 8;
constexpr std::size_t kPlantedPrefix = 1000;
constexpr std::size_t kDurablePool = 256;  // short streams per connection
constexpr std::size_t kTraceCommits = 200000;  // trace-service replay cap

StreamPlan make_stream(std::uint64_t seed, std::size_t len,
                       std::size_t batch_min, std::size_t batch_max,
                       std::mt19937_64& rng) {
  workload::StreamSpec spec;
  spec.seed = seed;
  workload::StreamSource src(spec);
  StreamPlan sp;
  std::uniform_int_distribution<std::size_t> bs(batch_min, batch_max);
  while (sp.commits < len) {
    const std::size_t n = std::min(bs(rng), len - sp.commits);
    Batch b;
    for (std::size_t k = 0; k < n; ++k) b.push_back(src.next());
    sp.commits += n;
    sp.batches.push_back(std::move(b));
  }
  return sp;
}

Plan make_plan(const std::string& mode, std::uint64_t seed) {
  Plan plan;
  std::mt19937_64 rng(mix(seed, 7));
  plan.conns.resize(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    if (mode == "monitor") {
      for (std::size_t j = 0; j < kMonitorStreamsPerConn; ++j) {
        plan.conns[c].push_back(make_stream(mix(seed, 100 * c + j),
                                            kMonitorStreamLen, kMonitorBatch,
                                            kMonitorBatch, rng));
      }
    } else {
      std::uniform_int_distribution<std::size_t> len(32, 224);
      for (std::size_t j = 0; j < kDurablePool; ++j) {
        plan.conns[c].push_back(
            make_stream(mix(seed, 100000 * (c + 1) + j), len(rng), 1, 2, rng));
      }
    }
  }
  if (mode == "monitor") {
    plan.planted = make_stream(mix(seed, 99), kPlantedPrefix, kMonitorBatch,
                               kMonitorBatch, rng);
    // Lost update on a key the stream never touches, by two sessions of
    // its own: both read the initial version and both overwrite it.
    const ObjId x = 100000;
    Batch b;
    for (SessionId s : {SessionId{40}, SessionId{41}}) {
      MonitoredCommit c;
      c.session = s;
      c.txn = Transaction({read(x, 0), write(x, Value(s))});
      c.read_sources[x] = 0;
      b.push_back(std::move(c));
    }
    plan.planted.batches.push_back(std::move(b));
    plan.planted.commits += 2;
    plan.planted_id = static_cast<TxnId>(plan.planted.commits);
  }
  return plan;
}

// ----- load ----------------------------------------------------------------

struct Closed {
  std::uint64_t stream{0};
  std::uint8_t verdict{0};
  std::uint64_t count{0};
  std::uint64_t expect{0};
  std::uint32_t violating{0};
};

struct ConnResult {
  std::uint64_t sent{0};
  std::uint64_t acked{0};
  std::uint64_t failed{0};
  std::uint64_t frames{0};  ///< accepted state-mutating frames
  std::uint64_t requests{0};
  std::vector<double> lat_ns;
  std::vector<std::int64_t> done_ns;  ///< completion time per request
  std::vector<std::uint32_t> done_acks;  ///< commits acked per request
  std::vector<Closed> closed;
  Closed planted;
  std::uint64_t retained_max{0};
  std::uint64_t bytes_max{0};
  std::uint64_t lag_max{0};
  std::uint64_t status_samples{0};
  std::string error;
};

class Conn {
 public:
  Conn(std::uint16_t port, std::uint64_t status_every, ConnResult& r)
      : status_every_(status_every), r_(r) {
    client_.connect("127.0.0.1", port);
  }

  std::uint64_t open() {
    const std::uint64_t id = client_.open_stream(service::ServiceModel::kSI);
    ++r_.frames;
    return id;
  }

  /// Opens a stream that siad places on shard \p shard of \p shards (it
  /// places stream id on shard id % shards), closing the empty streams it
  /// places elsewhere. A long stream reopened on the shard it left reuses
  /// that shard thread's freed memory, so the server's peak RSS does not
  /// depend on how the connections' reopenings interleave.
  std::uint64_t open_on(std::size_t shard, std::size_t shards) {
    for (;;) {
      const std::uint64_t id = open();
      if (id % shards == shard) return id;
      r_.closed.push_back(close(id, 0));
    }
  }

  void commit(std::uint64_t stream, const Batch& b) {
    r_.sent += b.size();
    const std::int64_t t0 = now_ns();
    const service::Message m =
        client_.commit_retry(stream, b, fault::RetryPolicy{});
    const std::int64_t t1 = now_ns();
    r_.lat_ns.push_back(double(t1 - t0));
    r_.done_ns.push_back(t1);
    ++r_.requests;
    std::uint64_t ok = 0;
    if (m.type == service::MsgType::kCommitted) {
      for (const TxnId id : m.ids) ok += id != 0 ? 1 : 0;
    }
    r_.done_acks.push_back(static_cast<std::uint32_t>(ok));
    if (m.type != service::MsgType::kCommitted) {
      r_.failed += b.size();
      return;
    }
    ++r_.frames;
    r_.acked += ok;
    r_.failed += b.size() - ok;
    if (status_every_ != 0 && r_.requests % status_every_ == 0) {
      sample(stream);
    }
  }

  Closed close(std::uint64_t stream, std::uint64_t expect) {
    const service::Message m = client_.close_stream(stream);
    Closed c;
    c.stream = stream;
    c.expect = expect;
    if (m.type == service::MsgType::kClosed) {
      ++r_.frames;
      c.verdict = m.verdict;
      c.count = m.commit_count;
      c.violating = m.violating;
    } else {
      c.verdict = 255;
    }
    return c;
  }

 private:
  void sample(std::uint64_t stream) {
    const service::Message s = client_.status(stream);
    r_.retained_max = std::max(r_.retained_max, s.retained);
    r_.bytes_max = std::max(r_.bytes_max, s.approx_bytes);
    const service::Message g = client_.status(0);
    r_.lag_max = std::max(r_.lag_max, g.lag_frames);
    ++r_.status_samples;
  }

  service::ServiceClient client_;
  std::uint64_t status_every_;
  ConnResult& r_;
};

void drive(const std::string& mode, const Plan& plan, std::size_t c,
           std::uint16_t port, std::size_t shards, std::uint64_t status_every,
           Clock::time_point deadline, ConnResult& r) {
  try {
    Conn conn(port, status_every, r);
    const std::vector<StreamPlan>& streams = plan.conns[c];
    if (mode == "monitor") {
      if (c == 0) {
        const std::uint64_t id = conn.open();
        for (const Batch& b : plan.planted.batches) conn.commit(id, b);
        r.planted = conn.close(id, plan.planted.commits);
      }
      std::vector<std::uint64_t> ids;
      std::vector<std::size_t> pos(streams.size(), 0);
      // Stream j of every connection lives on shard j % shards.
      for (std::size_t j = 0; j < streams.size(); ++j) {
        ids.push_back(conn.open_on(j % shards, shards));
      }
      std::size_t j = 0;
      while (Clock::now() < deadline) {
        const StreamPlan& sp = streams[j];
        conn.commit(ids[j], sp.batches[pos[j]]);
        if (++pos[j] == sp.batches.size()) {
          r.closed.push_back(conn.close(ids[j], sp.commits));
          ids[j] = conn.open_on(j % shards, shards);
          pos[j] = 0;
        }
        j = (j + 1) % streams.size();
      }
      for (std::size_t k = 0; k < streams.size(); ++k) {
        std::uint64_t expect = 0;
        for (std::size_t b = 0; b < pos[k]; ++b) {
          expect += streams[k].batches[b].size();
        }
        r.closed.push_back(conn.close(ids[k], expect));
      }
    } else {
      // Whole short streams: the one in flight at the deadline finishes.
      std::size_t j = 0;
      while (Clock::now() < deadline) {
        const StreamPlan& sp = streams[j];
        const std::uint64_t id = conn.open();
        for (const Batch& b : sp.batches) conn.commit(id, b);
        r.closed.push_back(conn.close(id, sp.commits));
        j = (j + 1) % streams.size();
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
}

int load(const Args& a) {
  const std::string mode = a.get("mode", "monitor");
  const auto port = static_cast<std::uint16_t>(a.num("port", 0));
  const std::uint64_t seed = a.num("seed", 1);
  const double seconds = std::strtod(a.get("seconds", "10").c_str(), nullptr);
  const std::size_t shards = a.num("shards", 0);
  const std::uint64_t status_every = a.num("status-every", 0);
  if (shards == 0) throw ModelError("load needs --shards");

  const Plan plan = make_plan(mode, seed);
  std::printf("ready\n");
  std::fflush(stdout);
  std::string go;
  if (!std::getline(std::cin, go) || go != "go") return 2;

  std::vector<ConnResult> results(kConns);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  // The host's CPU ticks at every second of the send phase.
  std::vector<std::pair<double, double>> ticks{host_cpu_ticks()};
  std::atomic<bool> sending{true};
  std::thread sampler([&] {
    for (int k = 1; sending.load(); ++k) {
      std::this_thread::sleep_until(t0 + std::chrono::seconds(k));
      ticks.push_back(host_cpu_ticks());
    }
  });
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
      threads.emplace_back(drive, std::cref(mode), std::cref(plan), c, port,
                           shards, status_every, deadline,
                           std::ref(results[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double send_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  sending = false;
  sampler.join();
  const double cpu_s = cpu_seconds() - cpu0;

  // Per-second windows of the send phase (the last, partial one
  // dropped): throughput and latency quantiles per window, reported as
  // medians over the half of the windows in which the hypervisor stole
  // the least CPU time. On a shared virtual machine a window with 10-20%
  // steal halves the closed loop's throughput and multiplies its tail
  // latency by 5-20, and such episodes last minutes; steal is time no
  // process of the guest ran, so leaving those windows out measures
  // siad, not its neighbours.
  const std::int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t0.time_since_epoch())
          .count();
  const auto windows = static_cast<std::size_t>(send_s);
  std::vector<double> win_acks(windows, 0.0);
  std::vector<std::vector<double>> win_lat(windows);
  for (const ConnResult& r : results) {
    for (std::size_t k = 0; k < r.done_ns.size(); ++k) {
      const auto w = static_cast<std::size_t>((r.done_ns[k] - start_ns) / 1000000000);
      if (w >= windows) continue;
      win_acks[w] += r.done_acks[k];
      win_lat[w].push_back(r.lat_ns[k]);
    }
  }
  std::vector<double> win_steal;
  for (std::size_t w = 0; w < windows; ++w) {
    win_steal.push_back(
        w + 1 < ticks.size()
            ? (ticks[w + 1].first - ticks[w].first) /
                  std::max(1.0, ticks[w + 1].second - ticks[w].second)
            : 0.0);
  }
  std::vector<std::size_t> quiet(windows);
  for (std::size_t w = 0; w < windows; ++w) quiet[w] = w;
  std::stable_sort(quiet.begin(), quiet.end(), [&](auto x, auto y) {
    return win_steal[x] < win_steal[y];
  });
  quiet.resize((windows + 1) / 2);
  std::vector<double> q_acks;
  std::vector<double> q_p50;
  std::vector<double> q_p90;
  std::vector<double> q_p99;
  double q_steal = 0;
  for (const std::size_t w : quiet) {
    q_acks.push_back(win_acks[w]);
    q_p50.push_back(quantile(win_lat[w], 0.5));
    q_p90.push_back(quantile(win_lat[w], 0.9));
    q_p99.push_back(quantile(win_lat[w], 0.99));
    q_steal += win_steal[w] / double(quiet.size());
  }
  double steal = 0;
  for (const double x : win_steal) steal += x / double(windows);

  ConnResult total;
  std::string closed = "[";
  std::string error;
  for (const ConnResult& r : results) {
    total.sent += r.sent;
    total.acked += r.acked;
    total.failed += r.failed;
    total.frames += r.frames;
    total.requests += r.requests;
    total.lat_ns.insert(total.lat_ns.end(), r.lat_ns.begin(), r.lat_ns.end());
    total.retained_max = std::max(total.retained_max, r.retained_max);
    total.bytes_max = std::max(total.bytes_max, r.bytes_max);
    total.lag_max = std::max(total.lag_max, r.lag_max);
    total.status_samples += r.status_samples;
    if (!r.error.empty()) error = r.error;
    for (const Closed& c : r.closed) {
      closed += std::string(closed.size() > 1 ? "," : "") + "[" +
                std::to_string(c.stream) + "," + std::to_string(c.verdict) +
                "," + std::to_string(c.count) + "," +
                std::to_string(c.expect) + "]";
    }
  }
  closed += "]";
  const Closed& p = results.empty() ? Closed{} : results[0].planted;
  Json j;
  j.num("sent", double(total.sent))
      .num("acked", double(total.acked))
      .num("failed", double(total.failed))
      .num("frames", double(total.frames))
      .num("requests", double(total.requests))
      .num("send_s", send_s)
      .num("client_cpu_s", cpu_s)
      .num("lat_p50_ns", quantile(total.lat_ns, 0.5))
      .num("lat_p99_ns", quantile(total.lat_ns, 0.99))
      .num("windows", double(windows))
      .num("win_acks_per_s", quantile(q_acks, 0.5))
      .num("win_p50_ns", quantile(q_p50, 0.5))
      .num("win_p90_ns", quantile(q_p90, 0.5))
      .num("win_p99_ns", quantile(q_p99, 0.5))
      .num("steal", steal)
      .num("quiet_steal", q_steal)
      .num("retained_max", double(total.retained_max))
      .num("approx_bytes_max", double(total.bytes_max))
      .num("lag_frames_max", double(total.lag_max))
      .num("status_samples", double(total.status_samples))
      .raw("closed", closed)
      .raw("planted", "{\"expect_id\":" + std::to_string(plan.planted_id) +
                          ",\"violating\":" + std::to_string(p.violating) +
                          ",\"verdict\":" + std::to_string(p.verdict) +
                          ",\"count\":" + std::to_string(p.count) +
                          ",\"expect\":" + std::to_string(p.expect) + "}")
      .str("error", error);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ----- wal-audit -----------------------------------------------------------

/// Replays every shard log of a WAL directory (wal-<shard>.log, shards
/// from 0 until a file is missing) through fresh StreamingMonitors and
/// reports each stream's verdict and commit count at its CLOSE frame.
int wal_audit(const Args& a) {
  if (a.positional.empty()) return 2;
  const std::string dir = a.positional[0];
  std::size_t frames = 0;
  std::size_t shards = 0;
  bool torn = false;
  bool gap = false;
  std::map<std::uint64_t, StreamingMonitor> open;
  std::string closed = "[";
  for (;; ++shards) {
    const std::string path = service::wal_path(dir, shards);
    if (!std::ifstream(path)) break;
    mvcc::RecorderLog::ReplayReport rep;
    const auto raw = mvcc::RecorderLog::replay_raw(path, &rep);
    torn = torn || rep.torn_tail;
    std::uint64_t expect_seq = 1;
    for (const auto& frame : raw) {
      std::uint64_t seq = 0;
      service::Message m;
      if (!service::decode_wal_frame(frame, seq, m)) {
        gap = true;
        continue;
      }
      gap = gap || seq != expect_seq;
      expect_seq = seq + 1;
      ++frames;
      if (m.type == service::MsgType::kOpenStream) {
        StreamingConfig cfg;
        open.emplace(m.stream,
                     StreamingMonitor(service::check_model(
                                          static_cast<service::ServiceModel>(
                                              m.model)),
                                      cfg));
      } else if (m.type == service::MsgType::kCommit) {
        const auto it = open.find(m.stream);
        if (it != open.end()) (void)it->second.commit_all_guarded(m.commits);
      } else if (m.type == service::MsgType::kClose) {
        const auto it = open.find(m.stream);
        if (it == open.end()) continue;
        closed += std::string(closed.size() > 1 ? "," : "") + "[" +
                  std::to_string(m.stream) + "," +
                  std::to_string(int(it->second.verdict())) + "," +
                  std::to_string(it->second.size()) + "]";
        open.erase(it);
      }
    }
  }
  closed += "]";
  Json j;
  j.num("shards", double(shards))
      .num("frames", double(frames))
      .num("open", double(open.size()))
      .raw("torn", torn ? "true" : "false")
      .raw("gap", gap ? "true" : "false")
      .raw("closed", closed);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ----- trace-lint ----------------------------------------------------------

struct CycleSpan {
  Criterion crit;
  const char* name;
};

constexpr CycleSpan kCycleSpans[] = {
    {Criterion::kSER, "lint.cycles.ser"},
    {Criterion::kSI, "lint.cycles.si"},
    {Criterion::kPSI, "lint.cycles.psi"}};

const std::vector<std::string> kStructural = {
    "empty-piece", "write-never-read", "duplicate-piece-access",
    "single-piece-program"};

/// The per-file lint pipeline, one layer call at a time, in the order
/// lint::run_checks runs them (each critical-cycle check builds its own
/// static chopping graph, as the check does).
/// Returns the number of critical-cycle searches that exhausted the budget.
std::size_t lint_layers(const lint::SourceFile& f) {
  Scope file("lint.file");
  lint::SuiteContext ctx;
  ctx.file = f.path;
  ctx.source = f.text;
  try {
    Scope s("lint.parse");
    ctx.suite = parse_programs(f.text);
  } catch (const ModelError&) {
    return 0;
  }
  if (ctx.suite.programs.empty()) return 0;
  std::size_t hits = 0;
  for (const CycleSpan& c : kCycleSpans) {
    std::optional<StaticChoppingGraph> scg;
    {
      Scope s("lint.scg");
      scg.emplace(ctx.suite.programs);
    }
    Scope s(c.name);
    const ChoppingVerdict v =
        find_critical_cycle(scg->graph(), c.crit, kDefaultCycleBudget);
    if (!v.complete) ++hits;
  }
  {
    Scope s("lint.robust_si_ser");
    (void)robust_against_si(ctx.suite.programs);
  }
  {
    Scope s("lint.robust_psi_si");
    (void)robust_against_psi(ctx.suite.programs);
  }
  {
    Scope s("lint.structural");
    (void)lint::run_checks(ctx, lint::CheckOptions{}, kStructural, nullptr);
  }
  return hits;
}

std::vector<lint::SourceFile> load_sources(
    const std::vector<std::string>& paths) {
  std::vector<lint::SourceFile> files;
  for (const std::string& p : paths) files.push_back({p, read_file(p)});
  return files;
}

int trace_lint(const Args& a) {
  const std::vector<lint::SourceFile> files = load_sources(a.positional);
  const std::vector<lint::SourceFile> wfiles = load_sources(a.all("witness"));
  const std::size_t threads = parallel_thread_count();

  // The corpus through the layers on the lint pool, as run_lint schedules
  // it (one file per task); each task lints its file untraced and traced.
  std::atomic<std::size_t> hits{0};
  Paired paired;
  const auto t0 = Clock::now();
  parallel_for(0, files.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      run_paired(i, [&](bool traced) {
        const std::size_t h = lint_layers(files[i]);
        if (traced) hits += h;
      }, paired);
    }
  });
  const double pass_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double file_s =
      double(paired.untraced_ns.load() + paired.traced_ns.load()) / 1e9;

  // Witnesses for the critical-cycle findings of the --witness files, and
  // the rendering of their report.
  t_tracing = true;
  std::size_t schedules = 0;
  const lint::LintRun wrun = lint::run_lint(wfiles, lint::LintOptions{});
  for (const lint::FileResult& f : wrun.files) {
    for (const Diagnostic& d : f.diagnostics) {
      const std::optional<Criterion> crit =
          witness::criterion_of_check(d.check);
      if (!crit || d.context == "cycle-budget") continue;
      const ParsedSuite suite = parse_programs(f.source);
      Scope s("lint.witness");
      schedules += witness::find_witness(suite, *crit).stats.schedules_explored;
    }
  }
  {
    Scope s("lint.render");
    (void)lint::render_human(wrun, false);
    (void)lint::to_sarif(wrun);
  }
  t_tracing = false;
  g_tracer.write(a.get("spans"));

  Json j;
  j.num("files", double(files.size()))
      .num("pool_threads", double(threads))
      .num("overhead_ratio", paired.ratio())
      .num("pass_s", pass_s)
      .num("file_s", file_s)
      .num("cycle_budget_hits", double(hits.load()))
      .num("witness_schedules", double(schedules))
      .num("spans", double(g_tracer.span_count()));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ----- trace-decide --------------------------------------------------------

int trace_decide(const Args& a) {
  const char* model_spans[] = {"decide.model.ser", "decide.model.si",
                               "decide.model.psi"};
  const Model models[] = {Model::kSER, Model::kSI, Model::kPSI};
  std::size_t graphs[3] = {0, 0, 0};
  double check_ns[3] = {0, 0, 0};
  std::size_t checks[3] = {0, 0, 0};
  std::size_t enumerated = 0;
  std::vector<std::string> texts;
  for (const std::string& p : a.positional) texts.push_back(read_file(p));

  Paired paired;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    run_paired(k, [&](bool traced) {
      Scope file("decide.file");
      ParsedHistory ph;
      {
        Scope s("decide.parse");
        ph = parse_history(texts[k]);
      }
      for (int m = 0; m < 3; ++m) {
        Scope s(model_spans[m]);
        const HistDecision d = decide_history(ph.history, models[m]);
        if (traced) graphs[m] += d.graphs_tried;
      }
    }, paired);
  }

  // Enumeration alone, and the characterisation check per candidate over
  // the candidates decide_history visits (it stops at the first member).
  t_tracing = true;
  for (const std::string& text : texts) {
    const ParsedHistory ph = parse_history(text);
    {
      Scope s("decide.enumerate");
      enumerated += enumerate_dependency_graphs(
          ph.history, [](const DependencyGraph&) { return true; });
    }
    for (int m = 0; m < 3; ++m) {
      (void)enumerate_dependency_graphs(
          ph.history, [&](const DependencyGraph& g) {
            const std::int64_t c0 = now_ns();
            const GraphCheck r = check_graph(g, models[m]);
            check_ns[m] += double(now_ns() - c0);
            ++checks[m];
            return !r.member;
          });
    }
  }
  t_tracing = false;
  g_tracer.write(a.get("spans"));

  Json j;
  j.num("histories", double(texts.size()))
      .num("overhead_ratio", paired.ratio())
      .num("enumerated", double(enumerated))
      .num("graphs_ser", double(graphs[0]))
      .num("graphs_si", double(graphs[1]))
      .num("graphs_psi", double(graphs[2]))
      .num("check_us_ser", checks[0] ? check_ns[0] / 1e3 / checks[0] : 0)
      .num("check_us_si", checks[1] ? check_ns[1] / 1e3 / checks[1] : 0)
      .num("check_us_psi", checks[2] ? check_ns[2] / 1e3 / checks[2] : 0)
      .num("spans", double(g_tracer.span_count()));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// ----- trace-service -------------------------------------------------------

/// Replays the load's batches in process, stream by stream, through the
/// layers a COMMIT crosses inside siad: frame encode, frame decode,
/// StreamingMonitor ingest and (durable) the WAL append.
int trace_service(const Args& a) {
  const std::string mode = a.get("mode", "monitor");
  const Plan plan = make_plan(mode, a.num("seed", 1));
  const std::string wal_dir = a.get("wal-dir");
  const bool durable = mode == "durable";

  std::vector<const StreamPlan*> streams;
  std::size_t total = 0;
  for (std::size_t j = 0; total < kTraceCommits; ++j) {
    bool any = false;
    for (const auto& conn : plan.conns) {
      if (j < conn.size() && total < kTraceCommits) {
        streams.push_back(&conn[j]);
        total += conn[j].commits;
        any = true;
      }
    }
    if (!any) break;
  }

  // Each batch goes through two copies of the layers, one untraced and
  // one traced, each with its own monitor and WAL.
  std::size_t gc_batches = 0;
  std::vector<double> gc_ns;
  service::ensure_dir(wal_dir);
  std::optional<mvcc::RecorderLog> wal[2];
  if (durable) {
    for (std::size_t side = 0; side < 2; ++side) {
      wal[side].emplace(service::wal_path(wal_dir, side));
    }
  }
  std::uint64_t seq[2] = {0, 0};
  Paired paired;
  std::size_t k = 0;
  for (const StreamPlan* sp : streams) {
    StreamingMonitor mon[2] = {StreamingMonitor(Model::kSI, StreamingConfig{}),
                               StreamingMonitor(Model::kSI, StreamingConfig{})};
    for (const Batch& b : sp->batches) {
      run_paired(k++, [&](bool traced) {
        const std::size_t side = traced ? 1 : 0;
        service::Message m;
        m.type = service::MsgType::kCommit;
        m.stream = 1;
        m.commits = b;
        std::vector<std::uint8_t> frame;
        {
          Scope s("wire.encode");
          frame = service::encode_frame(m);
        }
        service::Message in;
        {
          Scope s("wire.decode");
          service::FrameDecoder dec;
          dec.feed(frame.data(), frame.size());
          if (dec.next(in) != service::FrameDecoder::Status::kFrame) {
            throw ModelError("frame did not decode");
          }
        }
        const std::size_t pruned = mon[side].pruned();
        const std::int64_t i0 = now_ns();
        {
          Scope s("monitor.ingest");
          (void)mon[side].commit_all_guarded(in.commits);
        }
        if (traced && mon[side].pruned() != pruned) {
          ++gc_batches;
          gc_ns.push_back(double(now_ns() - i0));
        }
        if (wal[side]) {
          const std::vector<std::uint8_t> payload = service::encode_wal_frame(
              ++seq[side], service::encode_payload(in));
          Scope s("wal.append");
          wal[side]->append_raw(payload);
        }
      }, paired);
    }
  }
  g_tracer.write(a.get("spans"));

  const auto us = [](std::vector<double> v, double q) {
    return quantile(std::move(v), q) / 1e3;
  };
  Json j;
  j.num("streams", double(streams.size()))
      .num("commits", double(total))
      .num("overhead_ratio", paired.ratio())
      .num("ingest_us_p50", us(g_tracer.durations("monitor.ingest"), 0.5))
      .num("ingest_us_p99", us(g_tracer.durations("monitor.ingest"), 0.99))
      .num("gc_batches", double(gc_batches))
      .num("gc_batch_us_p50", us(gc_ns, 0.5))
      .num("encode_us_p50", us(g_tracer.durations("wire.encode"), 0.5))
      .num("decode_us_p50", us(g_tracer.durations("wire.decode"), 0.5))
      .num("wal_append_us_p50", us(g_tracer.durations("wal.append"), 0.5))
      .num("wal_append_us_p99", us(g_tracer.durations("wal.append"), 0.99))
      .num("spans", double(g_tracer.span_count()));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sia_bench gen-figs|gen-hist|load|wal-audit|"
                 "trace-lint|trace-decide|trace-service ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args a = parse_args(argc, argv, 2);
  try {
    if (cmd == "gen-figs") return gen_figs(a);
    if (cmd == "gen-hist") return gen_hist(a);
    if (cmd == "load") return load(a);
    if (cmd == "wal-audit") return wal_audit(a);
    if (cmd == "trace-lint") return trace_lint(a);
    if (cmd == "trace-decide") return trace_decide(a);
    if (cmd == "trace-service") return trace_service(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sia_bench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "sia_bench: unknown command '%s'\n", cmd.c_str());
  return 2;
}
