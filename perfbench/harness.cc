// perfbench_harness — the load generator and output checker behind
// perfbench/run.py. One invocation runs one workload from a seed and prints
// one JSON object of raw observations (per-request timestamps, set-up
// samples, layer probes, output checks); run.py turns them into metrics.
//
//   perfbench_harness <batch_paper|served_mixed|adhoc_inline>
//       --seed=N --seconds=S --trace=0|1 --cli=PATH --workdir=DIR
//
// Timing is taken around calls into each module's public functions; the
// program itself is not instrumented further. With --trace=1 the harness
// records spans (name, start, end, parent, request id) in memory and writes
// them at exit as Chrome trace-event JSON to DIR/trace_<workload>.json.
#include <cpuid.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "cli_flags.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/blocking.h"
#include "core/enricher.h"
#include "core/match_engine.h"
#include "core/propagation.h"
#include "core/selection.h"
#include "nway/vocabulary_builder.h"
#include "obs/metrics.h"
#include "repository/metadata_repository.h"
#include "schema/schema_io.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/state.h"
#include "sql/ddl_exporter.h"
#include "synth/generator.h"
#include "text/simd.h"
#include "workflow/match_record.h"
#include "xml/xsd_exporter.h"

namespace hm = harmony;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters. They are part of the benchmark's definition
// (perfbench/NOTES.md repeats them); changing one changes what every later
// comparison measures.

// batch_paper: synth::PairSpec defaults (~1743 x 655 elements, ~1.14 M
// cells), alternating HSC/HSC and DDL/XSD files, run through the CLI with
// its default flags.
constexpr size_t kBatchPairs = 8;
constexpr double kBatchThreshold = 0.35;
constexpr double kBatchLimitMs = 2000.0;

// served_mixed: 16 resident schemata, one worker pinned by a stats poller.
constexpr const char* kServedFlags[] = {"--threads=2", "--blocking=exact",
                                        "--engine-cache-max=12"};
constexpr size_t kServedSchemas = 16;
// The resident repository is a fixed fixture, like a deployment's; the run's
// seed drives the traffic (arrivals, pairs, queries). Quality and cost then
// vary with the traffic, not with which repository a seed happens to draw.
constexpr uint64_t kServedRepositorySeed = 7;
constexpr size_t kServedUniverse = 36;
constexpr size_t kServedConceptsPerSchema = 12;
constexpr double kServedRatePerS = 12.0;
constexpr double kServedLimitMs = 250.0;
constexpr size_t kServedQueryClients = 3;
constexpr double kServedPollIntervalMs = 1000.0;  // top's default
constexpr double kServedZipfS = 0.7;
// Request mix over the query clients (cumulative shares).
constexpr double kShareMatch = 0.60;
constexpr double kShareRefined = 0.10;
constexpr double kShareSearch = 0.15;  // remainder: ping
constexpr double kServedThreshold = 0.35;

// adhoc_inline: never-seen ~50 x 40 DDL/XSD pairs shipped inline.
constexpr const char* kAdhocFlags[] = {"--threads=2", "--pipeline=staged"};
constexpr size_t kAdhocConnections = 2;
constexpr double kAdhocThreshold = 0.35;
constexpr double kAdhocLimitMs = 50.0;
// Inputs ready before each 1 s load segment: several times what a segment
// consumes.
constexpr size_t kAdhocQueue = 2048;
// Traced references recomputed (one at a time) for the per-layer spans.
constexpr size_t kAdhocTracedReferences = 500;
// peak_rss_mb is read when this many requests have completed: the daemon's
// heap grows with every request served, so a peak read at the end of the
// window would follow the host's speed.
constexpr size_t kAdhocRssRequests = 4000;

// Each workload sets up at least this many times and for at least this long
// per run; setup_s is the median, so a short set-up rests on more samples.
constexpr size_t kSetupRepeats = 7;
constexpr double kSetupMinSeconds = 2.0;

// Reference work (calibrate.h): a burst on one thread after each set-up (the
// set-ups are serial); bursts on as many threads as the load keeps busy
// after each batch invocation and between adhoc_inline's load segments
// (left out of their measured windows); and, beside served_mixed's mostly
// idle daemon, a ReferenceServer round trip at a fixed period.
constexpr int kSetupCalibrationChunks = 8;
constexpr int kBatchCalibrationChunks = 8;
constexpr int kAdhocCalibrationChunks = 10;
constexpr double kAdhocSegmentS = 1.0;
constexpr double kServedRoundTripPeriodMs = 50.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntil(uint64_t deadline_ns) {
  uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU brand string and the instruction-set flags the kernels dispatch on.
std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  return hm::Trim(brand);
}

std::string CpuFlags() {
  __builtin_cpu_init();
  std::string flags;
  auto add = [&](bool on, const char* name) {
    if (on) flags += flags.empty() ? name : std::string(" ") + name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("popcnt"), "popcnt");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("bmi2"), "bmi2");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  return flags;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans. Recorded only with --trace=1; each span names its parent by index
// and carries the id of the request it belongs to.

class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Records a finished span; returns its index (-1 when tracing is off).
  int64_t Add(const std::string& name, uint64_t start, uint64_t end,
              int64_t parent, uint64_t request, int tid) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, request, tid});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is set later by Close (children need the index).
  int64_t Open(const std::string& name, uint64_t start, int64_t parent,
               uint64_t request, int tid) {
    return Add(name, start, start, parent, request, tid);
  }
  void Close(int64_t index, uint64_t end) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = end;
  }
  uint64_t NextRequestId() { return next_request_.fetch_add(1); }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool Write(const std::string& path, uint64_t origin_ns) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      uint64_t start = s.start >= origin_ns ? s.start - origin_ns : 0;
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << JsonEscape(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << Num(static_cast<double>(start) / 1e3)
          << ",\"dur\":" << Num(static_cast<double>(s.end - s.start) / 1e3)
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct SpanRec {
    std::string name;
    uint64_t start, end;
    int64_t parent;
    uint64_t request;
    int tid;
  };
  bool on_;
  std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::atomic<uint64_t> next_request_{1};
};

/// Times `fn` as a span named `name` under `parent`; returns its duration.
template <typename Fn>
uint64_t Timed(Trace& trace, const std::string& name, int64_t parent,
               uint64_t request, int tid, Fn&& fn) {
  uint64_t t0 = NowNs();
  fn();
  uint64_t t1 = NowNs();
  trace.Add(name, t0, t1, parent, request, tid);
  return t1 - t0;
}

// ---------------------------------------------------------------------------
// Result accumulation.

struct RequestRec {
  uint64_t due = 0, start = 0, done = 0;
  bool ok = false;
  bool light = false;
  bool traced = false;
};

struct Result {
  std::string workload;
  std::map<std::string, std::string> params;
  std::vector<double> setup_s;
  // Reference-work times during the load (chunks, or round trips for
  // served_mixed) and what they take on the reference host.
  std::vector<double> calibration_ms;
  double calibration_reference_ms = perfbench::kReferenceChunkMs;
  // Median chunk time of the burst right after each set-up, for scaling
  // that set-up on its own: set-ups are few and the host drifts between them.
  std::vector<double> setup_calibration_ms;
  std::vector<RequestRec> requests;
  uint64_t window_ns = 0;
  double limit_ms = 0;
  uint64_t tp = 0, fp = 0, fn = 0;
  uint64_t checked = 0, mismatches = 0, errors = 0, refused = 0;
  double peak_rss_mb = 0;
  std::map<std::string, std::vector<double>> samples;  // per-layer probes
  std::map<std::string, double> values;                // per-layer scalars
  std::vector<std::string> notes;
  std::string trace_path;
};

std::string ToJson(const Result& r) {
  std::ostringstream o;
  o << "{\"workload\":\"" << r.workload << "\",\"params\":{";
  bool first = true;
  for (const auto& [k, v] : r.params) {
    o << (first ? "" : ",") << "\"" << k << "\":\"" << JsonEscape(v) << "\"";
    first = false;
  }
  o << "},\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":\"" << JsonEscape(CpuModel())
    << "\",\"cpu_flags\":\"" << CpuFlags() << "\",\"compiler\":\""
    << JsonEscape(__VERSION__) << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"harmony_obs\":"
    << (PERFBENCH_OBS ? "true" : "false")
    << ",\"harmony_simd_compiled\":" << (PERFBENCH_SIMD ? "true" : "false")
    << ",\"simd_level\":\""
    << hm::text::simd::LevelName(hm::text::simd::ActiveLevel()) << "\"}";
  o << ",\"setup_s\":[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    o << (i ? "," : "") << Num(r.setup_s[i]);
  }
  o << "],\"calibration_ms\":[";
  for (size_t i = 0; i < r.calibration_ms.size(); ++i) {
    o << (i ? "," : "") << Num(r.calibration_ms[i]);
  }
  o << "],\"setup_calibration_ms\":[";
  for (size_t i = 0; i < r.setup_calibration_ms.size(); ++i) {
    o << (i ? "," : "") << Num(r.setup_calibration_ms[i]);
  }
  o << "],\"setup_calibration_reference_ms\":"
    << Num(perfbench::kReferenceChunkMs)
    << ",\"calibration_reference_ms\":" << Num(r.calibration_reference_ms);
  o << ",\"window_s\":" << Num(static_cast<double>(r.window_ns) / 1e9)
    << ",\"limit_ms\":" << Num(r.limit_ms) << ",\"requests\":[";
  for (size_t i = 0; i < r.requests.size(); ++i) {
    const RequestRec& q = r.requests[i];
    o << (i ? "," : "") << "[" << q.due << "," << q.start << "," << q.done
      << "," << q.ok << "," << q.light << "," << q.traced << "]";
  }
  o << "],\"quality\":{\"tp\":" << r.tp << ",\"fp\":" << r.fp
    << ",\"fn\":" << r.fn << "},\"checks\":{\"checked\":" << r.checked
    << ",\"mismatches\":" << r.mismatches << ",\"errors\":" << r.errors
    << ",\"refused\":" << r.refused
    << "},\"peak_rss_mb\":" << Num(r.peak_rss_mb) << ",\"samples\":{";
  first = true;
  for (const auto& [k, v] : r.samples) {
    o << (first ? "" : ",") << "\"" << k << "\":[";
    for (size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << Num(v[i]);
    o << "]";
    first = false;
  }
  o << "},\"values\":{";
  first = true;
  for (const auto& [k, v] : r.values) {
    o << (first ? "" : ",") << "\"" << k << "\":" << Num(v);
    first = false;
  }
  o << "},\"notes\":[";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    o << (i ? "," : "") << "\"" << JsonEscape(r.notes[i]) << "\"";
  }
  o << "],\"trace_path\":\"" << JsonEscape(r.trace_path) << "\"}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Shared engine-side helpers.

using Links = std::vector<hm::service::MatchLink>;

/// The CLI's CSV rendering (examples/harmony_match.cpp LinksCsv).
std::string LinksCsv(const Links& links) {
  hm::CsvWriter w;
  w.AppendRow({"source_path", "target_path", "score"});
  for (const auto& link : links) {
    w.AppendRow({link.source_path, link.target_path,
                 hm::StringFormat("%.4f", link.score)});
  }
  return w.ToString();
}

Links ToLinks(const hm::core::MatchEngine& engine,
              const std::vector<hm::core::Correspondence>& selected) {
  Links links;
  links.reserve(selected.size());
  for (const auto& c : selected) {
    links.push_back({engine.source().Path(c.source),
                     engine.target().Path(c.target), c.score});
  }
  return links;
}

/// Order-sensitive FNV-1a digest of a link list (paths and exact score
/// bits), so replies are checked against references without being kept.
uint64_t LinksDigest(const Links& links) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const auto& l : links) {
    mix(l.source_path.data(), l.source_path.size() + 1);
    mix(l.target_path.data(), l.target_path.size() + 1);
    mix(&l.score, sizeof l.score);
  }
  return h;
}

/// Ground-truth element pairs, sorted and unique.
using PathPairs = std::vector<std::pair<std::string, std::string>>;

PathPairs MakePathPairs(PathPairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void Score(const Links& links, const PathPairs& truth, Result* r) {
  uint64_t tp = 0;
  for (const auto& l : links) {
    tp += std::binary_search(truth.begin(), truth.end(),
                             std::make_pair(l.source_path, l.target_path));
  }
  r->tp += tp;
  r->fp += links.size() - tp;
  r->fn += truth.size() - tp;
}

/// Accumulates rank-stage counters for the per-layer table.
struct RankCounters {
  uint64_t cells = 0, cells_scored = 0, cpu_ns = 0, wall_ns = 0;
};

/// One match computed the way a request does it, each stage a span:
/// rank (ComputeMatrixFor, or the dense base + PropagateScores for refined),
/// then selection. Returns the selected correspondences.
std::vector<hm::core::Correspondence> RankAndSelect(
    const hm::core::MatchEngine& engine, double threshold, bool refined,
    bool one_to_one, Trace& trace, int64_t parent, uint64_t request, int tid,
    RankCounters* counters) {
  uint64_t scored0 = engine.StatsReport().cells_scored;
  uint64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  uint64_t t0 = NowNs();
  hm::core::MatchMatrix base = refined
      ? engine.pipeline().Run(engine.source().AllElementIds(),
                              engine.target().AllElementIds(),
                              /*allow_accel=*/false)
      : engine.ComputeMatrixFor(threshold);
  uint64_t t1 = NowNs();
  uint64_t cpu1 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  trace.Add("core.rank", t0, t1, parent, request, tid);
  if (counters != nullptr) {
    counters->cells += base.pair_count();
    counters->cells_scored += engine.StatsReport().cells_scored - scored0;
    counters->cpu_ns += cpu1 - cpu0;
    counters->wall_ns += t1 - t0;
  }
  std::optional<hm::core::MatchMatrix> matrix;
  const hm::core::MatchMatrix* selected_from = &base;
  if (refined) {
    // MatchEngine::ComputeRefinedMatrix, split so propagation is its own
    // span: the propagation options inherit the engine's threads/grain.
    hm::core::PropagationOptions propagation = engine.options().propagation;
    if (propagation.num_threads == 0) {
      propagation.num_threads = engine.options().num_threads;
    }
    if (propagation.grain == 0) propagation.grain = engine.options().grain;
    Timed(trace, "core.propagate", parent, request, tid, [&] {
      matrix.emplace(hm::core::PropagateScores(engine.source(), engine.target(),
                                               base, propagation,
                                               engine.context()));
    });
    selected_from = &*matrix;
  }
  std::vector<hm::core::Correspondence> selected;
  Timed(trace, "core.select", parent, request, tid, [&] {
    selected = one_to_one
        ? hm::core::SelectGreedyOneToOne(*selected_from, threshold,
                                         engine.context())
        : hm::core::SelectByThreshold(*selected_from, threshold,
                                      engine.context());
  });
  return selected;
}

void RecordRankValues(const RankCounters& c, Result* r) {
  double nproc = std::max(1u, std::thread::hardware_concurrency());
  r->values["core.cells_scored_frac"] =
      c.cells ? static_cast<double>(c.cells_scored) / c.cells : 0.0;
  r->values["core.cells_per_cpu_s"] =
      c.cpu_ns ? static_cast<double>(c.cells_scored) / (c.cpu_ns / 1e9) : 0.0;
  r->values["core.rank_cpu_util"] =
      c.wall_ns ? static_cast<double>(c.cpu_ns) / (c.wall_ns * nproc) : 0.0;
}

/// Probes of the engine build's parts, each timed on its own over the same
/// schemata and options the measured engine used: the profile arenas, the
/// candidate bound index (built when blocking or the staged pipeline needs
/// one) and the staged pipeline's enrichment overlay.
void ProbeEngineBuild(const hm::core::MatchEngine& engine, Result* r) {
  const hm::core::MatchOptions& o = engine.options();
  uint64_t t0 = NowNs();
  hm::core::ProfilePair profiles(engine.source(), engine.target(), o.preprocess,
                                 engine.context());
  r->samples["core.profile_build_ms"].push_back(Ms(NowNs() - t0));
  const bool staged = o.pipeline.mode == hm::core::PipelineMode::kStaged;
  double index_ms = 0, enrich_ms = 0;
  if (o.blocking.mode != hm::core::BlockingMode::kOff || staged) {
    hm::core::BlockingOptions bo = o.blocking;
    if (bo.mode == hm::core::BlockingMode::kOff) {
      bo.mode = hm::core::BlockingMode::kExact;
    }
    uint64_t i0 = NowNs();
    hm::core::BlockingIndex index(profiles, o.voters, o.merger, bo,
                                  o.threshold);
    index_ms = Ms(NowNs() - i0);
  }
  if (staged) {
    hm::core::ReferenceEnricher enricher(o.preprocess);
    uint64_t e0 = NowNs();
    auto src = enricher.Enrich(profiles, hm::core::PipelineSide::kSource);
    auto tgt = enricher.Enrich(profiles, hm::core::PipelineSide::kTarget);
    enrich_ms = Ms(NowNs() - e0);
  }
  r->samples["core.index_build_ms"].push_back(index_ms);
  r->samples["core.enrich_build_ms"].push_back(enrich_ms);
}

/// Each voter's VoteRow over every source row against every target,
/// single-threaded, in thread CPU time — the per-voter cost the engine's
/// own --stats table cannot give at more than one thread.
void ProbeVoters(const hm::core::MatchEngine& engine, Result* r) {
  const auto& voters = engine.pipeline().voters();
  const auto rows = engine.source().AllElementIds();
  const auto targets = engine.target().AllElementIds();
  std::vector<hm::core::VoterScore> out(targets.size());
  hm::core::VoterScratch scratch;
  for (const auto& voter : voters) {
    uint64_t c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    for (auto s : rows) {
      voter->VoteRow(engine.profiles(), s, targets, out, scratch);
    }
    r->samples[std::string("core.voter.") + voter->name() + "_cpu_ms"]
        .push_back(Ms(CpuNs(CLOCK_THREAD_CPUTIME_ID) - c0));
  }
}

/// Runs `fn` on a ThreadPool worker, as a harmonyd session worker runs a
/// request: ParallelFor calls made there execute inline on that thread.
void OnSessionWorker(const std::function<void()>& fn) {
  hm::common::ThreadPool pool(1);
  std::promise<void> done;
  pool.Submit([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

// ---------------------------------------------------------------------------
// In-process harmonyd.

struct Daemon {
  hm::core::EngineContext root;
  std::unique_ptr<hm::obs::MetricsRegistry> registry;
  hm::core::EngineContext context;
  std::shared_ptr<hm::service::ServiceState> state;
  std::unique_ptr<hm::service::Server> server;

  ~Daemon() { Stop(); }
  /// Drains the server; its counters and request log stay readable.
  void Stop() {
    if (server) {
      server->RequestDrain();
      server->Wait();
    }
  }
};

hm::service::ServeOptions ParseDaemonFlags(const std::vector<std::string>& flags) {
  hm::service::ServeOptions options;
  if (!hm::cli::ParseServeFlags(flags, &options)) {
    std::fprintf(stderr, "perfbench: bad daemon flags\n");
    std::exit(2);
  }
  // The summary ring must hold every request of a run so the traced pass can
  // join client latencies with server-side queue wait and handler time.
  options.server.request_log_capacity = 1 << 20;
  return options;
}

/// Sets up a daemon the way service::ServeMain does (registration, state
/// build, server start) and waits for its first ping. Spans go under a
/// "setup" root.
std::unique_ptr<Daemon> StartDaemon(const hm::service::ServeOptions& options,
                                    const std::vector<hm::schema::Schema>& schemas,
                                    Trace& trace, Result* r) {
  auto d = std::make_unique<Daemon>();
  d->registry = std::make_unique<hm::obs::MetricsRegistry>(d->root.metrics);
  d->context = hm::core::EngineContext(d->registry.get(), d->root.tracer);
  uint64_t req = trace.NextRequestId();
  uint64_t t0 = NowNs();
  int64_t root = trace.Open("setup", t0, -1, req, 0);
  hm::repository::MetadataRepository repo;
  uint64_t register_ns = Timed(trace, "repository.register", root, req, 0, [&] {
    for (const auto& s : schemas) {
      auto id = repo.RegisterSchema(s);
      if (!id.ok()) {
        std::fprintf(stderr, "perfbench: register: %s\n",
                     id.status().ToString().c_str());
        std::exit(1);
      }
    }
  });
  r->samples["repository.register_ms"].push_back(Ms(register_ns));
  Timed(trace, "service.state_build", root, req, 0, [&] {
    auto state = hm::service::ServiceState::Build(std::move(repo),
                                                   options.state, d->context);
    if (!state.ok()) {
      std::fprintf(stderr, "perfbench: state: %s\n",
                   state.status().ToString().c_str());
      std::exit(1);
    }
    d->state = std::shared_ptr<hm::service::ServiceState>(std::move(*state));
  });
  Timed(trace, "service.start", root, req, 0, [&] {
    auto server = hm::service::Server::Start(d->state, options.server,
                                             d->context);
    if (!server.ok()) {
      std::fprintf(stderr, "perfbench: start: %s\n",
                   server.status().ToString().c_str());
      std::exit(1);
    }
    d->server = std::move(*server);
  });
  Timed(trace, "service.first_ping", root, req, 0, [&] {
    auto client = hm::service::Client::Connect("127.0.0.1", d->server->port());
    if (!client.ok() || !client->Ping().ok()) {
      std::fprintf(stderr, "perfbench: first ping failed\n");
      std::exit(1);
    }
  });
  uint64_t t1 = NowNs();
  trace.Close(root, t1);
  r->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  return d;
}

/// The reference-work burst after a set-up.
void CalibrateSetup(Result* r) {
  std::vector<double> chunks;
  perfbench::Calibrate(1, kSetupCalibrationChunks, &chunks);
  std::sort(chunks.begin(), chunks.end());
  const size_t n = chunks.size();
  r->setup_calibration_ms.push_back(
      n % 2 ? chunks[n / 2] : (chunks[n / 2 - 1] + chunks[n / 2]) / 2);
}

/// Whether to set up once more (see kSetupRepeats).
bool MoreSetups(const Result& r) {
  double total = 0;
  for (double s : r.setup_s) total += s;
  return r.setup_s.size() < kSetupRepeats || total < kSetupMinSeconds;
}

/// Sets up daemons in turn while MoreSetups, keeping the last for the load,
/// with a reference-work burst after each.
std::unique_ptr<Daemon> SetUpDaemon(const hm::service::ServeOptions& options,
                                    const std::vector<hm::schema::Schema>& schemas,
                                    Trace& trace, Result* r) {
  std::unique_ptr<Daemon> d;
  while (MoreSetups(*r)) {
    d.reset();
    d = StartDaemon(options, schemas, trace, r);
    CalibrateSetup(r);
  }
  return d;
}

/// One request as the client saw it, for the join with the server's
/// request summaries.
struct Exchange {
  const char* family = "";
  uint64_t request_bytes = 0, reply_bytes = 0;
  uint64_t roundtrip_start = 0, done = 0;
  int64_t root_span = -1, roundtrip_span = -1;
  uint64_t request_id = 0;
  int tid = 0;
  bool traced = false;
};

/// How a reply frame answered its request.
enum class Outcome { kOk, kRefused, kError };

Outcome Classify(const hm::Result<hm::service::Frame>& frame) {
  using RT = hm::service::ResponseTag;
  if (!frame.ok()) return Outcome::kError;
  if (frame->tag == static_cast<uint8_t>(RT::kRejected)) return Outcome::kRefused;
  return frame->tag == static_cast<uint8_t>(RT::kOk) ? Outcome::kOk
                                                      : Outcome::kError;
}

/// One request as the load generator sees it: timed from its due time (an
/// open loop's schedule; a closed loop's is the send time), with its
/// client-side spans under a "request" root, and the exchange the join with
/// the server's request summaries needs.
class ClientCall {
 public:
  ClientCall(Trace& trace, std::optional<uint64_t> due, bool traced,
             bool light, int tid)
      : trace_(trace) {
    rec.start = NowNs();
    rec.due = due.value_or(rec.start);
    rec.traced = traced;
    rec.light = light;
    ex.tid = tid;
    ex.traced = traced;
    ex.request_id = trace.NextRequestId();
    ex.root_span = trace.Open("request", rec.due, -1, ex.request_id, tid);
    if (due.has_value()) {
      trace.Add("loadgen.lag", rec.due, rec.start, ex.root_span,
                ex.request_id, tid);
    }
  }

  /// Opens a fresh session, as each `harmony_match query` command does.
  hm::Result<hm::service::Client> Connect(uint16_t port) {
    uint64_t t0 = NowNs();
    auto client = hm::service::Client::Connect("127.0.0.1", port);
    trace_.Add("client.connect", t0, NowNs(), ex.root_span, ex.request_id,
               ex.tid);
    return client;
  }

  /// Sends one frame and reads the reply (the "client.roundtrip" span).
  hm::Result<hm::service::Frame> RoundTrip(hm::service::Client& client,
                                           hm::service::RequestTag tag,
                                           const std::string& payload) {
    ex.family = hm::service::RequestFamilyName(
        hm::service::RequestFamilyIndex(static_cast<uint8_t>(tag)));
    ex.request_bytes = payload.size();
    ex.roundtrip_start = NowNs();
    ex.roundtrip_span = trace_.Open("client.roundtrip", ex.roundtrip_start,
                                    ex.root_span, ex.request_id, ex.tid);
    auto reply = client.RoundTrip(static_cast<uint8_t>(tag), payload);
    ex.done = NowNs();
    trace_.Close(ex.roundtrip_span, ex.done);
    if (reply.ok()) ex.reply_bytes = reply->payload.size();
    return reply;
  }

  void Finish() {
    rec.done = NowNs();
    trace_.Close(ex.root_span, rec.done);
  }

  RequestRec rec;
  Exchange ex;

 private:
  Trace& trace_;
};

/// Joins client exchanges with the server's request summaries (same family
/// and payload sizes, in completion order) and records the server-side
/// queue wait, handler and reply-write spans under each traced client round
/// trip, placed back from the reply time. Summaries with ids up to
/// `first_id` precede the load (the set-up ping) and are skipped.
void JoinServerSpans(std::vector<Exchange>& exchanges,
                     const std::vector<hm::service::RequestSummary>& summaries,
                     uint64_t first_id, Trace& trace, Result* r) {
  std::sort(exchanges.begin(), exchanges.end(),
            [](const Exchange& a, const Exchange& b) { return a.done < b.done; });
  std::map<std::tuple<std::string, uint64_t, uint64_t>, std::vector<size_t>>
      by_key;
  for (size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& e = exchanges[i];
    by_key[{e.family, e.request_bytes, e.reply_bytes}].push_back(i);
  }
  std::map<std::tuple<std::string, uint64_t, uint64_t>, size_t> next;
  size_t joined = 0;
  size_t traced = 0;
  for (const Exchange& e : exchanges) traced += e.traced;
  for (const auto& s : summaries) {
    if (s.id <= first_id) continue;
    std::tuple<std::string, uint64_t, uint64_t> key{s.family, s.request_bytes,
                                                    s.reply_bytes};
    auto it = by_key.find(key);
    if (it == by_key.end()) continue;
    size_t& k = next[key];
    if (k >= it->second.size()) continue;
    const Exchange& e = exchanges[it->second[k++]];
    if (!e.traced) continue;
    ++joined;
    uint64_t write_ns = s.total_ns - s.queue_wait_ns - s.handler_ns;
    uint64_t write_end = e.done;
    uint64_t handler_end = write_end - std::min(write_end, write_ns);
    uint64_t handler_start = handler_end - std::min(handler_end, s.handler_ns);
    uint64_t queue_start = handler_start - std::min(handler_start, s.queue_wait_ns);
    // The admission wait of a connection's first request can begin before
    // the client's round trip does; the span is clipped to the round trip.
    queue_start = std::min(std::max(queue_start, e.roundtrip_start),
                           handler_start);
    trace.Add("service.queue_wait", queue_start, handler_start,
              e.roundtrip_span, e.request_id, e.tid);
    trace.Add("service.handler", handler_start, handler_end, e.roundtrip_span,
              e.request_id, e.tid);
    trace.Add("service.write", handler_end, write_end, e.roundtrip_span,
              e.request_id, e.tid);
  }
  r->values["trace.joined_frac"] =
      traced ? static_cast<double>(joined) / traced : 0.0;
}

void RecordServerCounters(const Daemon& d, Result* r) {
  auto counters = d.server->CountersNow();
  r->values["service.rejected_frac"] =
      counters.served_requests + counters.rejected
          ? static_cast<double>(counters.rejected) /
                (counters.served_requests + counters.rejected)
          : 0.0;
}

// ---------------------------------------------------------------------------
// batch_paper

struct BatchPair {
  std::string source_path, target_path;
  PathPairs truth;
  std::string expected_csv;
};

/// Runs the CLI from a small helper process forked before the harness
/// allocates anything. A child's peak RSS as getrusage reports it includes
/// the memory of the process that spawned it (up to the exec), so spawning
/// from the harness itself would report the harness's footprint, not the
/// CLI's. Not copyable: it owns the helper's pipes and pid.
class Spawner {
 public:
  struct Run {
    uint64_t start_ns = 0, end_ns = 0;  // spawn .. reaped
    int32_t status = -1;                // exit code, -1 if it did not exit
    int64_t maxrss_kb = 0;
  };

  /// Forks the helper. Call while the process is still single-threaded.
  Spawner() {
    int cmd[2], res[2];
    if (pipe(cmd) != 0 || pipe(res) != 0) std::abort();
    pid_ = fork();
    if (pid_ < 0) std::abort();
    if (pid_ == 0) {
      close(cmd[1]);
      close(res[0]);
      Serve(cmd[0], res[1]);
      _exit(0);
    }
    close(cmd[0]);
    close(res[1]);
    cmd_fd_ = cmd[1];
    res_fd_ = res[0];
  }
  ~Spawner() {
    close(cmd_fd_);
    close(res_fd_);
    waitpid(pid_, nullptr, 0);
  }
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Runs `argv` with stdout to `out_path` and stderr to /dev/null.
  bool Spawn(const std::vector<std::string>& argv, const std::string& out_path,
             Run* run) {
    std::string msg = out_path + '\0';
    for (const auto& a : argv) msg += a + '\0';
    uint32_t len = static_cast<uint32_t>(msg.size());
    return WriteAll(cmd_fd_, &len, sizeof len) &&
           WriteAll(cmd_fd_, msg.data(), msg.size()) &&
           ReadAll(res_fd_, run, sizeof *run);
  }

 private:
  static bool WriteAll(int fd, const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t k = write(fd, p, n);
      if (k <= 0) return false;
      p += k;
      n -= static_cast<size_t>(k);
    }
    return true;
  }
  static bool ReadAll(int fd, void* data, size_t n) {
    char* p = static_cast<char*>(data);
    while (n > 0) {
      ssize_t k = read(fd, p, n);
      if (k <= 0) return false;
      p += k;
      n -= static_cast<size_t>(k);
    }
    return true;
  }
  static void Serve(int cmd_fd, int res_fd) {
    uint32_t len = 0;
    while (ReadAll(cmd_fd, &len, sizeof len)) {
      std::string msg(len, '\0');
      if (!ReadAll(cmd_fd, msg.data(), len)) return;
      std::vector<std::string> parts;
      for (size_t b = 0, e; b < msg.size(); b = e + 1) {
        e = msg.find('\0', b);
        parts.push_back(msg.substr(b, e - b));
      }
      std::vector<char*> argv;
      for (size_t i = 1; i < parts.size(); ++i) argv.push_back(parts[i].data());
      argv.push_back(nullptr);
      posix_spawn_file_actions_t actions;
      posix_spawn_file_actions_init(&actions);
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                       parts[0].c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                       O_WRONLY, 0);
      Run run;
      pid_t pid = 0;
      run.start_ns = NowNs();
      if (posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                      environ) == 0) {
        int status = 0;
        rusage ru{};
        wait4(pid, &status, 0, &ru);
        run.end_ns = NowNs();
        run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        run.maxrss_kb = ru.ru_maxrss;
      }
      posix_spawn_file_actions_destroy(&actions);
      if (!WriteAll(res_fd, &run, sizeof run)) return;
    }
  }

  pid_t pid_ = -1;
  int cmd_fd_ = -1, res_fd_ = -1;
};

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

hm::core::MatchOptions BatchOptions() {
  // The CLI's defaults: dense, single-stage, threads = hardware concurrency.
  hm::core::MatchOptions options;
  options.threshold = kBatchThreshold;
  return options;
}

struct InProcessRun {
  std::string csv;
  Links links;
  uint64_t start_ns = 0, end_ns = 0;
};

/// The CLI's match path in-process (examples/harmony_match.cpp RunMatch with
/// --csv --one-to-one), each layer a span under a "request" root. With
/// `probe` the build's parts are then timed too, after the request ends.
InProcessRun InProcessMatch(const BatchPair& pair, Trace& trace,
                            RankCounters* rank, Result* r, bool probe) {
  InProcessRun run;
  uint64_t req = trace.NextRequestId();
  run.start_ns = NowNs();
  int64_t root = trace.Open("request", run.start_ns, -1, req, 0);
  std::optional<hm::schema::Schema> source, target;
  uint64_t parse_bytes = 0, parse_ns = 0;
  for (int side = 0; side < 2; ++side) {
    const std::string& path = side == 0 ? pair.source_path : pair.target_path;
    parse_ns += Timed(trace, "schema.parse", root, req, 0, [&] {
      std::string text = ReadFile(path);
      parse_bytes += text.size();
      auto parsed = hm::service::ParseSchemaAuto(
          text, fs::path(path).filename().string());
      (side == 0 ? source : target).emplace(std::move(*parsed));
    });
  }
  std::optional<hm::core::MatchEngine> engine;
  Timed(trace, "core.engine_build", root, req, 0, [&] {
    engine.emplace(*source, *target, BatchOptions());
  });
  auto selected = RankAndSelect(*engine, kBatchThreshold, false, true, trace,
                                root, req, 0, rank);
  Timed(trace, "workflow.render", root, req, 0, [&] {
    hm::workflow::MatchWorkspace workspace(*source, *target);
    workspace.ImportCandidates(selected);
    run.links = ToLinks(*engine, selected);
    run.csv = LinksCsv(run.links);
  });
  run.end_ns = NowNs();
  trace.Close(root, run.end_ns);
  if (probe) {
    r->values["schema.parse_bytes"] += parse_bytes;
    r->values["schema.parse_ns"] += parse_ns;
    ProbeEngineBuild(*engine, r);
  }
  return run;
}

/// The batch corpus generated from the seed and rendered to file contents
/// (generation and the schema writers; no file I/O).
struct CorpusText {
  std::vector<std::string> source, target;
  std::vector<PathPairs> truth;
};

CorpusText RenderCorpus(uint64_t seed) {
  CorpusText c;
  for (size_t i = 0; i < kBatchPairs; ++i) {
    hm::synth::PairSpec spec;
    spec.seed = seed * 1000 + i;
    auto pair = hm::synth::GeneratePair(spec);
    c.source.push_back(i % 2 == 0 ? hm::schema::SerializeSchema(pair.source)
                                  : hm::sql::ExportDdl(pair.source));
    c.target.push_back(i % 2 == 0 ? hm::schema::SerializeSchema(pair.target)
                                  : hm::xml::ExportXsd(pair.target));
    c.truth.push_back(MakePathPairs(pair.truth.element_matches));
  }
  return c;
}

std::vector<BatchPair> WriteCorpus(const CorpusText& c,
                                   const std::string& workdir) {
  std::vector<BatchPair> corpus(kBatchPairs);
  for (size_t i = 0; i < kBatchPairs; ++i) {
    fs::path dir = fs::path(workdir) / hm::StringFormat("batch_pair%zu", i);
    fs::create_directories(dir);
    BatchPair& bp = corpus[i];
    bp.source_path = (dir / "SA").string();
    bp.target_path = (dir / "SB").string();
    std::ofstream(bp.source_path, std::ios::binary) << c.source[i];
    std::ofstream(bp.target_path, std::ios::binary) << c.target[i];
    bp.truth = c.truth[i];
  }
  return corpus;
}

void RunBatchPaper(uint64_t seed, double seconds, Trace& trace,
                   const std::string& cli, const std::string& workdir,
                   Spawner& spawner, Result* r) {
  r->limit_ms = kBatchLimitMs;
  r->params["cli_argv"] = "harmony_match match <src> <tgt> --csv --one-to-one";
  r->params["corpus"] = hm::StringFormat(
      "%zu synth::PairSpec-default pairs, even=HSC/HSC odd=DDL/XSD", kBatchPairs);
  r->params["loop"] = "closed, 1 invocation at a time";
  // Set-up: generate and render the corpus while MoreSetups (setup_s is the
  // median), then write the last copy.
  // The CLI runs one scoring thread per hardware thread; so does the
  // reference work.
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  CorpusText text;
  while (MoreSetups(*r)) {
    const uint64_t t0 = NowNs();
    text = RenderCorpus(seed);
    r->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    CalibrateSetup(r);
  }
  std::vector<BatchPair> corpus = WriteCorpus(text, workdir);
  // References (untraced) and quality over the corpus, each pair once.
  Trace off(false);
  for (auto& bp : corpus) {
    InProcessRun run = InProcessMatch(bp, off, nullptr, r, false);
    bp.expected_csv = std::move(run.csv);
    Score(run.links, bp.truth, r);
  }

  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  RankCounters rank;
  bool voters_probed = false;
  uint64_t paused_ns = 0;
  for (size_t n = 0; NowNs() < end; ++n) {
    const BatchPair& bp = corpus[n % corpus.size()];
    if (n > 0) {
      paused_ns += perfbench::Calibrate(threads, kBatchCalibrationChunks,
                                        &r->calibration_ms);
    }
    if (!trace.on()) {
      RequestRec q;
      Spawner::Run run;
      const std::string out_path = (fs::path(workdir) / "cli_out.csv").string();
      bool spawned = spawner.Spawn({cli, "match", bp.source_path,
                                    bp.target_path, "--csv", "--one-to-one"},
                                   out_path, &run);
      q.start = q.due = run.start_ns;
      q.done = run.end_ns;
      r->peak_rss_mb = std::max(r->peak_rss_mb, run.maxrss_kb / 1024.0);
      ++r->checked;
      if (!spawned || run.status != 0) {
        ++r->errors;
      } else if (ReadFile(out_path) != bp.expected_csv) {
        ++r->mismatches;
      } else {
        q.ok = true;
      }
      r->requests.push_back(q);
      continue;
    }
    // Traced pass: the CLI's path in-process, alternating an untraced and a
    // traced execution so trace.overhead_frac compares like with like.
    Trace off_pass(false);
    for (int traced = 0; traced < 2; ++traced) {
      InProcessRun run = traced
          ? InProcessMatch(bp, trace, &rank, r, true)
          : InProcessMatch(bp, off_pass, nullptr, r, false);
      RequestRec q;
      q.traced = traced;
      q.start = q.due = run.start_ns;
      q.done = run.end_ns;
      ++r->checked;
      q.ok = run.csv == bp.expected_csv;
      if (!q.ok) ++r->mismatches;
      r->requests.push_back(q);
    }
    if (!voters_probed) {
      auto s = hm::service::ParseSchemaAuto(ReadFile(bp.source_path), "SA");
      auto t = hm::service::ParseSchemaAuto(ReadFile(bp.target_path), "SB");
      hm::core::MatchEngine engine(*s, *t, BatchOptions());
      ProbeVoters(engine, r);
      voters_probed = true;
    }
  }
  r->window_ns = NowNs() - start - paused_ns;
  if (trace.on()) {
    r->peak_rss_mb = PeakRssMb();
    RecordRankValues(rank, r);
  }
}

// ---------------------------------------------------------------------------
// served_mixed

struct Arrival {
  uint64_t due_offset_ns = 0;
  enum Kind { kMatch, kRefined, kSearch, kPing, kStats } kind = kPing;
  size_t source = 0, target = 0;
  std::string query;
};

/// `n` arrivals of a Poisson process conditioned on its count: sorted
/// uniform times over [0, window).
std::vector<uint64_t> PoissonSchedule(std::mt19937_64& rng, size_t n,
                                      uint64_t window_ns) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<uint64_t> due(n);
  for (auto& d : due) d = static_cast<uint64_t>(u(rng) * window_ns);
  std::sort(due.begin(), due.end());
  return due;
}

struct MatchKey {
  size_t source, target;
  bool refined;
  auto operator<=>(const MatchKey&) const = default;
};

struct ServedReply {
  Arrival arrival;
  bool replied = false;
  bool refused = false;
  uint64_t digest = 0;                 // match / refined: LinksDigest
  hm::service::SearchResponse search;  // search
  std::string text;                    // ping
  bool traced = false;
};

void RunServedMixed(uint64_t seed, double seconds, Trace& trace, Result* r) {
  std::vector<std::string> flags(std::begin(kServedFlags), std::end(kServedFlags));
  r->limit_ms = kServedLimitMs;
  r->params["daemon_flags"] = hm::StringFormat("%s %s %s", kServedFlags[0],
                                               kServedFlags[1], kServedFlags[2]);
  r->params["repository"] = hm::StringFormat(
      "synth::GenerateNWay seed %" PRIu64 ", %zu schemata, %zu universe "
      "concepts, %zu per schema", kServedRepositorySeed, kServedSchemas,
      kServedUniverse, kServedConceptsPerSchema);
  r->params["offered_rate_per_s"] = Num(kServedRatePerS);
  r->params["connections"] = hm::StringFormat(
      "%zu query clients (one connection per request) + 1 stats poller every "
      "%.0f ms", kServedQueryClients, kServedPollIntervalMs);
  r->params["mix"] = hm::StringFormat(
      "match %.2f, refined %.2f, search %.2f, ping %.2f; Zipf s=%.1f pairs, "
      "threshold %.2f", kShareMatch, kShareRefined, kShareSearch,
      1 - kShareMatch - kShareRefined - kShareSearch, kServedZipfS,
      kServedThreshold);
  hm::service::ServeOptions options = ParseDaemonFlags(flags);

  hm::synth::NWaySpec spec;
  spec.seed = kServedRepositorySeed;
  spec.schema_count = kServedSchemas;
  spec.universe_concepts = kServedUniverse;
  spec.concepts_per_schema = kServedConceptsPerSchema;
  hm::synth::NWayResult community = hm::synth::GenerateNWay(spec);

  // Zipf-skewed ordered pairs, keyword pool from the schemata's own names.
  // Which pairs are popular is part of the fixture, like the repository:
  // ranked with the repository's seed, so the run's seed moves when and in
  // what order requests come, not how costly the popular pairs are.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < kServedSchemas; ++i) {
    for (size_t j = 0; j < kServedSchemas; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  std::mt19937_64 ranking(kServedRepositorySeed);
  std::shuffle(pairs.begin(), pairs.end(), ranking);
  std::mt19937_64 rng(seed ^ 0x5e7dULL);
  std::vector<double> zipf_cdf(pairs.size());
  double total = 0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kServedZipfS);
    zipf_cdf[k] = total;
  }
  std::vector<std::string> keywords;
  for (const auto& s : community.schemas) {
    for (auto id : s.AllElementIds()) {
      for (const auto& tok : hm::Split(hm::ToLower(s.element(id).name), '_')) {
        if (tok.size() >= 4) keywords.push_back(tok);
      }
    }
  }
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()), keywords.end());

  // Two halves with --trace=1 (untraced, then traced), one window without.
  const int phases = trace.on() ? 2 : 1;
  const uint64_t phase_ns = static_cast<uint64_t>(seconds * 1e9 / phases);
  const size_t per_phase = static_cast<size_t>(kServedRatePerS * seconds / phases);
  std::vector<std::vector<Arrival>> schedule(phases);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // Each phase's mix and its matches' Zipf draws are stratified: exact shares
  // of each kind, and one pair from each of m equal slices of the Zipf CDF,
  // both in a seeded order. With independent draws the number of slow
  // requests (refined matches, cache misses) varied from seed to seed by
  // enough to move latency_tail_ms by a fifth.
  for (int p = 0; p < phases; ++p) {
    const std::vector<uint64_t> dues = PoissonSchedule(rng, per_phase, phase_ns);
    const size_t n = dues.size();
    const size_t n_match = static_cast<size_t>(std::lround(n * kShareMatch));
    const size_t n_refined = static_cast<size_t>(std::lround(n * kShareRefined));
    const size_t n_search = static_cast<size_t>(std::lround(n * kShareSearch));
    std::vector<Arrival::Kind> kinds(n, Arrival::kPing);
    std::fill_n(kinds.begin(), n_match, Arrival::kMatch);
    std::fill_n(kinds.begin() + n_match, n_refined, Arrival::kRefined);
    std::fill_n(kinds.begin() + n_match + n_refined, n_search, Arrival::kSearch);
    std::shuffle(kinds.begin(), kinds.end(), rng);
    const size_t m = n_match + n_refined;
    std::vector<double> zipf_u(m);
    for (size_t i = 0; i < m; ++i) zipf_u[i] = (i + u(rng)) / m;
    std::shuffle(zipf_u.begin(), zipf_u.end(), rng);
    for (size_t i = 0, j = 0; i < n; ++i) {
      Arrival a;
      a.due_offset_ns = dues[i];
      a.kind = kinds[i];
      if (a.kind == Arrival::kMatch || a.kind == Arrival::kRefined) {
        double z = zipf_u[j++] * total;
        size_t k = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), z) -
                   zipf_cdf.begin();
        std::tie(a.source, a.target) = pairs[std::min(k, pairs.size() - 1)];
      }
      a.query = keywords[static_cast<size_t>(u(rng) * keywords.size()) %
                         keywords.size()];
      schedule[p].push_back(a);
    }
  }

  std::unique_ptr<Daemon> d =
      SetUpDaemon(options, community.schemas, trace, r);
  if (trace.on()) {
    const auto& repo = d->state->repo();
    uint64_t t0 = NowNs();
    auto index = repo.BuildSearchIndex();
    r->samples["search.index_build_ms"].push_back(Ms(NowNs() - t0));
    hm::nway::NwayOptions nway_options;
    nway_options.num_threads = options.state.match_options.num_threads;
    t0 = NowNs();
    auto vocab = hm::nway::MatchAndBuildVocabulary(
        repo.AllSchemas(), options.state.vocab_threshold, true,
        options.state.match_options, nway_options);
    r->samples["nway.vocab_build_ms"].push_back(Ms(NowNs() - t0));
  }
  const uint16_t port = d->server->port();
  auto engines_built = [&]() -> uint64_t {
    const hm::obs::MetricsSnapshot snapshot = d->registry->Snapshot();
    const auto* c = snapshot.FindCounter("engine.constructed");
    return c ? c->value : 0;
  };

  const uint64_t first_id = d->server->CountersNow().served_requests;
  std::vector<ServedReply> replies;
  std::vector<Exchange> exchanges;
  std::mutex mu;
  uint64_t by_name_requests = 0;
  uint64_t built0 = engines_built();
  // The daemon is idle most of the time at this rate, so the reference work
  // runs beside it rather than pausing the open loop's schedule: round trips
  // to a ReferenceServer, which slow with the host's scheduling as served
  // requests do.
  perfbench::ReferenceServer reference_server;
  r->calibration_reference_ms = perfbench::kReferenceRoundTripMs;
  std::atomic<bool> stop_sampler{false};
  std::vector<double> sampled_ms;
  std::thread sampler([&] {
    const uint64_t period =
        static_cast<uint64_t>(kServedRoundTripPeriodMs * 1e6);
    for (uint64_t next = NowNs(); !stop_sampler.load(); next += period) {
      const double ms = reference_server.RoundTripMs();
      if (ms >= 0) sampled_ms.push_back(ms);
      while (!stop_sampler.load() && NowNs() < next + period) {
        SleepUntil(std::min(next + period, NowNs() + 5'000'000));
      }
    }
  });
  const uint64_t window_start = NowNs();
  for (int p = 0; p < phases; ++p) {
    const bool traced = trace.on() && p == 1;
    Trace off(false);
    Trace& tr = traced ? trace : off;
    const uint64_t origin = NowNs();
    const std::vector<Arrival>& arrivals = schedule[p];
    std::atomic<size_t> next{0};
    std::atomic<bool> stop_poll{false};

    auto record = [&](const ClientCall& call, ServedReply&& reply) {
      std::lock_guard<std::mutex> lock(mu);
      r->requests.push_back(call.rec);
      replies.push_back(std::move(reply));
      exchanges.push_back(call.ex);
    };
    auto query_client = [&](int tid) {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= arrivals.size()) return;
        const Arrival& a = arrivals[i];
        const uint64_t due = origin + a.due_offset_ns;
        SleepUntil(due);
        ClientCall call(tr, due, traced,
                        a.kind == Arrival::kSearch || a.kind == Arrival::kPing,
                        tid);
        ServedReply reply;
        reply.arrival = a;
        reply.traced = traced;
        auto client = call.Connect(port);
        if (client.ok()) {
          using Tag = hm::service::RequestTag;
          std::optional<hm::Result<hm::service::Frame>> frame;
          if (a.kind == Arrival::kMatch || a.kind == Arrival::kRefined) {
            hm::service::MatchRequest m;
            m.by_name = true;
            m.source_name = community.schemas[a.source].name();
            m.target_name = community.schemas[a.target].name();
            m.threshold = kServedThreshold;
            m.refined = a.kind == Arrival::kRefined;
            frame = call.RoundTrip(*client, Tag::kMatch,
                                   hm::service::EncodeMatchRequest(m));
          } else if (a.kind == Arrival::kSearch) {
            hm::service::SearchRequest search;
            search.query = a.query;
            frame = call.RoundTrip(*client, Tag::kSearch,
                                   hm::service::EncodeSearchRequest(search));
          } else {
            frame = call.RoundTrip(*client, Tag::kPing, "");
          }
          Outcome outcome = Classify(*frame);
          reply.refused = outcome == Outcome::kRefused;
          if (outcome == Outcome::kOk) {
            const std::string& payload = (*frame)->payload;
            if (a.kind == Arrival::kMatch || a.kind == Arrival::kRefined) {
              auto m = hm::service::DecodeMatchResponse(payload);
              reply.replied = m.ok();
              if (m.ok()) reply.digest = LinksDigest(m->links);
            } else if (a.kind == Arrival::kSearch) {
              auto found = hm::service::DecodeSearchResponse(payload);
              reply.replied = found.ok();
              if (found.ok()) reply.search = std::move(*found);
            } else {
              reply.replied = true;
              reply.text = payload;
            }
          }
        }
        call.Finish();
        record(call, std::move(reply));
      }
    };
    // The top-style poller: one long-lived session, stats deltas on a fixed
    // schedule for the whole phase. It holds a session worker throughout.
    auto poller = [&](int tid) {
      auto client = hm::service::Client::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      const uint64_t period = static_cast<uint64_t>(kServedPollIntervalMs * 1e6);
      for (uint64_t k = 0;; ++k) {
        const uint64_t due = origin + k * period;
        if (due >= origin + phase_ns) return;
        while (NowNs() < due) {
          if (stop_poll.load()) return;
          SleepUntil(std::min(due, NowNs() + 5'000'000));
        }
        ClientCall call(tr, due, traced, /*light=*/true, tid);
        hm::service::StatsRequest sreq;
        sreq.delta = true;
        auto frame = call.RoundTrip(*client, hm::service::RequestTag::kStats,
                                    hm::service::EncodeStatsRequest(sreq));
        call.Finish();
        ServedReply reply;
        reply.traced = traced;
        reply.arrival.kind = Arrival::kStats;  // checked by decoding here
        reply.refused = Classify(frame) == Outcome::kRefused;
        reply.replied = Classify(frame) == Outcome::kOk &&
                        hm::service::DecodeStatsResponse(frame->payload).ok();
        record(call, std::move(reply));
      }
    };
    std::vector<std::thread> threads;
    threads.emplace_back(poller, 1);
    for (size_t c = 0; c < kServedQueryClients; ++c) {
      threads.emplace_back(query_client, static_cast<int>(c + 2));
    }
    for (size_t c = 1; c < threads.size(); ++c) threads[c].join();
    stop_poll.store(true);
    threads[0].join();
    for (const auto& a : arrivals) {
      by_name_requests += a.kind == Arrival::kMatch || a.kind == Arrival::kRefined;
    }
  }
  r->window_ns = NowNs() - window_start;
  r->peak_rss_mb = PeakRssMb();
  stop_sampler.store(true);
  sampler.join();
  r->calibration_ms.insert(r->calibration_ms.end(), sampled_ms.begin(),
                           sampled_ms.end());
  uint64_t built = engines_built() - built0;
  r->values["service.engine_cache_hit_frac"] =
      by_name_requests
          ? 1.0 - static_cast<double>(std::min(built, by_name_requests)) /
                      by_name_requests
          : 0.0;
  d->Stop();
  RecordServerCounters(*d, r);
  if (trace.on()) {
    JoinServerSpans(exchanges, d->server->RecentRequests(), first_id, trace, r);
  }

  // Output checks: every reply against the same request computed in-process
  // with the daemon's engine options, on a session-worker thread.
  std::map<MatchKey, Links> reference;
  std::map<std::pair<size_t, size_t>, PathPairs> truth;
  // Elements rendering the same concept of the shared universe.
  auto TruthFor = [&](size_t source, size_t target) -> const PathPairs& {
    PathPairs& t = truth[{source, target}];
    if (t.empty()) {
      for (const auto& [sp, sc] : community.semantics[source]) {
        for (const auto& [tp, tc] : community.semantics[target]) {
          if (sc == tc) t.push_back({sp, tp});
        }
      }
      t = MakePathPairs(std::move(t));
    }
    return t;
  };
  std::map<std::pair<size_t, size_t>, std::unique_ptr<hm::core::MatchEngine>>
      engines;
  std::set<MatchKey> traced_keys;
  for (const auto& rep : replies) {
    if (rep.traced && (rep.arrival.kind == Arrival::kMatch ||
                       rep.arrival.kind == Arrival::kRefined)) {
      traced_keys.insert({rep.arrival.source, rep.arrival.target,
                          rep.arrival.kind == Arrival::kRefined});
    }
  }
  RankCounters rank;
  OnSessionWorker([&] {
    for (const auto& rep : replies) {
      const Arrival& a = rep.arrival;
      if (a.kind != Arrival::kMatch && a.kind != Arrival::kRefined) continue;
      MatchKey key{a.source, a.target, a.kind == Arrival::kRefined};
      if (reference.count(key)) continue;
      const bool traced = traced_keys.count(key) > 0;
      Trace off(false);
      Trace& tr = traced ? trace : off;
      uint64_t req = tr.NextRequestId();
      int64_t root = tr.Open("reference", NowNs(), -1, req, 0);
      auto& engine = engines[{a.source, a.target}];
      if (!engine) {
        Timed(tr, "core.engine_build", root, req, 0, [&] {
          engine = std::make_unique<hm::core::MatchEngine>(
              community.schemas[a.source], community.schemas[a.target],
              options.state.match_options);
        });
        if (traced) ProbeEngineBuild(*engine, r);
      }
      reference[key] = ToLinks(
          *engine, RankAndSelect(*engine, kServedThreshold, key.refined, false,
                                 tr, root, req, 0, traced ? &rank : nullptr));
      tr.Close(root, NowNs());
    }
  });
  // Quality is scored once per distinct request, on the reference links
  // (equal to the served ones when the check passes).
  std::set<MatchKey> scored;
  for (size_t i = 0; i < replies.size(); ++i) {
    const ServedReply& rep = replies[i];
    const Arrival& a = rep.arrival;
    ++r->checked;
    bool ok = false;
    if (rep.refused) {
      ++r->refused;
    } else if (!rep.replied) {
      ++r->errors;
    } else {
      switch (a.kind) {
        case Arrival::kMatch:
        case Arrival::kRefined: {
          MatchKey key{a.source, a.target, a.kind == Arrival::kRefined};
          const Links& expected = reference[key];
          ok = rep.digest == LinksDigest(expected);
          if (ok && scored.insert(key).second) {
            Score(expected, TruthFor(a.source, a.target), r);
          }
          break;
        }
        case Arrival::kSearch: {
          uint64_t t0 = NowNs();
          auto hits = d->state->index().SearchKeywords(a.query, 10);
          r->samples["search.query_ms"].push_back(Ms(NowNs() - t0));
          ok = hits.size() == rep.search.hits.size();
          for (size_t k = 0; ok && k < hits.size(); ++k) {
            ok = d->state->index().schema(hits[k].schema_index).name() ==
                     rep.search.hits[k].schema_name &&
                 hits[k].score == rep.search.hits[k].score;
          }
          break;
        }
        case Arrival::kPing:
          ok = rep.text == "pong";
          break;
        case Arrival::kStats:
          ok = true;  // decoded on receipt
          break;
      }
      if (!ok) ++r->mismatches;
    }
    // Replies were recorded in completion order beside their requests.
    r->requests[i].ok = ok;
  }
  if (trace.on()) {
    RecordRankValues(rank, r);
    // The most requested pair: per-voter cost on the engine the daemon used.
    if (!engines.empty()) {
      std::map<std::pair<size_t, size_t>, size_t> freq;
      for (const auto& rep : replies) {
        if (rep.arrival.kind == Arrival::kMatch) {
          ++freq[{rep.arrival.source, rep.arrival.target}];
        }
      }
      auto top = std::max_element(
          freq.begin(), freq.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      if (top != freq.end() && engines.count(top->first)) {
        ProbeVoters(*engines[top->first], r);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// adhoc_inline

struct AdhocInput {
  std::string payload;  // encoded MatchRequest
  PathPairs truth;
};

/// The i-th never-seen input of a run: a small DDL/XSD pair from its own
/// seed, shipped inline.
AdhocInput MakeAdhocInput(uint64_t seed, size_t i) {
  hm::synth::PairSpec spec;
  spec.seed = seed * 1'000'003 + i;
  spec.source_concepts = 5;
  spec.target_concepts = 4;
  spec.shared_concepts = 3;
  auto pair = hm::synth::GeneratePair(spec);
  hm::service::MatchRequest request;
  request.source_name = "SA";
  request.target_name = "SB";
  request.source_text = hm::sql::ExportDdl(pair.source);
  request.target_text = hm::xml::ExportXsd(pair.target);
  request.threshold = kAdhocThreshold;
  request.one_to_one = true;
  return {hm::service::EncodeMatchRequest(request),
          MakePathPairs(pair.truth.element_matches)};
}

/// Inputs generated ahead of the load, between its segments, so that no
/// input is generated while requests are timed and a run of any length
/// needs no input pool in memory. A generator running beside the load made
/// the process run more busy threads than the host has cores.
class InputFeed {
 public:
  explicit InputFeed(uint64_t seed) : seed_(seed) {}

  /// Tops the queue up to kAdhocQueue inputs, generated on `threads`
  /// threads in input order.
  void Refill(int threads) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t need = kAdhocQueue - queue_.size();
    std::vector<std::string> fresh(need);
    std::atomic<size_t> next{0};
    auto work = [&] {
      for (size_t j; (j = next.fetch_add(1)) < need;) {
        fresh[j] = MakeAdhocInput(seed_, next_input_ + j).payload;
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
    for (size_t j = 0; j < need; ++j) {
      queue_.emplace_back(next_input_ + j, std::move(fresh[j]));
    }
    next_input_ += need;
  }
  /// The next input's index and payload; nothing (counted) when the queue
  /// ran dry before the segment ended.
  std::optional<std::pair<size_t, std::string>> Next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      ++starved_;
      return std::nullopt;
    }
    auto item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }
  uint64_t starved() {
    std::lock_guard<std::mutex> lock(mu_);
    return starved_;
  }

 private:
  const uint64_t seed_;
  std::mutex mu_;
  std::deque<std::pair<size_t, std::string>> queue_;
  size_t next_input_ = 0;
  uint64_t starved_ = 0;
};

void RunAdhocInline(uint64_t seed, double seconds, Trace& trace, Result* r) {
  std::vector<std::string> flags(std::begin(kAdhocFlags), std::end(kAdhocFlags));
  r->limit_ms = kAdhocLimitMs;
  r->params["daemon_flags"] =
      hm::StringFormat("%s %s", kAdhocFlags[0], kAdhocFlags[1]);
  r->params["requests"] =
      "inline DDL source + XSD target, synth::PairSpec 5/4/3 concepts "
      "(~56 x 45 elements), distinct seed per request, threshold 0.35, 1:1";
  r->params["loop"] = hm::StringFormat("closed, %zu connections",
                                       kAdhocConnections);
  hm::service::ServeOptions options = ParseDaemonFlags(flags);

  // The daemon's built-in demo community (ServeMain without --repo).
  hm::synth::NWaySpec community_spec;
  community_spec.seed = seed;
  community_spec.schema_count = options.synth_schemas;
  community_spec.universe_concepts = 14;
  community_spec.concepts_per_schema = 9;
  auto community = hm::synth::GenerateNWay(community_spec);

  std::unique_ptr<Daemon> d = SetUpDaemon(options, community.schemas, trace, r);
  const uint16_t port = d->server->port();

  struct Done {
    size_t input;
    uint64_t digest = 0;
    bool replied = false, refused = false, traced = false;
  };
  const uint64_t first_id = d->server->CountersNow().served_requests;
  std::vector<Done> done;
  std::vector<Exchange> exchanges;
  std::mutex mu;
  const int phases = trace.on() ? 2 : 1;
  const uint64_t phase_ns = static_cast<uint64_t>(seconds * 1e9 / phases);
  InputFeed feed(seed);
  const int generators =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const uint64_t segment_ns = static_cast<uint64_t>(kAdhocSegmentS * 1e9);
  uint64_t paused_ns = 0;
  const uint64_t window_start = NowNs();
  for (int p = 0; p < phases; ++p) {
    const bool traced = trace.on() && p == 1;
    Trace off(false);
    Trace& tr = traced ? trace : off;
    // The phase runs as segments of load, each after an input top-up and a
    // reference-work burst that do not count towards the phase's length.
    uint64_t phase_left = phase_ns;
    uint64_t end = 0;
    auto conn = [&](int tid) {
      auto client = hm::service::Client::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      for (;;) {
        if (NowNs() >= end) return;
        auto input = feed.Next();
        if (!input) return;
        auto& [i, payload] = *input;
        ClientCall call(tr, std::nullopt, traced, /*light=*/false, tid);
        auto frame =
            call.RoundTrip(*client, hm::service::RequestTag::kMatch, payload);
        call.Finish();
        Done dn;
        dn.input = i;
        dn.traced = traced;
        Outcome outcome = Classify(frame);
        dn.refused = outcome == Outcome::kRefused;
        if (outcome == Outcome::kOk) {
          auto m = hm::service::DecodeMatchResponse(frame->payload);
          dn.replied = m.ok();
          if (m.ok()) dn.digest = LinksDigest(m->links);
        }
        std::lock_guard<std::mutex> lock(mu);
        r->requests.push_back(call.rec);
        done.push_back(dn);
        exchanges.push_back(call.ex);
        if (done.size() == kAdhocRssRequests) r->peak_rss_mb = PeakRssMb();
      }
    };
    while (phase_left > 0) {
      const uint64_t pause_start = NowNs();
      feed.Refill(generators);
      perfbench::Calibrate(static_cast<int>(kAdhocConnections),
                           kAdhocCalibrationChunks, &r->calibration_ms);
      paused_ns += NowNs() - pause_start;
      const uint64_t segment = std::min(segment_ns, phase_left);
      phase_left -= segment;
      end = NowNs() + segment;
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kAdhocConnections; ++c) {
        threads.emplace_back(conn, static_cast<int>(c + 1));
      }
      for (auto& t : threads) t.join();
    }
  }
  r->window_ns = NowNs() - window_start - paused_ns;
  if (r->peak_rss_mb == 0) {
    r->peak_rss_mb = PeakRssMb();
    r->notes.push_back(hm::StringFormat(
        "fewer than %zu requests completed: peak_rss_mb read at the end",
        kAdhocRssRequests));
  }
  if (uint64_t starved = feed.starved()) {
    r->notes.push_back(hm::StringFormat(
        "the inputs ran out before a segment ended %" PRIu64 " times",
        starved));
  }
  d->Stop();
  RecordServerCounters(*d, r);
  if (trace.on()) {
    JoinServerSpans(exchanges, d->server->RecentRequests(), first_id, trace, r);
  }

  // Output checks: each request recomputed in-process with the daemon's
  // options (parse -> engine -> rank -> select) on session-worker threads:
  // most on four in parallel, then the first kAdhocTracedReferences of the
  // traced half one at a time and traced, so their CPU readings are theirs
  // alone.
  std::vector<Links> expected(done.size());
  std::vector<PathPairs> truths(done.size());
  std::vector<bool> traced_ref(done.size());
  for (size_t j = 0, n = 0; j < done.size(); ++j) {
    traced_ref[j] = done[j].traced && n++ < kAdhocTracedReferences;
  }
  RankCounters rank;
  auto check = [&](size_t j) {
    const Done& dn = done[j];
    const bool traced = traced_ref[j];
    const AdhocInput input = MakeAdhocInput(seed, dn.input);
    const hm::service::MatchRequest req =
        *hm::service::DecodeMatchRequest(input.payload);
    truths[j] = input.truth;
    Trace off(false);
    Trace& tr = traced ? trace : off;
    uint64_t rid = tr.NextRequestId();
    int64_t root = tr.Open("reference", NowNs(), -1, rid, 0);
    std::optional<hm::schema::Schema> s, t;
    uint64_t parse_ns = Timed(tr, "schema.parse", root, rid, 0, [&] {
      s.emplace(*hm::service::ParseSchemaAuto(req.source_text,
                                              req.source_name));
    });
    parse_ns += Timed(tr, "schema.parse", root, rid, 0, [&] {
      t.emplace(*hm::service::ParseSchemaAuto(req.target_text,
                                              req.target_name));
    });
    std::optional<hm::core::MatchEngine> engine;
    Timed(tr, "core.engine_build", root, rid, 0, [&] {
      engine.emplace(*s, *t, options.state.match_options);
    });
    expected[j] = ToLinks(
        *engine, RankAndSelect(*engine, req.threshold, req.refined,
                               req.one_to_one, tr, root, rid, 0,
                               traced ? &rank : nullptr));
    tr.Close(root, NowNs());
    if (traced) {
      r->values["schema.parse_bytes"] +=
          req.source_text.size() + req.target_text.size();
      r->values["schema.parse_ns"] += parse_ns;
      if (r->samples["core.profile_build_ms"].size() < 200) {
        ProbeEngineBuild(*engine, r);
      }
      if (!r->samples.count("core.voter.name_string_cpu_ms")) {
        ProbeVoters(*engine, r);
      }
    }
  };
  {
    constexpr int kWorkers = 4;
    hm::common::ThreadPool pool(kWorkers);
    std::atomic<size_t> next{0};
    std::vector<std::promise<void>> finished(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      pool.Submit([&, w] {
        for (size_t j; (j = next.fetch_add(1)) < done.size();) {
          if (!traced_ref[j]) check(j);
        }
        finished[w].set_value();
      });
    }
    for (auto& f : finished) f.get_future().wait();
  }
  OnSessionWorker([&] {
    for (size_t j = 0; j < done.size(); ++j) {
      if (traced_ref[j]) check(j);
    }
  });
  for (size_t j = 0; j < done.size(); ++j) {
    const Done& dn = done[j];
    ++r->checked;
    bool ok = false;
    if (dn.refused) {
      ++r->refused;
    } else if (!dn.replied) {
      ++r->errors;
    } else if (dn.digest != LinksDigest(expected[j])) {
      ++r->mismatches;
    } else {
      ok = true;
      Score(expected[j], truths[j], r);
    }
    r->requests[j].ok = ok;
  }
  if (trace.on()) RecordRankValues(rank, r);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness <batch_paper|served_mixed|"
                 "adhoc_inline> --seed=N --seconds=S --trace=0|1 --cli=PATH "
                 "--workdir=DIR\n");
    return 2;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  using hm::cli::FlagValue;
  const std::string workload = argv[1];
  const uint64_t seed = std::strtoull(FlagValue(args, "--seed=", "1").c_str(),
                                      nullptr, 10);
  const double seconds = std::atof(FlagValue(args, "--seconds=", "10").c_str());
  const bool traced = FlagValue(args, "--trace=", "0") == "1";
  const std::string cli = FlagValue(args, "--cli=", "");
  const std::string workdir = FlagValue(args, "--workdir=", ".");
  fs::create_directories(workdir);

  std::optional<Spawner> spawner;
  if (workload == "batch_paper") spawner.emplace();
  perfbench::PrepareCalibration();
  Trace trace(traced);
  const uint64_t origin = NowNs();
  Result r;
  r.workload = workload;
  r.params["seed"] = std::to_string(seed);
  r.params["seconds"] = Num(seconds);
  if (workload == "batch_paper") {
    RunBatchPaper(seed, seconds, trace, cli, workdir, *spawner, &r);
  } else if (workload == "served_mixed") {
    RunServedMixed(seed, seconds, trace, &r);
  } else if (workload == "adhoc_inline") {
    RunAdhocInline(seed, seconds, trace, &r);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (traced) {
    r.trace_path = (fs::path(workdir) / ("trace_" + workload + ".json")).string();
    if (!trace.Write(r.trace_path, origin)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", r.trace_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", ToJson(r).c_str());
  return 0;
}
