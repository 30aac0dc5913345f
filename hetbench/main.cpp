// hetbench: plan-time and plan-quality benchmark of the hetpar tool flow.
//
//   hetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --repo-root <dir> --out-dir <dir> --build-stamp <id>
//   hetbench --self-test
//
// A run compiles the workload's program set repeatedly for `--seconds`
// through the public pipeline API (pipeline::Session, pipeline::ArtifactCache),
// exactly as hetparc users run it: default ParallelizerOptions except `jobs`
// where the workload says so. One compile of a program is frontend ->
// parallelize (or artifact-cache hit) -> estimate + simulate both scenarios ->
// emit annotated source, MPA parspec and premap. Every compile passes a
// correctness gate (independent Eq. 1-18 re-derivation, analytic speedup
// limit, cache-served outcomes byte-equal to the cold compile, outcome
// digests and ILP counters that repeat across all runs of one build, named by
// `--build-stamp`); any failure makes the run exit 1.
//
// With `--trace 1` the run additionally compiles the set by calling each
// layer's public entry point itself (parse, sema, def-use, sections or
// dataflow, interpreter, HTG build, key, cache load, Parallelizer::run,
// flatten, simulate, emitters), recording one span per call, and reports the
// per-layer numbers; the program itself carries no tracing.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics untraced, per-layer metrics traced. The
// end-to-end timings are scaled to a reference host speed by a calibration
// loop timed beside the compiles (calibrate.hpp).
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aggregate.hpp"
#include "calibrate.hpp"
#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/cost/interp.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/frontend/sema.hpp"
#include "hetpar/htg/builder.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/ir/dataflow.hpp"
#include "hetpar/ir/defuse.hpp"
#include "hetpar/ir/sections.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/artifact_cache.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"
#include "hetpar/support/thread_pool.hpp"
#include "hetpar/verify/invariants.hpp"

namespace fs = std::filesystem;
using namespace hetpar;

namespace hetbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Workloads

constexpr const char* kPipelineProgram = "tests/data/pipeline.c";

struct Workload {
  const char* name;
  char preset;  ///< 'A' (3 classes) or 'B' (2 classes)
  ir::DependenceMode depMode;
  ir::FlowMode flowMode;
  bool allCores;  ///< ParallelizerOptions::jobs = hardware threads (else 1)
  bool warm;      ///< artifact cache filled during set-up
  std::vector<std::string> programs;  ///< suite kernel names or kPipelineProgram
};

const std::vector<Workload>& workloads() {
  // The program sets are the Table I kernels (and pipeline.c) whose cold
  // plans take a few seconds, so that every run repeats its compile loop;
  // WORKLOADS.md says why each workload exists and which layers it loads.
  static const std::vector<Workload> all = {
      {"suite-a-cold", 'A', ir::DependenceMode::Conservative, ir::FlowMode::Conservative,
       false, false, {"adpcm_enc", kPipelineProgram}},
      {"suite-b-warm", 'B', ir::DependenceMode::Affine, ir::FlowMode::Live, true, true,
       {"adpcm_enc", "edge_detect", "iir_4", "mult_10"}},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

struct Program {
  std::string name;
  std::string source;
};

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The workload's programs in the seed's compile order.
std::vector<Program> makePrograms(const Workload& w, unsigned long long seed,
                                  const fs::path& repoRoot) {
  std::vector<Program> programs;
  for (const std::string& name : w.programs) {
    if (name == kPipelineProgram)
      programs.push_back({name, readFile(repoRoot / name)});
    else
      programs.push_back({name, benchsuite::find(name).source});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(programs.begin(), programs.end(), rng);
  return programs;
}

platform::Platform makePlatform(const Workload& w) {
  return w.preset == 'A' ? platform::platformA() : platform::platformB();
}

parallel::ParallelizerOptions makeOptions(const Workload& w) {
  parallel::ParallelizerOptions po;
  po.jobs = w.allCores ? support::ThreadPool::resolveJobs(0) : 1;
  po.dependenceMode = w.depMode;
  po.flowMode = w.flowMode;
  return po;
}

pipeline::SessionInputs makeInputs(const Workload& w, const Program& p,
                                   const platform::Platform& pf,
                                   std::shared_ptr<pipeline::ArtifactCache> cache) {
  pipeline::SessionInputs in;
  in.name = p.name;
  in.source = p.source;
  in.platform = pf;
  in.depMode = w.depMode;
  in.flowMode = w.flowMode;
  in.parallelizer = makeOptions(w);
  in.artifactCache = std::move(cache);
  return in;
}

// ---------------------------------------------------------------------------
// One compile and its correctness gate

/// Scenario I (main task on the slowest class) and II (on the fastest).
constexpr int kScenarios = 2;

struct Compiled {
  std::string program;
  double seconds = 0.0;  ///< compile wall time (checks excluded)
  bool cached = false;   ///< outcome served from the artifact cache
  std::string plan;      ///< planBytes of the outcome
  std::string artifacts; ///< annotated source + parspec + premap (scenario I)
  parallel::IlpStatistics stats;
  double estParallel[kScenarios] = {};
  double simSequential[kScenarios] = {};
  double simParallel[kScenarios] = {};
  double limit[kScenarios] = {};  ///< Σ core frequency ÷ main-core frequency
  std::vector<std::string> problems;

  double speedup(int s) const { return simSequential[s] / simParallel[s]; }
  double estOverSim(int s) const { return estParallel[s] / simParallel[s]; }
};

/// serializeOutcome bytes with the statistics cleared: the plan itself. A
/// cache hit zeroes the statistics and a cold solve records its wall time, so
/// only the plan can be compared byte for byte; the counters are compared
/// through the fingerprint.
std::string planBytes(const parallel::ParallelizeOutcome& outcome) {
  parallel::ParallelizeOutcome plan;
  plan.table = outcome.table;
  return pipeline::serializeOutcome(plan);
}

std::string digestOf(std::string_view bytes) {
  pipeline::Digest d;
  d.put(bytes);
  return d.hex();
}

platform::ClassId scenarioClass(const platform::Platform& pf, int scenario) {
  return scenario == 0 ? pf.slowestClass() : pf.fastestClass();
}

std::string joinArtifacts(const std::string& annotated, const std::string& parspec,
                          const std::string& premap) {
  return annotated + "\n--- parspec ---\n" + parspec + "\n--- premap ---\n" + premap;
}

/// Problems a compiled program shows on its own: solution-table invariants
/// (when `table` is given) and speedups within the platform's analytic limit.
void checkStandalone(Compiled& c, const htg::Graph* graph, const cost::TimingModel* timing,
                     const parallel::SolutionTable* table) {
  if (table != nullptr) {
    for (std::string& p : verify::checkSolutionTable(*graph, *timing, *table))
      c.problems.push_back("solution table: " + std::move(p));
  }
  for (int s = 0; s < kScenarios; ++s) {
    const double speedup = c.speedup(s);
    if (!(std::isfinite(speedup) && speedup > 0.0 && speedup <= c.limit[s] * (1.0 + 1e-9)))
      c.problems.push_back("scenario " + std::to_string(s + 1) + " speedup " +
                           std::to_string(speedup) + " outside (0, " +
                           std::to_string(c.limit[s]) + "]");
  }
}

/// Compiles one program through a Session. The invariant re-derivation runs
/// after the clock stops, and only when `checkTable` is set (outcomes of
/// later repeats are compared byte for byte against the checked one).
Compiled compileSession(const Workload& w, const Program& p, const platform::Platform& pf,
                        const std::shared_ptr<pipeline::ArtifactCache>& cache, bool checkTable) {
  Compiled c;
  c.program = p.name;
  try {
    const auto start = Clock::now();
    pipeline::Session session(makeInputs(w, p, pf, cache));
    const parallel::ParallelizeOutcome& outcome = session.parallelize();
    for (int s = 0; s < kScenarios; ++s) {
      const platform::ClassId mainClass = scenarioClass(pf, s);
      c.estParallel[s] = session.estimates(mainClass).parallelSeconds;
      const pipeline::Session::SimNumbers sim = session.simulate(mainClass);
      c.simSequential[s] = sim.sequentialSeconds;
      c.simParallel[s] = sim.parallelSeconds;
    }
    const platform::ClassId mainClass = scenarioClass(pf, 0);
    const std::string annotated = session.emitAnnotated(mainClass);
    const std::string parspec = session.emitParspec(mainClass);
    const std::string premap = session.emitPremap(mainClass);
    c.seconds = secondsSince(start);

    c.cached = session.parallelizeWasCached();
    c.plan = planBytes(outcome);
    c.artifacts = joinArtifacts(annotated, parspec, premap);
    c.stats = outcome.stats;
    for (int s = 0; s < kScenarios; ++s) c.limit[s] = pf.theoreticalMaxSpeedup(scenarioClass(pf, s));
    checkStandalone(c, &session.frontend().graph, &session.timing(),
                    checkTable ? &outcome.table : nullptr);
  } catch (const std::exception& e) {
    c.problems.push_back(std::string("threw: ") + e.what());
  }
  return c;
}

/// Everything about a program's plan that must repeat exactly across
/// compiles and runs of one commit: outcome digest, ILP counters of the cold
/// solve, and the estimated/simulated times to the last bit.
std::string fingerprint(const Compiled& c, const parallel::IlpStatistics& coldStats) {
  pipeline::Digest times;
  for (int s = 0; s < kScenarios; ++s) {
    times.putF64(c.estParallel[s]);
    times.putF64(c.simSequential[s]);
    times.putF64(c.simParallel[s]);
  }
  const parallel::IlpStatistics& st = coldStats;
  std::ostringstream out;
  out << digestOf(c.plan) << " artifacts=" << digestOf(c.artifacts).substr(0, 16)
      << " ilps=" << st.numIlps << " region_hits=" << st.cacheHits << " vars=" << st.numVars
      << " constraints=" << st.numConstraints << " bnb_nodes=" << st.bnbNodes
      << " simplex_iters=" << st.simplexIterations << " refactorizations=" << st.refactorizations
      << " eta_updates=" << st.etaUpdates << " peak_fill=" << st.peakFillNonzeros
      << " times=" << times.hex().substr(0, 16);
  return out.str();
}

// ---------------------------------------------------------------------------
// Traced compile: each layer's public entry point called by hand

struct Span {
  std::string name;
  std::string program;
  int id = 0;
  int parent = -1;
  int repeat = 0;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

class Tracer {
 public:
  template <class F>
  auto span(const char* name, const std::string& program, F&& fn) {
    Span s;
    s.name = name;
    s.program = program;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.repeat = repeat_;
    s.start = secondsSince(origin_);
    spans_.push_back(s);
    stack_.push_back(s.id);
    struct Close {
      Tracer* t;
      int id;
      ~Close() {
        t->spans_[static_cast<std::size_t>(id)].end = secondsSince(t->origin_);
        t->stack_.pop_back();
      }
    } close{this, s.id};
    return fn();
  }

  void setRepeat(int repeat) { repeat_ = repeat; }

  /// Summed durations of spans named `name` in `repeat`.
  double total(const std::string& name, int repeat) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.repeat == repeat && s.name == name) sum += s.end - s.start;
    return sum;
  }

  void write(const fs::path& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"id\":%d,\"parent\":%d,\"repeat\":%d,\"name\":\"%s\",\"program\":\"%s\","
                    "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                    s.id, s.parent, s.repeat, s.name.c_str(), s.program.c_str(), s.start, s.end);
      out << line;
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int repeat_ = 0;
};

/// Counts of one traced compile (work done per layer).
struct LayerCounts {
  double interpOps = 0.0;
  long long htgNodes = 0, htgEdges = 0, commBytes = 0;
  double parallelCpuSeconds = 0.0;
  long long simTasks = 0;
  long long emittedBytes = 0;
  long long cacheHits = 0, cacheMisses = 0, cacheRejected = 0;
  long long artifactBytes = 0;
  parallel::IlpStatistics stats;
};

/// Mirrors what Session does for one compile (same calls, same order, same
/// options), with a span around every layer call.
Compiled compileTraced(const Workload& w, const Program& p, const platform::Platform& pf,
                       const std::shared_ptr<pipeline::ArtifactCache>& cache, Tracer& tr,
                       LayerCounts& counts) {
  Compiled c;
  c.program = p.name;
  const std::string& name = p.name;
  try {
    // Outputs are kept outside the spans so that comparing them later is not
    // traced time.
    parallel::ParallelizeOutcome outcome;
    std::string annotated, parspec, premap;
    const auto start = Clock::now();
    tr.span("compile", name, [&] {
      frontend::Program program =
          tr.span("frontend.parse", name, [&] { return frontend::parseProgram(p.source); });
      const frontend::SemaResult sema =
          tr.span("frontend.sema", name, [&] { return frontend::analyze(program); });
      const auto defuse = tr.span("ir.defuse", name, [&] {
        return std::make_unique<ir::DefUseAnalysis>(program, sema);
      });
      std::unique_ptr<ir::DataflowAnalysis> dataflow;
      std::unique_ptr<ir::SectionAnalysis> sections;
      if (w.flowMode == ir::FlowMode::Live) {
        tr.span("ir.dataflow", name, [&] {
          dataflow = std::make_unique<ir::DataflowAnalysis>(program, sema, *defuse);
          sections = dataflow->takeSections();
        });
      } else {
        sections = tr.span("ir.sections", name, [&] {
          return std::make_unique<ir::SectionAnalysis>(program, sema);
        });
      }
      const cost::ProgramProfile profile =
          tr.span("cost.interp", name, [&] { return cost::interpret(program, sema); });
      counts.interpOps += profile.totalOps;
      const htg::Graph graph = tr.span("htg.build", name, [&] {
        ir::DependenceOptions dep;
        dep.mode = w.depMode;
        dep.sections = sections.get();
        dep.flow = w.flowMode;
        dep.dataflow = dataflow.get();
        htg::Graph g = htg::buildGraph({program, sema, *defuse, profile, dep});
        htg::validateOrThrow(g);
        return g;
      });
      counts.htgNodes += static_cast<long long>(graph.size());
      for (std::size_t id = 0; id < graph.size(); ++id)
        for (const htg::Edge& e : graph.node(static_cast<htg::NodeId>(id)).edges) {
          ++counts.htgEdges;
          counts.commBytes += e.bytes;
        }

      const pipeline::Session keyed(makeInputs(w, p, pf, cache));
      const cost::TimingModel& timing = keyed.timing();
      const std::string key = tr.span("pipeline.key", name, [&] { return keyed.outcomeKey(); });
      bool hit = false;
      if (cache != nullptr) {
        const pipeline::ArtifactCacheStats before = cache->stats();
        hit = tr.span("pipeline.cache_load", name, [&] {
          std::string payload;
          const bool ok = cache->load(key, payload) &&
                          pipeline::deserializeOutcome(payload, outcome) &&
                          pipeline::outcomeFitsGraph(outcome, graph);
          if (ok) counts.artifactBytes += static_cast<long long>(payload.size());
          return ok;
        });
        const pipeline::ArtifactCacheStats after = cache->stats();
        counts.cacheHits += after.hits - before.hits;
        counts.cacheMisses += after.misses - before.misses;
        counts.cacheRejected += (after.rejectedCorrupt - before.rejectedCorrupt) +
                                (after.rejectedVersion - before.rejectedVersion);
        if (hit) outcome.stats = parallel::IlpStatistics{};
      }
      if (!hit) {
        const double cpu0 = processCpuSeconds();
        outcome = tr.span("parallel.run", name, [&] {
          return parallel::Parallelizer(graph, timing, makeOptions(w)).run();
        });
        counts.parallelCpuSeconds += processCpuSeconds() - cpu0;
        const std::string payload = pipeline::serializeOutcome(outcome);
        counts.artifactBytes += static_cast<long long>(payload.size());
        if (cache != nullptr) cache->store(key, payload);
      }
      counts.stats.merge(outcome.stats);

      for (int s = 0; s < kScenarios; ++s) {
        const platform::ClassId mainClass = scenarioClass(pf, s);
        const int mainCore = pf.firstCoreOfClass(mainClass);
        const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
        if (!best.valid()) throw std::runtime_error("no root solution");
        c.estParallel[s] = outcome.table.at(graph.root()).at(best.index).timeSeconds;
        const sched::FlattenResult seq = tr.span("sched.flatten", name, [&] {
          return sched::flattenSequential(graph, timing, mainCore);
        });
        c.simSequential[s] =
            tr.span("sim.simulate", name, [&] { return sim::simulate(seq.graph); }).makespanSeconds;
        const sched::FlattenResult flat = tr.span("sched.flatten", name, [&] {
          return sched::flatten(graph, outcome.table, best, timing, mainCore);
        });
        counts.simTasks += static_cast<long long>(flat.graph.tasks.size());
        c.simParallel[s] =
            tr.span("sim.simulate", name, [&] { return sim::simulate(flat.graph); }).makespanSeconds;
      }
      const platform::ClassId mainClass = scenarioClass(pf, 0);
      const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
      tr.span("codegen.emit", name, [&] {
        annotated = codegen::annotateSource(program, graph, outcome.table, best, pf);
        parspec = codegen::mpaSpec(graph, outcome.table, best);
        premap = codegen::premapSpec(graph, outcome.table, best, pf);
      });
      counts.emittedBytes +=
          static_cast<long long>(annotated.size() + parspec.size() + premap.size());
      c.cached = hit;
    });
    c.seconds = secondsSince(start);
    c.plan = planBytes(outcome);
    c.artifacts = joinArtifacts(annotated, parspec, premap);
    c.stats = outcome.stats;
    for (int s = 0; s < kScenarios; ++s) c.limit[s] = pf.theoreticalMaxSpeedup(scenarioClass(pf, s));
    checkStandalone(c, nullptr, nullptr, nullptr);
  } catch (const std::exception& e) {
    c.problems.push_back(std::string("threw: ") + e.what());
  }
  return c;
}

// ---------------------------------------------------------------------------
// Run bookkeeping

/// Calibration samples taken beside one timed phase: set-up, or the compile
/// loop.
class Calibration {
 public:
  static constexpr double kPeriodSeconds = 0.5;

  void sample() { samples_.push_back(calibrationSeconds()); }

  /// One sample at the first call, then one per kPeriodSeconds, taken between
  /// compiles and catching up after a long one, so that every stretch of the
  /// loop weighs alike in the median however long its compiles are.
  void keepUp() {
    if (samples_.empty()) next_ = Clock::now();
    while (Clock::now() >= next_) {
      sample();
      next_ += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kPeriodSeconds));
    }
  }

  double seconds() const { return median(samples_); }
  std::size_t samples() const { return samples_.size(); }

  /// Factor that scales the phase's wall times to the reference host speed.
  double scale() const { return kCalibrationReferenceSeconds / seconds(); }

 private:
  std::vector<double> samples_;
  Clock::time_point next_;
};

/// Reference of one program: its first checked compile in this run (for
/// warm workloads, the set-up's cold compile).
struct Reference {
  Compiled compiled;
  std::string fingerprint;
};

struct RunState {
  const Workload* workload = nullptr;
  platform::Platform platform;
  std::vector<Program> programs;
  std::shared_ptr<pipeline::ArtifactCache> cache;  ///< warm workloads only
  std::map<std::string, Reference> refs;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  Calibration setupCalibration;
  Calibration loopCalibration;

  /// Applies the gate to `c`, counts it, and keeps its problems.
  void gate(Compiled& c, const char* phase) {
    ++attempted;
    if (c.problems.empty()) {
      const auto it = refs.find(c.program);
      if (it == refs.end()) {
        c.problems.push_back("no reference compile");
      } else {
        const Compiled& ref = it->second.compiled;
        if (c.plan != ref.plan) c.problems.push_back("plan differs from reference");
        if (c.artifacts != ref.artifacts) c.problems.push_back("artifacts differ from reference");
        // A cache hit did no solving; it carries the cold solve's counters.
        if (fingerprint(c, c.cached ? ref.stats : c.stats) != it->second.fingerprint)
          c.problems.push_back("fingerprint (times or ILP counters) differs from reference");
        if (workload->warm && !c.cached) c.problems.push_back("not served from the artifact cache");
      }
    }
    if (c.problems.empty()) return;
    ++failed;
    for (const std::string& p : c.problems)
      failures.push_back(std::string(phase) + " " + c.program + ": " + p);
  }
};

/// Set-up repeats at least kSetupMinReps times, and more (up to
/// kSetupMaxReps) while the repetitions have taken under kSetupMinSeconds: a
/// cold workload's set-up takes 0.1 s, and only the median of many is steady.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 4.0;

/// Set-up: the workload's inputs, checked by running every program through
/// the frontend passes (cold workloads) or by a cold compile of every program
/// into a fresh artifact cache (warm workloads). The last repetition's state
/// is kept; every repetition's cold outcomes must agree.
double setUp(RunState& rs, const Workload& w, unsigned long long seed, const fs::path& repoRoot,
             const fs::path& outDir, std::vector<double>& samples) {
  const auto begin = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < kSetupMinReps || secondsSince(begin) < kSetupMinSeconds);
       ++rep) {
    rs.setupCalibration.sample();
    const auto start = Clock::now();
    rs.platform = makePlatform(w);
    rs.programs = makePrograms(w, seed, repoRoot);
    if (!w.warm) {  // malformed inputs fail before timing (warm: the cold compile)
      for (const Program& p : rs.programs)
        htg::validateOrThrow(pipeline::buildFrontend(p.source, w.depMode, w.flowMode).graph);
    }
    std::vector<Compiled> cold;
    double seconds = secondsSince(start);
    if (w.warm) {
      const auto cacheStart = Clock::now();
      const fs::path dir = outDir / ("cache-" + std::string(w.name) + "-" + std::to_string(seed));
      fs::remove_all(dir);
      rs.cache = std::make_shared<pipeline::ArtifactCache>(dir.string());
      seconds += secondsSince(cacheStart);
      for (const Program& p : rs.programs) {
        const bool first = rs.refs.find(p.name) == rs.refs.end();  // its table is re-derived
        cold.push_back(compileSession(w, p, rs.platform, rs.cache, first));
        seconds += cold.back().seconds;  // the compile alone, not its checks
        rs.setupCalibration.sample();
      }
    }
    samples.push_back(seconds);
    for (Compiled& c : cold) {
      ++rs.attempted;
      if (c.cached) c.problems.push_back("set-up compile served from a cache");
      if (c.problems.empty()) {
        // The first clean compile of a program is its reference; the later
        // repetitions must reproduce it.
        const std::string fp = fingerprint(c, c.stats);
        const auto it = rs.refs.find(c.program);
        if (it == rs.refs.end()) {
          const std::string program = c.program;
          rs.refs[program] = {std::move(c), fp};
          continue;
        }
        if (it->second.fingerprint != fp) c.problems.push_back("cold set-up compiles disagree");
      }
      if (!c.problems.empty()) {
        ++rs.failed;
        for (const std::string& p : c.problems) rs.failures.push_back("setup " + c.program + ": " + p);
      }
    }
  }
  return median(samples);
}

/// Compares this run's fingerprints with the first run's of this build, or
/// records them. A mismatch means a plan changed between runs of one commit.
/// The record's first line names the build it belongs to; a record of
/// another build (a different commit, or one built with other flags) is
/// replaced, since its plans and counters may rightly differ.
void checkDeterminism(RunState& rs, const fs::path& outDir, const std::string& buildStamp) {
  const fs::path path = outDir / ("determinism-" + std::string(rs.workload->name) + ".txt");
  const std::string header = "build " + buildStamp;
  std::map<std::string, std::string> current;
  for (const auto& [program, ref] : rs.refs) current[program] = ref.fingerprint;
  std::ifstream in(path);
  std::string firstLine;
  if (std::getline(in, firstLine) && firstLine == header) {
    std::map<std::string, std::string> recorded;
    std::string program, rest;
    while (in >> program && std::getline(in, rest)) recorded[program] = rest.substr(1);
    for (const auto& [prog, fp] : current) {
      const auto it = recorded.find(prog);
      if (it != recorded.end() && it->second != fp) {
        ++rs.failed;
        rs.failures.push_back("determinism " + prog + ": recorded " + it->second + " now " + fp);
      }
    }
    return;
  }
  const fs::path tmp = path.string() + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp);
    out << header << '\n';
    for (const auto& [prog, fp] : current) out << prog << ' ' << fp << '\n';
  }
  fs::rename(tmp, path);
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::size_t samples = 0;  ///< 0 = not a sampled timing
};

void printResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0)
      std::printf("metric %-32s %.6g %s (median of %zu)\n", m.name.c_str(), m.value, m.unit,
                  m.samples);
    else
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64] = "null";  // a non-finite value only arises in a failed run
    if (std::isfinite(metrics[i].value))
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Resets VmHWM to the current resident set (Linux 4.0 and later), so that
/// peakRssMb() covers what follows only; false when the kernel refuses.
bool resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also cover the parent's memory from before the exec that started us;
/// VmHWM belongs to the current address space only.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Compiles the whole program set repeatedly until `seconds` have passed
/// (at least once); returns the per-set wall times and, when `perProgram` is
/// given, appends each compile's time under its program.
std::vector<double> compileLoop(RunState& rs, double seconds,
                                const std::function<Compiled(const Program&)>& compile,
                                const char* phase,
                                std::map<std::string, std::vector<double>>* perProgram) {
  std::vector<double> setTimes;
  const auto start = Clock::now();
  do {
    double setSeconds = 0.0;
    for (const Program& p : rs.programs) {
      rs.loopCalibration.keepUp();
      Compiled c = compile(p);
      setSeconds += c.seconds;
      if (perProgram != nullptr) (*perProgram)[p.name].push_back(c.seconds);
      rs.gate(c, phase);
    }
    setTimes.push_back(setSeconds);
  } while (secondsSince(start) < seconds);
  return setTimes;
}

int runWorkload(const Workload& w, unsigned long long seed, double seconds, bool trace,
                const fs::path& repoRoot, const fs::path& outDir, const std::string& buildStamp) {
  fs::create_directories(outDir);
  RunState rs;
  rs.workload = &w;
  const int nproc = support::ThreadPool::resolveJobs(0);
  std::printf("workload %s seed %llu seconds %.0f trace %d nproc %d jobs %d\n", w.name, seed,
              seconds, trace ? 1 : 0, nproc, makeOptions(w).jobs);

  std::vector<double> setupSamples;
  const double setupSeconds = setUp(rs, w, seed, repoRoot, outDir, setupSamples);
  // peak_rss_mb covers the timed compile loop, not the set-up (on the warm
  // workload the set-up runs the cold ILP solves the loop must not need).
  if (!resetPeakRss())
    std::fprintf(stderr, "hetbench: cannot reset VmHWM; peak_rss_mb includes set-up\n");

  // Cold workloads take each program's reference from its first timed
  // compile; that compile is the one whose table is re-derived.
  std::map<std::string, std::vector<double>> perProgram;
  auto sessionCompile = [&](const Program& p) {
    const bool first = rs.refs.find(p.name) == rs.refs.end();
    Compiled c = compileSession(w, p, rs.platform, rs.cache, first);
    if (first && c.problems.empty()) rs.refs[p.name] = {c, fingerprint(c, c.stats)};
    return c;
  };
  const double untracedSeconds = trace ? seconds / 2 : seconds;
  const std::vector<double> setTimes =
      compileLoop(rs, untracedSeconds, sessionCompile, "session", &perProgram);
  checkDeterminism(rs, outDir, buildStamp);

  // Per-program rows: compile time against the work it did. Programs are
  // taken in name order, not the seed's, so that the geomeans are summed in
  // the same order and repeat to the last bit.
  // plan_p50_s is the median over programs of each program's median compile
  // time, so that it does not jump between programs from run to run.
  std::vector<double> programMedians, slow, fast;
  std::size_t compiles = 0;
  std::vector<EstSim> estSim;
  for (const auto& [name, ref] : rs.refs) {
    const Compiled& c = ref.compiled;
    programMedians.push_back(median(perProgram[name]));
    compiles += perProgram[name].size();
    slow.push_back(c.speedup(0));
    fast.push_back(c.speedup(1));
    for (int s = 0; s < kScenarios; ++s) estSim.push_back({c.estParallel[s], c.simParallel[s]});
    std::printf(
        "row %-12s compile_s=%.4f speedup_slow_main=%.4f speedup_fast_main=%.4f "
        "est_over_sim_slow=%.4f est_over_sim_fast=%.4f bnb_nodes=%lld simplex_iters=%lld "
        "digest=%s\n",
        name.c_str(), median(perProgram[name]), c.speedup(0), c.speedup(1), c.estOverSim(0),
        c.estOverSim(1), c.stats.bnbNodes, c.stats.simplexIterations,
        digestOf(c.plan).c_str());
  }

  std::vector<Metric> metrics;
  if (!trace) {
    // End-to-end times are scaled to the reference host speed (calibrate.hpp);
    // the rows above and the per-layer timings are wall times as measured.
    const Calibration& loop = rs.loopCalibration;
    const Calibration& setup = rs.setupCalibration;
    std::printf("calibration loop %.6g s (median of %zu, scale %.6g), set-up %.6g s (median of "
                "%zu, scale %.6g); wall plan_s %.6g s, plan_p50_s %.6g s, setup_s %.6g s\n",
                loop.seconds(), loop.samples(), loop.scale(), setup.seconds(), setup.samples(),
                setup.scale(), median(setTimes), median(programMedians), setupSeconds);
    metrics = {
        {"plan_s", loop.scale() * median(setTimes), "s", setTimes.size()},
        {"plan_p50_s", loop.scale() * median(programMedians), "s", compiles},
        {"sim_speedup_slow_main", geomean(slow), "x"},
        {"sim_speedup_fast_main", geomean(fast), "x"},
        {"est_sim_gap", estSimGap(estSim), "ratio"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", setup.scale() * setupSeconds, "s", setupSamples.size()},
        {"passed_share", 1.0 - failedShare(rs.failed, rs.attempted), "ratio"},
    };
  } else {
    Tracer tr;
    std::vector<LayerCounts> repeats;
    int repeat = 0;
    auto tracedCompile = [&](const Program& p) {
      if (repeats.size() <= static_cast<std::size_t>(repeat)) repeats.emplace_back();
      return compileTraced(w, p, rs.platform, rs.cache, tr, repeats.back());
    };
    std::vector<double> tracedSets;
    const auto start = Clock::now();
    do {
      tr.setRepeat(repeat);
      tracedSets.push_back(compileLoop(rs, 0.0, tracedCompile, "traced", nullptr).front());
      ++repeat;
    } while (secondsSince(start) < seconds / 2);
    tr.write(outDir / ("trace-" + std::string(w.name) + "-" + std::to_string(seed) + ".jsonl"));

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Timings are medians over the traced repeats; counts repeat exactly, so
    // the first repeat's stand for all.
    auto perRepeat = [&](const std::function<double(int)>& value) {
      std::vector<double> v;
      for (int r = 0; r < repeat; ++r) v.push_back(value(r));
      return median(v);
    };
    auto layer = [&](const char* name) {
      return perRepeat([&](int r) { return tr.total(name, r); });
    };
    auto solveOf = [&](int r) { return repeats[static_cast<std::size_t>(r)].stats.wallSeconds; };
    auto cpuOf = [&](int r) { return repeats[static_cast<std::size_t>(r)].parallelCpuSeconds; };
    const LayerCounts& n = repeats.front();
    const parallel::IlpStatistics& st = n.stats;
    const double runS = layer("parallel.run");
    const double interpS = layer("cost.interp");
    const double tracedPlan = median(tracedSets);
    const long long regions = st.numIlps + st.cacheHits;
    const std::size_t k = tracedSets.size();
    metrics = {
        {"frontend.parse_s", layer("frontend.parse"), "s", k},
        {"frontend.sema_s", layer("frontend.sema"), "s", k},
        {"ir.defuse_s", layer("ir.defuse"), "s", k},
        {"ir.sections_s", layer("ir.sections"), "s", k},
        {"ir.dataflow_s", layer("ir.dataflow"), "s", k},
        {"cost.interp_s", interpS, "s", k},
        {"cost.interp_ops", n.interpOps, "count"},
        {"cost.interp_mops_per_s", ratio(n.interpOps / 1e6, interpS), "Mop/s"},
        {"htg.build_s", layer("htg.build"), "s", k},
        {"htg.nodes", static_cast<double>(n.htgNodes), "count"},
        {"htg.edges", static_cast<double>(n.htgEdges), "count"},
        {"htg.comm_bytes", static_cast<double>(n.commBytes), "B"},
        {"parallel.run_s", runS, "s", k},
        // CPU seconds of run() outside the ILP solves: model build plus
        // orchestration. Wall time minus the summed solve time would go
        // negative once jobs > 1 overlaps the solves.
        {"parallel.self_s", perRepeat([&](int r) { return cpuOf(r) - solveOf(r); }), "s", k},
        {"parallel.regions", static_cast<double>(regions), "count"},
        {"parallel.region_cache_hit_ratio", ratio(static_cast<double>(st.cacheHits),
                                                  static_cast<double>(regions)), "ratio"},
        {"parallel.model_vars", static_cast<double>(st.numVars), "count"},
        {"parallel.model_constraints", static_cast<double>(st.numConstraints), "count"},
        {"parallel.cpu_s", perRepeat(cpuOf), "s", k},
        {"ilp.solves", static_cast<double>(st.numIlps), "count"},
        {"ilp.solve_s", perRepeat(solveOf), "s", k},
        {"ilp.bnb_nodes", static_cast<double>(st.bnbNodes), "count"},
        {"ilp.simplex_iters", static_cast<double>(st.simplexIterations), "count"},
        {"ilp.iters_per_node", ratio(static_cast<double>(st.simplexIterations),
                                     static_cast<double>(st.bnbNodes)), "ratio"},
        {"ilp.refactorizations", static_cast<double>(st.refactorizations), "count"},
        {"ilp.eta_updates", static_cast<double>(st.etaUpdates), "count"},
        {"ilp.peak_fill_nnz", static_cast<double>(st.peakFillNonzeros), "count"},
        {"sched.flatten_s", layer("sched.flatten"), "s", k},
        {"sched.tasks", static_cast<double>(n.simTasks), "count"},
        {"sim.simulate_s", layer("sim.simulate"), "s", k},
        {"codegen.emit_s", layer("codegen.emit"), "s", k},
        {"codegen.bytes", static_cast<double>(n.emittedBytes), "B"},
        {"pipeline.key_s", layer("pipeline.key"), "s", k},
        {"pipeline.cache_load_s", layer("pipeline.cache_load"), "s", k},
        {"pipeline.cache_hits", static_cast<double>(n.cacheHits), "count"},
        {"pipeline.cache_misses", static_cast<double>(n.cacheMisses), "count"},
        {"pipeline.cache_rejected", static_cast<double>(n.cacheRejected), "count"},
        {"pipeline.artifact_bytes", static_cast<double>(n.artifactBytes), "B"},
        {"trace.plan_s", tracedPlan, "s", k},
        {"trace.overhead_s", tracedPlan - median(setTimes), "s"},
        {"trace.parallel_share", ratio(runS, tracedPlan), "ratio"},
        {"trace.interp_htg_share", ratio(interpS + layer("htg.build"), tracedPlan), "ratio"},
    };
  }

  if (w.warm) fs::remove_all(rs.cache->directory());
  std::printf("attempted %lld failed %lld failed_share %.6g\n", rs.attempted, rs.failed,
              failedShare(rs.failed, rs.attempted));
  for (const std::string& f : rs.failures) std::printf("FAILED %s\n", f.c_str());
  const bool correct = rs.failed == 0;
  printResult(correct, rs.attempted, rs.failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: the gate can fail, and the aggregation is right

/// Loop-carried recurrences cannot be chunked, so the plan distributes the
/// three loops over tasks (a TaskParallel candidate with several tasks).
constexpr const char* kGateFixture = R"(
int ga[1000];
int gb[1000];
int gc[1000];
int main() {
  ga[0] = 1;
  gb[0] = 2;
  gc[0] = 3;
  for (int i = 1; i < 1000; i = i + 1) { ga[i] = (ga[i - 1] * 3 + i) % 1000; }
  for (int j = 1; j < 1000; j = j + 1) { gb[j] = (gb[j - 1] * 5 + j) % 1000; }
  for (int k = 1; k < 1000; k = k + 1) { gc[k] = (gc[k - 1] * 7 + k) % 1000; }
  return ga[999] + gb[999] + gc[999];
}
)";

int selfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); };

  expect(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 3, 2}), 2.5), "median");
  expect(near(geomean({2.0, 8.0}), 4.0) && near(geomean({5.0}), 5.0), "geomean");
  expect(std::isnan(geomean({2.0, 0.0})), "geomean rejects a non-positive speedup");
  expect(near(estSimGap({{1.0, 1.0}, {9.83, 8.94}, {0.95, 1.0}}), 9.83 / 8.94 - 1.0),
         "est_sim_gap takes the largest deviation");
  expect(near(estSimGap({{0.5, 1.0}, {1.2, 1.0}}), 0.5), "est_sim_gap counts underestimates");
  expect(near(failedShare(0, 7), 0.0) && near(failedShare(3, 12), 0.25), "failed_share");
  expect(near(failedShare(0, 0), 1.0), "failed_share with nothing attempted");

  // Gate fixture: a clean plan passes, the same plan with one child moved to
  // another task must not.
  const Workload w{"self-test", 'B', ir::DependenceMode::Conservative,
                   ir::FlowMode::Conservative, false, false, {}};
  const platform::Platform pf = makePlatform(w);
  pipeline::Session session(makeInputs(w, {"gate-fixture", kGateFixture}, pf, nullptr));
  const parallel::ParallelizeOutcome& outcome = session.parallelize();
  const htg::Graph& graph = session.frontend().graph;
  expect(verify::checkSolutionTable(graph, session.timing(), outcome.table).empty(),
         "clean fixture table passes the gate");

  parallel::SolutionTable tampered = outcome.table;
  bool moved = false;
  for (auto& [node, set] : tampered) {
    for (std::size_t i = 0; i < set.size() && !moved; ++i) {
      parallel::SolutionCandidate& cand = set.at(static_cast<int>(i));
      if (cand.kind != parallel::SolutionKind::TaskParallel || cand.childTask.size() < 2) continue;
      const int first = cand.childTask.front();
      const int last = cand.childTask.back();
      if (first == last) continue;
      cand.childTask.front() = last;  // move child 0 onto the last child's task
      moved = true;
    }
    if (moved) break;
  }
  expect(moved, "fixture has a TaskParallel candidate to tamper with");
  Compiled c;
  c.program = "gate-fixture";
  c.simSequential[0] = c.simSequential[1] = 2.0;
  c.simParallel[0] = c.simParallel[1] = 1.0;
  c.limit[0] = c.limit[1] = 4.0;
  checkStandalone(c, &graph, &session.timing(), &tampered);
  expect(!c.problems.empty(), "tampered table (child moved to another task) fails the gate");

  Compiled over;
  over.simSequential[0] = over.simSequential[1] = 5.0;
  over.simParallel[0] = over.simParallel[1] = 1.0;
  over.limit[0] = over.limit[1] = 4.0;
  checkStandalone(over, nullptr, nullptr, nullptr);
  expect(over.problems.size() == 2, "speedup above the analytic limit fails the gate");

  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " --repo-root <dir> --out-dir <dir> --build-stamp <id>\n"
               "       hetbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace hetbench

int main(int argc, char** argv) {
  using namespace hetbench;
  std::map<std::string, std::string> args;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (self) return selfTest();
    for (const char* key :
         {"workload", "seed", "seconds", "trace", "repo-root", "out-dir", "build-stamp"})
      if (args.count(key) == 0) return usage();
    const Workload* w = findWorkload(args["workload"]);
    if (w == nullptr) {
      std::fprintf(stderr, "hetbench: unknown workload '%s'\n", args["workload"].c_str());
      return 2;
    }
    return runWorkload(*w, std::stoull(args["seed"]), std::stod(args["seconds"]),
                       args["trace"] == "1", args["repo-root"], args["out-dir"],
                       args["build-stamp"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hetbench: %s\n", e.what());
    return 1;
  }
}
