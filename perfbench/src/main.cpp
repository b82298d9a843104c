// perfbench — the repository's end-to-end benchmark with a per-layer ledger.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR
//
// Workloads (see BENCHMARK.json for why each exists):
//   table1_741           the paper's Table 1 on the 741: cold set-up, a
//                        closed-loop stream of single-point evaluate()
//                        calls, a 4-thread Monte-Carlo yield sweep, and
//                        awesym_cli invocations
//   serve_mixed_741      the awe_serve daemon under open-loop Poisson load
//                        (rate ladder, mixed request kinds, reloads) and
//                        one closed-loop client at light load
//   design_loop_coupled  coupled lines: edit -> incremental rebuild ->
//                        gradient + pole-sensitivity sweep
// Every workload reports every end-to-end metric: the parts that are not
// its focus run as short fixed-share probes on the workload's deck (the
// daemon probe always serves the 741).  With --trace 1 the same parts run
// with spans around each layer call, plus replays of single layer
// functions, and the per-layer metrics and the ledger are printed instead.
// The last stdout line is the JSON result.
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "awe/moments.hpp"
#include "awe/pade.hpp"
#include "awe/awe.hpp"
#include "bench.hpp"
#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_cache.hpp"
#include "decks.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "health/report.hpp"
#include "partition/partitioner.hpp"
#include "serve/json.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve_load.hpp"

namespace fs = std::filesystem;
using namespace awe;

namespace pb {
namespace {

// ------------------------------------------------------------------ config

/// Share of --seconds each part of a workload measures for.
struct Shares {
  double setup, point, sweep, cli, serve, edit;
};

/// What setup_s times on a workload.
enum class SetupKind {
  kInProcess,    ///< parse + build
  kDaemon,       ///< awe_serve spawn -> ready file
  kIncremental,  ///< parse + build into a fresh block store and model cache
};

struct WorkloadDef {
  const char* name;
  bool coupled;  ///< deck: coupled lines (else the 741)
  Shares shares;
  SetupKind setup;
};

const WorkloadDef kWorkloads[] = {
    {"table1_741", false, {0.05, 0.15, 0.2, 0.2, 0.3, 0.1}, SetupKind::kInProcess},
    {"serve_mixed_741", false, {0.0, 0.04, 0.05, 0.08, 0.75, 0.08}, SetupKind::kDaemon},
    {"design_loop_coupled", true, {0.1, 0.04, 0.08, 0.1, 0.23, 0.45}, SetupKind::kIncremental},
};

/// Daemon load: the nominal rate is where serve.p50_ms/p99_ms are read.
const double kLadder[] = {2000, 4000, 8000, 12000};
constexpr double kNominalRate = 4000;
constexpr double kP99LimitMs = 2.0;
constexpr double kLagLimitMs = 1.0;  ///< generator p99 lateness above this invalidates a phase
constexpr std::size_t kConnections = 4;
/// Daemon latency at light load: one client with one request outstanding,
/// on the same mix.  Its plan is laid out at kClosedPlanRate, so a reload
/// comes every kClosedPlanRate requests.
constexpr double kClosedPlanRate = 20000;
constexpr std::size_t kEval16Pool = 1024;  ///< distinct point sets of closed-loop eval16 lines
constexpr std::size_t kMcPoints = 1000;      ///< awesym_cli --mc
/// Points of one yield sweep, so that a sweep takes a few milliseconds.
constexpr std::size_t kSweepPoints741 = 16384, kSweepPointsCoupled = 8192;
constexpr std::size_t kGradPoints = 4096;    ///< one design-loop sweep
constexpr double kSpread = 0.05;             ///< relative sigma of sampled values
constexpr int kRounds = 30;                  ///< interleaved slices per run
constexpr std::size_t kPointBlock = 64;      ///< evaluate() calls per timing block

/// Every per-layer metric of the traced run, with its unit (BENCHMARK.json
/// lists the same names).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"circuit.parse_ms", "ms"},          {"partition.extract_ms", "ms"},
    {"partition.solve_ms", "ms"},        {"symbolic.compile_ms", "ms"},
    {"partition.block_reuse_frac", "frac"}, {"symbolic.instructions", "count"},
    {"symbolic.grad_instructions", "count"}, {"symbolic.batch_ns_per_pt", "ns"},
    {"core.scalar_ns_per_pt", "ns"},     {"core.cache_store_ms", "ms"},
    {"core.map_open_ms", "ms"},          {"engine.scaling_4v1", "x"},
    {"engine.grad_ns_per_pt", "ns"},     {"engine.degraded_frac", "frac"},
    {"engine.quarantined_frac", "frac"}, {"awe.pade_ns_per_pt", "ns"},
    {"awe.rom_ns_per_pt", "ns"},         {"awe.sens_ns_per_pt", "ns"},
    {"awe.full_awe_us", "us"},           {"awe.speedup_vs_full", "x"},
    {"serve.ping_us_p50", "us"},         {"serve.parse_us", "us"},
    {"serve.sweep_us", "us"},            {"serve.encode_us", "us"},
    {"serve.resp_bytes", "bytes"},       {"serve.residual_us", "us"},
    {"serve.reload_ms", "ms"},           {"serve.shed", "count"},
    {"serve.deadline_expired", "count"}, {"serve.evicted", "count"},
    {"serve.gen_lag_ms_p99", "ms"},      {"serve.p99_ms", "ms"},
    {"serve.max_rps", "1/s"},            {"health.fail_count", "count"},
    {"ledger.circuit_ms", "ms"},         {"ledger.partition_ms", "ms"},
    {"ledger.symbolic_ms", "ms"},        {"ledger.core_ms", "ms"},
    {"ledger.engine_ms", "ms"},          {"ledger.awe_ms", "ms"},
    {"ledger.serve_ms", "ms"},           {"ledger.tool_ms", "ms"},
    {"ledger.unattributed_ms", "ms"},    {"ledger.e2e_ms", "ms"},
    {"ledger.unattributed_frac", "frac"}, {"table1.setup_ms", "ms"},
    {"table1.full_awe_us", "us"},        {"table1.symbolic_us", "us"},
    {"table1.eval_us", "us"},            {"table1.crossover_pts", "points"},
    {"trace.overhead_frac", "frac"},     {"host.effective_cpus", "cpus"},
    {"host.nproc", "cpus"},              {"serve.p50_ms", "ms"},
    {"e2e.point_us_p50", "us"},          {"e2e.point_us_p99", "us"},
    {"e2e.cli_ms_p50", "ms"},            {"e2e.edit_ms_p50", "ms"},
    {"e2e.edit_ms_p95", "ms"},           {"serve.light_us_p50", "us"},
    {"serve.light_us_p99", "us"},        {"e2e.setup_s_p50", "s"},
};

struct Ctx {
  const WorkloadDef* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir, work_dir;
  Tracer tr{false};
  std::map<std::string, Metric> e2e;
  Checks chk;
  std::size_t attempted = 0, failed = 0;
  health::HealthReport sweep_health;  ///< merged over every sweep in the run
  std::map<std::string, double> replay;  ///< trace mode: replayed layer costs
  std::map<std::string, double> ledger_extra_ms;  ///< serve request-time ledger
  std::vector<double> rebuild_s;  ///< trace mode: incremental rebuild times
  Deck deck, deck741;
};

/// Symbol-major sample of n points, normal around the nominal values.
std::vector<double> sample_soa(const std::vector<double>& nominal, std::size_t n, Rng& rng) {
  std::vector<double> v(nominal.size() * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < nominal.size(); ++i)
      v[i * n + p] = nominal[i] * (1.0 + kSpread * rng.normal());
  return v;
}

std::vector<double> point_of(const std::vector<double>& soa, std::size_t nsym, std::size_t n,
                             std::size_t p) {
  std::vector<double> x(nsym);
  for (std::size_t i = 0; i < nsym; ++i) x[i] = soa[i * n + p];
  return x;
}

std::vector<sweep::Distribution> dists_of(const std::vector<double>& nominal) {
  std::vector<sweep::Distribution> d;
  for (const double v : nominal) d.push_back(sweep::Distribution::normal(v, kSpread * std::abs(v)));
  return d;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

core::CompiledModel build(const Deck& d, const circuit::Netlist& nl,
                          const core::ModelOptions& mo, const core::BuildOptions& bo = {}) {
  return core::CompiledModel::build(nl, d.symbols, d.input, d.output, mo, bo);
}

/// Effective parallelism: the same spin work on 1 and on 4 threads,
/// alternated three times (medians), as 4 * t1 / t4.
double effective_cpus() {
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 100'000'000ull; ++i) x = x + i;
  };
  std::vector<double> t1, t4;
  for (int round = 0; round < 3; ++round) {
    auto t0 = Clock::now();
    spin();
    t1.push_back(secs_since(t0));
    t0 = Clock::now();
    std::vector<std::thread> th;
    for (int i = 0; i < 4; ++i) th.emplace_back(spin);
    for (auto& t : th) t.join();
    t4.push_back(secs_since(t0));
  }
  return 4.0 * median(t1) / median(t4);
}

void record_sweep(Ctx& c, const sweep::SweepResult& r) {
  c.sweep_health.merge(r.health);
  c.attempted += r.num_points;
  c.failed += r.health.points_quarantined;
}

// ------------------------------------------------------------------ checks

/// Compiled moments vs a full sparse-LU AWE moment computation on the
/// value-substituted netlist (no partition or symbolic code involved).
void check_vs_full_awe(Ctx& c, const Deck& d, const core::CompiledModel& m, Rng& rng,
                       std::size_t npts) {
  const auto parsed = circuit::parse_deck_string(d.text);
  const auto out = *parsed.netlist.find_node(d.output);
  const auto soa = sample_soa(d.nominal, npts, rng);
  for (std::size_t p = 0; p < npts; ++p) {
    const auto x = point_of(soa, d.symbols.size(), npts, p);
    circuit::Netlist nl = parsed.netlist;
    for (std::size_t i = 0; i < x.size(); ++i) nl.set_value(d.symbols[i], x[i]);
    const auto ref = engine::MomentGenerator(nl).transfer_moments(d.input, out, m.moment_count());
    const auto got = m.moments_at(x);
    for (std::size_t k = 0; k < ref.size(); ++k)
      c.chk.expect(std::abs(got[k] - ref[k]) <= 1e-6 * std::abs(ref[k]),
                   d.name + ": compiled moment m" + std::to_string(k) +
                       " disagrees with full AWE at a seeded point");
  }
}

/// Strict sweep moments must be bit-identical to scalar evaluate().
void check_strict_sweep(Ctx& c, const Deck& d, const core::CompiledModel& m, Rng& rng) {
  const std::size_t n = 256;
  const auto soa = sample_soa(d.nominal, n, rng);
  sweep::ThreadPool pool(1);
  sweep::SweepOptions so;
  so.pool = &pool;
  const auto r = sweep::run_sweep(m, soa, n, so);
  bool same = true;
  for (std::size_t p = 0; p < n; ++p) {
    const auto x = point_of(soa, d.symbols.size(), n, p);
    const auto rom_m = m.evaluate(x).moments();
    for (std::size_t k = 0; k < m.moment_count(); ++k)
      same = same && r.ok[p] && same_bits(r.moment(k, p), rom_m[k]);
  }
  c.chk.expect(same, d.name + ": strict sweep moments differ from scalar evaluate()");
}

// ------------------------------------------------------------------ parts
//
// Each part is measured in kRounds slices interleaved with the others, so
// every metric sees the same mix of host conditions over the run instead
// of whatever the host did during one contiguous stretch.  Samples are
// pooled over the slices.

/// Cold set-up in process: deck text -> parse -> build, plan memo cleared.
void setup_inprocess(Ctx& c, const Deck& d, double secs, bool incremental,
                     std::vector<double>& t) {
  const auto t_end = Clock::now() + std::chrono::duration<double>(secs);
  do {
    core::BuildOptions bo;
    std::string dir;
    if (incremental) {
      dir = c.work_dir + "/setup_cache";
      fs::remove_all(dir);
      bo.cache_dir = dir;
      bo.incremental = true;
    }
    part::clear_plan_cache();
    const auto t0 = Clock::now();
    {
      Tracer::Scope op(c.tr, "op.setup");
      std::optional<circuit::ParsedDeck> parsed;
      {
        Tracer::Scope s(c.tr, "circuit.parse");
        parsed = circuit::parse_deck_string(d.text);
      }
      Tracer::Scope s(c.tr, incremental ? "core.build_cached" : "core.build");
      const auto m = build(d, parsed->netlist, incremental ? d.gradient : d.forward, bo);
      if (m.moment_count() == 0) c.chk.expect(false, "empty model");
    }
    t.push_back(secs_since(t0));
    if (!dir.empty()) fs::remove_all(dir);
  } while (Clock::now() < t_end);
}

/// Closed loop of single-point evaluate() calls at seeded points.  Keeps
/// the median of every block of kPointBlock calls, and a uniform sample
/// (reservoir) of at most kMaxKept call times, so the benchmark's own
/// memory does not grow with the host's speed.
class PointStream {
 public:
  static constexpr std::size_t kMaxKept = 200000;
  PointStream(const Deck& d, const core::CompiledModel& m, Rng& rng)
      : m_(m), keep_(rng.next()) {
    const std::size_t n = 4096, nsym = d.symbols.size();
    const auto soa = sample_soa(d.nominal, n, rng);
    for (std::size_t p = 0; p < n; ++p) pts_.push_back(point_of(soa, nsym, n, p));
  }
  void step(Ctx& c, double secs, std::size_t max_calls = SIZE_MAX) {
    const auto t_end = Clock::now() + std::chrono::duration<double>(secs);
    for (std::size_t i = 0; i < max_calls; ++i) {
      if ((i & 63) == 0 && Clock::now() >= t_end) break;
      const auto& x = pts_[next_++ % pts_.size()];
      const auto t0 = Clock::now();
      try {
        Tracer::Scope op(c.tr, "op.point");
        Tracer::Scope s(c.tr, "core.evaluate");
        sink_ += m_.evaluate(x).dc_gain();
      } catch (const std::exception&) {
        ++c.failed;
      }
      const double t = secs_since(t0) * 1e6;
      block_.push_back(t);
      if (block_.size() == kPointBlock) {
        block_us.push_back(median(block_));
        block_.clear();
      }
      if (us.size() < kMaxKept) {
        us.push_back(t);
      } else if (const std::size_t j = keep_.below(calls + 1); j < kMaxKept) {
        us[j] = t;
      }
      ++calls;
      ++c.attempted;
    }
    if (!std::isfinite(sink_)) c.chk.expect(false, "non-finite dc gain in the point stream");
  }
  std::vector<double> us;  ///< call times (us), a uniform sample of all calls
  std::vector<double> block_us;  ///< median call time of each block
  std::size_t calls = 0;

 private:
  const core::CompiledModel& m_;
  Rng keep_;
  std::vector<std::vector<double>> pts_;
  std::vector<double> block_;
  std::size_t next_ = 0;
  double sink_ = 0;
};

/// Seeded Monte-Carlo yield sweeps (ROM + dominant-pole predicate) on a
/// 4-thread pool.
class YieldSweeps {
 public:
  YieldSweeps(const Deck& d, const core::CompiledModel& m, std::uint64_t seed)
      : d_(d),
        m_(m),
        seed_(seed),
        n_(d.name == "coupled" ? kSweepPointsCoupled : kSweepPoints741),
        pool_(4),
        dists_(dists_of(d.nominal)) {
    const auto nominal_pole = m.evaluate(d.nominal).dominant_pole();
    const double p0 = nominal_pole ? std::abs(*nominal_pole) : 1.0;
    so_.pool = &pool_;
    so_.with_rom = true;
    so_.pass_predicate = [p0](const engine::ReducedOrderModel& r) {
      const auto p = r.dominant_pole();
      return p && p->real() < 0 && std::abs(std::abs(*p) - p0) <= 0.05 * p0;
    };
  }
  void step(Ctx& c, double secs) {
    const auto t_end = Clock::now() + std::chrono::duration<double>(secs);
    do {
      const auto t0 = Clock::now();
      sweep::SweepResult r;
      {
        Tracer::Scope op(c.tr, "op.sweep");
        Tracer::Scope s(c.tr, "engine.monte_carlo");
        r = sweep::monte_carlo(m_, dists_, n_, seed_ + rates.size(), so_);
      }
      rates.push_back(static_cast<double>(n_) / secs_since(t0));
      record_sweep(c, r);
      c.chk.expect(r.ok_count + r.health.points_quarantined == n_,
                   d_.name + ": yield sweep point accounting");
      // The pass flags of a few points, re-derived through scalar evaluate().
      bool same = true;
      for (std::size_t p = 0; p < 16; ++p) {
        const auto x = point_of(r.points, d_.symbols.size(), n_, p);
        same = same && r.ok[p] && so_.pass_predicate(m_.evaluate(x)) == (r.pass[p] != 0);
      }
      c.chk.expect(same, d_.name + ": yield sweep pass flags differ from scalar evaluate()");
    } while (Clock::now() < t_end);
  }
  std::vector<double> rates;

 private:
  const Deck& d_;
  const core::CompiledModel& m_;
  std::uint64_t seed_;
  std::size_t n_;
  sweep::ThreadPool pool_;
  std::vector<sweep::Distribution> dists_;
  sweep::SweepOptions so_;
};

/// awesym_cli <deck> --mc 1000 --threads 1, one invocation after another.
void cli_runs(Ctx& c, const Deck& d, double secs, std::uint64_t seed, std::vector<double>& ms) {
  const auto t_end = Clock::now() + std::chrono::duration<double>(secs);
  do {
    const std::vector<std::string> argv = {
        c.bin_dir + "/awesym_cli", d.path, "--order", std::to_string(d.forward.order),
        "--mc", std::to_string(kMcPoints), "--threads", "1", "--seed",
        std::to_string(seed + ms.size())};
    const auto t0 = Clock::now();
    int rc = -1;
    std::string out;
    {
      Tracer::Scope op(c.tr, "op.cli");
      Tracer::Scope s(c.tr, "tool.cli");
      const Child ch = spawn(argv, true);
      out = read_all(ch.out_fd);
      rc = wait_child(ch.pid);
    }
    ms.push_back(secs_since(t0) * 1e3);
    ++c.attempted;
    if (rc != 0) ++c.failed;
    unsigned long ok = 0, deg = 0, quar = 0;
    const auto at = out.find("  ok ");
    const bool parsed =
        at != std::string::npos &&
        std::sscanf(out.c_str() + at, "  ok %lu, degraded %lu, quarantined %lu", &ok, &deg,
                    &quar) == 3;
    c.chk.expect(rc != 0 || (parsed && ok + deg + quar == kMcPoints),
                 d.name + ": awesym_cli Monte-Carlo summary missing or inconsistent");
  } while (Clock::now() < t_end);
}

/// Edit -> incremental rebuild -> gradient + pole-sensitivity sweep, with
/// the block store and model cache in a fresh directory.
class DesignLoop {
 public:
  DesignLoop(Ctx& c, const Deck& d, Rng& rng)
      : d_(d),
        rng_(rng),
        dir_(c.work_dir + "/design_cache"),
        parsed_(circuit::parse_deck_string(d.text)),
        pts_(sample_soa(d.nominal, kGradPoints, rng)),
        pool_(1) {
    fs::remove_all(dir_);
    bo_.cache_dir = dir_;
    bo_.incremental = true;
    part::clear_plan_cache();
    model_.emplace(build(d, parsed_.netlist, d.gradient, bo_));
    so_.pool = &pool_;
    so_.gradients = true;
    so_.pole_sensitivities = true;
    const auto& ctr = health::global_counters();
    reused0_ = ctr.partition_blocks_reused.load();
    built0_ = ctr.partition_blocks_built.load();
  }
  ~DesignLoop() { fs::remove_all(dir_); }
  DesignLoop(const DesignLoop&) = delete;
  DesignLoop& operator=(const DesignLoop&) = delete;

  void step(Ctx& c, double secs) {
    circuit::Netlist& nl = parsed_.netlist;
    const auto t_end = Clock::now() + std::chrono::duration<double>(secs);
    do {
      const std::string& name = d_.editable[rng_.below(d_.editable.size())];
      const std::size_t idx = *nl.find_element(name);
      const double v = nl.elements()[idx].value * (1.0 + 0.3 * (rng_.uniform() - 0.5));
      std::vector<double> p = pts_;
      const auto t0 = Clock::now();
      Clock::time_point t_mid;
      ++c.attempted;
      try {
        Tracer::Scope op(c.tr, "op.edit");
        nl.set_value(idx, v);
        {
          Tracer::Scope s(c.tr, "core.rebuild");
          model_.emplace(build(d_, nl, d_.gradient, bo_));
        }
        t_mid = Clock::now();
        Tracer::Scope s(c.tr, "engine.grad_sweep");
        last_ = sweep::run_sweep(*model_, std::move(p), kGradPoints, so_);
      } catch (const std::exception&) {
        ++c.failed;
        continue;
      }
      if (c.trace) c.rebuild_s.push_back(std::chrono::duration<double>(t_mid - t0).count());
      edit_ms.push_back(secs_since(t0) * 1e3);
      const double g = secs_since(t_mid);
      grad_s += g;
      grad_pts += kGradPoints;
      grad_rates.push_back(kGradPoints / g);
      record_sweep(c, last_);
    } while (Clock::now() < t_end);
  }

  /// Output checks once the loop is done.
  void finish(Ctx& c) {
    const auto& ctr = health::global_counters();
    const auto reused = ctr.partition_blocks_reused.load() - reused0_;
    const auto built = ctr.partition_blocks_built.load() - built0_;
    c.replay["partition.block_reuse_frac"] =
        reused + built ? static_cast<double>(reused) / static_cast<double>(reused + built) : 0.0;

    // The final incremental rebuild must equal a cold build of the edited
    // netlist byte for byte.
    const circuit::Netlist& nl = parsed_.netlist;
    part::clear_plan_cache();
    const auto cold = build(d_, nl, d_.gradient);
    std::ostringstream a, b;
    model_->save(a);
    cold.save(b);
    c.chk.expect(a.str() == b.str(), d_.name + ": incremental rebuild differs from a cold build");

    // Gradients at a few points vs central differences of full-AWE moments.
    const auto out_node = *nl.find_node(d_.output);
    const std::size_t nm = model_->moment_count(), nsym = d_.symbols.size();
    for (std::size_t p = 0; p < 3 && !edit_ms.empty(); ++p) {
      const auto x = point_of(pts_, nsym, kGradPoints, p * 977);
      for (std::size_t i = 0; i < nsym; ++i) {
        const double h = 1e-4 * x[i];
        auto moments_with = [&](double xi) {
          circuit::Netlist n2 = nl;
          for (std::size_t j = 0; j < nsym; ++j) n2.set_value(d_.symbols[j], j == i ? xi : x[j]);
          return engine::MomentGenerator(n2).transfer_moments(d_.input, out_node, nm);
        };
        const auto up = moments_with(x[i] + h), dn = moments_with(x[i] - h);
        for (std::size_t k = 0; k < nm; ++k) {
          const double fd = (up[k] - dn[k]) / (2 * h);
          const double g = last_.gradient(i, k, p * 977);
          const double scale = std::abs(up[k]) / std::abs(x[i]);
          c.chk.expect(std::abs(g - fd) <= 1e-5 * std::abs(g) + 1e-6 * scale,
                       d_.name + ": gradient dm" + std::to_string(k) + "/d" + d_.symbols[i] +
                           " disagrees with central differences of full AWE");
        }
      }
    }
  }

  std::vector<double> edit_ms;
  std::vector<double> grad_rates;  ///< points/s of each gradient sweep
  double grad_pts = 0, grad_s = 0;

 private:
  const Deck& d_;
  Rng& rng_;
  std::string dir_;
  circuit::ParsedDeck parsed_;
  std::vector<double> pts_;
  sweep::ThreadPool pool_;
  core::BuildOptions bo_;
  sweep::SweepOptions so_;
  std::optional<core::CompiledModel> model_;
  sweep::SweepResult last_;
  std::uint64_t reused0_ = 0, built0_ = 0;
};

// ------------------------------------------------------------------ daemon

struct Daemon {
  int pid = -1;
  std::string sock;
};

/// Spawn awe_serve on `tag`.sock with the shipped defaults; returns once
/// its ready file appears, with the spawn-to-ready time in *ready_s.
Daemon spawn_daemon(const Ctx& c, const Deck& d, const std::string& tag, double* ready_s) {
  Daemon dm;
  dm.sock = c.work_dir + "/" + tag + ".sock";
  const std::string ready = c.work_dir + "/" + tag + ".ready";
  fs::remove(ready);
  fs::remove(dm.sock);
  const auto t0 = Clock::now();
  dm.pid = spawn({c.bin_dir + "/awe_serve", "--deck", d.path, "--unix", dm.sock, "--order",
                  std::to_string(d.forward.order), "--ready-file", ready, "--quiet"},
                 false)
               .pid;
  while (!fs::exists(ready)) {
    if (secs_since(t0) > 30) throw std::runtime_error("awe_serve did not become ready");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *ready_s = secs_since(t0);
  return dm;
}

int stop_daemon(const Daemon& dm) {
  ::kill(dm.pid, SIGTERM);
  return wait_child(dm.pid);
}

/// The 16 seeded points of an explicit-point eval, as JSON arrays.
std::string eval16_points(const Deck& d, std::uint64_t seed, std::uint64_t key) {
  Rng rng(seed, key);
  std::string s;
  for (int p = 0; p < 16; ++p) {
    s += p ? ",[" : "[";
    for (std::size_t i = 0; i < d.nominal.size(); ++i) {
      if (i) s += ",";
      s += serve::json::number_to_string(d.nominal[i] * (1.0 + kSpread * rng.normal()));
    }
    s += "]";
  }
  return s;
}

std::string eval16_line(std::uint64_t id, const std::string& points) {
  return "{\"op\":\"eval\",\"id\":" + std::to_string(id) + ",\"points\":[" + points + "]}\n";
}

/// Wire moments of explicit-point requests must be bit-equal to the
/// in-process evaluation of the same points after the JSON round trip.
void verify_wire(Ctx& c, const core::CompiledModel& m, const std::vector<PlannedRequest>& plan,
                 const std::vector<RequestOutcome>& out, std::size_t& budget_left) {
  for (std::size_t i = 0; i < plan.size() && budget_left > 0; ++i) {
    if (plan[i].kind != ReqKind::kEval16 || out[i].status != RequestOutcome::kOk ||
        out[i].line.empty())
      continue;
    const auto req = serve::parse_request(plan[i].line, m.symbol_count(), 1 << 20);
    const auto resp = serve::json::parse(out[i].line);
    const auto* mom = resp.find("moments");
    bool same = mom && mom->is_array() && mom->array.size() == req.eval.num_points;
    for (std::size_t p = 0; same && p < req.eval.num_points; ++p) {
      const auto x = point_of(req.eval.points_soa, m.symbol_count(), req.eval.num_points, p);
      const auto ref = m.moments_at(x);
      const auto& row = mom->array[p];
      same = row.is_array() && row.array.size() == ref.size();
      for (std::size_t k = 0; same && k < ref.size(); ++k)
        same = row.array[k].is_number() && same_bits(row.array[k].number, ref[k]);
    }
    c.chk.expect(same, "serve: wire moments differ from in-process evaluation");
    --budget_left;
  }
}

double status_counter(const std::string& line, const char* key) {
  const auto v = serve::json::parse(line);
  const auto* stats = v.find("stats");
  const auto* x = stats ? stats->find(key) : nullptr;
  return x && x->is_number() ? x->number : -1;
}

/// The highest ladder rate that meets the p99 limit, interpolated toward
/// the next (failing) rate on log p99, so the figure moves smoothly with
/// the daemon's tail instead of jumping a whole ladder step.  A failing
/// phase whose p99 is unbounded (over 1% of requests failed) counts as
/// 10x the limit.
double max_rate_meeting_limit(const std::vector<PhaseResult>& ph) {
  double best = 0;
  for (std::size_t i = 0; i < ph.size(); ++i) {
    if (!ph[i].pass) continue;
    best = ph[i].rate;
    if (i + 1 < ph.size() && !ph[i + 1].pass && ph[i + 1].valid) {
      const double lo = std::max(ph[i].p99_ms, 1e-6);
      const double hi = std::isfinite(ph[i + 1].p99_ms) ? ph[i + 1].p99_ms : 10 * kP99LimitMs;
      double f = hi > kP99LimitMs && hi > lo ? std::log(kP99LimitMs / lo) / std::log(hi / lo) : 0;
      f = std::clamp(f, 0.0, 1.0);
      best += f * (ph[i + 1].rate - ph[i].rate);
    }
  }
  return best;
}

/// The daemon as users run it, under the open-loop rate ladder.  Each
/// step() runs every ladder rate once; requests of one rate are pooled
/// over the steps.
class ServeRun {
 public:
  ServeRun(Ctx& c, bool focus)
      : d_(c.deck741),
        focus_(focus),
        model_(build(d_, circuit::parse_deck_string(d_.text).netlist, d_.forward)) {
    double t = 0;
    dm_ = spawn_daemon(c, d_, "serve", &t);
    fd_ = serve::net::connect_unix(dm_.sock);
    if (c.trace) {
      std::vector<double> ping;
      for (int i = 0; i < 2000; ++i) {
        round_trip(fd_, "{\"op\":\"ping\",\"id\":1}\n", &t);
        ping.push_back(t * 1e6);
      }
      c.replay["serve.ping_us_p50"] = median(ping);
    }
    for (std::size_t k = 0; k < kEval16Pool; ++k)
      eval16_pool_.push_back(eval16_points(d_, c.seed * 6151ull, k));
    by_rate_.resize(std::size(kLadder));
    served_s_.assign(std::size(kLadder), 0.0);
    reload_due_s_.assign(std::size(kLadder), ServeMix{}.reload_period_s);
  }
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  void step(Ctx& c, double secs) {
    if (focus_) {
      // Repeated cold starts (spawn -> ready file) of a second daemon.
      for (int i = 0; i < 2; ++i) {
        double t = 0;
        const Daemon probe = spawn_daemon(c, d_, "setup", &t);
        setup_s.push_back(t);
        c.chk.expect(stop_daemon(probe) == 0, "serve: daemon exit code");
      }
    }
    // The open-loop ladder gets two thirds of the slice on the daemon's
    // own workload and one third elsewhere (its figures are per-layer
    // metrics of the daemon's workload); the light-load client the rest.
    const double ladder_share = focus_ ? 2.0 / 3 : 1.0 / 3;
    phase_s_ = secs * ladder_share / (std::size(kLadder) + 0.5);
    const ServeMix mix;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
      const double rate = kLadder[r];
      const std::uint64_t pseed = c.seed * 1000003ull + next_id_;
      // Reloads keep a one-per-period cadence on this rate's own time axis
      // (its phases laid end to end), however short each phase is.
      double& served = served_s_[r];
      double& due = reload_due_s_[r];
      const double first_reload = due - served;
      served += phase_s_;
      while (due < served) due += mix.reload_period_s;
      auto plan = plan_phase(rate, phase_s_, mix, first_reload, pseed, next_id_,
                             c.seed * 7919ull,
                             [&](std::uint64_t id) {
                               return eval16_line(id, eval16_points(d_, pseed, id));
                             });
      next_id_ += plan.size();
      Clock::time_point start;
      auto out = run_phase(dm_.sock, plan, kConnections, 2.0, 7, start);
      verify_wire(c, model_, plan, out, verify_left_);
      if (rate == kNominalRate)
        nominal_p50_ms_.push_back(
            summarize_phase(rate, phase_s_, plan, out, kP99LimitMs, kLagLimitMs).p50_ms);
      // Only the traced replay reads request lines again (the nominal
      // rate's); dropping the rest keeps the benchmark's own memory out of
      // peak_rss_mb.
      for (std::size_t i = 0; i < plan.size(); ++i) {
        std::string().swap(out[i].line);
        if (!c.trace || rate != kNominalRate) std::string().swap(plan[i].line);
      }
      auto& pooled = by_rate_[r];
      pooled.plan.insert(pooled.plan.end(), std::make_move_iterator(plan.begin()),
                         std::make_move_iterator(plan.end()));
      pooled.out.insert(pooled.out.end(), std::make_move_iterator(out.begin()),
                        std::make_move_iterator(out.end()));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    light_load(c, secs * (1 - ladder_share));
  }

  /// Closed loop on the same mix, one request at a time: the round trip
  /// of each answered request, by kind.
  void light_load(Ctx& c, double secs) {
    const ServeMix mix;
    const std::uint64_t pseed = c.seed * 1000003ull + next_id_;
    // Laid out for more requests than one client gets answered in `secs`.
    const auto plan = plan_phase(kClosedPlanRate, std::max(secs, 0.1), mix,
                                 mix.reload_period_s / 2, pseed, next_id_, c.seed * 7919ull,
                                 [&](std::uint64_t id) {
                                   return eval16_line(id, eval16_pool_[id % kEval16Pool]);
                                 });
    next_id_ += plan.size();
    const ClosedResult r = run_closed(dm_.sock, plan, secs, 7);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (r.out[i].status != RequestOutcome::kOk || plan[i].kind == ReqKind::kReload) continue;
      const double us = static_cast<double>(r.out[i].recv_ns - r.out[i].sent_ns) * 1e-3;
      light_us_.push_back(us);
      light_by_kind_[static_cast<std::size_t>(plan[i].kind)].push_back(us);
    }
    c.attempted += r.sent;
    c.failed += r.failed;
    verify_wire(c, model_, plan, r.out, verify_closed_left_);
  }

  void finish(Ctx& c) {
    std::vector<PhaseResult> phases;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
      const double rate = kLadder[r];
      const auto& p = by_rate_[r];
      const PhaseResult ph = summarize_phase(rate, phase_s_, p.plan, p.out, kP99LimitMs, kLagLimitMs);
      std::printf("serve %6.0f req/s: sent %zu ok %zu (%zu after a retry) shed %zu errored %zu "
                  "unanswered %zu"
                  "  p50 %.3f ms p99 %.3f ms (answered %.3f ms)  generator lag p99 %.3f ms"
                  "  %s%s%s\n",
                  rate, ph.sent, ph.ok, ph.retried, ph.shed, ph.errored, ph.unanswered,
                  ph.p50_ms, ph.p99_ms,
                  ph.p99_answered_ms,
                  ph.gen_lag_p99_ms, ph.valid ? "valid" : "INVALID (generator fell behind)",
                  ph.backlog_growth ? ", backlog grows" : "", ph.pass ? ", meets limit" : "");
      if (rate <= kNominalRate) {
        c.attempted += p.plan.size();
        c.failed += ph.shed + ph.errored + ph.unanswered;
      }
      if (rate == kNominalRate) {
        nominal = ph;
        c.replay["serve.p99_ms"] = ph.p99_answered_ms;
        c.replay["serve.gen_lag_ms_p99"] = ph.gen_lag_p99_ms;
        c.replay["serve.reload_ms"] = ph.reload_ms_p50;
      }
      phases.push_back(ph);
    }
    std::printf("serve light load (1 client, 1 outstanding): round trip of the mix at the fast "
                "end %.1f us (eval16 %.1f, mc256 %.1f, status %.1f); pooled p50 %.1f us, p99 "
                "%.1f us (n=%zu)\n",
                light_us(), fast_time(light_by_kind_[0]), fast_time(light_by_kind_[1]),
                fast_time(light_by_kind_[2]), median(light_us_), pct(light_us_, 99),
                light_us_.size());
    c.chk.expect(!light_us_.empty(), "serve: the light-load client got no answers");
    max_rps = max_rate_meeting_limit(phases);
    c.replay["serve.max_rps"] = max_rps;
    std::printf("serve: nominal %.0f req/s p99 %.3f ms; highest rate meeting p99 <= %.0f ms: "
                "%.0f req/s\n", kNominalRate, nominal.p99_ms, kP99LimitMs, max_rps);
    if (!nominal.valid)
      std::printf("serve: the nominal phase is INVALID (generator fell behind); its latency "
                  "is timed from scheduled send times and overstates the daemon's\n");

    double t = 0;
    const std::string st = round_trip(fd_, "{\"op\":\"status\",\"id\":1}\n", &t);
    c.replay["serve.shed"] = status_counter(st, "shed");
    c.replay["serve.deadline_expired"] = status_counter(st, "deadline_expired");
    c.replay["serve.evicted"] = status_counter(st, "evicted");
    ::close(fd_);
    peak_rss = peak_rss_mb(dm_.pid);
    c.chk.expect(stop_daemon(dm_) == 0, "serve: daemon did not drain cleanly");
    if (c.trace) replay(c);
  }

  /// Median over the steps of each step's p50 at the nominal rate: a
  /// stretch of host contention that spans one step moves it little.
  double p50_ms() const { return median(nominal_p50_ms_); }
  /// Light-load round trip of the mix: each kind's fast end, weighted by
  /// the kind's share of the mix (a pooled figure would follow how many
  /// cheap status requests the fast end happens to hold).
  double light_us() const {
    const ServeMix mix;
    const double share[] = {mix.eval16, mix.mc256, mix.status};
    double sum = 0, weight = 0;
    for (std::size_t k = 0; k < std::size(share); ++k) {
      if (light_by_kind_[k].empty()) continue;
      sum += share[k] * fast_time(light_by_kind_[k]);
      weight += share[k];
    }
    return weight > 0 ? sum / weight : 0;
  }
  double light_us_p50() const { return median(light_us_); }
  std::size_t light_count() const { return light_us_.size(); }
  double light_us_p99() const { return pct(light_us_, 99); }

  std::vector<double> setup_s;
  PhaseResult nominal;
  double max_rps = 0, peak_rss = 0;

 private:
  /// Replay the nominal rate's requests through the layer functions the
  /// daemon calls: parse_request, run_sweep on a 1-thread pool (like a
  /// worker), number_to_string over the response's values.
  void replay(Ctx& c) {
    const auto& plan = by_rate_[nominal_index()].plan;
    const auto& outs = by_rate_[nominal_index()].out;
    sweep::ThreadPool pool(1);
    double parse_s = 0, sweep_s = 0, encode_s = 0, sym_s = 0, rt_s = 0, bytes = 0;
    std::size_t n = 0, answered = 0;
    auto ws = model_.make_batch_workspace(64);
    std::vector<double> mo(model_.moment_count() * 64);
    std::vector<unsigned char> ok(64);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& pr = plan[i];
      const auto& o = outs[i];
      if (o.status != RequestOutcome::kOk) continue;
      rt_s += static_cast<double>(o.recv_ns - o.sent_ns) * 1e-9;
      bytes += static_cast<double>(o.bytes);
      ++answered;
      if (pr.kind == ReqKind::kReload || n >= 3000) continue;
      ++n;
      std::string line = pr.line;
      line.pop_back();
      auto t0 = Clock::now();
      const auto req = serve::parse_request(line, model_.symbol_count(), 1 << 20);
      parse_s += secs_since(t0);
      if (req.op != serve::Op::kEval) continue;
      std::vector<double> pts = req.eval.points_soa;
      std::size_t np = req.eval.num_points;
      if (req.eval.mc) {
        pts = sweep::sample_points(dists_of(d_.nominal), req.eval.mc, req.eval.seed);
        np = req.eval.mc;
      }
      t0 = Clock::now();
      sweep::SweepOptions sopt;
      sopt.pool = &pool;
      const auto res = sweep::run_sweep(model_, pts, np, sopt);
      sweep_s += secs_since(t0);
      t0 = Clock::now();
      for (std::size_t b = 0; b < np; b += 64)
        model_.moments_batch(std::span<const double>(pts.data() + b, pts.size() - b), np,
                             std::min<std::size_t>(64, np - b), ws, mo, 64, ok);
      sym_s += secs_since(t0);
      t0 = Clock::now();
      std::size_t chars = 0;
      for (const auto& s : res.moment_stats)
        for (const double x : {s.min, s.max, s.mean, s.stddev})
          chars += serve::json::number_to_string(x).size();
      if (!req.eval.summary)
        for (std::size_t p = 0; p < res.num_points; ++p)
          for (std::size_t k = 0; k < res.num_moments; ++k)
            chars += serve::json::number_to_string(res.moment(k, p)).size();
      encode_s += secs_since(t0);
      if (chars == 0) c.chk.expect(false, "serve: empty encode replay");
    }
    auto& R = c.replay;
    const double per = n ? 1e6 / static_cast<double>(n) : 0;
    R["serve.parse_us"] = parse_s * per;
    R["serve.sweep_us"] = sweep_s * per;
    R["serve.encode_us"] = encode_s * per;
    R["serve.resp_bytes"] = answered ? bytes / static_cast<double>(answered) : 0;
    const double rt_us = answered ? rt_s * 1e6 / static_cast<double>(answered) : 0;
    R["serve.residual_us"] = rt_us - R["serve.ping_us_p50"] - R["serve.parse_us"] -
                             R["serve.sweep_us"] - R["serve.encode_us"];
    // Request-time ledger of the nominal rate: what the answered requests
    // waited for, split by the replays; the remainder (ping floor, queue
    // wait, transport) is the serve layer's.
    const double scale = n ? static_cast<double>(answered) / static_cast<double>(n) : 0;
    c.ledger_extra_ms["symbolic"] += sym_s * 1e3 * scale;
    c.ledger_extra_ms["engine"] += (sweep_s - sym_s) * 1e3 * scale;
    c.ledger_extra_ms["serve"] += rt_s * 1e3 - sweep_s * 1e3 * scale;
    c.ledger_extra_ms["e2e"] += rt_s * 1e3;
  }
  static std::size_t nominal_index() {
    return static_cast<std::size_t>(std::find(std::begin(kLadder), std::end(kLadder), kNominalRate) -
                                    std::begin(kLadder));
  }

  struct Pooled {
    std::vector<PlannedRequest> plan;
    std::vector<RequestOutcome> out;
  };
  const Deck& d_;
  bool focus_;
  core::CompiledModel model_;
  Daemon dm_;
  int fd_ = -1;
  std::vector<Pooled> by_rate_;
  std::uint64_t next_id_ = 1;
  double phase_s_ = 0;
  std::size_t verify_left_ = 400, verify_closed_left_ = 200;
  std::vector<double> nominal_p50_ms_;
  std::vector<double> light_us_;  ///< light-load round trips
  std::vector<double> light_by_kind_[3];  ///< the same, by ReqKind (eval16, mc256, status)
  std::vector<std::string> eval16_pool_;
  std::vector<double> served_s_;     ///< phase time so far, per rate
  std::vector<double> reload_due_s_;  ///< next reload on that time axis, per rate
};

// ------------------------------------------------------------------ replays

template <class F>
double median_time(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(secs_since(t0));
  }
  return median(t);
}

/// Per-layer costs from replaying single layer functions on the
/// workload's deck (trace mode only).
void layer_replays(Ctx& c, const core::CompiledModel& fwd, const core::CompiledModel& grad,
                   Rng& rng) {
  const Deck& d = c.deck;
  auto& R = c.replay;
  const int reps = d.name == "coupled" ? 5 : 40;
  const auto parsed = circuit::parse_deck_string(d.text);
  const auto out_node = *parsed.netlist.find_node(d.output);
  const std::size_t nm = fwd.moment_count(), nsym = d.symbols.size();

  R["circuit.parse_ms"] = 1e3 * median_time(reps, [&] { (void)circuit::parse_deck_string(d.text); });
  const part::MomentPartitioner mp(parsed.netlist, d.symbols, d.input, out_node);
  const double extract = median_time(reps, [&] {
    part::clear_plan_cache();
    (void)mp.numeric_port_moments(nm);
  });
  const double compute = median_time(reps, [&] {
    part::clear_plan_cache();
    (void)mp.compute(nm);
  });
  const double cold = median_time(reps, [&] {
    part::clear_plan_cache();
    (void)build(d, parsed.netlist, d.forward);
  });
  const double cold_grad = median_time(reps, [&] {
    part::clear_plan_cache();
    (void)build(d, parsed.netlist, d.gradient);
  });
  R["partition.extract_ms"] = extract * 1e3;
  R["partition.solve_ms"] = (compute - extract) * 1e3;
  R["symbolic.compile_ms"] = (cold - compute) * 1e3;
  R["table1.setup_ms"] = R["circuit.parse_ms"] + cold * 1e3;
  R["symbolic.instructions"] = static_cast<double>(fwd.instruction_count());
  R["symbolic.grad_instructions"] = static_cast<double>(grad.gradient_instruction_count());
  R["split.build_partition"] = compute / cold;
  // The gradient build runs the same partition work as the forward one.
  R["split.build_grad_partition"] = compute / cold_grad;
  R["split.compile_grad_ms"] = (cold_grad - compute) * 1e3;

  // Batched and scalar interpreter, Padé, ROM.
  const std::size_t n = 8192;
  const auto soa = sample_soa(d.nominal, n, rng);
  auto ws = fwd.make_batch_workspace(64);
  std::vector<double> mo(nm * 64);
  std::vector<unsigned char> ok(64);
  const double batch = median_time(5, [&] {
    for (std::size_t b = 0; b < n; b += 64)
      fwd.moments_batch(std::span<const double>(soa.data() + b, soa.size() - b), n, 64, ws, mo,
                        64, ok);
  });
  R["symbolic.batch_ns_per_pt"] = batch / n * 1e9;
  std::vector<engine::PadeResult> pade(64);
  fwd.moments_batch(soa, n, 64, ws, mo, 64, ok);
  const double pade_t = median_time(5, [&] {
    for (std::size_t b = 0; b < n; b += 64)
      (void)engine::pade_solve_batch(mo, 64, 64, fwd.order(), true, ok, pade);
  });
  R["awe.pade_ns_per_pt"] = pade_t / n * 1e9;
  auto sws = fwd.make_workspace();
  const std::size_t ns = 4096;
  std::vector<std::vector<double>> pts;
  for (std::size_t p = 0; p < ns; ++p) pts.push_back(point_of(soa, nsym, n, p));
  const double scalar = median_time(5, [&] {
    for (const auto& x : pts) fwd.moments_at(x, sws);
  });
  double sink = 0;
  const double eval = median_time(5, [&] {
    for (const auto& x : pts) sink += fwd.evaluate(x).dc_gain();
  });
  R["core.scalar_ns_per_pt"] = scalar / ns * 1e9;
  R["awe.rom_ns_per_pt"] = (eval - scalar) / ns * 1e9;
  R["split.eval_symbolic"] = scalar / eval;

  // Full AWE per datapoint (the paper's reference column).
  const int awe_reps = d.name == "coupled" ? 5 : 100;
  std::size_t k = 0;
  const double full = median_time(awe_reps, [&] {
    circuit::Netlist nl = parsed.netlist;
    const auto& x = pts[k++ % ns];
    for (std::size_t i = 0; i < nsym; ++i) nl.set_value(d.symbols[i], x[i]);
    sink += engine::run_awe(nl, d.input, out_node, {.order = fwd.order()}).dc_gain();
  });
  R["awe.full_awe_us"] = full * 1e6;
  R["awe.speedup_vs_full"] = full / (eval / ns);

  // Sweep engine: 1 vs 4 threads (ROM), and the no-ROM share.
  sweep::ThreadPool p1(1), p4(4);
  sweep::SweepOptions so;
  so.with_rom = true;
  so.pool = &p1;
  const double s1 = median_time(3, [&] { (void)sweep::run_sweep(fwd, soa, n, so); });
  so.pool = &p4;
  const double s4 = median_time(3, [&] { (void)sweep::run_sweep(fwd, soa, n, so); });
  so.pool = &p1;
  so.with_rom = false;
  const double s1_norom = median_time(3, [&] { (void)sweep::run_sweep(fwd, soa, n, so); });
  R["engine.scaling_4v1"] = s1 / s4;
  R["split.sweep_symbolic"] = batch / s1;
  R["split.sweep_awe"] = (s1 - s1_norom) / s1;
  R["split.sweep_1t_s_per_pt"] = s1 / n;

  // Gradients: batch kernel, sweep with and without pole sensitivities.
  const std::size_t ng = kGradPoints;
  const auto gsoa = sample_soa(d.nominal, ng, rng);
  auto gws = grad.make_gradient_batch_workspace(64);
  std::vector<double> gmo(nm * 64), gg(nsym * nm * 64);
  const double gb = median_time(3, [&] {
    for (std::size_t b = 0; b < ng; b += 64)
      grad.moments_and_gradients_batch(std::span<const double>(gsoa.data() + b, gsoa.size() - b),
                                       ng, 64, gws, gmo, 64, gg, 64, ok);
  });
  sweep::SweepOptions go;
  go.pool = &p1;
  go.gradients = true;
  const double g_only = median_time(3, [&] { (void)sweep::run_sweep(grad, gsoa, ng, go); });
  go.pole_sensitivities = true;
  const double g_sens = median_time(3, [&] { (void)sweep::run_sweep(grad, gsoa, ng, go); });
  R["engine.grad_ns_per_pt"] = gb / ng * 1e9;
  R["awe.sens_ns_per_pt"] = (g_sens - g_only) / ng * 1e9;
  R["split.grad_symbolic"] = gb / g_sens;
  R["split.grad_awe"] = (g_sens - g_only) / g_sens;

  // Model cache: store and mmap-open of the gradient model.
  const std::string dir = c.work_dir + "/replay_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  R["core.cache_store_ms"] =
      1e3 * median_time(reps, [&] { core::ModelCache::store_file(dir, "replay", grad); });
  const std::string path = core::ModelCache::entry_path(dir, "replay");
  R["core.map_open_ms"] = 1e3 * median_time(reps, [&] {
    const auto m = core::ModelCache::map_file(path);
    if (!m) c.chk.expect(false, "map_file failed on a fresh entry");
  });
  fs::remove_all(dir);
  if (!std::isfinite(sink)) c.chk.expect(false, "non-finite replay result");
}

/// Attribute traced self time to layers.  A span around a call that
/// crosses layers is split by the replayed costs of the call's public
/// sub-steps; any other span belongs to the layer its name starts with.
std::map<std::string, double> ledger(Ctx& c) {
  auto& R = c.replay;
  const auto self = c.tr.self_seconds();
  using Split = std::vector<std::pair<std::string, double>>;
  std::map<std::string, Split> splits;
  const double bp = R["split.build_partition"], bgp = R["split.build_grad_partition"];
  splits["core.build"] = {{"partition", bp}, {"symbolic", 1 - bp}};
  // Cold set-up into a fresh cache: block and model writes go with the
  // layer that triggers them.
  splits["core.build_cached"] = {{"partition", bgp}, {"symbolic", 1 - bgp}};
  // Incremental rebuild: compile costs what a cold build's does, the cache
  // write is replayed, the rest is extraction with block reuse.
  if (!c.rebuild_s.empty()) {
    const double rebuild_ms = median(c.rebuild_s) * 1e3;
    const double sym = std::min(1.0, R["split.compile_grad_ms"] / rebuild_ms);
    const double core = std::min(1.0 - sym, R["core.cache_store_ms"] / rebuild_ms);
    splits["core.rebuild"] = {{"symbolic", sym}, {"core", core}, {"partition", 1 - sym - core}};
  }
  const double es = R["split.eval_symbolic"];
  splits["core.evaluate"] = {{"symbolic", es}, {"awe", 1 - es}};
  const double ss = R["split.sweep_symbolic"], sa = R["split.sweep_awe"];
  splits["engine.monte_carlo"] = {{"symbolic", ss}, {"awe", sa}, {"engine", 1 - ss - sa}};
  const double gs = R["split.grad_symbolic"], ga = R["split.grad_awe"];
  splits["engine.grad_sweep"] = {{"symbolic", gs}, {"awe", ga}, {"engine", 1 - gs - ga}};
  // One CLI invocation is parse + cold build + a 1000-point 1-thread sweep;
  // what remains is the process itself (exec, loading, file I/O).
  std::size_t cli_calls = 0;
  for (const auto& s : c.tr.spans()) cli_calls += s.name == "tool.cli";
  if (cli_calls && self.count("tool.cli")) {
    const double per_call = self.at("tool.cli") * 1e3 / static_cast<double>(cli_calls);
    const double parse = R["circuit.parse_ms"];
    const double part = R["partition.extract_ms"] + R["partition.solve_ms"];
    const double comp = R["symbolic.compile_ms"];
    const double sweep = R["split.sweep_1t_s_per_pt"] * kMcPoints * 1e3;
    const double scale = std::min(1.0, per_call / (parse + part + comp + sweep)) / per_call;
    splits["tool.cli"] = {{"circuit", parse * scale},
                          {"partition", part * scale},
                          {"symbolic", (comp + sweep * ss) * scale},
                          {"awe", sweep * sa * scale},
                          {"engine", sweep * (1 - ss - sa) * scale}};
    double rest = 1;
    for (const auto& [layer, f] : splits["tool.cli"]) rest -= f;
    splits["tool.cli"].emplace_back("tool", rest);
  }

  std::map<std::string, double> L;  // ms
  for (const auto& [name, sec] : self) {
    const double ms = sec * 1e3;
    if (name.rfind("op.", 0) == 0) {
      L["unattributed"] += ms;
    } else if (const auto it = splits.find(name); it != splits.end()) {
      for (const auto& [layer, f] : it->second) L[layer] += ms * f;
    } else {
      L[name.substr(0, name.find('.'))] += ms;
    }
  }
  double e2e = c.tr.root_seconds() * 1e3;
  for (const auto& [k, v] : c.ledger_extra_ms) (k == "e2e" ? e2e : L[k]) += v;
  L["e2e"] = e2e;
  return L;
}

// ------------------------------------------------------------------ main

int run(int argc, char** argv) {
  const auto t_start = Clock::now();
  Ctx c;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") c.seed = std::stoull(v);
    else if (a == "--seconds") c.seconds = std::stod(v);
    else if (a == "--trace") c.trace = v == "1";
    else if (a == "--bin-dir") c.bin_dir = v;
    else if (a == "--work-dir") c.work_dir = v;
    else throw std::invalid_argument("unknown argument " + a);
  }
  for (const auto& w : kWorkloads)
    if (workload == w.name) c.wl = &w;
  if (!c.wl) throw std::invalid_argument("unknown workload '" + workload + "'");
  if (c.bin_dir.empty() || c.work_dir.empty() || !(c.seconds > 0))
    throw std::invalid_argument("--bin-dir, --work-dir and --seconds > 0 are required");
  c.tr = Tracer(c.trace);
  fs::create_directories(c.work_dir);
  const Shares& sh = c.wl->shares;
  Rng rng(c.seed, 1);

  const double cpus = effective_cpus();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("host: nproc %u, effective cpus %.2f (spin loop 4 threads vs 1), compiler %s, "
              "build type %s\n",
              nproc, cpus, AWE_PERFBENCH_COMPILER, AWE_PERFBENCH_BUILD_TYPE);
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", c.wl->name,
              static_cast<unsigned long long>(c.seed), c.seconds, c.trace ? 1 : 0);

  c.deck741 = make_deck_741(c.work_dir);
  c.deck = c.wl->coupled ? make_deck_coupled(c.work_dir) : c.deck741;
  if (!c.deck741.note.empty()) std::printf("note: %s\n", c.deck741.note.c_str());
  const Deck& d = c.deck;
  const auto netlist = circuit::parse_deck_string(d.text).netlist;
  const auto fwd = build(d, netlist, d.forward);
  const auto grad = build(d, netlist, d.gradient);

  // Independent output checks, outside every timed section.
  check_vs_full_awe(c, d, fwd, rng, 8);
  check_strict_sweep(c, d, fwd, rng);

  if (c.trace) layer_replays(c, fwd, grad, rng);

  // Tracing overhead: the finest-grained operation, in alternating blocks
  // of untraced and traced calls (medians of the block times).
  if (c.trace) {
    Tracer off(false), probe(true);
    PointStream a(d, fwd, rng), b(d, fwd, rng);
    std::vector<double> ta, tb;
    for (int blk = 0; blk < 20; ++blk) {
      std::swap(off, c.tr);
      auto t0 = Clock::now();
      a.step(c, 1e9, 1000);
      ta.push_back(secs_since(t0));
      std::swap(off, c.tr);
      std::swap(probe, c.tr);
      t0 = Clock::now();
      b.step(c, 1e9, 1000);
      tb.push_back(secs_since(t0));
      std::swap(probe, c.tr);
    }
    c.replay["trace.overhead_frac"] = median(tb) / median(ta) - 1.0;
  }

  // ---- the measured parts, interleaved in kRounds slices
  const bool serve_focus = c.wl->setup == SetupKind::kDaemon;
  std::vector<double> setup_s, cli_ms;
  PointStream point(d, fwd, rng);
  YieldSweeps sweeps(d, fwd, c.seed * 31 + 7);
  DesignLoop design(c, d, rng);
  ServeRun serve(c, serve_focus);
  // Each round shares out what is left of the run, so a part that runs
  // over its slice (a daemon phase draining its retries) shortens the
  // later rounds instead of the run.
  const auto t_measure = Clock::now();
  const auto t_measure_end = t_measure + std::chrono::duration<double>(c.seconds);
  for (int round = 0; round < kRounds; ++round) {
    const double left =
        std::max(0.0, std::chrono::duration<double>(t_measure_end - Clock::now()).count());
    const auto slice = [&](double share) { return left * share / (kRounds - round); };
    if (!serve_focus)
      setup_inprocess(c, d, slice(sh.setup), c.wl->setup == SetupKind::kIncremental, setup_s);
    // Traced, the point stream is capped: two spans per call add up fast.
    point.step(c, slice(sh.point), c.trace ? 50000 / kRounds : SIZE_MAX);
    sweeps.step(c, slice(sh.sweep));
    cli_runs(c, d, slice(sh.cli), c.seed * 17 + 3, cli_ms);
    design.step(c, slice(sh.edit));
    serve.step(c, slice(sh.serve));
  }
  const double measured_s = secs_since(t_measure);
  design.finish(c);
  serve.finish(c);
  if (serve_focus) setup_s = serve.setup_s;

  auto& E = c.e2e;
  const auto& point_us = point.us;
  // Gated timings, set-up included: the fast end of short blocks
  // (bench.hpp).  The median of the set-ups moved by a fifth between two
  // batches of runs of the same code (see NOTES.md).
  E["setup_s"] = Metric{fast_time(setup_s), "s", setup_s.size()};
  E["point_us"] = Metric{fast_time(point.block_us), "us", point.block_us.size()};
  E["sweep_pts_per_s"] =
      Metric{fast_rate(sweeps.rates, kFastPctParallel), "1/s", sweeps.rates.size()};
  E["cli_ms"] = Metric{fast_time(cli_ms), "ms", cli_ms.size()};
  E["serve_us"] = Metric{serve.light_us(), "us", serve.light_count()};
  E["edit_ms"] = Metric{fast_time(design.edit_ms), "ms", design.edit_ms.size()};
  E["grad_pts_per_s"] = Metric{fast_rate(design.grad_rates), "1/s", design.grad_rates.size()};
  // Medians and tails pooled over the run, and the open-loop latency, are
  // reported, not gated: on a shared host they follow the host's state
  // more than the code (see NOTES.md).
  auto& R = c.replay;
  R["e2e.point_us_p50"] = median(point_us);
  R["e2e.point_us_p99"] = pct(point_us, 99);
  R["e2e.cli_ms_p50"] = median(cli_ms);
  R["e2e.edit_ms_p50"] = median(design.edit_ms);
  R["e2e.edit_ms_p95"] = pct(design.edit_ms, 95);
  R["e2e.setup_s_p50"] = median(setup_s);
  R["serve.p50_ms"] = serve.p50_ms();
  R["serve.light_us_p50"] = serve.light_us_p50();
  R["serve.light_us_p99"] = serve.light_us_p99();
  std::printf("pooled over the run (not gated): setup_s p50 %.4g, point_us p50 %.4g p99 %.4g "
              "(n=%zu), cli_ms p50 %.4g (n=%zu), edit_ms p50 %.4g p95 %.4g (n=%zu), sweep median "
              "%.4g pts/s, grad %.4g pts/s, serve_p50_ms %.4g at %.0f req/s (n=%zu)\n",
              R["e2e.setup_s_p50"], R["e2e.point_us_p50"], R["e2e.point_us_p99"], point.calls,
              R["e2e.cli_ms_p50"], cli_ms.size(), R["e2e.edit_ms_p50"], R["e2e.edit_ms_p95"],
              design.edit_ms.size(), median(sweeps.rates), design.grad_pts / design.grad_s,
              R["serve.p50_ms"], kNominalRate, serve.nominal.sent + serve.nominal.unanswered);
  E["ok_frac"] = Metric{
      1.0 - static_cast<double>(c.failed) / static_cast<double>(c.attempted), "frac", c.attempted};
  E["peak_rss_mb"] = Metric{serve_focus ? serve.peak_rss : peak_rss_mb(0), "MiB"};

  std::printf("fail_frac %.6g (%zu failed of %zu attempted)\n",
              static_cast<double>(c.failed) / static_cast<double>(c.attempted), c.failed,
              c.attempted);
  std::printf("harness: %.1f s before measuring, %.1f s measured, %.1f s in all so far\n",
              std::chrono::duration<double>(t_measure - t_start).count(), measured_s,
              secs_since(t_start));
  std::printf("edits %zu, cli runs %zu, point calls %zu, yield sweeps %zu\n",
              design.edit_ms.size(), cli_ms.size(), point.calls, sweeps.rates.size());

  std::map<std::string, Metric> out;
  if (!c.trace) {
    out = c.e2e;
  } else {
    const double pts = static_cast<double>(c.sweep_health.points_total);
    R["engine.degraded_frac"] = pts ? static_cast<double>(c.sweep_health.points_degraded) / pts : 0;
    R["engine.quarantined_frac"] = pts ? static_cast<double>(c.sweep_health.points_quarantined) / pts : 0;
    double fails = 0;
    for (const auto f : c.sweep_health.fail_counts) fails += static_cast<double>(f);
    R["health.fail_count"] = fails;
    R["host.effective_cpus"] = cpus;
    R["host.nproc"] = nproc;
    const auto L = ledger(c);
    const double e2e = L.at("e2e");
    double attributed = 0;
    std::printf("\nledger (%s, traced, ms):\n", c.wl->name);
    for (const char* layer :
         {"circuit", "partition", "symbolic", "core", "engine", "awe", "serve", "tool"}) {
      const double v = L.count(layer) ? L.at(layer) : 0.0;
      attributed += v;
      R[std::string("ledger.") + layer + "_ms"] = v;
      std::printf("  %-10s %12.3f  %5.1f%%\n", layer, v, 100 * v / e2e);
    }
    const double un = L.count("unattributed") ? L.at("unattributed") : 0.0;
    std::printf("  %-10s %12.3f  %5.1f%%\n  %-10s %12.3f\n", "unattributed", un, 100 * un / e2e,
                "end-to-end", e2e);
    constexpr double kTolerance = 0.10;
    const double closure = std::abs(e2e - attributed) / e2e;
    std::printf("  closure: layers sum to %.1f%% of end-to-end (tolerance %.0f%%): %s\n",
                100 * attributed / e2e, 100 * kTolerance, closure <= kTolerance ? "closes" : "OPEN");
    c.chk.expect(closure <= kTolerance, "ledger does not close within tolerance");
    R["ledger.unattributed_ms"] = un;
    R["ledger.e2e_ms"] = e2e;
    R["ledger.unattributed_frac"] = un / e2e;
    if (cpus < 2) std::printf("engine.scaling_4v1: UNVERIFIED (effective cpus %.2f < 2)\n", cpus);

    // Table 1 rows next to the paper's.
    const double setup_ms = R["table1.setup_ms"];
    const double pure_us = R["core.scalar_ns_per_pt"] / 1e3;
    const double sym_us = pure_us + R["awe.rom_ns_per_pt"] / 1e3;  // one evaluate()
    const double full_us = R["awe.full_awe_us"];
    const double crossover = setup_ms * 1e3 / std::max(1e-9, full_us - sym_us);
    R["table1.full_awe_us"] = full_us;
    R["table1.symbolic_us"] = sym_us;
    R["table1.eval_us"] = pure_us;
    R["table1.crossover_pts"] = crossover;
    std::printf("\nTable 1 (%s deck)           paper (DECstation 5000)   measured\n", d.name.c_str());
    std::printf("  set-up                        3.03 s             %12.4g ms\n", setup_ms);
    std::printf("  full AWE per datapoint        53.2 ms            %12.4g us\n", full_us);
    std::printf("  AWEsymbolic per datapoint     0.16 ms            %12.4g us\n", sym_us);
    std::printf("  pure evaluation               0.37 us            %12.4g us\n", pure_us);
    std::printf("  crossover                     ~40 points         %12.4g points\n\n", crossover);

    for (const auto& [name, unit] : kPerLayer) out[name] = Metric{R[name], unit};
    const std::string trace_path = c.work_dir + "/trace_" + c.wl->name + ".json";
    if (c.tr.write_json(trace_path))
      std::printf("spans written to %s (%zu spans)\n", trace_path.c_str(), c.tr.spans().size());
  }

  for (const auto& [k, m] : out) {
    std::printf("%-28s %14.6g %-6s %s\n", k.c_str(), m.value, m.unit.c_str(),
                m.samples > 1 ? ("n=" + std::to_string(m.samples)).c_str() : "");
    c.chk.expect(std::isfinite(m.value), "metric " + k + " is not finite");
  }
  for (const auto& f : c.chk.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("checks: %zu passed, %zu failed\n", c.chk.passed, c.chk.failures.size());

  const bool correct = c.chk.failures.empty();
  std::string js = "{\"correct\": ";
  js += correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(c.attempted);
  js += ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : out) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    js += (first ? "\"" : ", \"") + k + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return pb::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    pb::kill_children();
    return 2;
  }
}
