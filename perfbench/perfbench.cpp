// The repository benchmark (perfbench/README.md). One process runs four
// simulated ranks, one std::thread each, and drives one named workload
// through the public entry points spgemm_dist, spgemm_dist_cached and
// spgemm_dist_batched. Every result is checked bit for bit against a serial
// spgemm_local reference computed outside the timed sections.
//
//   perfbench --workload <oneshot-hv15r|replay-queen|serve-mixed> --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--smoke]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// the benchmark's calls into each module, checks that the counters
// reconcile, writes a Chrome trace-event file and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Modeled time (measure.hpp): thread CPU (measured) + waited network time
// (modeled). Network time is modeled, never measured.
#include <malloc.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/batch_spgemm.hpp"
#include "dist/dist_plan.hpp"
#include "measure.hpp"
#include "runtime/plan_cache.hpp"
#include "sparse/datasets.hpp"

namespace perfbench {
namespace {

using namespace sa1d;

constexpr int kRanks = 4;      // one simulated rank per core of the reference host
constexpr int kHost = kRanks;  // trace lane of the host thread
constexpr int kConfigs = 5;
constexpr std::array<Algo, kConfigs> kAlgos{Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D,
                                            Algo::Split3D, Algo::Auto};
constexpr int kAuto = 4;
constexpr int kBackends = 4;  // the concrete ones, kAlgos[0..3]
// Set-up runs this many times per process; setup_s is their median.
constexpr int kSetupReps = 5;
// Value patterns a replayed structure cycles through; the references are
// computed once per pattern in set-up.
constexpr int kPatterns = 4;
// The pricing horizon replay-queen declares, as the MCL and AMG loops do.
constexpr int kReplayHorizon = 64;
// serve-mixed: tenants, batch size, and the pool of never-seen structures.
constexpr int kTenants = 8;
constexpr int kBatch = 8;
constexpr int kColdPool = 32;
// A run stops measuring after this much wall time even when it has fewer
// rounds than its workload asks for, so it always ends in time.
constexpr double kHardCapSeconds = 120.0;

const char* cfg_name(int cfg) { return algo_name(kAlgos[static_cast<std::size_t>(cfg)]); }

int cfg_of(Algo a) {
  for (int b = 0; b < kConfigs; ++b)
    if (kAlgos[static_cast<std::size_t>(b)] == a) return b;
  return kAuto;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// Instance sizes. At hv15r scale 0.1 every buffer stays below the 32 MiB
/// mmap threshold set in run_main; at 0.15 some seeds crossed it and paid
/// fresh page faults on every call. The smoke sizes only exercise the code.
struct Sizes {
  double hv15r_scale;
  double queen_scale;
  index_t tenant_n;
  int min_rounds;        // oneshot-hv15r and replay-queen
  int serve_min_rounds;  // >= 100 Auto batches, so >= 10 lie beyond p90
};
constexpr Sizes kFull{0.1, 0.75, 384, 5, 100};
constexpr Sizes kSmoke{0.02, 0.3, 64, 2, 12};

/// The pinned machine: library-default alpha-beta and compute rates, with
/// one rank per node so all traffic is priced as network. Never calibrated
/// on the host, so Auto's decision depends on the inputs alone.
CostParams pinned_params() {
  CostParams cp;
  cp.ranks_per_node = 1;
  return cp;
}

/// `a`'s structure with small-integer values 1..5 drawn from (seed,
/// pattern). With such values every fold order of + and * is exact, so the
/// bit-for-bit check does not depend on the order a backend accumulates in.
CscMatrix<double> int_values(const CscMatrix<double>& a, std::uint64_t seed, int pattern) {
  SplitMix64 rng(SplitMix64(seed).fork(0x9a77e54ULL + static_cast<std::uint64_t>(pattern)));
  std::vector<double> vals(a.vals().size());
  for (auto& v : vals) v = static_cast<double>(1 + rng.below(5));
  return CscMatrix<double>(a.nrows(), a.ncols(), a.colptr(), a.rowids(), std::move(vals));
}

/// One public multiply call as one rank saw it.
struct CallSample {
  int cfg = 0;
  int round = 0;    // -1 = the untimed warm-up round
  int members = 1;  // multiplies in the call (a serving batch has several)
  int bad = 0;      // members whose slice differs from the reference
  bool traced = false;
  Delta d;
  std::array<int, kConfigs> picks{};           // Auto: members per chosen backend
  std::array<double, kBackends> predicted_s{};  // Auto: predicted seconds per backend
};

/// Everything one rank records during a workload run.
struct RankLog {
  std::vector<CallSample> calls;
  std::vector<double> setup_s;       // modeled set-up seconds, one per repetition
  std::vector<double> distribute_s;  // modeled from_global seconds per operand, per repetition
  std::array<std::vector<double>, kConfigs> build_s;  // plan builds, all set-up repetitions
  std::map<int, int> auto_picks;  // structure id -> Auto's backend (must never change)
  std::uint64_t hwm_bytes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0, cache_resident = 0;
  long exceptions = 0;
  std::vector<std::string> problems;  // exceptions and broken invariants
};

/// Per-run state shared by the rank bodies; each rank touches only its own
/// log and its own trace lane, the host thread only the host lane.
struct Run {
  Args args;
  Sizes sizes;
  Recorder rec;
  std::vector<RankLog> logs;
  std::vector<double> gen_s;  // host input generation, one per set-up repetition
  double ref_symbolic_s = 0, ref_numeric_s = 0, flops = 0;
  std::uint64_t cache_budget = 0;
  Run(Args a, Sizes s)
      : args(std::move(a)), sizes(s), rec(kRanks + 1, args.trace),
        logs(static_cast<std::size_t>(kRanks)) {}
};

Delta host_delta(const Probe& p) { return p.finish(RankReport{}); }

/// Generates the inputs kSetupReps times on the host thread (the same seed
/// gives the same inputs each time) and keeps the last set.
template <typename Gen>
auto generate(Run& run, Gen&& gen) {
  decltype(gen()) out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Probe p(RankReport{});
    out = gen();
    const Delta d = host_delta(p);
    run.gen_s.push_back(d.cpu_s);
    run.rec.add(kHost, "generate", "", -1, -1, p, d);
  }
  return out;
}

/// Serial reference C = A*A on the host. The symbolic and numeric passes
/// are timed (and traced) on their own; `timed` adds them to the run's
/// kernels.ref_* totals.
CscMatrix<double> reference(Run& run, const CscMatrix<double>& a, bool timed) {
  using SR = PlusTimes<double>;
  std::vector<detail::Workspace<SR>> ws;
  Probe ps(RankReport{});
  const auto sym = spgemm_local_symbolic<SR, double>(a, a, LocalKernel::Hybrid, 1, &ws);
  const Delta ds = host_delta(ps);
  Probe pn(RankReport{});
  auto c = spgemm_local_numeric<SR, double>(a, a, sym, &ws);
  const Delta dn = host_delta(pn);
  if (timed) {
    run.ref_symbolic_s += ds.cpu_s;
    run.ref_numeric_s += dn.cpu_s;
    run.flops += static_cast<double>(total_flops(a, a));
    run.rec.add(kHost, "reference.symbolic", "", -1, -1, ps, ds);
    run.rec.add(kHost, "reference.numeric", "", -1, -1, pn, dn);
  }
  return c;
}

DistSpgemmOptions options_for(int cfg) {
  DistSpgemmOptions opt;
  opt.algo = kAlgos[static_cast<std::size_t>(cfg)];
  opt.sa1d.threads = 1;
  return opt;
}

/// Lowest predicted seconds for each concrete backend in a decision trace.
std::array<double, kBackends> predicted(const std::vector<AlgoPrediction>& preds) {
  std::array<double, kBackends> out{};
  for (int b = 0; b < kBackends; ++b)
    for (const auto& p : preds) {
      auto& best = out[static_cast<std::size_t>(b)];
      if (p.feasible && p.algo == kAlgos[static_cast<std::size_t>(b)] &&
          (best == 0 || p.total_s() < best))
        best = p.total_s();
    }
  return out;
}

/// This rank's column slice of a replicated reference, in the canonical
/// DCSC form the distributed result must match exactly.
DcscMatrix<double> ref_slice(const CscMatrix<double>& ref, const DistMatrix1D<double>& like) {
  return DcscMatrix<double>::from_csc(extract_cols(ref, like.col_lo(), like.col_hi()));
}

/// Records Auto's pick for structure `key` on this rank; a pick that
/// changes between calls on one structure is a broken invariant.
void note_pick(RankLog& log, int key, Algo chosen) {
  const int b = cfg_of(chosen);
  auto [it, fresh] = log.auto_picks.emplace(key, b);
  if (!fresh && it->second != b)
    log.problems.push_back("auto pick for structure " + std::to_string(key) + " changed from " +
                           cfg_name(it->second) + " to " + cfg_name(b));
}

/// Runs `body` as one rank's whole workload: a root span around it, and any
/// exception recorded as a failed operation instead of escaping the thread.
void rank_main(Comm& c, Run& run, const std::function<void(int root)>& body) {
  auto& log = run.logs[static_cast<std::size_t>(c.rank())];
  const int root = run.rec.open(c.rank());
  Probe p(c.report());
  try {
    body(root);
  } catch (const std::exception& e) {
    ++log.exceptions;
    log.problems.push_back(std::string("exception: ") + e.what());
  }
  log.hwm_bytes = c.report().hwm_bytes;
  run.rec.close(c.rank(), root, run.args.workload, "", -1, -1, p, p.finish(c.report()));
}

/// One set-up repetition on one rank: `fn` distributes the operands and
/// builds or warms whatever the workload keeps; its modeled time is the
/// rank's share of setup_s.
void setup_rep(Comm& c, Run& run, int root, const std::function<void(int span)>& fn) {
  auto& log = run.logs[static_cast<std::size_t>(c.rank())];
  const int span = run.rec.open(c.rank());
  Probe p(c.report());
  fn(span);
  const Delta d = p.finish(c.report());
  log.setup_s.push_back(d.modeled_s());
  run.rec.close(c.rank(), span, "setup", "", -1, root, p, d);
}

/// Distributes `globals` onto the ranks (one from_global per operand).
std::vector<DistMatrix1D<double>> distribute(Comm& c, Run& run, int parent,
                                             const std::vector<CscMatrix<double>>& globals) {
  auto& log = run.logs[static_cast<std::size_t>(c.rank())];
  Probe p(c.report());
  std::vector<DistMatrix1D<double>> out;
  out.reserve(globals.size());
  for (const auto& g : globals) out.push_back(DistMatrix1D<double>::from_global(c, g));
  const Delta d = p.finish(c.report());
  log.distribute_s.push_back(d.modeled_s() / static_cast<double>(globals.size()));
  run.rec.add(c.rank(), "distribute", "", -1, parent, p, d);
  return out;
}

/// Drives the timed rounds on one rank. Every round runs each configuration
/// once, starting from a different one each round, so a burst of noise on
/// the shared host lands on every backend alike. One untimed warm-up round
/// runs first. Rank 0 decides when to stop: once it has measured for
/// --seconds of wall time and at least `min_rounds` rounds ran. In trace
/// mode odd rounds are traced and even rounds are not; comparing the two is
/// the tracing overhead.
///
/// step(cfg, round, traced, parent_span) runs one call and returns its sample.
template <typename Step>
void run_rounds(Comm& c, Run& run, int root, int min_rounds, Step&& step) {
  auto& log = run.logs[static_cast<std::size_t>(c.rank())];
  for (int cfg = 0; cfg < kConfigs; ++cfg) {
    CallSample s = step(cfg, -1, false, root);
    s.round = -1;
    log.calls.push_back(s);
  }
  WallTimer wall;
  for (int round = 0;; ++round) {
    const bool traced = run.args.trace && round % 2 == 1;
    const int span = traced ? run.rec.open(c.rank()) : -1;
    Probe p(c.report());
    for (int i = 0; i < kConfigs; ++i) {
      CallSample s = step((round + i) % kConfigs, round, traced, span);
      s.round = round;
      s.traced = traced;
      log.calls.push_back(s);
    }
    run.rec.close(c.rank(), span, "round", "", round, root, p, p.finish(c.report()));
    int stop = 0;
    if (c.rank() == 0) {
      const double t = wall.seconds();
      stop = (round + 1 >= min_rounds && t >= run.args.seconds) || t >= kHardCapSeconds ? 1 : 0;
    }
    if (c.allreduce_max(stop) != 0) break;
  }
}

/// Brackets one public call: probe, call, then the untimed compare of each
/// member's slice against its reference. Traced calls get "multiply" and
/// "compare" spans.
template <typename Call>
CallSample timed_call(Comm& c, Run& run, int cfg, bool traced, int parent, Call&& call,
                      const std::vector<const DcscMatrix<double>*>& want) {
  CallSample s;
  s.cfg = cfg;
  s.members = static_cast<int>(want.size());
  Probe p(c.report());
  const std::vector<DistMatrix1D<double>> got = call();
  s.d = p.finish(c.report());
  const int call_id = static_cast<int>(run.logs[static_cast<std::size_t>(c.rank())].calls.size());
  if (traced) run.rec.add(c.rank(), "multiply", cfg_name(cfg), call_id, parent, p, s.d);
  Probe pc(c.report());
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(got[i].local() == *want[i])) ++s.bad;
  if (traced)
    run.rec.add(c.rank(), "compare", cfg_name(cfg), call_id, parent, pc, pc.finish(c.report()));
  return s;
}

// ---- oneshot-hv15r ----------------------------------------------------------
// Fresh spgemm_dist squaring of the strongly clustered hv15r analogue with
// each backend pinned, then Auto. No plan survives between calls, so the
// structural work (SA-1D inspector, grid redistribution, merges) is timed.

void oneshot_hv15r(Run& run, Machine& m) {
  const auto seed = run.args.seed;
  const auto a = generate(run, [&] {
    return int_values(make_dataset(Dataset::Hv15rLike, run.sizes.hv15r_scale, seed), seed, 0);
  });
  const auto ref = reference(run, a, true);

  m.run([&](Comm& c) {
    rank_main(c, run, [&](int root) {
      auto& log = run.logs[static_cast<std::size_t>(c.rank())];
      std::vector<DistMatrix1D<double>> da;
      for (int rep = 0; rep < kSetupReps; ++rep)
        setup_rep(c, run, root, [&](int span) { da = distribute(c, run, span, {a}); });
      const auto want = ref_slice(ref, da[0]);
      run_rounds(c, run, root, run.sizes.min_rounds, [&](int cfg, int, bool traced, int parent) {
        DistSpgemmStats st;
        auto s = timed_call(
            c, run, cfg, traced, parent,
            [&] {
              std::vector<DistMatrix1D<double>> out;
              out.push_back(spgemm_dist(c, da[0], da[0], options_for(cfg), &st));
              return out;
            },
            {&want});
        if (cfg == kAuto) {
          note_pick(log, 0, st.chosen);
          s.picks[static_cast<std::size_t>(cfg_of(st.chosen))] = 1;
          s.predicted_s = predicted(st.predictions);
        }
        return s;
      });
    });
  });
}

// ---- replay-queen -----------------------------------------------------------
// The 3D-mesh queen analogue squared through spgemm_dist_cached: one plan
// per backend is built in set-up, then replayed with fresh values on every
// call. The local numeric kernel does most of the work; the plan layer none.

void replay_queen(Run& run, Machine& m) {
  const auto seed = run.args.seed;
  const auto patterns = generate(run, [&] {
    const auto base = make_dataset(Dataset::QueenLike, run.sizes.queen_scale, seed);
    std::vector<CscMatrix<double>> out;
    for (int v = 0; v < kPatterns; ++v) out.push_back(int_values(base, seed, v));
    return out;
  });
  std::vector<CscMatrix<double>> refs;
  for (int v = 0; v < kPatterns; ++v)
    refs.push_back(reference(run, patterns[static_cast<std::size_t>(v)], v == 0));

  m.run([&](Comm& c) {
    rank_main(c, run, [&](int root) {
      auto& log = run.logs[static_cast<std::size_t>(c.rank())];
      std::vector<DistMatrix1D<double>> ops;
      // One plan set per set-up repetition; rounds rotate through them, so
      // the medians do not rest on the memory layout of a single build.
      std::array<std::array<std::unique_ptr<DistSpgemmPlan<double>>, kConfigs>, kSetupReps> plans;
      std::array<DistSpgemmOptions, kConfigs> opts;
      for (int cfg = 0; cfg < kConfigs; ++cfg) {
        opts[static_cast<std::size_t>(cfg)] = options_for(cfg);
        opts[static_cast<std::size_t>(cfg)].expected_iterations = kReplayHorizon;
      }
      for (int rep = 0; rep < kSetupReps; ++rep)
        setup_rep(c, run, root, [&](int span) {
          ops = distribute(c, run, span, patterns);
          for (int cfg = 0; cfg < kConfigs; ++cfg) {
            auto& plan = plans[static_cast<std::size_t>(rep)][static_cast<std::size_t>(cfg)];
            plan = std::make_unique<DistSpgemmPlan<double>>();
            Probe p(c.report());
            spgemm_dist_cached(c, *plan, ops[0], ops[0], opts[static_cast<std::size_t>(cfg)]);
            const Delta d = p.finish(c.report());
            run.rec.add(c.rank(), "build", cfg_name(cfg), -1, span, p, d);
            log.build_s[static_cast<std::size_t>(cfg)].push_back(d.modeled_s());
          }
        });
      std::vector<DcscMatrix<double>> want;
      for (const auto& r : refs) want.push_back(ref_slice(r, ops[0]));
      run_rounds(c, run, root, run.sizes.min_rounds, [&](int cfg, int round, bool traced,
                                                         int parent) {
        const auto v = static_cast<std::size_t>((round + kPatterns) % kPatterns);
        auto& plan = *plans[static_cast<std::size_t>((round + kSetupReps) % kSetupReps)]
                           [static_cast<std::size_t>(cfg)];
        DistSpgemmStats st;
        auto s = timed_call(
            c, run, cfg, traced, parent,
            [&] {
              std::vector<DistMatrix1D<double>> out;
              out.push_back(spgemm_dist_cached(c, plan, ops[v], ops[v],
                                               opts[static_cast<std::size_t>(cfg)], &st));
              return out;
            },
            {&want[v]});
        if (!st.plan_reused)
          log.problems.push_back(std::string("replay-queen: ") + cfg_name(cfg) +
                                 " call rebuilt its plan instead of replaying it");
        if (cfg == kAuto) {
          note_pick(log, 0, st.chosen);
          s.picks[static_cast<std::size_t>(cfg_of(st.chosen))] = 1;
          s.predicted_s = predicted(st.replay_predictions.empty() ? st.predictions
                                                                  : st.replay_predictions);
        }
        return s;
      });
    });
  });
}

// ---- serve-mixed ------------------------------------------------------------
// The fig15 serving shape at P=4: eight small mixed-structure tenants served
// in batches of eight through a byte-budgeted PlanCache and
// spgemm_dist_batched. Each batch holds seven tenant requests with fresh
// values and one never-seen structure, so a build and an admission sit
// beside seven replays.

struct ServeInputs {
  std::vector<CscMatrix<double>> tenant_ops;  // [tenant * kPatterns + pattern]
  std::vector<CscMatrix<double>> cold_ops;    // kColdPool structures, one pattern each
};

ServeInputs make_serve_inputs(const Run& run) {
  const auto seed = run.args.seed;
  const index_t n = run.sizes.tenant_n;
  SplitMix64 g(seed);
  auto s = [&g] { return g(); };
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(n, 8, 5.0, 0.4, s()));
  tenants.push_back(erdos_renyi<double>(n, 4.0, s()));
  tenants.push_back(block_clustered<double>(n, 16, 6.0, 0.3, s()));
  tenants.push_back(hidden_community<double>(n, 8, 5.0, 0.5, s()));
  tenants.push_back(banded<double>(n, 12, 0.4, s()));
  tenants.push_back(erdos_renyi<double>(n, 2.5, s()));
  tenants.push_back(block_clustered<double>(n, 4, 8.0, 0.5, s(), /*symmetric=*/true));
  tenants.push_back(hidden_community<double>(n, 16, 6.0, 0.3, s()));
  ServeInputs in;
  for (const auto& t : tenants)
    for (int v = 0; v < kPatterns; ++v) in.tenant_ops.push_back(int_values(t, seed, v));
  for (int k = 0; k < kColdPool; ++k)
    in.cold_ops.push_back(int_values(erdos_renyi<double>(n, 3.5, s()), seed, 0));
  return in;
}

void serve_mixed(Run& run, Machine& m) {
  const auto in = generate(run, [&] { return make_serve_inputs(run); });
  std::vector<CscMatrix<double>> refs;
  for (std::size_t i = 0; i < in.tenant_ops.size(); ++i)
    refs.push_back(reference(run, in.tenant_ops[i], i % kPatterns == 0));
  for (const auto& op : in.cold_ops) refs.push_back(reference(run, op, false));
  std::vector<CscMatrix<double>> globals = in.tenant_ops;
  globals.insert(globals.end(), in.cold_ops.begin(), in.cold_ops.end());
  const std::size_t cold0 = in.tenant_ops.size();

  std::vector<std::uint64_t> budgets(static_cast<std::size_t>(kRanks), 0);
  m.run([&](Comm& c) {
    rank_main(c, run, [&](int root) {
      auto& log = run.logs[static_cast<std::size_t>(c.rank())];
      std::vector<DistMatrix1D<double>> ops;
      std::array<std::unique_ptr<PlanCache<double>>, kConfigs> caches;
      std::array<DistSpgemmOptions, kConfigs> opts;
      for (int cfg = 0; cfg < kConfigs; ++cfg) {
        opts[static_cast<std::size_t>(cfg)] = options_for(cfg);
        opts[static_cast<std::size_t>(cfg)].expected_batch = kBatch;
      }
      for (int rep = 0; rep < kSetupReps; ++rep)
        setup_rep(c, run, root, [&](int span) {
          ops = distribute(c, run, span, globals);
          for (int cfg = 0; cfg < kConfigs; ++cfg) {
            // Warm the tenant set one build at a time, then fix the budget:
            // the warm set plus room for about one cold plan, so cold plans
            // evict each other rather than the tenants.
            auto& cache = caches[static_cast<std::size_t>(cfg)];
            cache = std::make_unique<PlanCache<double>>();
            std::uint64_t biggest = 0;
            for (int t = 0; t < kTenants; ++t) {
              const auto& op = ops[static_cast<std::size_t>(t * kPatterns)];
              const auto before = cache->bytes_resident();
              Probe p(c.report());
              spgemm_dist_batched(c, *cache, {{&op, &op}}, opts[static_cast<std::size_t>(cfg)]);
              const Delta d = p.finish(c.report());
              run.rec.add(c.rank(), "build", cfg_name(cfg), -1, span, p, d);
              log.build_s[static_cast<std::size_t>(cfg)].push_back(d.modeled_s());
              biggest = std::max(biggest, cache->bytes_resident() - before);
            }
            const std::uint64_t budget = cache->bytes_resident() + biggest * 3 / 2;
            cache->set_budget(budget);
            if (cfg == kAuto) budgets[static_cast<std::size_t>(c.rank())] = budget;
          }
        });
      std::vector<DcscMatrix<double>> want;
      for (const auto& r : refs) want.push_back(ref_slice(r, ops[0]));
      PlanCacheStats auto_base{};
      run_rounds(c, run, root, run.sizes.serve_min_rounds, [&](int cfg, int round, bool traced,
                                                               int parent) {
        // Round r serves tenants 7r .. 7r+6 (mod 8) with rotating value
        // patterns, then cold structure r (mod the pool).
        const int r = round < 0 ? 0 : round;
        std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items;
        std::vector<const DcscMatrix<double>*> refs_of;
        std::vector<int> keys;
        for (int j = 0; j < kBatch - 1; ++j) {
          const int t = (r * (kBatch - 1) + j) % kTenants;
          const auto i = static_cast<std::size_t>(t * kPatterns + (r + j) % kPatterns);
          items.push_back({&ops[i], &ops[i]});
          refs_of.push_back(&want[i]);
          keys.push_back(t);
        }
        const auto ci = cold0 + static_cast<std::size_t>(r % kColdPool);
        items.push_back({&ops[ci], &ops[ci]});
        refs_of.push_back(&want[ci]);
        keys.push_back(kTenants + r % kColdPool);

        auto& cache = *caches[static_cast<std::size_t>(cfg)];
        if (cfg == kAuto && round == 0) auto_base = cache.stats();
        std::vector<DistSpgemmStats> st;
        auto s = timed_call(
            c, run, cfg, traced, parent,
            [&] {
              return spgemm_dist_batched(c, cache, items, opts[static_cast<std::size_t>(cfg)],
                                         &st);
            },
            refs_of);
        if (cfg == kAuto) {
          for (std::size_t i = 0; i < st.size(); ++i) {
            note_pick(log, keys[i], st[i].chosen);
            ++s.picks[static_cast<std::size_t>(cfg_of(st[i].chosen))];
            const auto p = predicted(st[i].cache_hits > 0 && !st[i].replay_predictions.empty()
                                         ? st[i].replay_predictions
                                         : st[i].predictions);
            for (int b = 0; b < kBackends; ++b)
              s.predicted_s[static_cast<std::size_t>(b)] += p[static_cast<std::size_t>(b)];
          }
          const auto now = cache.stats();
          log.cache_hits = now.hits - auto_base.hits;
          log.cache_misses = now.misses - auto_base.misses;
          log.cache_evictions = now.evictions - auto_base.evictions;
          log.cache_resident = now.bytes_resident;
        }
        return s;
      });
    });
  });
  run.cache_budget = budgets[0];
}

// ---- aggregation -------------------------------------------------------------

/// One call of the run: rank 0's sample (the call's shape, Auto's
/// rank-uniform decision) and every rank's counters.
struct Row {
  const CallSample* s;
  std::array<const CallSample*, kRanks> all;
};

std::vector<Row> rows_of(const Run& run) {
  std::vector<Row> out;
  const auto& base = run.logs[0].calls;
  for (std::size_t i = 0; i < base.size(); ++i) {
    Row r{&base[i], {}};
    for (int k = 0; k < kRanks; ++k)
      r.all[static_cast<std::size_t>(k)] = &run.logs[static_cast<std::size_t>(k)].calls[i];
    out.push_back(r);
  }
  return out;
}

double max_over(const Row& r, double (*f)(const Delta&)) {
  double m = 0;
  for (const auto* s : r.all) m = std::max(m, f(s->d));
  return m;
}
double sum_over(const Row& r, double (*f)(const Delta&)) {
  double s = 0;
  for (const auto* c : r.all) s += f(c->d);
  return s;
}

/// One value per timed call of `cfg` in the traced (or untraced) rounds.
std::vector<double> series(const std::vector<Row>& rows, int cfg, bool traced,
                           const std::function<double(const Row&)>& f) {
  std::vector<double> out;
  for (const auto& r : rows)
    if (r.s->round >= 0 && r.s->cfg == cfg && r.s->traced == traced) out.push_back(f(r));
  return out;
}

double modeled_per_member(const Row& r) {
  return max_over(r, [](const Delta& d) { return d.modeled_s(); }) / r.s->members;
}
double modeled_call(const Row& r) {
  return max_over(r, [](const Delta& d) { return d.modeled_s(); });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metrics over the traced or the untraced rounds.
std::vector<Metric> end_to_end(const Run& run, const std::vector<Row>& rows, bool traced) {
  std::vector<Metric> out;
  for (int cfg = 0; cfg < kConfigs; ++cfg)
    out.push_back({std::string(cfg_name(cfg)) + "_ms",
                   1e3 * median(series(rows, cfg, traced, modeled_per_member)), "ms"});
  for (int cfg = 0; cfg < kBackends; ++cfg)
    out.push_back({std::string(cfg_name(cfg)) + "_net_mb",
                   1e-6 * median(series(rows, cfg, traced, [](const Row& r) {
                     return sum_over(r, [](const Delta& d) {
                              return static_cast<double>(d.net_bytes());
                            }) /
                            r.s->members;
                   })),
                   "MB"});
  const auto lat = series(rows, kAuto, traced, modeled_call);
  double served = 0, busy = 0;
  for (const auto& r : rows)
    if (r.s->round >= 0 && r.s->cfg == kAuto && r.s->traced == traced) {
      served += r.s->members;
      busy += modeled_call(r);
    }
  out.push_back({"serve_mult_per_s", busy > 0 ? served / busy : 0, "1/s"});
  out.push_back({"serve_p50_ms", 1e3 * percentile(lat, 0.5), "ms"});
  out.push_back({"serve_p90_ms", 1e3 * percentile(lat, 0.9), "ms"});
  std::uint64_t hwm = 0;
  for (const auto& log : run.logs) hwm = std::max(hwm, log.hwm_bytes);
  out.push_back({"peak_mib", static_cast<double>(hwm) / (1024.0 * 1024.0), "MiB"});
  std::vector<double> setup;
  for (std::size_t k = 0; k < run.gen_s.size(); ++k) {
    double ranks = 0;
    for (const auto& log : run.logs)
      if (k < log.setup_s.size()) ranks = std::max(ranks, log.setup_s[k]);
    setup.push_back(run.gen_s[k] + ranks);
  }
  out.push_back({"setup_s", median(setup), "s"});
  return out;
}

/// The per-layer metrics over the traced rounds.
std::vector<Metric> per_layer(const Run& run, const std::vector<Row>& rows) {
  std::vector<Metric> out;
  out.push_back({"sparse.generate_s", median(run.gen_s), "s"});
  std::vector<double> dist;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    double m = 0;
    for (const auto& log : run.logs)
      if (k < log.distribute_s.size()) m = std::max(m, log.distribute_s[k]);
    dist.push_back(m);
  }
  out.push_back({"sparse.distribute_ms", 1e3 * median(dist), "ms"});
  out.push_back({"kernels.ref_symbolic_ms", 1e3 * run.ref_symbolic_s, "ms"});
  out.push_back({"kernels.ref_numeric_ms", 1e3 * run.ref_numeric_s, "ms"});
  out.push_back({"kernels.ref_ns_per_flop",
                 run.flops > 0 ? 1e9 * run.ref_numeric_s / run.flops : 0, "ns/flop"});
  out.push_back({"kernels.flops", run.flops, "count"});

  auto med_max = [&](int cfg, double (*f)(const Delta&)) {
    return median(series(rows, cfg, true, [f](const Row& r) { return max_over(r, f); }));
  };
  auto med_sum = [&](int cfg, double (*f)(const Delta&)) {
    return median(series(rows, cfg, true, [f](const Row& r) { return sum_over(r, f); }));
  };
  std::array<double, kConfigs> call_ms{};
  for (int cfg = 0; cfg < kConfigs; ++cfg) {
    const std::string b = cfg_name(cfg);
    call_ms[static_cast<std::size_t>(cfg)] =
        1e3 * median(series(rows, cfg, true, modeled_per_member));
    out.push_back({"kernels." + b + ".comp_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.comp_s; }), "ms"});
    out.push_back({"core." + b + ".plan_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.plan_s; }), "ms"});
    out.push_back({"dist." + b + ".other_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.other_s; }), "ms"});
    out.push_back({"dist." + b + ".unattributed_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.cpu_s - d.phases_s(); }),
                   "ms"});
    out.push_back({"dist." + b + ".imbalance", median(series(rows, cfg, true, [](const Row& r) {
                     const double mx = max_over(r, [](const Delta& d) { return d.cpu_s; });
                     const double sum = sum_over(r, [](const Delta& d) { return d.cpu_s; });
                     return sum > 0 ? mx * kRanks / sum : 1.0;
                   })),
                   "ratio"});
    out.push_back({"dist." + b + ".peak_mib",
                   med_max(cfg, [](const Delta& d) { return static_cast<double>(d.peak_bytes); }) /
                       (1024.0 * 1024.0),
                   "MiB"});
    std::vector<double> builds;
    const auto& b0 = run.logs[0].build_s[static_cast<std::size_t>(cfg)];
    for (std::size_t i = 0; i < b0.size(); ++i) {
      double m = 0;
      for (const auto& log : run.logs)
        m = std::max(m, log.build_s[static_cast<std::size_t>(cfg)][i]);
      builds.push_back(m);
    }
    out.push_back({"dist." + b + ".build_ms", 1e3 * median(builds), "ms"});
    out.push_back({"runtime." + b + ".comm_wait_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.comm_wait_s; }), "ms"});
    out.push_back({"runtime." + b + ".comm_hidden_ms",
                   1e3 * med_max(cfg, [](const Delta& d) { return d.comm_hidden_s; }), "ms"});
    out.push_back({"runtime." + b + ".msgs",
                   med_sum(cfg, [](const Delta& d) { return static_cast<double>(d.msgs()); }),
                   "count"});
  }
  out.push_back(
      {"core.sa1d.rdma_mb",
       1e-6 * med_sum(0, [](const Delta& d) { return static_cast<double>(d.rdma_bytes); }), "MB"});
  out.push_back({"core.sa1d.rdma_gets",
                 med_sum(0, [](const Delta& d) { return static_cast<double>(d.rdma_msgs); }),
                 "count"});

  int fastest = 0;
  for (int b = 1; b < kBackends; ++b)
    if (call_ms[static_cast<std::size_t>(b)] < call_ms[static_cast<std::size_t>(fastest)])
      fastest = b;
  double members = 0, fastest_picks = 0;
  std::array<std::vector<double>, kBackends> pred;
  for (const auto& r : rows)
    if (r.s->round >= 0 && r.s->cfg == kAuto && r.s->traced) {
      members += r.s->members;
      fastest_picks += r.s->picks[static_cast<std::size_t>(fastest)];
      for (int b = 0; b < kBackends; ++b)
        pred[static_cast<std::size_t>(b)].push_back(r.s->predicted_s[static_cast<std::size_t>(b)] /
                                                    r.s->members);
    }
  out.push_back({"dist.auto.pick_is_fastest", members > 0 ? fastest_picks / members : 0,
                 "fraction"});
  for (int b = 0; b < kBackends; ++b) {
    const double measured = call_ms[static_cast<std::size_t>(b)];
    out.push_back({"runtime.cost_model." + std::string(cfg_name(b)) + ".residual",
                   measured > 0 ? 1e3 * median(pred[static_cast<std::size_t>(b)]) / measured : 0,
                   "ratio"});
  }
  const auto& l0 = run.logs[0];
  const double looked_up = static_cast<double>(l0.cache_hits + l0.cache_misses);
  out.push_back({"runtime.plan_cache.hit_rate",
                 looked_up > 0 ? static_cast<double>(l0.cache_hits) / looked_up : 0, "fraction"});
  out.push_back({"runtime.plan_cache.evictions", static_cast<double>(l0.cache_evictions),
                 "count"});
  out.push_back({"runtime.plan_cache.resident_mib",
                 static_cast<double>(l0.cache_resident) / (1024.0 * 1024.0), "MiB"});
  return out;
}

/// Checks that the counters of every timed call reconcile on every rank:
/// phase time never exceeds the thread CPU that contains it, and waited plus
/// hidden network time is exactly the alpha-beta price of the counted
/// traffic under the pinned parameters.
std::vector<std::string> reconcile(const Run& run, const CostParams& cp) {
  constexpr double kTimerSlack_s = 50e-6;
  std::vector<std::string> bad;
  for (int k = 0; k < kRanks; ++k)
    for (const auto& s : run.logs[static_cast<std::size_t>(k)].calls) {
      const auto& d = s.d;
      const std::string where = std::string(cfg_name(s.cfg)) + " round " +
                                std::to_string(s.round) + " rank " + std::to_string(k);
      if (d.phases_s() > d.cpu_s + kTimerSlack_s)
        bad.push_back(where + ": phases " + std::to_string(1e3 * d.phases_s()) +
                      " ms exceed thread CPU " + std::to_string(1e3 * d.cpu_s) + " ms");
      const double priced = cp.alpha_inter * static_cast<double>(d.msgs_inter) +
                            cp.beta_inter * static_cast<double>(d.bytes_inter) +
                            cp.alpha_intra * static_cast<double>(d.msgs_intra) +
                            cp.beta_intra * static_cast<double>(d.bytes_intra);
      const double charged = d.comm_wait_s + d.comm_hidden_s;
      if (std::abs(charged - priced) > 1e-9 * priced + 1e-12)
        bad.push_back(where + ": comm wait+hidden " + std::to_string(1e6 * charged) +
                      " us differs from the alpha-beta price " + std::to_string(1e6 * priced) +
                      " us");
    }
  return bad;
}

void print_metrics_json(bool correct, long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <oneshot-hv15r|replay-queen|serve-mixed> --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--smoke]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_v = i + 1 < argc;
    if (k == "--smoke") {
      args.smoke = true;
    } else if (k == "--workload" && has_v) {
      args.workload = argv[++i];
    } else if (k == "--seed" && has_v) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_v) {
      args.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has_v) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-out" && has_v) {
      args.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  using Workload = void (*)(Run&, Machine&);
  const std::map<std::string, Workload> workloads{{"oneshot-hv15r", oneshot_hv15r},
                                                  {"replay-queen", replay_queen},
                                                  {"serve-mixed", serve_mixed}};
  const auto wl = workloads.find(args.workload);
  if (wl == workloads.end() || args.seconds <= 0) return usage();
  // A cost_params.json named here would silently re-price Auto.
  if (std::getenv("SA1D_COST_PARAMS") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with SA1D_COST_PARAMS set; the benchmark pins "
                 "its cost parameters\n");
    return 2;
  }
  if (args.trace && args.trace_out.empty())
    args.trace_out = "perfbench-trace-" + args.workload + ".json";

  // Allocator policy. glibc adapts its mmap and trim thresholds to the
  // allocation history of the process, and it unmaps a rank thread's arena
  // heap as soon as the heap empties. Either way the same call could
  // page-fault on every invocation in one process and never in the next:
  // SA-1D replays on replay-queen took 7.5 ms in most processes and 12-14 ms
  // in some, and Auto on oneshot-hv15r 15 or 23 ms depending on the seed.
  // Fixed thresholds, and a top pad as large as an arena heap (which keeps
  // emptied heaps mapped), make the cost of a call a property of the call.
  // Buffers of 32 MiB and more are still mapped afresh each time, so the
  // workload sizes keep every buffer below that.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);

  const CostParams cp = pinned_params();
  Run run(args, args.smoke ? kSmoke : kFull);
  Machine m(kRanks, cp);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d ranks=%d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kRanks, args.smoke ? " (smoke sizes)" : "");
  std::printf(
      "cost params (pinned): alpha_inter=%g beta_inter=%g alpha_intra=%g beta_intra=%g "
      "ranks_per_node=%d flop_s=%g triple_s=%g overlap_discount=%g imb_scale=%g\n",
      cp.alpha_inter, cp.beta_inter, cp.alpha_intra, cp.beta_intra, cp.ranks_per_node,
      cp.flop_s, cp.triple_s, cp.overlap_discount, cp.imb_scale);
  std::printf("time model: thread CPU (measured) + waited network time (modeled, alpha-beta)\n");
  std::fflush(stdout);

  wl->second(run, m);

  // Verdict: every rank ran the same calls, no slice mismatched, nothing
  // threw, and Auto picked the same backend on every rank.
  std::vector<std::string> problems;
  for (int k = 0; k < kRanks; ++k) {
    const auto& log = run.logs[static_cast<std::size_t>(k)];
    for (const auto& p : log.problems) problems.push_back("rank " + std::to_string(k) + ": " + p);
    if (log.calls.size() != run.logs[0].calls.size())
      problems.push_back("rank " + std::to_string(k) + " ran a different number of calls");
    if (log.auto_picks != run.logs[0].auto_picks)
      problems.push_back("rank " + std::to_string(k) + " saw a different Auto pick");
  }
  long attempted = 0, failed = 0, exceptions = 0;
  for (const auto& log : run.logs) exceptions = std::max(exceptions, log.exceptions);
  const std::vector<Row> rows = problems.empty() ? rows_of(run) : std::vector<Row>{};
  for (const auto& r : rows) {
    attempted += r.s->members;
    int bad = 0;
    for (const auto* s : r.all) bad = std::max(bad, s->bad);
    failed += bad;
  }
  attempted += exceptions;
  failed += exceptions;
  if (attempted == 0) attempted = 1;
  if (args.trace)
    for (auto& b : reconcile(run, cp)) problems.push_back("reconciliation: " + b);

  // Human-readable report.
  std::map<int, int> pick_count;
  for (const auto& [key, b] : run.logs[0].auto_picks) ++pick_count[b];
  std::printf("auto picks:");
  for (const auto& [key, b] : run.logs[0].auto_picks) std::printf(" %d=%s", key, cfg_name(b));
  std::printf("\n");
  std::printf("%-8s %8s %12s %12s %12s\n", "backend", "samples", "median_ms", "p90_ms",
              "net_MB/mult");
  for (int cfg = 0; cfg < kConfigs; ++cfg) {
    const auto t = series(rows, cfg, false, modeled_per_member);
    const auto mb = series(rows, cfg, false, [](const Row& r) {
      return sum_over(r, [](const Delta& d) { return static_cast<double>(d.net_bytes()); }) /
             r.s->members;
    });
    std::printf("%-8s %8zu %12.4f %12.4f %12.4f\n", cfg_name(cfg), t.size(), 1e3 * median(t),
                1e3 * percentile(t, 0.9), 1e-6 * median(mb));
  }
  if (run.args.workload == "serve-mixed")
    std::printf("plan cache budget (auto): %.3f MiB\n",
                static_cast<double>(run.cache_budget) / (1024.0 * 1024.0));
  std::printf("error_rate: %ld/%ld = %g\n", failed, attempted,
              static_cast<double>(failed) / static_cast<double>(attempted));

  std::vector<Metric> metrics;
  if (!rows.empty()) {
    if (args.trace) {
      metrics = per_layer(run, rows);
      const auto untraced = end_to_end(run, rows, false);
      const auto traced = end_to_end(run, rows, true);
      std::printf("tracing overhead (traced vs untraced rounds of this run):\n");
      for (std::size_t i = 0; i < untraced.size(); ++i)
        if (untraced[i].unit == "ms" || untraced[i].unit == "1/s")
          std::printf("  %-18s %12.4f -> %12.4f %s (%+.2f%%)\n", untraced[i].name.c_str(),
                      untraced[i].value, traced[i].value, untraced[i].unit.c_str(),
                      untraced[i].value > 0
                          ? 100.0 * (traced[i].value / untraced[i].value - 1.0)
                          : 0.0);
      for (const auto& mt : metrics)
        std::printf("  %-40s %14.6g %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
      const std::string meta = "{\"workload\": \"" + args.workload +
                               "\", \"seed\": " + std::to_string(args.seed) +
                               ", \"ranks\": " + std::to_string(kRanks) +
                               ", \"time_model\": \"thread CPU measured + network modeled\"}";
      if (!run.rec.write_chrome(args.trace_out, args.workload, meta))
        problems.push_back("cannot write trace file " + args.trace_out);
      else
        std::printf("trace: %zu spans -> %s\n", run.rec.size(), args.trace_out.c_str());
    } else {
      metrics = end_to_end(run, rows, false);
      for (const auto& mt : metrics)
        std::printf("  %-18s %14.6g %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    }
  }
  for (const auto& p : problems) std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  const bool correct = problems.empty() && failed == 0;
  print_metrics_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
