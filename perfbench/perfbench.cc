// perfbench: the end-to-end benchmark of the checking service and daemon.
//
//   perfbench --workload <audit_small|audit_large> --seed <n> --seconds <s>
//             --trace <0|1>
//   perfbench --pin        (prints pinned_digests.inc for the default seed)
//
// Every workload is generated from --seed and run against the library's
// public entry points: CheckService::RunBatch, and, in audit_small's traced
// run, an in-process CheckServer driven over a unix socket. Every report is
// checked (see Verifier). The last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
// of the same workload. perfbench/README.md documents the metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "src/corpus/generator.h"
#include "src/flowlang/ast.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/flowchart/interpreter.h"
#include "src/obs/metrics.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/socket.h"
#include "src/service/manifest.h"
#include "src/service/service.h"
#include "src/util/fingerprint.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace secpol::perfbench {
namespace {

// The seed whose report digests are pinned in pinned_digests.inc.
constexpr std::uint64_t kDefaultSeed = 1;

// Job pools. The workloads cycle through their pool, one fresh (cold)
// service per pass; the daemon pass cycles its cold pool, which is several
// times the daemon's cache capacity, so a recycled job is long evicted.
constexpr std::size_t kSmallPool = 512;
constexpr std::size_t kLargePool = 32;
// audit_large runs one block of jobs per this many seconds of --seconds.
constexpr double kLargeBlockSeconds = 7.5;
// Jobs run with one thread, not nproc. With nproc threads every sweep
// spawns and joins a pool of its own, and on a 4-vCPU VM that swung one
// seed's audit_small throughput between 91 and 276 jobs/s from run to run;
// audit_large jobs ran slower and noisier with 4 threads than with 1. No
// bound could tell a change from that noise.
constexpr int kJobThreads = 1;
constexpr std::size_t kServeHot = 128;
constexpr std::size_t kServeCold = 1024;
constexpr std::size_t kServeEditBases = 4;
constexpr std::size_t kServeEdits = 64;

// The daemon pass (audit_small's traced run) is an open loop at a fixed
// offered rate, split per mille into pings, edited class-mode
// resubmissions, cold jobs, and warm resubmissions of a hot set, over
// kServeConnections connections. It is not a timed workload: latency through
// the daemon tracks the hypervisor's steal time on a shared VM (see
// README.md), beyond any bound.
constexpr double kServePassSeconds = 10.0;
constexpr double kServeRatePerSec = 1000.0;
constexpr int kPingPerMille = 20;
constexpr int kEditPerMille = 10;
constexpr int kColdPerMille = 70;
constexpr int kServeConnections = 2;
// The generator spins through the last stretch before each due time.
constexpr std::int64_t kSpinNs = 300'000;
constexpr int kServeWorkers = 2;
constexpr std::size_t kServeCacheCapacity = 256;
// How long after the last send the run waits for outstanding answers before
// counting them as lost.
constexpr double kServeDrainSeconds = 30.0;

// Traced runs keep every span in memory; these bound how many they make.
constexpr std::uint64_t kTracedJobs = 1024;   // audit_small jobs
constexpr std::size_t kTracedSlots = 5000;    // daemon-pass slots with frame spans
// Span job indices of the daemon pass start here, clear of the audit jobs'.
constexpr std::uint64_t kServeSpanBase = std::uint64_t{1} << 40;

// Set-up is repeated and its median reported.
constexpr int kAuditSetupReps = 201;
constexpr int kAuditSetupBatch = 10;

// job_tail_ms is taken per round of this many consecutive jobs, and the
// median over the rounds is reported (a run with fewer jobs is one round).
// A fixed round keeps the tail at one percentile, p95, whatever a run's
// length or a commit's speed, and the median keeps one stall of the host
// from deciding a run. The round is not longer because a p99 of sub-ms
// jobs follows the scheduler: with the host's cores kept busy by other
// processes, audit_small's p99 rose 4.5-fold (to the time slice), its p95
// and its p50 by a tenth to a fifth.
constexpr std::size_t kTailRound = 200;

// Non-default seeds: jobs per workload re-run in the reference configuration.
constexpr std::size_t kReferenceSampleSmall = 48;
constexpr std::size_t kReferenceSampleLarge = 1;
constexpr std::size_t kReferenceSampleServe = 48;

#include "perfbench/pinned_digests.inc"

// ---------------------------------------------------------------- utilities

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Digest(const std::string& text) {
  Fingerprinter fp;
  fp.Str(text);
  return fp.Digest().ToHex().substr(0, 16);
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The highest percentile that still has at least ten samples above it (the
// eleventh-largest sample) of each round of kTailRound samples, and the
// median of those over the rounds. Absent below eleven samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t round = 0;   // samples per round
  std::size_t rounds = 0;
  bool present = false;
};

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.round = std::min(values.size(), kTailRound);
  if (tail.round < 11) {
    return tail;
  }
  std::vector<double> per_round;
  for (std::size_t begin = 0; begin + tail.round <= values.size(); begin += tail.round) {
    std::vector<double> round(values.begin() + static_cast<std::ptrdiff_t>(begin),
                              values.begin() + static_cast<std::ptrdiff_t>(begin + tail.round));
    std::nth_element(round.begin(), round.end() - 11, round.end());
    per_round.push_back(*(round.end() - 11));
  }
  tail.rounds = per_round.size();
  tail.value = Median(per_round);
  tail.percentile =
      100.0 * static_cast<double>(tail.round - 10) / static_cast<double>(tail.round);
  tail.present = true;
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() { return ThreadPool::HardwareThreads(); }

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::string(value) : fallback;
}

// ------------------------------------------------------------------- inputs

// Jobs come in blocks of kBlock, and the two things that set an audit's cost
// are stratified within a block, so that every block does about the same
// work on every seed; without this, the median of audit_large's 32 jobs
// moved by a third from seed to seed. The program: its cost grows with the
// steps it executes, and steps are heavy-tailed, so each block draws
// kCandidates programs from the corpus generator and takes, for each entry of
// kStepProfile, the candidate whose step count on a fixed probe set is
// nearest to it. The policy: `allow` takes every subset of the k = 3 inputs
// once per block, paired with the step profile by kAllowOfSlot (the costliest
// policy, allow-everything, which makes the maximal synthesizer tabulate
// 2^18 singleton classes on audit_large, goes with the cheapest program);
// `allow2` takes every subset once in a seeded order.
// Every block then does about the same work on every seed, while programs
// and the pairing of programs and policies stay random.
constexpr std::size_t kBlock = 8;
constexpr std::size_t kCandidates = 64;
// Octile midpoints of ProbeSteps over 8192 programs of the default
// CorpusConfig.
constexpr double kStepProfile[kBlock] = {256, 320, 468, 1044, 1664, 2560, 4028, 6848};
constexpr std::uint64_t kAllowOfSlot[kBlock] = {7, 3, 5, 6, 1, 2, 4, 0};

std::vector<std::uint64_t> SeededPermutation(std::uint64_t seed) {
  std::vector<std::uint64_t> order(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    order[i] = i;
  }
  Rng rng(seed);
  for (std::size_t i = kBlock - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  return order;
}

std::uint64_t ProbeSteps(const SourceProgram& source) {
  const Program program = Lower(source);
  std::uint64_t steps = 0;
  for (Value a : {0, 21, 42, 63}) {
    for (Value b : {0, 21, 42, 63}) {
      for (Value c : {0, 21, 42, 63}) {
        const Value input[] = {a, b, c};
        steps += RunProgram(program, input).steps;
      }
    }
  }
  return steps;
}

// `count` audit jobs (a multiple of kBlock) over the grid {lo..hi}^3.
std::vector<CheckJobSpec> AuditPool(const std::string& prefix, std::uint64_t seed,
                                    std::size_t count, Value lo, Value hi) {
  const CorpusConfig config;  // k = 3 inputs
  std::vector<CheckJobSpec> pool;
  for (std::size_t block = 0; block * kBlock < count; ++block) {
    std::vector<std::pair<double, std::string>> candidates;
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const SourceProgram program =
          GenerateProgram(config, Mix(seed, 1, block * kCandidates + c), "p");
      candidates.emplace_back(std::log(static_cast<double>(ProbeSteps(program))),
                              program.ToString());
    }
    const std::vector<std::uint64_t> allow2 = SeededPermutation(Mix(seed, 3, block));
    for (std::size_t slot = 0; slot < kBlock; ++slot) {
      const double target = std::log(kStepProfile[slot]);
      std::size_t best = 0;
      for (std::size_t c = 1; c < candidates.size(); ++c) {
        if (std::abs(candidates[c].first - target) < std::abs(candidates[best].first - target)) {
          best = c;
        }
      }
      CheckJobSpec spec;
      spec.id = prefix + std::to_string(pool.size());
      spec.checker = CheckerKind::kAudit;
      spec.program_text = std::move(candidates[best].second);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
      spec.allow = VarSet::FromBits(kAllowOfSlot[slot]);
      spec.allow2 = VarSet::FromBits(allow2[slot]);
      spec.grid_lo = lo;
      spec.grid_hi = hi;
      spec.num_threads = kJobThreads;
      pool.push_back(std::move(spec));
    }
  }
  return pool;
}

std::vector<CheckJobSpec> SmallPool(std::uint64_t seed) {
  return AuditPool("small-", Mix(seed, 10, 0), kSmallPool, -1, 2);
}

std::vector<CheckJobSpec> LargePool(std::uint64_t seed) {
  return AuditPool("large-", Mix(seed, 20, 0), kLargePool, 0, 63);
}

// The first assignment to a value local or the output nested under an if or
// while, in source order; nullptr when the program is straight-line.
Stmt* NestedAssign(std::vector<Stmt>* block, const SourceProgram& program, int depth) {
  for (Stmt& stmt : *block) {
    if (stmt.kind == Stmt::Kind::kAssign && depth > 0 &&
        program.VarName(stmt.var).rfind("c", 0) != 0) {
      return &stmt;
    }
    for (std::vector<Stmt>* child : {&stmt.then_body, &stmt.else_body, &stmt.body}) {
      if (Stmt* found = NestedAssign(child, program, depth + 1); found != nullptr) {
        return found;
      }
    }
  }
  return nullptr;
}

// An edited resubmission of `base`: one assignment, preferably one only some
// inputs execute, gets a constant no generated program uses. The box count is
// unchanged, so class memo entries of runs that skip the edited box survive.
CheckJobSpec EditedJob(const CheckJobSpec& base, std::size_t edit, const std::string& id) {
  SourceProgram program = MustParseProgram(base.program_text);
  Stmt* target = NestedAssign(&program.body, program, 0);
  if (target == nullptr) {
    target = &program.body.back();  // the generator always ends with y = ...
  }
  target->expr = Expr::Const(static_cast<Value>(100 + edit));
  CheckJobSpec spec = base;
  spec.id = id;
  spec.program_text = program.ToString();
  return spec;
}

// Every distinct job the daemon pass can send, indexed hot | cold | bases |
// edits.
struct ServeInputs {
  std::vector<CheckJobSpec> jobs;
  std::size_t cold_begin = 0;
  std::size_t base_begin = 0;
  std::size_t edit_begin = 0;
};

ServeInputs ServePool(std::uint64_t seed) {
  ServeInputs in;
  in.jobs = AuditPool("hot-", Mix(seed, 30, 0), kServeHot, -1, 2);
  in.cold_begin = in.jobs.size();
  for (CheckJobSpec& spec : AuditPool("cold-", Mix(seed, 31, 0), kServeCold, -1, 2)) {
    in.jobs.push_back(std::move(spec));
  }
  in.base_begin = in.jobs.size();
  for (std::size_t i = 0; i < kServeEditBases; ++i) {
    CheckJobSpec base = in.jobs[i];
    base.id = "base-" + std::to_string(i);
    base.sweep_mode = "class";
    in.jobs.push_back(base);
  }
  in.edit_begin = in.jobs.size();
  for (std::size_t i = 0; i < kServeEdits; ++i) {
    in.jobs.push_back(EditedJob(in.jobs[in.base_begin + i % kServeEditBases], i,
                                "edit-" + std::to_string(i)));
  }
  return in;
}

// The configuration pinned digests are taken in: interpreted, point, 1 thread.
JobResult ReferenceRun(CheckJobSpec spec) {
  spec.exec_mode = "interpreted";
  spec.sweep_mode = "point";
  spec.num_threads = 1;
  return ExecuteJob(spec);
}

// ----------------------------------------------------------------- checking

// Checks every report a run produces. Each job has an index into its
// workload's pool. A report is wrong when it differs from the pinned digest
// (default seed), from the reference re-run of its index (a seeded sample of
// indices, other seeds, done after the timed region), or from an earlier
// report of the same index.
class Verifier {
 public:
  Verifier(const std::vector<CheckJobSpec>& pool, const std::vector<const char*>& pinned,
           std::uint64_t seed, std::size_t reference_sample)
      : pool_(pool), expected_(pool.size()), seen_(pool.size()), reports_(pool.size(), 0) {
    if (seed == kDefaultSeed) {
      if (pinned.size() != pool.size()) {
        problems_.push_back("pinned digests cover " + std::to_string(pinned.size()) +
                            " jobs, the pool has " + std::to_string(pool.size()) +
                            "; regenerate perfbench/pinned_digests.inc with --pin");
      } else {
        for (std::size_t i = 0; i < pinned.size(); ++i) {
          expected_[i] = pinned[i];
        }
      }
      return;
    }
    Rng rng(Mix(seed, 40, 0));
    for (std::size_t i = 0; i < reference_sample && i < pool.size(); ++i) {
      sample_.push_back(rng.NextBelow(pool.size()));
    }
  }

  void Observe(std::size_t index, const std::string& report) {
    const std::string digest = Digest(report);
    ++reports_[index];
    if (seen_[index].empty()) {
      seen_[index] = digest;
    } else if (seen_[index] != digest) {
      ++wrong_;
    }
    if (!expected_[index].empty() && expected_[index] != digest) {
      ++wrong_;
    }
  }

  void CountWrong(std::uint64_t n) { wrong_ += n; }

  // Re-runs the sampled indices that the run used in the reference
  // configuration. Call after the timed region.
  void CheckSample() {
    for (std::size_t index : sample_) {
      if (seen_[index].empty() || !expected_[index].empty()) {
        continue;
      }
      expected_[index] = Digest(ReferenceRun(pool_[index]).report);
      if (expected_[index] != seen_[index]) {
        wrong_ += reports_[index];
      }
    }
  }

  std::uint64_t wrong() const { return wrong_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  const std::vector<CheckJobSpec>& pool_;
  std::vector<std::string> expected_;
  std::vector<std::string> seen_;
  std::vector<std::uint64_t> reports_;
  std::vector<std::size_t> sample_;
  std::uint64_t wrong_ = 0;
  std::vector<std::string> problems_;
};

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines before the result
};

void AddMetric(RunResult* run, std::string name, double value, std::string unit) {
  run->metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// The job records of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t points = 0;
  double busy_s = 0.0;  // measured wall time
  std::vector<double> latency_ms;
};

void AddEndToEnd(RunResult* run, const Tally& tally, double setup_s) {
  run->attempted = tally.attempted;
  run->failed = tally.attempted - tally.completed;
  const Tail tail = TailOf(tally.latency_ms);
  AddMetric(run, "setup_s", setup_s, "s");
  AddMetric(run, "jobs_per_s", static_cast<double>(tally.completed) / tally.busy_s, "1/s");
  AddMetric(run, "points_per_s", static_cast<double>(tally.points) / tally.busy_s, "1/s");
  AddMetric(run, "job_p50_ms", Median(tally.latency_ms), "ms");
  AddMetric(run, "job_tail_ms", tail.value, "ms");
  AddMetric(run, "peak_rss_mb", PeakRssMb(), "MB");
  if (!tail.present) {
    run->correct = false;
    run->notes.push_back("job_tail_ms: only " + std::to_string(tally.latency_ms.size()) +
                         " samples; a run needs at least 11");
  } else {
    run->notes.push_back("job_tail_ms is p" + Fixed(tail.percentile, 3) + " of " +
                         std::to_string(tail.round) + " samples, median of " +
                         std::to_string(tail.rounds) + " rounds (" +
                         std::to_string(tally.latency_ms.size()) + " jobs)");
  }
  run->notes.push_back("failed_frac " +
                       Fixed(tally.attempted == 0 ? 0.0
                                                  : static_cast<double>(run->failed) /
                                                        static_cast<double>(tally.attempted),
                             6));
}

// ------------------------------------------------------ per-layer accounting

// Per-layer metrics computed from a SpanLog of traced audit jobs.
struct LayerTotals {
  std::uint64_t jobs = 0;         // traced jobs run (cache misses)
  std::uint64_t points = 0;
  std::uint64_t classes = 0;
  std::uint64_t certified = 0;
  double untraced_s = 0.0;        // paired RunBatch walls of the same jobs
  double traced_s = 0.0;          // their traced walls ("job" spans)
};

void AddLayerMetrics(RunResult* run, const SpanLog& log, const LayerTotals& totals) {
  const double jobs = std::max<double>(1.0, static_cast<double>(totals.jobs));
  // A layer's time includes freeing what it built ("<span>.free").
  const auto per_job_us = [&](const std::string& span) {
    return static_cast<double>(log.TotalNs(span) + log.TotalNs(span + ".free")) / 1000.0 / jobs;
  };
  AddMetric(run, "flowlang.parse_us", per_job_us("flowlang.parse"), "us");
  AddMetric(run, "flowlang.lower_us", per_job_us("flowlang.lower"), "us");
  AddMetric(run, "fingerprint.key_us", per_job_us("fingerprint.key"), "us");
  AddMetric(run, "surveillance.compile_us", per_job_us("surveillance.compile"), "us");
  AddMetric(run, "service.render_us", per_job_us("service.render"), "us");
  AddMetric(run, "tabulate.us", per_job_us("tabulate"), "us");
  AddMetric(run, "tabulate.ns_per_point",
            totals.points == 0 ? 0.0
                               : per_job_us("tabulate") * 1000.0 * jobs /
                                     static_cast<double>(totals.points),
            "ns");
  for (const char* reducer :
       {"soundness", "integrity", "completeness", "maximal", "policy_compare", "leak"}) {
    const std::string span = std::string("reduce.") + reducer;
    AddMetric(run, span + "_us", per_job_us(span), "us");
  }
  const std::uint64_t partitions = log.Count("classes.partition");
  AddMetric(run, "classes.partition_us",
            partitions == 0 ? 0.0
                            : static_cast<double>(log.TotalNs("classes.partition")) / 1000.0 /
                                  static_cast<double>(partitions),
            "us");
  AddMetric(run, "classes.certified_frac",
            totals.classes == 0 ? 0.0
                                : static_cast<double>(totals.certified) /
                                      static_cast<double>(totals.classes),
            "frac");
  const std::uint64_t lookups = log.Count("cache.lookup");
  AddMetric(run, "cache.lookup_ns",
            lookups == 0 ? 0.0
                         : static_cast<double>(log.TotalNs("cache.lookup")) /
                               static_cast<double>(lookups),
            "ns");

  // Span checks: every span non-zero; the layer spans of each job cover its
  // wall time up to the reported unattributed share.
  std::uint64_t zero_spans = 0;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> per_job;  // wall, layers
  for (const Span& span : log.spans()) {
    if (span.dur_ns <= 0) {
      ++zero_spans;
    }
    if (std::strcmp(span.name, "job") == 0) {
      per_job[span.job].first += span.dur_ns;
    } else if (std::strncmp(span.name, "frame.", 6) != 0) {
      per_job[span.job].second += span.dur_ns;
    }
  }
  std::int64_t wall = 0;
  std::int64_t covered = 0;
  std::vector<double> shares;  // per job, unattributed
  for (const auto& [job, sums] : per_job) {
    if (sums.first <= 0) {
      continue;
    }
    wall += sums.first;
    covered += sums.second;
    shares.push_back(1.0 - static_cast<double>(sums.second) / static_cast<double>(sums.first));
  }
  const auto over_tenth = std::count_if(shares.begin(), shares.end(),
                                        [](double share) { return share > 0.1; });
  const double unattributed =
      wall == 0 ? 0.0 : 1.0 - static_cast<double>(covered) / static_cast<double>(wall);
  AddMetric(run, "trace.unattributed_frac", unattributed, "frac");
  AddMetric(run, "trace.overhead_frac",
            totals.untraced_s <= 0.0 ? 0.0 : totals.traced_s / totals.untraced_s - 1.0, "frac");
  run->notes.push_back("traced jobs " + std::to_string(totals.jobs) + ", spans " +
                       std::to_string(log.spans().size()) + "; jobs with more than 10% of " +
                       "their wall time outside layer spans: " + std::to_string(over_tenth) +
                       ", median per-job share " + Fixed(Median(shares), 4) +
                       "; peak RSS " + Fixed(PeakRssMb(), 1) + " MB");
  if (zero_spans > 0) {
    run->correct = false;
    run->notes.push_back("span check failed: " + std::to_string(zero_spans) +
                         " zero-length spans");
  }
}

// Writes the spans as Chrome trace JSON and parses the file back.
void WriteTrace(RunResult* run, const SpanLog& log, const std::string& path) {
  const std::string text = log.ToChromeTrace();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
      run->correct = false;
      run->notes.push_back("could not write trace " + path);
      return;
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const Result<Json> parsed = Json::Parse(back);
  const Json* events = parsed.ok() ? parsed.value().Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array() ||
      events->Items().size() != log.spans().size()) {
    run->correct = false;
    run->notes.push_back("trace " + path + " does not parse back to its spans");
    return;
  }
  run->notes.push_back("trace written to " + path);
}

double HistogramMean(MetricsRegistry& registry, const char* name) {
  Histogram* histogram = registry.GetHistogram(name);
  return histogram->Count() == 0 ? 0.0
                                 : static_cast<double>(histogram->Sum()) /
                                       static_cast<double>(histogram->Count());
}

double CounterValue(MetricsRegistry& registry, const char* name) {
  return static_cast<double>(registry.GetCounter(name)->Value());
}

// Runs the traced copy of one job next to its untraced RunBatch twin, and
// checks that both render the same report. Which of the two runs first
// alternates by job, so neither side always finds the other's warm caches.
void RunTracedPair(const CheckJobSpec& spec, std::uint64_t job_index, CheckService* service,
                   ResultCache* cache, ClassMemo* memo, SpanLog* log, LayerTotals* totals,
                   JobResult* untraced_out, bool* same_report) {
  BatchReport batch;
  double untraced_s = 0.0;
  const auto run_untraced = [&] {
    const auto start = std::chrono::steady_clock::now();
    batch = service->RunBatch({spec});
    const std::string json = JobResultToJson(batch.jobs[0]).Serialize();
    untraced_s = Seconds(std::chrono::steady_clock::now() - start);
  };
  if (job_index % 2 == 0) {
    run_untraced();
  }
  std::string traced_json;
  const TracedJob traced = RunTracedAuditJob(spec, job_index, cache, memo, log, &traced_json);
  const std::int64_t traced_ns = log->spans().back().dur_ns;  // the "job" span
  if (job_index % 2 == 1) {
    run_untraced();
  }
  *untraced_out = std::move(batch.jobs[0]);
  *same_report = traced.result.report == untraced_out->report &&
                 traced.result.exit_code == untraced_out->exit_code &&
                 traced.result.status == untraced_out->status;
  if (traced.result.from_cache) {
    return;
  }
  ++totals->jobs;
  totals->points += traced.result.evaluated;
  totals->untraced_s += untraced_s;
  totals->traced_s += static_cast<double>(traced_ns) / 1e9;
  if (traced.class_mode) {
    totals->classes += 2 * traced.class_stats.multi_member_classes;
    totals->certified +=
        traced.class_stats.certified_classes + traced.class_stats.certified_classes2;
  }
}

// ---------------------------------------------------------- audit workloads

void ServePass(std::uint64_t seed, double seconds, const std::string& scratch, SpanLog* log,
               LayerTotals* totals, MetricsRegistry* registry, RunResult* run);

// The daemon and load-generator metrics of a run without a daemon pass.
void AddAbsentDaemonMetrics(RunResult* run) {
  for (const char* name : {"server.ping_us", "server.submit_warm_us", "server.frame_encode_us",
                           "server.frame_decode_us"}) {
    AddMetric(run, name, 0.0, "us");
  }
  AddMetric(run, "loadgen.late_p99_ms", 0.0, "ms");
  AddMetric(run, "loadgen.sent", 0.0, "count");
}

RunResult RunAudit(const std::string& workload, std::uint64_t seed, double seconds, bool trace,
                   const std::string& scratch) {
  RunResult run;
  const bool large = workload == "audit_large";
  // Time to a ready program: constructing the batch service, measured first,
  // on a fresh heap. One construction takes well under a microsecond, so
  // each sample is the mean of kAuditSetupBatch constructions, each timed
  // alone and destroyed before the next.
  std::vector<double> setups;
  for (int rep = 0; rep < kAuditSetupReps; ++rep) {
    double total = 0.0;
    for (int i = 0; i < kAuditSetupBatch; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto service = std::make_unique<CheckService>(ServiceConfig());
      total += Seconds(std::chrono::steady_clock::now() - start);
    }
    setups.push_back(total / kAuditSetupBatch);
  }
  const std::vector<CheckJobSpec> pool = large ? LargePool(seed) : SmallPool(seed);
  Verifier verifier(pool, large ? kPinnedAuditLarge : kPinnedAuditSmall, seed,
                    large ? kReferenceSampleLarge : kReferenceSampleSmall);

  Tally tally;
  SpanLog log;
  LayerTotals totals;
  MetricsRegistry registry;
  // Whole blocks only. audit_small runs blocks until --seconds have passed.
  // An audit_large job takes about a second, so a run holds only a couple
  // dozen of them: it runs a fixed number of blocks, one per
  // kLargeBlockSeconds of --seconds, so that every run (and every commit)
  // reports its tail at the same percentile.
  const auto run_start = std::chrono::steady_clock::now();
  std::uint64_t job_index = 0;
  std::uint64_t blocks = 0;
  // At least two blocks, so that even a short run has a tail (11+ jobs).
  const auto large_blocks = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::lround(seconds / kLargeBlockSeconds)));
  // A traced run runs every job twice and keeps every span, so it does half
  // the blocks of audit_large and at most kTracedJobs audit_small jobs.
  const auto next_block_fits = [&] {
    if (large) {
      return blocks < (trace ? std::max<std::uint64_t>(1, large_blocks / 2) : large_blocks);
    }
    if (trace && job_index >= kTracedJobs) {
      return false;
    }
    return blocks == 0 || Seconds(std::chrono::steady_clock::now() - run_start) < seconds;
  };
  bool done = false;
  while (!done) {
    // One pass over the pool on a fresh service: every job is a cold miss.
    ServiceConfig config;
    if (trace) {
      config.obs.metrics = &registry;
    }
    CheckService service(config);
    ResultCache traced_cache(config.cache_capacity, config.cache_shards);
    ClassMemo traced_memo(config.class_memo_capacity);
    for (std::size_t i = 0; i < pool.size(); ++i, ++job_index) {
      if (i % kBlock == 0) {
        if (!next_block_fits()) {
          done = true;
          break;
        }
        ++blocks;
      }
      ++tally.attempted;
      JobResult result;
      if (trace) {
        bool same = false;
        RunTracedPair(pool[i], job_index, &service, &traced_cache, &traced_memo, &log, &totals,
                      &result, &same);
        if (!same) {
          verifier.CountWrong(1);
        }
      } else {
        const auto start = std::chrono::steady_clock::now();
        BatchReport batch = service.RunBatch({pool[i]});
        // What `secpol batch` prints for the job is part of its cost.
        const std::string json = JobResultToJson(batch.jobs[0]).Serialize();
        const double wall_s = Seconds(std::chrono::steady_clock::now() - start);
        result = std::move(batch.jobs[0]);
        tally.busy_s += wall_s;
        tally.latency_ms.push_back(wall_s * 1000.0);
      }
      if (result.status == JobStatus::kCompleted) {
        ++tally.completed;
        tally.points += result.evaluated;
      }
      verifier.Observe(i, result.report);
    }
  }
  verifier.CheckSample();

  if (trace) {
    run.attempted = tally.attempted;
    run.failed = tally.attempted - tally.completed;
    if (large) {
      const double hits = CounterValue(registry, "cache.hits");
      const double misses = CounterValue(registry, "cache.misses");
      AddMetric(&run, "cache.hit_frac", hits + misses == 0 ? 0.0 : hits / (hits + misses),
                "frac");
      AddMetric(&run, "cache.evictions", CounterValue(registry, "cache.evictions"), "count");
      AddAbsentDaemonMetrics(&run);  // not on this workload's path
    } else {
      ServePass(seed, std::min(seconds, kServePassSeconds), scratch, &log, &totals, &registry,
                &run);
    }
    AddLayerMetrics(&run, log, totals);
    AddMetric(&run, "sweep.sweeps_per_job",
              CounterValue(registry, "sweep.sweeps") / std::max<double>(1.0, totals.jobs),
              "count");
    AddMetric(&run, "service.queue_wait_us", HistogramMean(registry, "service.queue_wait_us"),
              "us");
    WriteTrace(&run, log, scratch + "/perfbench-trace-" + workload + ".json");
  } else {
    AddEndToEnd(&run, tally, Median(setups));
  }
  run.wrong += verifier.wrong();
  for (const std::string& problem : verifier.problems()) {
    run.correct = false;
    run.notes.push_back(problem);
  }
  return run;
}

// ------------------------------------------------ the daemon pass (traced)

enum class SlotKind { kWarm, kCold, kEdit, kPing };

struct Slot {
  SlotKind kind = SlotKind::kWarm;
  std::size_t job = 0;  // index into ServeInputs::jobs (unused for pings)
  int conn = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t arrival_ns = -1;
  bool refused = false;
  bool completed = false;
  std::uint64_t evaluated = 0;
  std::string deterministic;  // digest of the result's deterministic fields
  std::string report;
};

// The job object's members that must equal batch's rendering of the same
// job: everything but the id, the wall time and the cache-hit flag.
std::string DeterministicDigest(const Json& job) {
  std::string text;
  for (const auto& [name, value] : job.Members()) {
    if (name == "id" || name == "wall_ms" || name == "from_cache") {
      continue;
    }
    text += name + "=" + value.Serialize() + "\n";
  }
  return Digest(text);
}

struct Connection {
  ServeClient client;
  std::mutex mu;  // guards pending_pings and the Slot fields readers write
  std::deque<std::size_t> pending_pings;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
};

struct Daemon {
  std::unique_ptr<CheckServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
};

ServerConfig DaemonConfig(const std::string& socket_path) {
  ServerConfig config;
  config.unix_path = socket_path;
  config.concurrency = kServeWorkers;
  config.cache_capacity = kServeCacheCapacity;
  // The generator pipelines up to a few hundred milliseconds of traffic per
  // connection; the quota must not refuse a well-behaved open loop.
  config.quotas.max_inflight_per_client = 1024;
  return config;
}

// Starts the daemon, connects, and primes the hot set and the class-mode
// bases the edited resubmissions reuse. Returns the daemon or an error.
Result<Daemon> StartDaemon(const std::string& socket_path, const ServeInputs& in,
                           std::vector<Json>* primed) {
  Daemon daemon;
  daemon.server = std::make_unique<CheckServer>(DaemonConfig(socket_path));
  if (Result<bool> started = daemon.server->Start(); !started.ok()) {
    return started.error();
  }
  for (int c = 0; c < kServeConnections; ++c) {
    Result<ServeClient> client = ServeClient::ConnectUnixPath(socket_path);
    if (!client.ok()) {
      return client.error();
    }
    auto conn = std::make_unique<Connection>();
    conn->client = std::move(client).value();
    daemon.conns.push_back(std::move(conn));
  }
  primed->clear();
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    if (i >= in.cold_begin && (i < in.base_begin || i >= in.edit_begin)) {
      continue;  // cold jobs and edits stay cold
    }
    Result<Json> terminal = daemon.conns[0]->client.SubmitJob(CheckJobSpecToJson(in.jobs[i]));
    if (!terminal.ok()) {
      return terminal.error();
    }
    primed->push_back(std::move(terminal).value());
  }
  return daemon;
}

void StopDaemon(Daemon* daemon) {
  for (auto& conn : daemon->conns) {
    conn->client.fd().ShutdownBoth();
  }
  daemon->conns.clear();
  if (daemon->server != nullptr) {
    daemon->server->Shutdown();
    daemon->server.reset();
  }
}

// The daemon pass of audit_small's traced run: the open loop for `seconds`,
// then every distinct job it sent split into layers on `log`. Adds the
// daemon, result-cache and load-generator metrics to `run`.
void ServePass(std::uint64_t seed, double seconds, const std::string& scratch, SpanLog* log,
               LayerTotals* totals, MetricsRegistry* registry, RunResult* run) {
  const ServeInputs in = ServePool(seed);
  Verifier verifier(in.jobs, kPinnedDaemonPass, seed, kReferenceSampleServe);
  const std::string socket_path =
      scratch + "/perfbench-" + std::to_string(static_cast<long>(getpid())) + ".sock";

  std::vector<Json> primed;
  Result<Daemon> started = StartDaemon(socket_path, in, &primed);
  if (!started.ok()) {
    run->correct = false;
    run->notes.push_back("daemon set-up failed: " + started.error().message);
    ::unlink(socket_path.c_str());
    AddMetric(run, "cache.hit_frac", 0.0, "frac");
    AddMetric(run, "cache.evictions", 0.0, "count");
    AddAbsentDaemonMetrics(run);
    return;
  }
  Daemon daemon = std::move(started).value();

  // The open loop's schedule: one slot every 1/rate seconds.
  const std::size_t num_slots =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds * kServeRatePerSec));
  std::vector<Slot> slots(num_slots);
  {
    Rng rng(Mix(seed, 50, 0));
    std::size_t cold = 0;
    std::size_t edit = 0;
    for (std::size_t k = 0; k < num_slots; ++k) {
      Slot& slot = slots[k];
      slot.conn = static_cast<int>(k % kServeConnections);
      const int roll = static_cast<int>(rng.NextBelow(1000));
      if (roll < kPingPerMille) {
        slot.kind = SlotKind::kPing;
      } else if (roll < kPingPerMille + kEditPerMille) {
        slot.kind = SlotKind::kEdit;
        slot.job = in.edit_begin + edit++ % kServeEdits;
      } else if (roll < kPingPerMille + kEditPerMille + kColdPerMille) {
        slot.kind = SlotKind::kCold;
        slot.job = in.cold_begin + cold++ % kServeCold;
      } else {
        slot.kind = SlotKind::kWarm;
        slot.job = rng.NextBelow(kServeHot);
      }
    }
  }

  MetricsRegistry& metrics = daemon.server->metrics();
  const double hits_before = CounterValue(metrics, "cache.hits");
  const double misses_before = CounterValue(metrics, "cache.misses");
  const double evictions_before = CounterValue(metrics, "cache.evictions");

  std::mutex log_mu;  // the sender and both readers record frame spans
  const auto record = [&](const char* name, std::uint64_t slot, std::int64_t start_ns) {
    if (slot < kTracedSlots) {
      std::lock_guard<std::mutex> lock(log_mu);
      log->Add(name, kServeSpanBase + slot, start_ns);
    }
  };
  const auto log_now = [&] {
    std::lock_guard<std::mutex> lock(log_mu);
    return log->NowNs();
  };

  std::atomic<bool> reader_error{false};
  const auto reader = [&](int c) {
    Connection& conn = *daemon.conns[static_cast<std::size_t>(c)];
    while (true) {
      std::string payload;
      std::string error;
      const FrameReadStatus status =
          ReadFrameText(conn.client.fd().get(), kFrameAbsoluteMaxBytes, &payload, &error);
      const std::int64_t arrival = SteadyNs();
      if (status != FrameReadStatus::kFrame) {
        return;  // closed by the main thread after the drain, or broken
      }
      const std::int64_t decode_start = log_now();
      Result<Json> frame = Json::Parse(payload);
      const Json* type = frame.ok() ? frame.value().Find("type") : nullptr;
      if (type == nullptr || !type->is_string()) {
        reader_error = true;
        continue;
      }
      std::size_t k = num_slots;
      if (type->AsString() == "pong") {
        std::lock_guard<std::mutex> lock(conn.mu);
        if (!conn.pending_pings.empty()) {
          k = conn.pending_pings.front();
          conn.pending_pings.pop_front();
        }
      } else if (const Json* id = frame.value().Find("id"); id != nullptr && id->is_string()) {
        k = static_cast<std::size_t>(std::strtoull(id->AsString().c_str() + 1, nullptr, 10));
      }
      if (k >= num_slots) {
        reader_error = true;
        continue;
      }
      record("frame.decode", k, decode_start);
      if (type->AsString() == "accepted") {
        continue;  // not terminal
      }
      std::lock_guard<std::mutex> lock(conn.mu);
      Slot& slot = slots[k];
      slot.arrival_ns = arrival;
      if (type->AsString() == "result") {
        const Json* job = frame.value().Find("job");
        const Json* status_name = job != nullptr ? job->Find("status") : nullptr;
        const Json* evaluated = job != nullptr ? job->Find("evaluated") : nullptr;
        const Json* report = job != nullptr ? job->Find("report") : nullptr;
        slot.completed = status_name != nullptr && status_name->is_string() &&
                         status_name->AsString() == JobStatusName(JobStatus::kCompleted);
        slot.evaluated = evaluated != nullptr && evaluated->is_int()
                             ? static_cast<std::uint64_t>(evaluated->AsInt())
                             : 0;
        slot.report = report != nullptr && report->is_string() ? report->AsString() : "";
        slot.deterministic = job != nullptr ? DeterministicDigest(*job) : "";
      } else if (type->AsString() == "pong") {
        slot.completed = true;
      } else {
        slot.refused = true;
      }
      conn.answered.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int c = 0; c < kServeConnections; ++c) {
    readers.emplace_back(reader, c);
  }

  // The generator: sends each slot at its due time, whatever is in flight.
  const std::int64_t t0 = SteadyNs() + 1'000'000;
  const auto interval_ns = static_cast<std::int64_t>(1e9 / kServeRatePerSec);
  bool send_failed = false;
  for (std::size_t k = 0; k < num_slots; ++k) {
    Slot& slot = slots[k];
    slot.due_ns = t0 + static_cast<std::int64_t>(k) * interval_ns;
    // Sleep to shortly before the due time, then spin: a sleeping thread on
    // a VM wakes up to a few hundred microseconds late.
    const std::int64_t wait_ns = slot.due_ns - kSpinNs - SteadyNs();
    if (wait_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
    }
    while (SteadyNs() < slot.due_ns) {
    }
    Connection& conn = *daemon.conns[static_cast<std::size_t>(slot.conn)];
    const std::int64_t encode_start = log_now();
    Json request = Json::MakeObject();
    if (slot.kind == SlotKind::kPing) {
      request.Set("type", Json::MakeString("ping"));
    } else {
      CheckJobSpec spec = in.jobs[slot.job];
      spec.id = "s" + std::to_string(k);
      request.Set("type", Json::MakeString("submit"));
      request.Set("job", CheckJobSpecToJson(spec));
    }
    const std::string bytes = EncodeFrame(request);
    record("frame.encode", k, encode_start);
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      slot.sent_ns = SteadyNs();
      if (slot.kind == SlotKind::kPing) {
        conn.pending_pings.push_back(k);
      }
    }
    std::string error;
    if (!SendAll(conn.client.fd().get(), bytes.data(), bytes.size(), &error)) {
      send_failed = true;
      break;
    }
    conn.sent.fetch_add(1);
  }

  // Drain: wait for every answer, then close the connections.
  const auto drain_start = std::chrono::steady_clock::now();
  const auto all_answered = [&] {
    for (const auto& conn : daemon.conns) {
      if (conn->answered.load() < conn->sent.load()) {
        return false;
      }
    }
    return true;
  };
  while (!all_answered() &&
         Seconds(std::chrono::steady_clock::now() - drain_start) < kServeDrainSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double hits = CounterValue(metrics, "cache.hits") - hits_before;
  const double misses = CounterValue(metrics, "cache.misses") - misses_before;
  const double evictions = CounterValue(metrics, "cache.evictions") - evictions_before;
  for (auto& conn : daemon.conns) {
    conn->client.fd().ShutdownBoth();
  }
  for (std::thread& thread : readers) {
    thread.join();
  }
  StopDaemon(&daemon);
  ::unlink(socket_path.c_str());

  // Batch's rendering of every distinct job the pass used (and the primed
  // ones), computed after the open loop, with each job also split into
  // layers.
  std::vector<bool> used(in.jobs.size(), false);
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    used[i] = i < in.cold_begin || (i >= in.base_begin && i < in.edit_begin);
  }
  for (const Slot& slot : slots) {
    if (slot.kind != SlotKind::kPing) {
      used[slot.job] = true;
    }
  }
  std::vector<std::string> expected(in.jobs.size());
  {
    ServiceConfig config;
    config.cache_capacity = kServeCacheCapacity;
    config.obs.metrics = registry;
    CheckService service(config);
    ResultCache traced_cache(config.cache_capacity, config.cache_shards);
    ClassMemo traced_memo(config.class_memo_capacity);
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
      if (!used[i]) {
        continue;
      }
      JobResult result;
      bool same = false;
      RunTracedPair(in.jobs[i], kServeSpanBase + i, &service, &traced_cache, &traced_memo, log,
                    totals, &result, &same);
      if (!same) {
        verifier.CountWrong(1);
      }
      expected[i] = DeterministicDigest(JobResultToJson(result));
      verifier.Observe(i, result.report);
    }
  }
  for (const Json& frame : primed) {
    const Json* job = frame.Find("job");
    const Json* id = job != nullptr ? job->Find("id") : nullptr;
    const auto found = std::find_if(in.jobs.begin(), in.jobs.end(), [&](const CheckJobSpec& s) {
      return id != nullptr && id->is_string() && s.id == id->AsString();
    });
    if (found == in.jobs.end() ||
        DeterministicDigest(*job) != expected[static_cast<std::size_t>(found - in.jobs.begin())]) {
      verifier.CountWrong(1);
    }
  }

  // Open-loop accounting: each job is timed from its due time.
  Tally tally;
  std::vector<double> late_ms;
  std::vector<double> warm_us;
  std::vector<double> ping_us;
  std::uint64_t sent = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::int64_t last_arrival = t0;
  for (std::size_t k = 0; k < num_slots; ++k) {
    const Slot& slot = slots[k];
    if (slot.sent_ns >= 0) {
      ++sent;
      late_ms.push_back(static_cast<double>(slot.sent_ns - slot.due_ns) / 1e6);
    }
    if (slot.arrival_ns >= 0) {
      last_arrival = std::max(last_arrival, slot.arrival_ns);
    }
    if (slot.kind == SlotKind::kPing) {
      if (slot.arrival_ns >= 0) {
        ping_us.push_back(static_cast<double>(slot.arrival_ns - slot.sent_ns) / 1e3);
      }
      continue;
    }
    ++tally.attempted;
    if (slot.refused) {
      ++refused;
      continue;
    }
    if (slot.arrival_ns < 0) {
      ++lost;
      continue;
    }
    if (!slot.completed) {
      continue;
    }
    ++tally.completed;
    tally.points += slot.evaluated;
    tally.latency_ms.push_back(static_cast<double>(slot.arrival_ns - slot.due_ns) / 1e6);
    if (slot.kind == SlotKind::kWarm) {
      warm_us.push_back(static_cast<double>(slot.arrival_ns - slot.sent_ns) / 1e3);
    }
    verifier.Observe(slot.job, slot.report);
    if (slot.deterministic != expected[slot.job]) {
      verifier.CountWrong(1);
    }
  }
  tally.busy_s = static_cast<double>(last_arrival - t0) / 1e9;
  verifier.CheckSample();

  const Tail tail = TailOf(tally.latency_ms);
  run->notes.push_back(
      "daemon pass: offered " + Fixed(kServeRatePerSec, 0) + "/s for " + Fixed(seconds, 1) +
      " s, sent " + std::to_string(sent) + " of " + std::to_string(num_slots) +
      " slots, jobs succeeded " + std::to_string(tally.completed) + ", refused " +
      std::to_string(refused) + ", lost " + std::to_string(lost) + "; job p50 " +
      Fixed(Median(tally.latency_ms), 3) + " ms, p" + Fixed(tail.percentile, 3) + " " +
      Fixed(tail.value, 3) + " ms (from due time)");
  if (send_failed || reader_error) {
    run->correct = false;
    run->notes.push_back("transport error during the open loop");
  }
  run->attempted += tally.attempted;
  run->failed += tally.attempted - tally.completed;
  AddMetric(run, "cache.hit_frac", hits + misses == 0 ? 0.0 : hits / (hits + misses), "frac");
  AddMetric(run, "cache.evictions", evictions, "count");
  AddMetric(run, "server.ping_us", Median(ping_us), "us");
  AddMetric(run, "server.submit_warm_us", Median(warm_us), "us");
  const auto per_frame_us = [&](const char* span) {
    const std::uint64_t count = log->Count(span);
    return count == 0 ? 0.0
                      : static_cast<double>(log->TotalNs(span)) / 1000.0 /
                            static_cast<double>(count);
  };
  AddMetric(run, "server.frame_encode_us", per_frame_us("frame.encode"), "us");
  AddMetric(run, "server.frame_decode_us", per_frame_us("frame.decode"), "us");
  std::vector<double> late_sorted = late_ms;
  std::sort(late_sorted.begin(), late_sorted.end());
  AddMetric(run, "loadgen.late_p99_ms",
            late_sorted.empty() ? 0.0
                                : late_sorted[static_cast<std::size_t>(
                                      0.99 * static_cast<double>(late_sorted.size() - 1))],
            "ms");
  AddMetric(run, "loadgen.sent", static_cast<double>(sent), "count");
  run->wrong += verifier.wrong();
  for (const std::string& problem : verifier.problems()) {
    run->correct = false;
    run->notes.push_back(problem);
  }
}

// ---------------------------------------------------------------- pin mode

void PrintPinned(const char* name, const std::vector<CheckJobSpec>& pool) {
  std::printf("inline const std::vector<const char*> %s = {\n", name);
  for (const CheckJobSpec& spec : pool) {
    std::printf("    \"%s\",\n", Digest(ReferenceRun(spec).report).c_str());
  }
  std::printf("};\n");
}

int Pin() {
  std::printf(
      "// Report digests of the default seed's job pools, taken in the reference\n"
      "// configuration (interpreted, point, 1 thread). Generated; regenerate with\n"
      "//   .bench_build/perfbench --pin > perfbench/pinned_digests.inc\n"
      "// after any change to the pools or to report bytes.\n");
  PrintPinned("kPinnedAuditSmall", SmallPool(kDefaultSeed));
  PrintPinned("kPinnedAuditLarge", LargePool(kDefaultSeed));
  PrintPinned("kPinnedDaemonPass", ServePool(kDefaultSeed).jobs);
  return 0;
}

// ------------------------------------------------------------------- main

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <audit_small|audit_large> "
               "--seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin\n",
               message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      return Pin();
    }
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage("bad number for " + flag + ": " + value);
    }
  }
  if (!(seconds > 0.0) || seconds > 3600.0) {
    return Usage("--seconds must be in (0, 3600]");
  }
  const std::string scratch = EnvOr("PERFBENCH_SCRATCH", ".");

  RunResult run;
  if (workload == "audit_small" || workload == "audit_large") {
    run = RunAudit(workload, seed, seconds, trace, scratch);
  } else {
    return Usage("unknown workload '" + workload + "'");
  }

  Json stamp = Json::MakeObject();
  stamp.Set("workload", Json::MakeString(workload));
  stamp.Set("seed", Json::MakeInt(static_cast<std::int64_t>(seed)));
  stamp.Set("seconds", Json::MakeDouble(seconds));
  stamp.Set("trace", Json::MakeBool(trace));
  stamp.Set("nproc", Json::MakeInt(Nproc()));
  stamp.Set("compiler", Json::MakeString(PERFBENCH_COMPILER));
  stamp.Set("build_type", Json::MakeString(PERFBENCH_BUILD_TYPE));
  stamp.Set("commit", Json::MakeString(EnvOr("PERFBENCH_COMMIT", "none")));
  stamp.Set("source_digest", Json::MakeString(EnvOr("PERFBENCH_SOURCE_DIGEST", "none")));
  std::printf("# host %s\n", stamp.Serialize().c_str());
  for (const std::string& note : run.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# wrong_reports %llu\n", static_cast<unsigned long long>(run.wrong));
  for (const Metric& metric : run.metrics) {
    std::printf("# %-26s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  Json metrics = Json::MakeObject();
  for (const Metric& metric : run.metrics) {
    Json entry = Json::MakeObject();
    entry.Set("value", Json::MakeDouble(metric.value));
    entry.Set("unit", Json::MakeString(metric.unit));
    metrics.Set(metric.name, std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("correct", Json::MakeBool(run.correct && run.wrong == 0 && run.failed == 0));
  result.Set("attempted", Json::MakeInt(static_cast<std::int64_t>(run.attempted)));
  result.Set("failed", Json::MakeInt(static_cast<std::int64_t>(run.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Serialize().c_str());
  return 0;
}

}  // namespace
}  // namespace secpol::perfbench

int main(int argc, char** argv) { return secpol::perfbench::Main(argc, argv); }
