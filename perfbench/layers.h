// Benchmark-side layer tracing of one audit job.
//
// CheckService::RunBatch runs an audit job as a fixed sequence of public
// library calls: parse, lower, mechanism compiles, cache key, cache lookup,
// (class partition), tabulation, six reducers, report rendering and cache
// insert. RunTracedAuditJob makes exactly those calls itself and wraps each
// in a span, so a job's wall time can be split by layer without
// instrumenting src/. The report it renders must equal RunBatch's byte for
// byte; the benchmark checks that on every traced job.

#ifndef SECPOL_PERFBENCH_LAYERS_H_
#define SECPOL_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mechanism/classes.h"
#include "src/service/job.h"
#include "src/service/result_cache.h"
#include "src/util/json.h"

namespace secpol::perfbench {

// steady_clock now, in nanoseconds.
std::int64_t SteadyNs();

// One closed span on the benchmark's own steady-clock timebase.
struct Span {
  const char* name;        // layer call, e.g. "tabulate", "reduce.maximal"
  std::uint64_t job;       // index of the traced job the span belongs to
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

// Spans kept in memory for the whole run and written once at the end.
class SpanLog {
 public:
  SpanLog();

  std::int64_t NowNs() const;
  void Add(const char* name, std::uint64_t job, std::int64_t start_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of spans named `name`, and their count.
  std::int64_t TotalNs(const std::string& name) const;
  std::uint64_t Count(const std::string& name) const;

  // Chrome trace-event JSON ({"traceEvents":[...]}), one "X" event per span;
  // "job" spans are the parents of the layer spans of the same job.
  std::string ToChromeTrace() const;

 private:
  std::int64_t epoch_ns_;
  std::vector<Span> spans_;
};

// What the traced job produced, beside its spans.
struct TracedJob {
  JobResult result;  // report, status, evaluated, total, cache_key, wall_ms
  // Class-mode jobs only: the class build's accounting.
  bool class_mode = false;
  ClassBuildStats class_stats;
};

// Runs one audit job through its layer calls, each wrapped in a span tagged
// `job_index`, plus one enclosing "job" span. `cache` plays the role of the
// service's result cache (looked up first; filled on a completed miss) and
// `memo` that of its class memo. The JSON rendering of the result (what
// `secpol batch` prints) is part of the render layer and is returned in
// `json_out`.
TracedJob RunTracedAuditJob(const CheckJobSpec& spec, std::uint64_t job_index, ResultCache* cache,
                            ClassMemo* memo, SpanLog* log, std::string* json_out);

}  // namespace secpol::perfbench

#endif  // SECPOL_PERFBENCH_LAYERS_H_
