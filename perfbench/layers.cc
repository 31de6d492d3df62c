#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>

#include "src/channels/timing.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/mechanism/check_options.h"
#include "src/mechanism/completeness.h"
#include "src/mechanism/integrity.h"
#include "src/mechanism/maximal.h"
#include "src/mechanism/outcome_table.h"
#include "src/mechanism/policy_compare.h"
#include "src/mechanism/soundness.h"
#include "src/service/manifest.h"

namespace secpol::perfbench {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Opens at construction, records into the log at destruction.
class ScopedLayer {
 public:
  ScopedLayer(SpanLog* log, const char* name, std::uint64_t job)
      : log_(log), name_(name), job_(job), start_ns_(log->NowNs()) {}
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;
  ~ScopedLayer() { log_->Add(name_, job_, start_ns_); }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t job_;
  std::int64_t start_ns_;
};

// The section header job.cc puts above every checker report.
std::string Header(const std::string& subject, const std::string& relation,
                   const std::string& object, const InputDomain& domain,
                   std::optional<Observability> obs) {
  std::string out = subject + " " + relation + " " + object + " over " + domain.ToString();
  if (obs.has_value()) {
    out += " [" + std::string(ObservabilityName(*obs)) + "]";
  }
  out += ":\n";
  return out;
}

// Exit code of one section, as the standalone job would report it.
int SectionExit(const CheckProgress& progress, bool clean_verdict, bool witness) {
  switch (progress.status) {
    case CheckStatus::kCompleted:
      return clean_verdict ? 0 : 2;
    case CheckStatus::kDeadlineExceeded:
      return witness ? 2 : 3;
    case CheckStatus::kAborted:
      return 4;
  }
  return 4;
}

}  // namespace

SpanLog::SpanLog() : epoch_ns_(SteadyNs()) {}

std::int64_t SpanLog::NowNs() const { return SteadyNs() - epoch_ns_; }

void SpanLog::Add(const char* name, std::uint64_t job, std::int64_t start_ns) {
  spans_.push_back(Span{name, job, start_ns, NowNs() - start_ns});
}

std::int64_t SpanLog::TotalNs(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.dur_ns;
    }
  }
  return total;
}

std::uint64_t SpanLog::Count(const std::string& name) const {
  return static_cast<std::uint64_t>(std::count_if(
      spans_.begin(), spans_.end(), [&name](const Span& span) { return name == span.name; }));
}

std::string SpanLog::ToChromeTrace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    Json event = Json::MakeObject();
    event.Set("name", Json::MakeString(span.name));
    event.Set("cat", Json::MakeString("perfbench"));
    event.Set("ph", Json::MakeString("X"));
    event.Set("ts", Json::MakeDouble(static_cast<double>(span.start_ns) / 1000.0));
    event.Set("dur", Json::MakeDouble(static_cast<double>(span.dur_ns) / 1000.0));
    event.Set("pid", Json::MakeInt(1));
    event.Set("tid", Json::MakeInt(1));
    Json args = Json::MakeObject();
    args.Set("job", Json::MakeInt(static_cast<std::int64_t>(span.job)));
    event.Set("args", std::move(args));
    out += event.Serialize();
  }
  out += "\n]}\n";
  return out;
}

TracedJob RunTracedAuditJob(const CheckJobSpec& spec, std::uint64_t job_index, ResultCache* cache,
                            ClassMemo* memo, SpanLog* log, std::string* json_out) {
  ScopedLayer job_span(log, "job", job_index);
  TracedJob traced;
  JobResult& result = traced.result;
  result.id = spec.id;

  // PrepareJob: parse, lower, validate (which compiles both mechanisms once
  // and discards them), and the cache key.
  Result<SourceProgram> parsed = [&] {
    ScopedLayer span(log, "flowlang.parse", job_index);
    return ParseProgram(spec.program_text);
  }();
  if (!parsed.ok()) {
    result.status = JobStatus::kInvalid;
    result.error = parsed.error().ToString();
    return traced;
  }
  const Program program = [&] {
    ScopedLayer span(log, "flowlang.lower", job_index);
    return Lower(parsed.value());
  }();
  const int num_inputs = program.num_inputs();
  if (!ValidateThreads(spec.num_threads).ok()) {
    result.status = JobStatus::kInvalid;
    return traced;
  }
  const auto compile = [&](const std::string& kind) {
    ScopedLayer span(log, "surveillance.compile", job_index);
    std::string error;
    std::shared_ptr<const ProtectionMechanism> mechanism =
        MakeMechanismKind(kind, program, spec.allow, spec.exec_mode, &error);
    return mechanism;
  };
  if (compile(spec.mechanism) == nullptr || compile(spec.mechanism2) == nullptr) {
    result.status = JobStatus::kInvalid;
    return traced;
  }
  const InputDomain domain = InputDomain::Range(num_inputs, spec.grid_lo, spec.grid_hi);
  const Fingerprint key = [&] {
    ScopedLayer span(log, "fingerprint.key", job_index);
    return JobCacheKey(spec, program, domain);
  }();
  result.cache_key = key.ToHex();
  result.total = domain.size();

  std::optional<CachedResult> hit;
  {
    ScopedLayer span(log, "cache.lookup", job_index);
    hit = cache->Lookup(key);
  }
  if (hit.has_value()) {
    result.status = JobStatus::kCompleted;
    result.from_cache = true;
    result.report = std::move(hit->report);
    result.exit_code = hit->exit_code;
    result.evaluated = hit->evaluated;
    result.total = hit->total;
  } else {
    // RunPreparedJob's audit branch and CheckAll's shared-table path.
    CheckOptions options;
    options.num_threads = spec.num_threads;
    const Observability obs =
        spec.observe_time ? Observability::kValueAndTime : Observability::kValueOnly;
    const std::shared_ptr<const ProtectionMechanism> mechanism = compile(spec.mechanism);
    const AllowPolicy policy(num_inputs, spec.allow);

    ClassPartition partition;
    ProgramDigestTree digest_tree;
    ClassSweepContext class_ctx;
    if (spec.sweep_mode == "class") {
      {
        ScopedLayer span(log, "classes.partition", job_index);
        partition = BuildClassPartition(domain, policy);
      }
      if (!partition.empty()) {
        ScopedLayer span(log, "fingerprint.digest", job_index);
        digest_tree = program.DigestTree();
        class_ctx.partition = &partition;
        class_ctx.program_tree = &digest_tree;
        class_ctx.stats = &traced.class_stats;
        class_ctx.memo = memo;
        class_ctx.memo_context = ClassMemoContextKey(spec, program, domain, spec.mechanism);
        class_ctx.memo_context2 = ClassMemoContextKey(spec, program, domain, spec.mechanism2);
        traced.class_mode = true;
      }
    }

    const auto start = std::chrono::steady_clock::now();
    const std::shared_ptr<const ProtectionMechanism> second = compile(spec.mechanism2);
    const AllowPolicy policy2(num_inputs, spec.allow2);
    OutcomeTableSources sources;
    sources.mechanism = mechanism.get();
    sources.mechanism2 = second.get();
    sources.policy = &policy;
    sources.policy2 = &policy2;
    std::optional<OutcomeTable> held;
    {
      ScopedLayer span(log, "tabulate", job_index);
      held.emplace(traced.class_mode
                       ? BuildOutcomeTableWithClasses(sources, domain, class_ctx, options)
                       : BuildOutcomeTable(sources, domain, options));
    }
    const OutcomeTable& table = *held;
    result.evaluated = table.build().evaluated;
    if (!table.complete()) {
      // The workloads never set deadlines or faults; an incomplete table is
      // a failed job, not a fail-closed report worth rendering.
      result.status = JobStatus::kAborted;
      result.exit_code = 4;
      return traced;
    }
    const auto reduce = [&](const char* name, auto&& reducer) {
      ScopedLayer span(log, name, job_index);
      return reducer();
    };
    const SoundnessReport soundness =
        reduce("reduce.soundness", [&] { return CheckSoundness(table, obs, options); });
    const IntegrityReport integrity = reduce(
        "reduce.integrity", [&] { return CheckInformationPreservation(table, obs, options); });
    const CompletenessStats completeness =
        reduce("reduce.completeness", [&] { return CompareCompleteness(table, options); });
    MaximalSynthesis maximal =
        reduce("reduce.maximal", [&] { return SynthesizeMaximalMechanism(table, obs, options); });
    const PolicyCompareReport policy_compare = reduce(
        "reduce.policy_compare", [&] { return ComparePolicyDisclosure(table, options); });
    const LeakReport leak = reduce("reduce.leak", [&] { return MeasureLeak(table, obs, options); });

    {
      ScopedLayer span(log, "service.render", job_index);
      result.report =
          Header(mechanism->name(), "for", policy.name(), domain, obs) + soundness.ToString() +
          "\n" + Header(mechanism->name(), "preserving", policy.name(), domain, obs) +
          integrity.ToString() + "\n" +
          Header(mechanism->name(), "vs", second->name(), domain, std::nullopt) +
          completeness.ToString() + "\n" + Header("maximal", "for", policy.name(), domain, obs) +
          RenderMaximalReport(maximal) + "\n" +
          Header(policy.name(), "reveals-at-most", policy2.name(), domain, std::nullopt) +
          policy_compare.ToString() + "\n" +
          Header(mechanism->name(), "for", policy.name(), domain, obs) + leak.ToString() + "\n";
    }
    // Freeing the grid-sized table and the synthesized mechanism is part of
    // those layers' cost.
    {
      ScopedLayer span(log, "tabulate.free", job_index);
      held.reset();
    }
    {
      ScopedLayer span(log, "reduce.maximal.free", job_index);
      maximal.mechanism.reset();
    }
    const bool leaky = leak.leaky_classes > 0;
    bool completed = true;
    for (const CheckProgress* progress : std::initializer_list<const CheckProgress*>{
             &soundness.progress, &integrity.progress, &completeness.progress,
             &maximal.progress, &policy_compare.progress, &leak.progress}) {
      completed = completed && progress->complete();
    }
    result.status = completed ? JobStatus::kCompleted : JobStatus::kAborted;
    result.exit_code = std::max(
        {SectionExit(soundness.progress, soundness.sound, soundness.counterexample.has_value()),
         SectionExit(integrity.progress, integrity.preserved,
                     integrity.counterexample.has_value()),
         SectionExit(completeness.progress, true, false),
         SectionExit(maximal.progress, true, false),
         SectionExit(policy_compare.progress, policy_compare.reveals_at_most,
                     policy_compare.violation_found),
         SectionExit(leak.progress, !leaky, leaky)});
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (result.status == JobStatus::kCompleted) {
      ScopedLayer span(log, "cache.insert", job_index);
      CachedResult value;
      value.report = result.report;
      value.exit_code = result.exit_code;
      value.evaluated = result.evaluated;
      value.total = result.total;
      cache->Insert(key, std::move(value));
    }
  }
  {
    ScopedLayer span(log, "service.render", job_index);
    *json_out = JobResultToJson(result).Serialize();
  }
  return traced;
}

}  // namespace secpol::perfbench
