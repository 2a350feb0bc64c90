// The traced replay.  Spans are recorded here, in the benchmark, around
// calls into each module's public functions; nothing inside the program
// is instrumented.  TracedService mirrors Service::dispatch for the verbs
// the workloads send, calling the same layer functions with the same
// arguments, so its span times split one request's handler time by layer.
// The untraced Service::handle_line time of the same line is the yardstick:
// trace.coverage.<verb> = time inside layer spans / handle_line time, and
// trace.overhead = traced / untraced handler p50.
#include "trace.h"

#include <algorithm>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "core/expected_rank.h"
#include "core/matrome.h"
#include "core/selectors/selector.h"
#include "exp/metrics.h"
#include "graph/isp_topology.h"
#include "infer/inference.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/workload_cache.h"
#include "tomo/localization.h"

namespace svcbench {
namespace {

using rnt::service::CachedWorkload;
using rnt::service::Request;
using rnt::service::Response;
using rnt::service::WorkloadKey;
using rnt::util::Json;

const std::vector<std::string> kVerbs = {
    "select", "er-eval", "identifiability", "localize", "localize-node",
    "infer",  "feed",    "replan",          "stats",    "ping"};

/// Selector spans: the algorithms under the default optimizer, and the
/// eager optimizer (analytics-campaign's reference selections) on its own,
/// so that each span name covers one cost mode.
const std::vector<std::string> kAlgorithms = {"prob-rome", "kernel-rome",
                                              "mat-rome", "eager"};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::size_t request = 0;
};

/// In-memory span recorder.  Spans nest by call order: a span's parent is
/// the innermost span open when it began.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Runs `f` inside a span and returns its result.
  template <typename F>
  decltype(auto) call(std::string name, F&& f) {
    Scope scope(*this, std::move(name));
    last_ = scope.id();
    return f();
  }

  void set_request(std::size_t request) { request_ = request; }
  void clear() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_.at(static_cast<std::size_t>(id)); }
  /// The span most recently opened by call().
  int last() const { return last_; }

 private:
  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), request_});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t request_ = 0;
  int last_ = -1;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---- Mirrors of the service's request plumbing ---------------------------

/// Same keys and defaults as Service's key_from().
WorkloadKey key_from(const Request& request) {
  WorkloadKey key;
  key.topology = request.get("as", "");
  key.nodes = static_cast<std::size_t>(request.get_int("nodes", 87));
  key.links = static_cast<std::size_t>(request.get_int("links", 161));
  key.candidate_paths = static_cast<std::size_t>(request.get_int("paths", 400));
  key.seed = static_cast<std::uint64_t>(request.get_int("seed", 1));
  key.intensity = request.get_double("intensity", 5.0);
  key.unit_costs = request.get_bool("unit-costs", false);
  return key;
}

/// What WorkloadCache builds for a key.
rnt::exp::Workload build_workload(const WorkloadKey& key) {
  if (!key.topology.empty()) {
    rnt::exp::WorkloadSpec spec;
    spec.topology = rnt::graph::parse_isp_topology(key.topology);
    spec.candidate_paths = key.candidate_paths;
    spec.seed = key.seed;
    spec.failure_intensity = key.intensity;
    spec.unit_costs = key.unit_costs;
    return rnt::exp::make_workload(spec);
  }
  return rnt::exp::make_custom_workload(key.nodes, key.links,
                                        key.candidate_paths, key.seed,
                                        key.intensity, key.unit_costs);
}

std::vector<std::size_t> parse_indices(const std::string& csv) {
  std::vector<std::size_t> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(std::stoul(token));
  }
  return out;
}

std::string join(const std::vector<std::size_t>& values) {
  std::string csv;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(values[i]);
  }
  return csv;
}

double total_cost(const rnt::exp::Workload& w) {
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return w.costs.subset_cost(*w.system, all);
}

// ---- The decomposed service ----------------------------------------------

/// Layer-level counters gathered while replaying.
struct LayerCounts {
  std::size_t select_gain_evals = 0;
  std::size_t replan_gain_evals = 0;
  std::vector<double> infer_iterations;
  std::vector<double> kernel_warm_us;
  std::vector<double> kernel_cold_us;
};

class TracedService {
 public:
  explicit TracedService(Tracer& tracer) : t_(tracer), cache_(8) {}

  /// Runs one request line through the layers.  Returns the selected
  /// paths (CSV) for verbs whose reply carries them, so the caller can
  /// check the decomposition against Service::handle_line.
  std::optional<std::string> handle(const std::string& line) {
    Tracer::Scope root(t_, "service.handle");
    const std::int64_t start = now_ns();
    const Request request =
        t_.call("service.protocol.parse", [&] { return rnt::service::parse_request(line); });
    std::optional<std::string> paths = dispatch(request);
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    t_.call("service.metrics.record",
            [&] { metrics_.record(request.type, true, seconds); });
    return paths;
  }

  const LayerCounts& counts() const { return counts_; }

 private:
  std::shared_ptr<const CachedWorkload> cached(const WorkloadKey& key) {
    return t_.call("service.cache.get", [&] { return cache_.get(key); });
  }

  rnt::core::Selection select(const CachedWorkload& cw, const std::string& algorithm,
                              const std::string& optimizer, double budget,
                              rnt::core::KernelMode mode) {
    const rnt::exp::Workload& w = cw.workload;
    if (algorithm == "mat-rome") {
      return t_.call("core.select.mat-rome",
                     [&] { return rnt::core::matrome(*w.system, *w.failures); });
    }
    const rnt::core::ErEngine* engine = &cw.prob_bound;
    if (algorithm == "kernel-rome") {
      engine = &t_.call("core.kernel_engine",
                        [&]() -> const rnt::core::KernelErEngine& {
                          return cw.kernel_engine(50, mode);
                        });
    } else if (algorithm != "prob-rome") {
      throw std::invalid_argument("traced replay: no decomposition for " + algorithm);
    }
    rnt::core::SelectorOptions options;
    options.seed = w.seed;
    if (optimizer == "branch-and-bound") options.bound_engine = &cw.prob_bound;
    rnt::core::SelectorStats stats;
    const std::string span =
        "core.select." + (optimizer == "rome" ? algorithm : optimizer);
    rnt::core::Selection sel = t_.call(span, [&] {
      return rnt::core::make_selector(optimizer, options)
          ->select(*w.system, w.costs, budget, *engine, &stats);
    });
    counts_.select_gain_evals += stats.gain_evaluations;
    return sel;
  }

  /// The probe subset a request names: `subset=` or a selection's output.
  std::vector<std::size_t> resolve_subset(const Request& request,
                                          const CachedWorkload& cw) {
    const std::string csv = request.get("subset", "");
    if (!csv.empty()) return parse_indices(csv);
    const double budget =
        request.get_double("budget-frac", 0.3) * total_cost(cw.workload);
    return select(cw, request.get("algorithm", "prob-rome"),
                  request.get("optimizer", "rome"), budget,
                  rnt::core::parse_kernel_mode(request.get("kernel", "auto")))
        .paths;
  }

  std::shared_ptr<rnt::service::PipelineSession> session_for(const WorkloadKey& key) {
    auto& slot = sessions_[key];
    if (!slot) {
      const auto cw = cached(key);
      slot = t_.call("online.session_create", [&] {
        return std::make_shared<rnt::service::PipelineSession>(cw);
      });
    }
    return slot;
  }

  /// Returns the selected paths (CSV) where the reply carries them.
  std::optional<std::string> dispatch(const Request& request) {
    using rnt::service::RequestType;
    switch (request.type) {
      case RequestType::kPing:
        return std::nullopt;
      case RequestType::kStats:
        t_.call("service.metrics.snapshot", [&] { return metrics_.snapshot(); });
        t_.call("service.cache.counters", [&] { return cache_.counters(); });
        return std::nullopt;
      case RequestType::kSelect: {
        const auto cw = cached(key_from(request));
        const double budget =
            request.get_double("budget-frac", 0.3) * total_cost(cw->workload);
        const rnt::core::Selection sel =
            select(*cw, request.get("algorithm", "prob-rome"),
                   request.get("optimizer", "rome"), budget,
                   rnt::core::parse_kernel_mode(request.get("kernel", "auto")));
        t_.call("tomo.rank_of", [&] { return cw->workload.system->rank_of(sel.paths); });
        return join(sel.paths);
      }
      case RequestType::kErEval:
      case RequestType::kIdentifiability: {
        const auto cw = cached(key_from(request));
        const rnt::exp::Workload& w = cw->workload;
        const std::vector<std::size_t> subset = resolve_subset(request, *cw);
        rnt::exp::EvalOptions opts;
        opts.scenarios = static_cast<std::size_t>(request.get_int("scenarios", 200));
        opts.identifiability = request.type == RequestType::kIdentifiability;
        rnt::Rng rng = w.eval_rng();
        t_.call("exp.evaluate_selection", [&] {
          return rnt::exp::evaluate_selection(*w.system, subset, *w.failures, opts, rng);
        });
        if (request.type == RequestType::kIdentifiability) return std::nullopt;
        t_.call("core.prob_bound.evaluate", [&] { return cw->prob_bound.evaluate(subset); });
        if (request.get("engine", "") == "kernel") {
          const rnt::core::KernelErEngine& engine =
              t_.call("core.kernel_engine", [&]() -> const rnt::core::KernelErEngine& {
                return cw->kernel_engine(
                    50, rnt::core::parse_kernel_mode(request.get("kernel", "auto")));
              });
          const std::size_t memo_before =
              engine.rank_memo_entries(rnt::core::KernelMode::kAuto);
          t_.call("core.kernel_evaluate", [&] { return engine.evaluate(subset); });
          const Span& s = t_.span(t_.last());
          const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
          (engine.rank_memo_entries(rnt::core::KernelMode::kAuto) > memo_before
               ? counts_.kernel_cold_us
               : counts_.kernel_warm_us)
              .push_back(us);
        }
        return std::nullopt;
      }
      case RequestType::kLocalize: {
        const auto cw = cached(key_from(request));
        const rnt::exp::Workload& w = cw->workload;
        const std::vector<std::size_t> subset = resolve_subset(request, *cw);
        const auto trials = static_cast<std::size_t>(request.get_int("scenarios", 300));
        rnt::Rng rng = w.eval_rng();
        t_.call("tomo.score_localization", [&] {
          return rnt::tomo::score_localization(*w.system, subset, *w.failures, trials, rng);
        });
        return std::nullopt;
      }
      case RequestType::kLocalizeNode: {
        const auto cw = cached(key_from(request));
        const rnt::exp::Workload& w = cw->workload;
        const std::vector<std::size_t> subset = resolve_subset(request, *cw);
        const bool links = request.get("family", "node") == "link";
        const rnt::boolnt::HypothesisSpace space = t_.call("boolnt.space", [&] {
          return links ? rnt::boolnt::HypothesisSpace::links_of(w.system->link_count())
                       : rnt::boolnt::HypothesisSpace::nodes_of(w.graph);
        });
        const auto k = static_cast<std::size_t>(request.get_int("k", 2));
        const auto trials = static_cast<std::size_t>(request.get_int("scenarios", 300));
        const auto ident_cap = static_cast<std::size_t>(request.get_int("ident-cap", 0));
        rnt::Rng rng = w.eval_rng();
        t_.call("boolnt.score", [&] {
          return rnt::boolnt::score_multi_localization(*w.system, subset, space, k,
                                                       trials, rng);
        });
        if (ident_cap > 0) {
          t_.call("boolnt.ident", [&] {
            return rnt::boolnt::identifiability_report(*w.system, subset, space,
                                                       ident_cap);
          });
        }
        return std::nullopt;
      }
      case RequestType::kInfer: {
        const auto cw = cached(key_from(request));
        const rnt::exp::Workload& w = cw->workload;
        const std::vector<std::size_t> subset = resolve_subset(request, *cw);
        rnt::infer::InferenceConfig config;
        config.model = rnt::infer::parse_measurement_model(request.get("model", "delay"));
        config.noise_std = request.get_double("noise", 0.05);
        config.scenarios = static_cast<std::size_t>(request.get_int("scenarios", 200));
        config.threads = 1;
        const rnt::infer::GroundTruth truth = t_.call("infer.campaign_truth", [&] {
          return rnt::infer::campaign_truth(config.model, w.system->link_count(),
                                            w.seed, config.truth);
        });
        const rnt::infer::InferenceReport report = t_.call("infer.run_inference", [&] {
          return rnt::infer::run_inference(*w.system, subset, *w.failures, truth,
                                           config, w.seed);
        });
        counts_.infer_iterations.push_back(report.iterations.mean());
        return std::nullopt;
      }
      case RequestType::kFeed: {
        const auto session = session_for(key_from(request));
        const rnt::tomo::PathSystem& system = *session->workload->workload.system;
        const std::vector<std::size_t> subset = parse_indices(request.get("subset", ""));
        std::vector<bool> delivered;
        for (const std::size_t flag : parse_indices(request.get("delivered", ""))) {
          delivered.push_back(flag == 1);
        }
        t_.call("online.observe", [&] {
          session->estimator.observe_epoch(system, subset, delivered);
          return session->drift.observe(session->estimator.probabilities());
        });
        return std::nullopt;
      }
      case RequestType::kReplan: {
        const auto session = session_for(key_from(request));
        const rnt::exp::Workload& w = session->workload->workload;
        const double budget = request.get_double("budget-frac", 0.3) * total_cost(w);
        const rnt::failures::FailureModel model =
            t_.call("online.model", [&] { return session->estimator.model(); });
        std::optional<rnt::core::ProbBoundEr> engine;
        {
          Tracer::Scope scope(t_, "core.prob_bound_build");
          engine.emplace(*w.system, model);
        }
        rnt::online::ReplanStats stats;
        const rnt::core::Selection sel = t_.call("online.replan", [&] {
          return session->replanner.replan(*engine, budget, &stats);
        });
        counts_.replan_gain_evals += stats.rome.gain_evaluations;
        t_.call("tomo.rank_of", [&] { return w.system->rank_of(sel.paths); });
        session->drift.rearm(session->estimator.probabilities());
        return join(sel.paths);
      }
      default:
        throw std::invalid_argument(std::string("traced replay: no decomposition for ") +
                                    rnt::service::to_verb(request.type));
    }
  }

  Tracer& t_;
  rnt::service::WorkloadCache cache_;
  rnt::service::ServiceMetrics metrics_;
  std::map<WorkloadKey, std::shared_ptr<rnt::service::PipelineSession>> sessions_;
  LayerCounts counts_;
};

// ---- Fixed probes ----------------------------------------------------------

/// Pool hop: submit_line(line, done) round trip minus the handler's own
/// time, on `ping`, with both pool threads idle.
double pool_hop_p50_us() {
  rnt::service::Service service({2, 1});
  constexpr int kRounds = 2000;
  std::vector<double> handle_us;
  std::vector<double> round_trip_us;
  for (int i = 0; i < kRounds; ++i) {
    const std::int64_t t0 = now_ns();
    service.handle_line("ping");
    handle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  for (int i = 0; i < kRounds; ++i) {
    // The pool task owns the promise: set_value may still be returning on
    // the worker after wait() has woken this thread.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    const std::int64_t t0 = now_ns();
    service.submit_line("ping", [done](Response) { done->set_value(); });
    finished.wait();
    round_trip_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return quantile(round_trip_us, 0.5) - quantile(handle_us, 0.5);
}

/// ServiceMetrics::snapshot() time after `counts` recorded requests each.
std::vector<double> metrics_snapshot_ms(const std::vector<std::size_t>& counts) {
  rnt::service::ServiceMetrics metrics;
  std::vector<double> out;
  std::size_t recorded = 0;
  for (const std::size_t target : counts) {
    for (; recorded < target; ++recorded) {
      const auto type = static_cast<rnt::service::RequestType>(recorded % 3);
      metrics.record(type, true, static_cast<double>((recorded * 7919) % 5000) * 1e-6);
    }
    const std::int64_t t0 = now_ns();
    metrics.snapshot();
    out.push_back(ms(now_ns() - t0));
  }
  return out;
}

struct CacheProbe {
  double make_workload_ms = 0.0;
  double get_miss_ms = 0.0;
  double get_hit_us = 0.0;
  double kernel_engine_build_ms = 0.0;
};

/// Cold builds and warm lookups for the workload's resident keys.
CacheProbe probe_cache(const std::vector<WorkloadKey>& keys) {
  std::vector<double> build_ms, miss_ms, hit_us, kernel_ms;
  rnt::service::WorkloadCache cache(keys.size());
  for (const WorkloadKey& key : keys) {
    std::int64_t t0 = now_ns();
    build_workload(key);
    build_ms.push_back(ms(now_ns() - t0));
    t0 = now_ns();
    const auto cw = cache.get(key);
    miss_ms.push_back(ms(now_ns() - t0));
    t0 = now_ns();
    cw->kernel_engine(50, rnt::core::KernelMode::kAuto);
    kernel_ms.push_back(ms(now_ns() - t0));
  }
  for (int round = 0; round < 200; ++round) {
    for (const WorkloadKey& key : keys) {
      const std::int64_t t0 = now_ns();
      cache.get(key);
      hit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  return {quantile(build_ms, 0.5), quantile(miss_ms, 0.5), quantile(hit_us, 0.5),
          quantile(kernel_ms, 0.5)};
}

/// Value of `key` in a `stats` reply line, 0 when absent.
double stats_field(const std::string& stats_reply, const std::string& key) {
  try {
    const Response r = rnt::service::parse_response(stats_reply);
    return r.find(key) ? r.number(key) : 0.0;
  } catch (const std::exception&) {
    return 0.0;
  }
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id\trequest\tparent\tname\tstart_ns\tend_ns\n";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.request << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
  }
}

}  // namespace

Json run_trace(const std::string& dir, const std::vector<std::string>& setup,
               const std::vector<StreamRow>& stream,
               const std::vector<ResultRow>& results, std::size_t sample) {
  // The first answered rows by stream position: the schedule order of an
  // open loop, and for a closed loop the connections' rows taken in turn.
  // Unlike the order replies happened to be sent in, this is fixed by the
  // seed, so the traced counts repeat exactly.
  std::vector<const ResultRow*> sent;
  for (const ResultRow& r : results) {
    if (r.latency_us >= 0) sent.push_back(&r);
  }
  std::sort(sent.begin(), sent.end(),
            [](const ResultRow* a, const ResultRow* b) { return a->idx < b->idx; });
  if (sent.size() > sample) sent.resize(sample);

  // Both sides start where the server started the load: setup lines done.
  rnt::service::Service untraced({1, 8});
  Tracer tracer;
  TracedService traced(tracer);
  for (const std::string& line : setup) {
    untraced.handle_line(line);
    traced.handle(line);
  }
  tracer.clear();

  std::map<std::string, std::vector<double>> handle_ms;  // By verb.
  std::map<std::string, double> handle_total_ms, covered_ms;
  std::vector<double> all_handle_ms, all_root_ms, client_ms, reply_bytes;
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::string& line = stream.at(sent[i]->idx).line;
    const std::string verb = verb_of(line);
    tracer.set_request(sent[i]->idx);
    Response reply;
    double untraced_ms = 0.0;
    std::optional<std::string> paths;
    int root = -1;
    auto run_untraced = [&] {
      const std::int64_t t0 = now_ns();
      reply = untraced.handle_line(line);
      untraced_ms = ms(now_ns() - t0);
    };
    auto run_traced = [&] {
      root = static_cast<int>(tracer.spans().size());
      paths = traced.handle(line);
    };
    // Alternate which side runs first so neither always finds the CPU
    // caches warmed by the other.
    if (i % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    if (paths && reply.find("paths") != nullptr && *reply.find("paths") != *paths) {
      ++divergent;
    }
    const std::string formatted = tracer.call(
        "service.protocol.format", [&] { return rnt::service::format_response(reply); });
    reply_bytes.push_back(static_cast<double>(formatted.size()));

    handle_ms[verb].push_back(untraced_ms);
    handle_total_ms[verb] += untraced_ms;
    all_handle_ms.push_back(untraced_ms);
    client_ms.push_back(static_cast<double>(sent[i]->latency_us) / 1e3);
    const Span& r = tracer.span(root);
    all_root_ms.push_back(ms(r.end_ns - r.start_ns));
    for (std::size_t s = static_cast<std::size_t>(root) + 1; s < tracer.spans().size(); ++s) {
      const Span& child = tracer.spans()[s];
      if (child.parent == root) covered_ms[verb] += ms(child.end_ns - child.start_ns);
    }
  }
  if (divergent > 0) {
    std::cerr << "svcbench trace: " << divergent
              << " decomposed selections differ from Service::handle_line; "
                 "the layer split no longer mirrors the service\n";
  }
  write_spans(dir + "/spans.tsv", tracer.spans());

  std::map<std::string, std::vector<double>> by_name_ms;
  for (const Span& s : tracer.spans()) by_name_ms[s.name].push_back(ms(s.end_ns - s.start_ns));
  auto p50_ms = [&](const std::string& name) {
    auto it = by_name_ms.find(name);
    return it == by_name_ms.end() ? 0.0 : quantile(it->second, 0.5);
  };

  const Json load = Json::parse(rnt::util::read_file(dir + "/load.json"));
  std::vector<double> connect_ms;
  for (const Json& v : load.at("connect_ms").items()) connect_ms.push_back(v.as_number());
  const std::string stats = load.at("final_stats").as_string();

  std::vector<WorkloadKey> keys;
  for (const std::string& line : setup) {
    const WorkloadKey key = key_from(rnt::service::parse_request(line));
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  const CacheProbe cache = probe_cache(keys);
  const std::vector<double> snapshot_ms = metrics_snapshot_ms({10'000, 1'000'000});
  const LayerCounts& counts = traced.counts();
  std::vector<double> kernel_warm = counts.kernel_warm_us;
  std::vector<double> kernel_cold = counts.kernel_cold_us;
  const double mean_bytes =
      reply_bytes.empty() ? 0.0
                          : std::accumulate(reply_bytes.begin(), reply_bytes.end(), 0.0) /
                                static_cast<double>(reply_bytes.size());
  const double iterations_mean =
      counts.infer_iterations.empty()
          ? 0.0
          : std::accumulate(counts.infer_iterations.begin(), counts.infer_iterations.end(),
                            0.0) /
                static_cast<double>(counts.infer_iterations.size());
  const double handle_p50 = quantile(all_handle_ms, 0.5);

  Json m = Json::object();
  auto put = [&m](const std::string& name, double value, const char* unit) {
    Json metric = Json::object();
    metric.set("value", Json::number(value));
    metric.set("unit", Json::string(unit));
    m.set(name, std::move(metric));
  };
  put("net.overhead_p50_ms", quantile(client_ms, 0.5) - handle_p50, "ms");
  put("net.connect_ms", quantile(connect_ms, 0.5), "ms");
  put("service.pool.hop_p50_us", pool_hop_p50_us(), "us");
  put("service.protocol.parse_us", p50_ms("service.protocol.parse") * 1e3, "us");
  put("service.protocol.format_us", p50_ms("service.protocol.format") * 1e3, "us");
  put("service.protocol.reply_bytes_mean", mean_bytes, "bytes");
  put("service.metrics.snapshot_ms_1e4", snapshot_ms[0], "ms");
  put("service.metrics.snapshot_ms_1e6", snapshot_ms[1], "ms");
  for (const std::string& verb : kVerbs) {
    put("service.handle_p50_ms." + verb, quantile(handle_ms[verb], 0.5), "ms");
  }
  put("cache.hits", stats_field(stats, "cache-hits"), "count");
  put("cache.misses", stats_field(stats, "cache-misses"), "count");
  put("cache.evictions", stats_field(stats, "cache-evictions"), "count");
  put("cache.hit_rate", stats_field(stats, "cache-hit-rate"), "ratio");
  put("cache.get_miss_ms", cache.get_miss_ms, "ms");
  put("cache.get_hit_us", cache.get_hit_us, "us");
  put("exp.make_workload_ms", cache.make_workload_ms, "ms");
  put("core.kernel_engine_build_ms", cache.kernel_engine_build_ms, "ms");
  for (const std::string& algorithm : kAlgorithms) {
    put("core.select_ms." + algorithm, p50_ms("core.select." + algorithm), "ms");
  }
  put("core.select.gain_evals", static_cast<double>(counts.select_gain_evals), "count");
  put("core.kernel_evaluate_us.warm", quantile(kernel_warm, 0.5), "us");
  put("core.kernel_evaluate_us.cold", quantile(kernel_cold, 0.5), "us");
  put("exp.evaluate_selection_ms", p50_ms("exp.evaluate_selection"), "ms");
  put("infer.run_inference_ms", p50_ms("infer.run_inference"), "ms");
  put("infer.iterations_mean", iterations_mean, "count");
  put("boolnt.score_ms", p50_ms("boolnt.score"), "ms");
  put("boolnt.ident_ms", p50_ms("boolnt.ident"), "ms");
  put("tomo.score_localization_ms", p50_ms("tomo.score_localization"), "ms");
  put("online.replan_ms", p50_ms("online.replan"), "ms");
  put("online.replan.gain_evals", static_cast<double>(counts.replan_gain_evals), "count");
  put("online.sessions", stats_field(stats, "sessions"), "count");
  for (const std::string& verb : kVerbs) {
    const double total = handle_total_ms[verb];
    put("trace.coverage." + verb, total > 0.0 ? covered_ms[verb] / total : 0.0, "ratio");
  }
  put("trace.overhead", handle_p50 > 0.0 ? quantile(all_root_ms, 0.5) / handle_p50 : 0.0, "ratio");
  put("trace.requests", static_cast<double>(sent.size()), "count");
  return m;
}

}  // namespace svcbench
