#include "service/service.h"

#include <charconv>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "core/matrome.h"
#include "core/rome.h"
#include "core/select_path.h"
#include "core/selectors/selector.h"
#include "exp/metrics.h"
#include "infer/inference.h"
#include "tomo/localization.h"

namespace rnt::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Workload parameters shared by every compute verb; defaults mirror the
/// rnt_cli commands so a service reply matches the one-shot CLI answer.
WorkloadKey key_from(const Request& request) {
  WorkloadKey key;
  key.topology = request.get("as", "");
  key.nodes = request.get_count("nodes", 87);
  key.links = request.get_count("links", 161);
  key.candidate_paths = request.get_count("paths", 400);
  key.seed = static_cast<std::uint64_t>(request.get_int("seed", 1));
  key.intensity = request.get_double("intensity", 5.0);
  key.unit_costs = request.get_bool("unit-costs", false);
  return key;
}

std::vector<std::size_t> parse_subset(const std::string& csv,
                                      std::size_t path_count) {
  std::vector<std::size_t> subset;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || stop != end || value >= path_count) {
      throw std::invalid_argument("subset: bad path index '" + token + "'");
    }
    subset.push_back(value);
  }
  if (subset.empty()) {
    throw std::invalid_argument("subset: no path indices given");
  }
  return subset;
}

/// Parses a CSV of 0/1 probe fates; must have exactly `expected` entries.
std::vector<bool> parse_flags(const std::string& csv, std::size_t expected) {
  std::vector<bool> flags;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    if (token == "1") {
      flags.push_back(true);
    } else if (token == "0") {
      flags.push_back(false);
    } else {
      throw std::invalid_argument("delivered: bad flag '" + token +
                                  "' (want 0 or 1)");
    }
  }
  if (flags.size() != expected) {
    throw std::invalid_argument(
        "delivered: got " + std::to_string(flags.size()) + " flags for " +
        std::to_string(expected) + " paths");
  }
  return flags;
}

std::string join_subset(const std::vector<std::size_t>& subset) {
  std::string csv;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(subset[i]);
  }
  return csv;
}

/// The probe subset a request talks about: an explicit `subset=` list, or
/// the output of a selection algorithm at the requested budget.
std::vector<std::size_t> resolve_subset(const Request& request,
                                        const CachedWorkload& cw) {
  const std::string explicit_subset = request.get("subset", "");
  if (!explicit_subset.empty()) {
    // Consume the selection parameters anyway so they are not "unknown".
    request.get("algorithm", "");
    request.get("optimizer", "");
    request.get("kernel", "");
    request.get_double("budget-frac", 0.3);
    return parse_subset(explicit_subset, cw.workload.system->path_count());
  }
  const std::string algorithm = request.get("algorithm", "prob-rome");
  const std::string optimizer = request.get("optimizer", "rome");
  const double budget =
      request.get_double("budget-frac", 0.3) * total_cost(cw.workload);
  const core::KernelMode kernel =
      core::parse_kernel_mode(request.get("kernel", "auto"));
  return run_algorithm(cw, algorithm, optimizer, kernel, budget).paths;
}

}  // namespace

double total_cost(const exp::Workload& w) {
  std::vector<std::size_t> all(w.system->path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return w.costs.subset_cost(*w.system, all);
}

core::Selection run_algorithm(const CachedWorkload& cw,
                              const std::string& algorithm,
                              const std::string& optimizer,
                              core::KernelMode kernel, double budget) {
  const bool registry = algorithm == "prob-rome" ||
                        algorithm == "monte-rome" ||
                        algorithm == "kernel-rome";
  if (!registry && algorithm != "select-path" && algorithm != "mat-rome") {
    throw std::invalid_argument(
        "unknown algorithm (want prob-rome, monte-rome, kernel-rome, "
        "select-path or mat-rome): " +
        algorithm);
  }
  if (!registry && optimizer != "rome") {
    throw std::invalid_argument("optimizer does not apply to " + algorithm +
                                ": it does not run through the Selector "
                                "registry");
  }
  if (kernel != core::KernelMode::kAuto && algorithm != "kernel-rome") {
    throw std::invalid_argument(
        "kernel does not apply to " + algorithm +
        ": only kernel-rome runs the bit-packed rank kernel");
  }
  const exp::Workload& w = cw.workload;
  if (algorithm == "select-path") {
    Rng rng(w.seed * 103);
    return core::select_path_budgeted(*w.system, w.costs, budget, rng);
  }
  if (algorithm == "mat-rome") return core::matrome(*w.system, *w.failures);

  const core::ErEngine* engine = &cw.prob_bound;
  std::unique_ptr<core::MonteCarloEr> monte;
  if (algorithm == "monte-rome") {
    Rng rng(w.seed * 101);
    monte = std::make_unique<core::MonteCarloEr>(*w.system, *w.failures, 50,
                                                 rng);
    engine = monte.get();
  } else if (algorithm == "kernel-rome") {
    // Same mixture and seeding as monte-rome, evaluated by the cached
    // bit-packed engine: the identical selection, shared across requests.
    engine = &cw.kernel_engine(50, kernel);
  }
  core::SelectorOptions options;
  options.seed = w.seed;
  if (optimizer == "branch-and-bound") {
    // The cached ProbBound tables double as the admissible pruning bound.
    options.bound_engine = &cw.prob_bound;
  }
  return core::make_selector(optimizer, options)
      ->select(*w.system, w.costs, budget, *engine);
}

PipelineSession::PipelineSession(std::shared_ptr<const CachedWorkload> cw)
    : workload(std::move(cw)),
      estimator(workload->workload.system->link_count()),
      drift(workload->workload.system->link_count()),
      replanner(*workload->workload.system, workload->workload.costs) {}

Service::Service(ServiceConfig config)
    : cache_(config.cache_capacity),
      pool_(config.threads) {}

std::size_t Service::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<PipelineSession> Service::session_for(const WorkloadKey& key) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(key);
    if (it != sessions_.end()) return it->second;
  }
  // Build (or fetch) the workload outside the sessions lock — a first
  // build can take seconds and must not stall unrelated sessions.
  auto cw = cache_.get(key);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto [it, inserted] = sessions_.try_emplace(key, nullptr);
  if (inserted) {
    it->second = std::make_shared<PipelineSession>(std::move(cw));
  }
  return it->second;
}

Response Service::handle(const Request& request) {
  const auto start = Clock::now();
  Response response;
  try {
    response = dispatch(request);
    request.finish();
  } catch (const std::exception& e) {
    response = Response::failure(e.what());
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  metrics_.record(request.type, response.ok, seconds);
  return response;
}

Response Service::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    return Response::failure(e.what());
  }
  return handle(request);
}

std::future<Response> Service::submit(Request request) {
  return pool_.submit(
      [this, request = std::move(request)] { return handle(request); });
}

std::future<Response> Service::submit_line(std::string line) {
  return pool_.submit(
      [this, line = std::move(line)] { return handle_line(line); });
}

void Service::submit_line(std::string line,
                          std::function<void(Response)> done) {
  pool_.submit([this, line = std::move(line), done = std::move(done)] {
    done(handle_line(line));
  });
}

Response Service::dispatch(const Request& request) {
  switch (request.type) {
    case RequestType::kPing: {
      Response r;
      r.set("pong", std::size_t{1});
      return r;
    }
    case RequestType::kShutdown: {
      // The server front end acts on the verb; in-process callers just get
      // an acknowledgement.
      Response r;
      r.set("shutting-down", std::size_t{1});
      return r;
    }
    case RequestType::kStats: {
      const ServiceMetrics::Snapshot m = metrics_.snapshot();
      const WorkloadCache::Counters c = cache_.counters();
      Response r;
      r.set("requests", m.requests);
      r.set("errors", m.errors);
      for (const auto& [verb, count] : m.by_verb) {
        r.set("count-" + verb, count);
      }
      r.set("latency-min-ms", m.latency_min_ms);
      r.set("latency-mean-ms", m.latency_mean_ms);
      r.set("latency-p50-ms", m.latency_p50_ms);
      r.set("latency-p95-ms", m.latency_p95_ms);
      r.set("latency-p99-ms", m.latency_p99_ms);
      r.set("cache-hits", c.hits);
      r.set("cache-misses", c.misses);
      r.set("cache-evictions", c.evictions);
      r.set("cache-size", c.size);
      r.set("cache-hit-rate", c.hit_rate());
      r.set("sessions", session_count());
      r.set("transport-errors", m.transport_errors);
      r.set("threads", pool_.size());
      r.set("open-connections", m.open_connections);
      r.set("queue-depth", m.queue_depth);
      r.set("shed-requests", m.shed_requests);
      r.set("shed-connections", m.shed_connections);
      r.set("idle-timeouts", m.idle_timeouts);
      r.set("pipelined-requests", m.pipelined_requests);
      r.set("infer-requests", m.infer_requests);
      r.set("infer-solve-p50-ms", m.infer_solve_p50_ms);
      r.set("infer-solve-p95-ms", m.infer_solve_p95_ms);
      return r;
    }
    case RequestType::kSelect: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::string algorithm = request.get("algorithm", "prob-rome");
      const std::string optimizer = request.get("optimizer", "rome");
      const double budget =
          request.get_double("budget-frac", 0.3) * total_cost(w);
      const core::KernelMode kernel =
          core::parse_kernel_mode(request.get("kernel", "auto"));
      const core::Selection sel =
          run_algorithm(*cw, algorithm, optimizer, kernel, budget);
      Response r;
      r.set("workload", w.topology_name);
      r.set("algorithm", algorithm);
      r.set("optimizer", optimizer);
      r.set("budget", budget);
      r.set("selected", sel.size());
      r.set("cost", sel.cost);
      r.set("objective", sel.objective);
      r.set("rank", w.system->rank_of(sel.paths));
      r.set("paths", join_subset(sel.paths));
      return r;
    }
    case RequestType::kErEval: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      exp::EvalOptions opts;
      opts.scenarios = request.get_count("scenarios", 200);
      opts.identifiability = false;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto eval =
          exp::evaluate_selection(*w.system, subset, *w.failures, opts, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("no-failure-rank", eval.no_failure_rank);
      r.set("rank-mean", eval.rank.stats.mean());
      r.set("rank-std", eval.rank.stats.stddev());
      r.set("rank-p10", eval.rank.distribution.quantile(0.1));
      r.set("prob-er", cw->prob_bound.evaluate(subset));
      if (request.get("engine", "") == "kernel") {
        // The cached bit-packed MC engine: repeated ER queries against the
        // same workload hit its mask-to-rank memo instead of eliminating.
        r.set("kernel-er",
              cw->kernel_engine(
                    50, core::parse_kernel_mode(request.get("kernel", "auto")))
                  .evaluate(subset));
      }
      return r;
    }
    case RequestType::kIdentifiability: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      exp::EvalOptions opts;
      opts.scenarios = request.get_count("scenarios", 200);
      opts.identifiability = true;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto eval =
          exp::evaluate_selection(*w.system, subset, *w.failures, opts, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("links", w.system->link_count());
      r.set("identifiable", eval.no_failure_identifiability);
      r.set("identifiable-mean", eval.identifiability.stats.mean());
      r.set("identifiable-std", eval.identifiability.stats.stddev());
      return r;
    }
    case RequestType::kFeed: {
      const auto session = session_for(key_from(request));
      // `subset=` names the probed paths (the `paths=` key is taken by the
      // workload's candidate-path count, as in every other verb).
      const std::string subset_csv = request.get("subset", "");
      Response r;
      std::lock_guard<std::mutex> lock(session->mu);
      const tomo::PathSystem& system = *session->workload->workload.system;
      bool drifted = false;
      if (subset_csv.empty()) {
        // Direct telemetry: one link observed up or down `count` times.
        if (!request.get("delivered", "").empty()) {
          throw std::invalid_argument(
              "feed: delivered= requires a subset= of probed paths");
        }
        const std::int64_t link = request.get_int("link", -1);
        if (link < 0 ||
            static_cast<std::size_t>(link) >= system.link_count()) {
          throw std::invalid_argument(
              "feed: link out of range (links=" +
              std::to_string(system.link_count()) + "): " +
              std::to_string(link));
        }
        const bool failed = request.get_bool("failed", false);
        const std::int64_t count = request.get_int("count", 1);
        if (count <= 0) {
          throw std::invalid_argument("feed: count must be positive");
        }
        session->estimator.observe_link(static_cast<std::size_t>(link),
                                        failed,
                                        static_cast<double>(count));
      } else {
        // One epoch of probe outcomes down an explicit path subset.  The
        // two feed forms are exclusive; reject a mix before any state
        // changes so a failed feed never advances the estimator.
        if (!request.get("link", "").empty() ||
            !request.get("failed", "").empty() ||
            !request.get("count", "").empty()) {
          throw std::invalid_argument(
              "feed: give subset=/delivered= or link=/failed=/count=, "
              "not both");
        }
        const std::vector<std::size_t> subset =
            parse_subset(subset_csv, system.path_count());
        const std::vector<bool> delivered =
            parse_flags(request.get("delivered", ""), subset.size());
        session->estimator.observe_epoch(system, subset, delivered);
        if (session->drift.observe(session->estimator.probabilities())) {
          ++session->drift_triggers;
          drifted = true;
        }
      }
      ++session->feeds;
      r.set("fed", std::size_t{1});
      r.set("epochs", session->estimator.epochs());
      r.set("drift", std::size_t{drifted ? 1u : 0u});
      r.set("divergence", session->drift.divergence());
      return r;
    }
    case RequestType::kReplan: {
      const auto session = session_for(key_from(request));
      const exp::Workload& w = session->workload->workload;
      const double budget =
          request.get_double("budget-frac", 0.3) * total_cost(w);
      std::lock_guard<std::mutex> lock(session->mu);
      const failures::FailureModel model = session->estimator.model();
      const core::ProbBoundEr engine(*w.system, model);
      online::ReplanStats stats;
      const core::Selection sel =
          session->replanner.replan(engine, budget, &stats);
      session->drift.rearm(session->estimator.probabilities());
      ++session->replans;
      Response r;
      r.set("workload", w.topology_name);
      r.set("budget", budget);
      r.set("selected", sel.size());
      r.set("cost", sel.cost);
      r.set("objective", sel.objective);
      r.set("rank", w.system->rank_of(sel.paths));
      r.set("paths", join_subset(sel.paths));
      r.set("warm", std::size_t{stats.warm ? 1u : 0u});
      r.set("reused", stats.reused);
      r.set("gain-evals", stats.rome.gain_evaluations);
      return r;
    }
    case RequestType::kPipelineStats: {
      const auto session = session_for(key_from(request));
      std::lock_guard<std::mutex> lock(session->mu);
      const std::vector<double> estimate =
          session->estimator.probabilities();
      double mean_estimate = 0.0;
      for (const double p : estimate) mean_estimate += p;
      if (!estimate.empty()) {
        mean_estimate /= static_cast<double>(estimate.size());
      }
      Response r;
      r.set("workload", session->workload->workload.topology_name);
      r.set("feeds", session->feeds);
      r.set("epochs", session->estimator.epochs());
      r.set("replans", session->replans);
      r.set("drift-triggers", session->drift_triggers);
      r.set("divergence", session->drift.divergence());
      r.set("mean-estimate", mean_estimate);
      r.set("selected", session->replanner.current().size());
      return r;
    }
    case RequestType::kLocalize: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::size_t trials = request.get_count("scenarios", 300);
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto score = tomo::score_localization(*w.system, subset,
                                                  *w.failures, trials, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("trials", score.trials);
      r.set("exact", score.exact);
      r.set("ambiguous", score.ambiguous);
      r.set("invisible", score.invisible);
      r.set("mean-candidates", score.mean_candidates);
      r.set("exact-fraction", score.exact_fraction());
      return r;
    }
    case RequestType::kLocalizeNode: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      const std::string family = request.get("family", "node");
      boolnt::HypothesisSpace space =
          family == "link"
              ? boolnt::HypothesisSpace::links_of(w.system->link_count())
              : boolnt::HypothesisSpace::nodes_of(w.graph);
      if (family != "node" && family != "link") {
        throw std::invalid_argument(
            "localize-node: family must be node or link");
      }
      const std::size_t k = request.get_count("k", 2);
      if (k == 0) {
        throw std::invalid_argument("localize-node: k must be positive");
      }
      const std::size_t trials = request.get_count("scenarios", 300);
      const std::size_t ident_cap = request.get_count("ident-cap", 0);
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      Rng rng = w.eval_rng();
      const auto score = boolnt::score_multi_localization(
          *w.system, subset, space, k, trials, rng);
      Response r;
      r.set("workload", w.topology_name);
      r.set("paths", subset.size());
      r.set("components", space.component_count());
      r.set("k", k);
      r.set("trials", score.trials);
      r.set("exact", score.exact);
      r.set("ambiguous", score.ambiguous);
      r.set("misled", score.misled);
      r.set("invisible", score.invisible);
      r.set("mean-candidates", score.mean_candidates);
      r.set("exact-fraction", score.exact_fraction());
      r.set("hit-fraction", score.hit_fraction());
      if (ident_cap > 0) {
        const auto report = boolnt::identifiability_report(
            *w.system, subset, space, ident_cap);
        r.set("ident-cap", report.k_cap);
        r.set("max-identifiable", report.max_identifiable);
        std::size_t min_component = report.k_cap;
        for (const std::size_t level : report.per_component) {
          min_component = std::min(min_component, level);
        }
        r.set("min-component-ident", min_component);
      }
      return r;
    }
    case RequestType::kInfer: {
      const auto cw = cache_.get(key_from(request));
      const exp::Workload& w = cw->workload;
      infer::InferenceConfig config;
      config.model =
          infer::parse_measurement_model(request.get("model", "delay"));
      config.noise_std = request.get_double("noise", 0.05);
      if (config.noise_std < 0.0) {
        throw std::invalid_argument("infer: noise must be non-negative");
      }
      config.scenarios = request.get_count("scenarios", 200);
      // One solver worker: handler concurrency already comes from the
      // request pool, and threads=1 keeps per-request latency honest.
      config.threads = 1;
      const std::vector<std::size_t> subset = resolve_subset(request, *cw);
      const infer::GroundTruth truth = infer::campaign_truth(
          config.model, w.system->link_count(), w.seed, config.truth);
      const auto solve_start = Clock::now();
      const infer::InferenceReport report = infer::run_inference(
          *w.system, subset, *w.failures, truth, config, w.seed);
      metrics_.record_infer_solve(
          std::chrono::duration<double>(Clock::now() - solve_start).count());
      Response r;
      r.set("workload", w.topology_name);
      r.set("model", infer::to_string(config.model));
      r.set("paths", subset.size());
      r.set("scenarios", report.scenarios);
      r.set("solved", report.solved);
      r.set("converged", report.converged);
      r.set("coverage-mean", report.coverage.mean());
      r.set("network-mse-mean", report.network_mse.mean());
      r.set("identifiable-mean", report.identifiable.mean());
      r.set("mse-mean", report.mse.count() > 0 ? report.mse.mean() : 0.0);
      r.set("mae-mean", report.mean_abs_error.count() > 0
                            ? report.mean_abs_error.mean()
                            : 0.0);
      r.set("residual-mean", report.residual.mean());
      r.set("iterations-mean", report.iterations.mean());
      return r;
    }
  }
  throw std::logic_error("Service::dispatch: unhandled request type");
}

std::string Service::summary() const {
  const ServiceMetrics::Snapshot m = metrics_.snapshot();
  const WorkloadCache::Counters c = cache_.counters();
  std::ostringstream out;
  out << "service summary\n";
  out << "  requests:  " << m.requests << " (" << m.errors << " errors, "
      << m.transport_errors << " transport errors)\n";
  for (const auto& [verb, count] : m.by_verb) {
    out << "    " << verb << ": " << count << "\n";
  }
  out << "  latency:   min " << m.latency_min_ms << " ms, mean "
      << m.latency_mean_ms << " ms, p50 " << m.latency_p50_ms << " ms, p95 "
      << m.latency_p95_ms << " ms, p99 " << m.latency_p99_ms << " ms\n";
  out << "  cache:     " << c.hits << " hits / " << c.misses
      << " misses (hit rate " << c.hit_rate() << "), " << c.size
      << " resident, " << c.evictions << " evictions\n";
  out << "  sessions:  " << session_count() << " adaptive\n";
  return out.str();
}

}  // namespace rnt::service
