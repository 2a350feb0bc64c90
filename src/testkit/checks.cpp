#include "testkit/checks.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>
#include <string_view>
#include <vector>

#include "boolnt/hypothesis.h"
#include "boolnt/identifiability.h"
#include "boolnt/localize.h"
#include "core/expected_rank.h"
#include "failures/cascade.h"
#include "failures/family.h"
#include "failures/node_failure.h"
#include "core/kernel_er.h"
#include "core/matrome.h"
#include "core/rome.h"
#include "exp/workload.h"
#include "failures/trace.h"
#include "infer/measurement.h"
#include "infer/solver.h"
#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "linalg/qr.h"
#include "linalg/slicedrank.h"
#include "linalg/sparse.h"
#include "online/replanner.h"
#include "service/protocol.h"
#include "service/workload_cache.h"
#include "core/selectors/selector.h"
#include "testkit/oracles.h"
#include "testkit/table_engine.h"
#include "util/rng.h"

namespace rnt::testkit {
namespace {

constexpr double kTol = 1e-9;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every check derives its internal randomness from the instance seed and
/// its own name, so adding or reordering checks never shifts another
/// check's stream.
Rng check_rng(const TestInstance& inst, std::string_view check_name) {
  return Rng(mix_seed(inst.check_seed, fnv1a(check_name)));
}

std::string fmt(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

/// Non-empty random subset of [0, n), ascending.
std::vector<std::size_t> random_subset(Rng& rng, std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.5)) out.push_back(i);
  }
  if (out.empty()) out.push_back(rng.index(n));
  return out;
}

std::vector<std::size_t> all_paths(const TestInstance& inst) {
  std::vector<std::size_t> out(inst.path_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

double total_cost(const TestInstance& inst) {
  double total = 0.0;
  for (const double c : inst.path_costs) total += c;
  return total;
}

}  // namespace

CheckResult run_check(const Check& check, const TestInstance& instance,
                      const FaultPlan& fault) {
  try {
    return check.fn(instance, fault);
  } catch (const std::exception& e) {
    return CheckResult::fail(std::string("unexpected exception: ") +
                             e.what());
  }
}

// --------------------------------------------------------------------------
// 1. ER is monotone and submodular (the premise of the RoMe guarantee).
// --------------------------------------------------------------------------

CheckResult check_er_monotone_submodular(const TestInstance& inst,
                                         const FaultPlan&) {
  Rng rng = check_rng(inst, "er-monotone-submodular");
  const ExhaustiveErTable table(inst);

  std::vector<std::size_t> order = all_paths(inst);
  rng.shuffle(order);
  const std::size_t x = order.back();
  order.pop_back();

  // er over the prefix chain S_0 ⊂ S_1 ⊂ ... and the marginal gain of the
  // held-out path x at each prefix.
  std::uint64_t prefix = 0;
  double prev_value = 0.0;
  double prev_gain = table.er(std::uint64_t{1} << x);
  for (std::size_t k = 0; k < order.size(); ++k) {
    prefix |= std::uint64_t{1} << order[k];
    const double value = table.er(prefix);
    if (value < prev_value - kTol) {
      return CheckResult::fail("ER not monotone: adding path " +
                               std::to_string(order[k]) + " dropped ER from " +
                               fmt(prev_value) + " to " + fmt(value));
    }
    const double gain =
        table.er(prefix | (std::uint64_t{1} << x)) - value;
    if (gain > prev_gain + kTol) {
      return CheckResult::fail(
          "ER not submodular: gain of path " + std::to_string(x) +
          " grew from " + fmt(prev_gain) + " to " + fmt(gain) +
          " on a larger prefix");
    }
    prev_value = value;
    prev_gain = gain;
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 2. ProbBound dominates ER (Eq. 6/7) and is tight on independent sets.
// --------------------------------------------------------------------------

CheckResult check_probbound_dominates_er(const TestInstance& inst,
                                         const FaultPlan& fault) {
  Rng rng = check_rng(inst, "probbound-dominates-er");
  const ExhaustiveErTable table(inst);
  const core::ProbBoundEr bound_engine(inst.system, inst.model);

  // The fault hook deflates the bound per selected path, simulating a
  // ProbBound implementation that drops a term of Eq. 6.
  const auto bound = [&](const std::vector<std::size_t>& subset) {
    return bound_engine.evaluate(subset) -
           fault.probbound_deflate * static_cast<double>(subset.size());
  };

  std::vector<std::vector<std::size_t>> subsets = {all_paths(inst)};
  for (int i = 0; i < 4; ++i) {
    subsets.push_back(random_subset(rng, inst.path_count()));
  }
  for (const auto& subset : subsets) {
    const double b = bound(subset);
    const double er = table.er(subset);
    if (b < er - kTol) {
      return CheckResult::fail("ProbBound " + fmt(b) +
                               " below exhaustive ER " + fmt(er) +
                               " on a subset of " +
                               std::to_string(subset.size()) + " paths");
    }
  }

  // Tightness: on a linearly independent set every surviving subset has
  // full rank, so ER collapses to sum of EA and the bound is exact.
  const std::vector<std::size_t> ind =
      linalg::independent_row_subset(inst.system.matrix());
  if (!ind.empty()) {
    const double b = bound(ind);
    const double er = table.er(ind);
    if (std::abs(b - er) > kTol) {
      return CheckResult::fail("ProbBound not tight on an independent set: " +
                               fmt(b) + " vs exhaustive ER " + fmt(er));
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 3. MatRoMe equals the exhaustive matroid optimum (Theorem 9).
// --------------------------------------------------------------------------

CheckResult check_matrome_optimal(const TestInstance& inst,
                                  const FaultPlan&) {
  Rng rng = check_rng(inst, "matrome-optimal");
  const std::size_t full_rank = inst.system.full_rank();
  std::vector<std::size_t> budgets = {full_rank};
  if (full_rank > 1) budgets.push_back(1 + rng.index(full_rank - 1));

  for (const std::size_t k : budgets) {
    const core::Selection sel = core::matrome(inst.system, inst.model, k);
    if (sel.paths.size() > k) {
      return CheckResult::fail("MatRoMe exceeded the path budget " +
                               std::to_string(k));
    }
    if (naive_rank(dense_rows(inst, sel.paths)) != sel.paths.size()) {
      return CheckResult::fail("MatRoMe selection is linearly dependent");
    }
    double sum_ea = 0.0;
    for (const std::size_t q : sel.paths) sum_ea += path_ea(inst, q);
    if (std::abs(sum_ea - sel.objective) > kTol) {
      return CheckResult::fail("MatRoMe objective " + fmt(sel.objective) +
                               " is not the selection's EA sum " +
                               fmt(sum_ea));
    }
    const OracleSelection opt = exhaustive_best_independent_ea(inst, k);
    if (sum_ea < opt.objective - kTol) {
      return CheckResult::fail(
          "MatRoMe suboptimal at budget " + std::to_string(k) + ": " +
          fmt(sum_ea) + " vs exhaustive optimum " + fmt(opt.objective));
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 4. evaluate_parallel is bitwise identical to serial evaluate.
// --------------------------------------------------------------------------

CheckResult check_parallel_matches_serial(const TestInstance& inst,
                                          const FaultPlan&) {
  Rng rng = check_rng(inst, "parallel-matches-serial");
  Rng mc_rng = rng.fork();
  // Odd scenario count so chunking never divides evenly.
  const core::MonteCarloEr mc(inst.system, inst.model, 33, mc_rng);
  const core::ExactEr exact(inst.system, inst.model);
  const std::vector<std::size_t> subset =
      random_subset(rng, inst.path_count());

  for (const core::ScenarioErEngine* engine :
       {static_cast<const core::ScenarioErEngine*>(&mc),
        static_cast<const core::ScenarioErEngine*>(&exact)}) {
    const double serial = engine->evaluate(subset);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{3}, std::size_t{5}}) {
      const double parallel = engine->evaluate_parallel(subset, threads);
      if (parallel != serial) {
        return CheckResult::fail(
            engine->name() + " evaluate_parallel(threads=" +
            std::to_string(threads) + ") = " + fmt(parallel) +
            " differs bitwise from serial " + fmt(serial));
      }
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 5. core::ExactEr matches the independent exhaustive oracle.
// --------------------------------------------------------------------------

CheckResult check_exact_engine_matches_oracle(const TestInstance& inst,
                                              const FaultPlan&) {
  Rng rng = check_rng(inst, "exact-engine-matches-oracle");
  const ExhaustiveErTable table(inst);
  const core::ExactEr exact(inst.system, inst.model);

  std::vector<std::vector<std::size_t>> subsets = {all_paths(inst)};
  for (int i = 0; i < 4; ++i) {
    subsets.push_back(random_subset(rng, inst.path_count()));
  }
  for (const auto& subset : subsets) {
    const double engine = exact.evaluate(subset);
    const double oracle = table.er(subset);
    if (std::abs(engine - oracle) > kTol) {
      return CheckResult::fail("ExactEr " + fmt(engine) +
                               " differs from the exhaustive oracle " +
                               fmt(oracle));
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 6. RoMe achieves the (1 - 1/sqrt(e)) guarantee against the exhaustive
//    budgeted optimum (Theorem 6 on exact ER).
// --------------------------------------------------------------------------

CheckResult check_rome_approximation(const TestInstance& inst,
                                     const FaultPlan&) {
  Rng rng = check_rng(inst, "rome-approximation");
  const double budget = rng.uniform(0.3, 0.8) * total_cost(inst);
  const core::ExactEr exact(inst.system, inst.model);
  const core::Selection sel =
      core::rome(inst.system, inst.costs, budget, exact);
  if (sel.cost > budget + kTol) {
    return CheckResult::fail("RoMe exceeded the budget: cost " +
                             fmt(sel.cost) + " vs " + fmt(budget));
  }
  const OracleSelection opt = exhaustive_best_selection(inst, budget);
  const double achieved = exact.evaluate(sel.paths);
  const double factor = 1.0 - 1.0 / std::sqrt(std::numbers::e);
  if (achieved < factor * opt.objective - kTol) {
    return CheckResult::fail("RoMe broke its guarantee: achieved " +
                             fmt(achieved) + " vs " + fmt(factor) + " * " +
                             fmt(opt.objective) + " optimum at budget " +
                             fmt(budget));
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 7. Every rank oracle in linalg agrees with naive elimination.
// --------------------------------------------------------------------------

CheckResult check_rank_oracles_agree(const TestInstance& inst,
                                     const FaultPlan&) {
  Rng rng = check_rng(inst, "rank-oracles-agree");
  std::vector<std::vector<std::size_t>> subsets = {all_paths(inst)};
  subsets.push_back(random_subset(rng, inst.path_count()));

  for (const auto& subset : subsets) {
    const std::size_t expected = naive_rank(dense_rows(inst, subset));
    const linalg::Matrix sub = inst.system.matrix().select_rows(subset);

    const auto mismatch = [&](const std::string& who, std::size_t got) {
      return CheckResult::fail(who + " rank " + std::to_string(got) +
                               " differs from naive elimination " +
                               std::to_string(expected) + " on " +
                               std::to_string(subset.size()) + " paths");
    };
    if (linalg::rank(sub) != expected) {
      return mismatch("linalg::rank", linalg::rank(sub));
    }
    if (linalg::rank_of_rows(inst.system.matrix(), subset) != expected) {
      return mismatch("linalg::rank_of_rows",
                      linalg::rank_of_rows(inst.system.matrix(), subset));
    }
    if (linalg::qr_rank(sub) != expected) {
      return mismatch("linalg::qr_rank", linalg::qr_rank(sub));
    }
    const std::size_t sparse =
        linalg::SparseMatrix::from_dense(sub).rank_via_dense();
    if (sparse != expected) return mismatch("SparseMatrix", sparse);
    if (linalg::independent_row_subset(sub).size() != expected) {
      return mismatch("independent_row_subset",
                      linalg::independent_row_subset(sub).size());
    }
    if (linalg::qr_row_basis(sub).size() != expected) {
      return mismatch("qr_row_basis", linalg::qr_row_basis(sub).size());
    }
    if (inst.system.rank_of(subset) != expected) {
      return mismatch("PathSystem::rank_of", inst.system.rank_of(subset));
    }

    // Incremental basis, rows inserted in a random order.
    std::vector<std::size_t> order = subset;
    rng.shuffle(order);
    linalg::IncrementalBasis basis(inst.link_count());
    for (const std::size_t i : order) basis.try_add(inst.system.row(i));
    if (basis.rank() != expected) {
      return mismatch("IncrementalBasis", basis.rank());
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 8. IncrementalBasis dependency tracking reconstructs dependent rows.
// --------------------------------------------------------------------------

CheckResult check_incremental_basis_reduction(const TestInstance& inst,
                                              const FaultPlan&) {
  Rng rng = check_rng(inst, "incremental-basis-reduction");
  std::vector<std::size_t> order = all_paths(inst);
  rng.shuffle(order);

  linalg::IncrementalBasis basis(inst.link_count());
  std::vector<std::vector<double>> independent_rows;
  for (const std::size_t i : order) {
    const auto row = inst.system.row(i);
    const linalg::Reduction red = basis.add_with_reduction(row);
    if (red.independent) {
      independent_rows.emplace_back(row.begin(), row.end());
      continue;
    }
    if (red.support.size() != red.coefficients.size()) {
      return CheckResult::fail(
          "Reduction support/coefficients size mismatch on path " +
          std::to_string(i));
    }
    // A dependent row must equal its reported combination of the
    // previously inserted independent rows (Eq. 6's support set R_q).
    std::vector<double> recon(inst.link_count(), 0.0);
    for (std::size_t k = 0; k < red.support.size(); ++k) {
      if (red.support[k] >= independent_rows.size()) {
        return CheckResult::fail("Reduction support index " +
                                 std::to_string(red.support[k]) +
                                 " out of range on path " +
                                 std::to_string(i));
      }
      const auto& base = independent_rows[red.support[k]];
      for (std::size_t c = 0; c < recon.size(); ++c) {
        recon[c] += red.coefficients[k] * base[c];
      }
    }
    for (std::size_t c = 0; c < recon.size(); ++c) {
      if (std::abs(recon[c] - row[c]) > 1e-6) {
        return CheckResult::fail(
            "Reduction coefficients do not reconstruct path " +
            std::to_string(i) + ": column " + std::to_string(c) +
            " off by " + fmt(recon[c] - row[c]));
      }
    }
  }
  const std::size_t expected = naive_rank(dense_rows(inst, all_paths(inst)));
  if (basis.rank() != expected) {
    return CheckResult::fail("IncrementalBasis final rank " +
                             std::to_string(basis.rank()) + " vs naive " +
                             std::to_string(expected));
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 9. Cold replanning equals core::rome; warm replanning on an unchanged
//    distribution loses nothing.
// --------------------------------------------------------------------------

CheckResult check_warm_equals_cold_replan(const TestInstance& inst,
                                          const FaultPlan&) {
  Rng rng = check_rng(inst, "warm-equals-cold-replan");
  const double budget = rng.uniform(0.3, 0.9) * total_cost(inst);
  const core::ProbBoundEr engine(inst.system, inst.model);

  online::Replanner planner(inst.system, inst.costs);
  const core::Selection cold = planner.replan(engine, budget);
  const core::Selection reference =
      core::rome(inst.system, inst.costs, budget, engine);
  if (cold.paths != reference.paths) {
    return CheckResult::fail(
        "cold replan selected a different set than core::rome (" +
        std::to_string(cold.paths.size()) + " vs " +
        std::to_string(reference.paths.size()) + " paths)");
  }
  if (std::abs(cold.objective - reference.objective) > kTol) {
    return CheckResult::fail("cold replan objective " + fmt(cold.objective) +
                             " differs from core::rome " +
                             fmt(reference.objective));
  }

  const core::Selection warm = planner.replan(engine, budget);
  if (warm.cost > budget + kTol) {
    return CheckResult::fail("warm replan exceeded the budget");
  }
  const double warm_value = engine.evaluate(warm.paths);
  const double cold_value = engine.evaluate(cold.paths);
  if (warm_value < cold_value - kTol) {
    return CheckResult::fail(
        "warm replan on an unchanged distribution lost objective: " +
        fmt(warm_value) + " vs cold " + fmt(cold_value));
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 10. The ProbBound accumulator tracks evaluate() exactly.
// --------------------------------------------------------------------------

CheckResult check_probbound_accumulator_consistent(const TestInstance& inst,
                                                   const FaultPlan&) {
  Rng rng = check_rng(inst, "probbound-accumulator-consistent");
  const core::ProbBoundEr engine(inst.system, inst.model);
  std::vector<std::size_t> order = all_paths(inst);
  rng.shuffle(order);

  const auto acc = engine.make_accumulator();
  std::vector<std::size_t> prefix;
  for (const std::size_t q : order) {
    const double before = engine.evaluate(prefix);
    prefix.push_back(q);
    const double after = engine.evaluate(prefix);
    const double gain = acc->gain(q);
    if (std::abs(gain - (after - before)) > kTol) {
      return CheckResult::fail("accumulator gain(" + std::to_string(q) +
                               ") = " + fmt(gain) + " vs evaluate delta " +
                               fmt(after - before));
    }
    acc->add(q);
    if (std::abs(acc->value() - after) > kTol) {
      return CheckResult::fail("accumulator value " + fmt(acc->value()) +
                               " diverged from evaluate() " + fmt(after) +
                               " after " + std::to_string(prefix.size()) +
                               " adds");
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 11. FailureTrace round-trips through write/read/concatenate.
// --------------------------------------------------------------------------

CheckResult check_trace_roundtrip(const TestInstance& inst,
                                  const FaultPlan&) {
  Rng rng = check_rng(inst, "trace-roundtrip");
  Rng sample_rng = rng.fork();
  const std::size_t epochs = 5 + rng.index(20);
  const failures::FailureTrace first =
      failures::FailureTrace::record(inst.model, epochs, sample_rng);
  const failures::FailureTrace second =
      failures::FailureTrace::record(inst.model, 3, sample_rng);

  std::stringstream stream;
  first.write(stream);
  const failures::FailureTrace reread = failures::FailureTrace::read(stream);
  if (!(reread == first)) {
    return CheckResult::fail("trace changed across write/read");
  }

  const failures::FailureTrace joined =
      failures::FailureTrace::concatenate({first, second});
  if (joined.epoch_count() != first.epoch_count() + second.epoch_count()) {
    return CheckResult::fail("concatenate lost epochs");
  }
  for (std::size_t i = 0; i < joined.epoch_count(); ++i) {
    const failures::FailureVector& expected =
        i < first.epoch_count() ? first.epoch(i)
                                : second.epoch(i - first.epoch_count());
    if (joined.epoch(i) != expected) {
      return CheckResult::fail("concatenate scrambled epoch " +
                               std::to_string(i));
    }
  }
  std::stringstream joined_stream;
  joined.write(joined_stream);
  if (!(failures::FailureTrace::read(joined_stream) == joined)) {
    return CheckResult::fail("concatenated trace changed across write/read");
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 12. Workload-cache eviction and re-admission keep ProbBound bitwise
//     stable (the service's er-eval memoization).
// --------------------------------------------------------------------------

CheckResult check_workload_cache_eviction(const TestInstance& inst,
                                          const FaultPlan&) {
  Rng rng = check_rng(inst, "workload-cache-eviction");
  service::WorkloadKey key;
  key.topology = "";  // custom build path
  key.nodes = 20;
  key.links = 40;
  key.candidate_paths = 12;
  key.seed = 1 + rng.index(1000);
  key.intensity = 5.0;
  key.unit_costs = false;
  service::WorkloadKey other = key;
  other.seed = key.seed + 1;

  service::WorkloadCache cache(1);
  const auto first = cache.get(key);
  const std::vector<std::size_t> subset =
      random_subset(rng, first->workload.system->path_count());
  const double cached = first->prob_bound.evaluate(subset);

  cache.get(other);  // capacity 1: evicts `key`
  const auto readmitted = cache.get(key);
  if (readmitted == first) {
    return CheckResult::fail("cache returned the evicted entry");
  }
  const double rebuilt = readmitted->prob_bound.evaluate(subset);
  if (rebuilt != cached) {
    return CheckResult::fail("ProbBound changed across eviction: " +
                             fmt(cached) + " vs rebuilt " + fmt(rebuilt));
  }

  // And against a build that never touched the cache.
  const exp::Workload fresh = exp::make_custom_workload(
      key.nodes, key.links, key.candidate_paths, key.seed, key.intensity,
      key.unit_costs);
  const core::ProbBoundEr fresh_engine(*fresh.system, *fresh.failures);
  const double uncached = fresh_engine.evaluate(subset);
  if (uncached != cached) {
    return CheckResult::fail("cached ProbBound " + fmt(cached) +
                             " differs bitwise from a fresh build " +
                             fmt(uncached));
  }
  if (cache.counters().evictions == 0) {
    return CheckResult::fail("cache reported no evictions at capacity 1");
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// 13. The bit-packed kernel engine is a faithful twin of the scenario
// engine: exact per-scenario integer ranks, bitwise-equal evaluate paths,
// and accumulator gains/values within tolerance over a shuffled greedy run.
// --------------------------------------------------------------------------

CheckResult check_kernel_matches_scenario(const TestInstance& inst,
                                          const FaultPlan&) {
  Rng rng = check_rng(inst, "kernel-matches-scenario");
  Rng mc_rng = rng.fork();
  // Odd scenario count so chunking never divides evenly; the exact engine
  // adds a zero-weight-rich mixture over the full 2^links space.
  const core::MonteCarloEr mc(inst.system, inst.model, 33, mc_rng);
  const core::ExactEr exact(inst.system, inst.model);

  for (const core::ScenarioErEngine* engine :
       {static_cast<const core::ScenarioErEngine*>(&mc),
        static_cast<const core::ScenarioErEngine*>(&exact)}) {
    const core::KernelErEngine kernel(inst.system, engine->scenarios(),
                                      engine->weights(), engine->name());
    const std::vector<std::vector<std::size_t>> subsets = {
        all_paths(inst), random_subset(rng, inst.path_count())};
    for (const auto& subset : subsets) {
      // Exact per-scenario rank equality against the production float path.
      const auto ranks = kernel.scenario_ranks(subset);
      for (std::size_t s = 0; s < ranks.size(); ++s) {
        const std::size_t oracle =
            inst.system.surviving_rank(subset, engine->scenarios()[s]);
        if (ranks[s] != oracle) {
          return CheckResult::fail(
              engine->name() + " scenario " + std::to_string(s) +
              ": kernel rank " + std::to_string(ranks[s]) +
              " != elimination rank " + std::to_string(oracle));
        }
      }
      // Bitwise-equal ER, serial and for every thread count.
      const double reference = engine->evaluate(subset);
      const double serial = kernel.evaluate(subset);
      if (serial != reference) {
        return CheckResult::fail(engine->name() + " kernel evaluate " +
                                 fmt(serial) + " differs bitwise from " +
                                 fmt(reference));
      }
      for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                        std::size_t{3}, std::size_t{5}}) {
        const double parallel = kernel.evaluate_parallel(subset, threads);
        if (parallel != reference) {
          return CheckResult::fail(
              engine->name() + " kernel evaluate_parallel(threads=" +
              std::to_string(threads) + ") = " + fmt(parallel) +
              " differs bitwise from " + fmt(reference));
        }
      }
    }

    // Accumulator twins over a shuffled greedy trajectory: gains for every
    // candidate before each add, value after each add, both within kTol
    // (class-merged weights reorder the scenario sum).
    auto scenario_acc = engine->make_accumulator();
    auto kernel_acc = kernel.make_accumulator();
    std::vector<std::size_t> order = all_paths(inst);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    for (const std::size_t path : order) {
      for (std::size_t q = 0; q < inst.path_count(); ++q) {
        const double sg = scenario_acc->gain(q);
        const double kg = kernel_acc->gain(q);
        if (std::abs(sg - kg) > kTol) {
          return CheckResult::fail(
              engine->name() + " gain(" + std::to_string(q) + ") drift: " +
              fmt(sg) + " (scenario) vs " + fmt(kg) + " (kernel)");
        }
      }
      scenario_acc->add(path);
      kernel_acc->add(path);
      if (std::abs(scenario_acc->value() - kernel_acc->value()) > kTol) {
        return CheckResult::fail(engine->name() + " accumulator value drift: " +
                                 fmt(scenario_acc->value()) + " vs " +
                                 fmt(kernel_acc->value()));
      }
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 14. The service's line protocol survives hostile bytes and round-trips
//     well-formed traffic exactly.
// --------------------------------------------------------------------------

CheckResult check_protocol_framing(const TestInstance& inst,
                                   const FaultPlan&) {
  Rng rng = check_rng(inst, "protocol-framing");

  // Byte soup: whatever arrives on the wire, the parsers either parse it
  // or throw std::invalid_argument — never any other escape (the TCP
  // reader turns invalid_argument into a structured error reply; anything
  // else would tear the connection down, or worse).
  auto probe = [](const std::string& line) -> const char* {
    try {
      (void)service::parse_request(line);
    } catch (const std::invalid_argument&) {
    } catch (...) {
      return "parse_request";
    }
    try {
      (void)service::parse_response(line);
    } catch (const std::invalid_argument&) {
    } catch (...) {
      return "parse_response";
    }
    return nullptr;
  };
  for (int round = 0; round < 64; ++round) {
    std::string line;
    const std::size_t len = rng.index(80);
    for (std::size_t i = 0; i < len; ++i) {
      // In-line bytes only: '\n' would already have split the frame.
      char c;
      do {
        c = static_cast<char>(rng.index(256));
      } while (c == '\n');
      line.push_back(c);
    }
    if (const char* parser = probe(line)) {
      return CheckResult::fail(std::string(parser) +
                               " escaped a non-invalid_argument exception "
                               "on byte soup (len " +
                               std::to_string(line.size()) + ")");
    }
  }

  // Single-byte corruption of a well-formed request must stay inside the
  // same contract.
  service::Request request;
  request.type = service::RequestType::kErEval;
  request.params = {{"subset", std::to_string(rng.index(inst.path_count()))},
                    {"scenarios", std::to_string(1 + rng.index(1000))},
                    {"seed", "0"},
                    {"paths", std::to_string(inst.path_count())}};
  const std::string wire = service::format_request(request);
  for (int round = 0; round < 32; ++round) {
    std::string mutated = wire;
    char c;
    do {
      c = static_cast<char>(rng.index(256));
    } while (c == '\n');
    mutated[rng.index(mutated.size())] = c;
    if (const char* parser = probe(mutated)) {
      return CheckResult::fail(std::string(parser) +
                               " escaped a non-invalid_argument exception "
                               "on corrupted request '" +
                               mutated + "'");
    }
  }

  // The clean line round-trips exactly.
  const service::Request back = service::parse_request(wire);
  if (back.type != request.type || back.params != request.params) {
    return CheckResult::fail("request changed across format/parse: " + wire);
  }

  // Replies carry doubles bitwise (a service answer must equal the
  // one-shot CLI answer bit for bit).
  service::Response response;
  response.set("er", inst.link_probs.empty() ? rng.uniform()
                                             : inst.link_probs[0]);
  response.set("tiny", 0x1.fffffffffffffp-1022);
  response.set("count", inst.path_count());
  const service::Response rback =
      service::parse_response(service::format_response(response));
  if (!rback.ok || rback.number("er") != response.number("er") ||
      rback.number("tiny") != response.number("tiny")) {
    return CheckResult::fail("response doubles not bitwise across the wire");
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 15. Zero-noise inference recovers ground truth exactly on the
//     identifiable links (the end-to-end loop's correctness anchor).
// --------------------------------------------------------------------------

CheckResult check_inference_roundtrip(const TestInstance& inst,
                                      const FaultPlan&) {
  Rng rng = check_rng(inst, "inference-roundtrip");
  const std::vector<std::size_t> subset =
      random_subset(rng, inst.path_count());
  // One scenario from the instance's own failure family, shared by both
  // measurement models so a failing repro pins a single surviving system.
  const failures::FailureVector scenario = inst.model.sample(rng);

  infer::SolveOptions options;
  options.cgls.tolerance = 1e-13;  // Noise-free ⇒ consistent: push CGLS
                                   // well below the 1e-9 comparison.
  for (const infer::MeasurementModel model :
       {infer::MeasurementModel::kDelay, infer::MeasurementModel::kLoss}) {
    const infer::GroundTruth truth =
        infer::draw_ground_truth(model, inst.link_count(), rng);
    const infer::Observations obs = infer::synthesize_observations(
        inst.system, subset, truth, scenario, /*noise_std=*/0.0, rng);
    const infer::ScenarioSolution solution =
        infer::solve_scenario(inst.system, obs, model, options);
    for (const std::size_t link : solution.identifiable) {
      const double got = solution.natural[link];
      const double want = truth.natural[link];
      if (std::abs(got - want) > kTol) {
        return CheckResult::fail(
            std::string(infer::to_string(model)) + " model: link " +
            std::to_string(link) + " identifiable from " +
            std::to_string(obs.rows.size()) +
            " surviving rows but estimate " + fmt(got) + " != truth " +
            fmt(want));
      }
    }
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 16. The optimizer zoo against the exact oracle: branch-and-bound equals
//     the exhaustive enumeration decision for decision, lazy greedy is
//     bitwise identical to the eager scan, and every selector clears the
//     (1 - 1/sqrt(e)) guarantee.  All parties score subsets through the
//     TableEngine so selections compare exactly, not within a tolerance.
// --------------------------------------------------------------------------

CheckResult check_optimizer_bounds(const TestInstance& inst,
                                   const FaultPlan&) {
  Rng rng = check_rng(inst, "optimizer-bounds");
  const double budget = rng.uniform(0.3, 0.8) * total_cost(inst);
  const ExhaustiveErTable table(inst);
  const TableEngine engine(table);

  // Branch-and-bound must reproduce the enumeration oracle exactly, both
  // self-bounded (monotone objective as its own admissible bound) and
  // with the paper's ProbBound as the pruning bound.
  const OracleSelection opt = exhaustive_best_selection(inst, budget);
  const core::ProbBoundEr prob_bound(inst.system, inst.model);
  core::SelectorOptions bb_options;
  for (const bool use_prob_bound : {false, true}) {
    bb_options.bound_engine = use_prob_bound ? &prob_bound : nullptr;
    const core::Selection exact =
        core::make_selector("branch-and-bound", bb_options)
            ->select(inst.system, inst.costs, budget, engine);
    if (exact.paths != opt.paths || exact.objective != opt.objective) {
      return CheckResult::fail(
          std::string("branch-and-bound (") +
          (use_prob_bound ? "ProbBound" : "self") + " bound) diverged from "
          "the enumeration oracle: got " + std::to_string(exact.size()) +
          " paths objective " + fmt(exact.objective) + " vs oracle " +
          std::to_string(opt.paths.size()) + " paths objective " +
          fmt(opt.objective) + " at budget " + fmt(budget));
    }
  }

  // Lazy greedy (CELF) must be bitwise identical to the eager scan while
  // the other zoo members clear the (1 - 1/sqrt(e)) guarantee against
  // the exact optimum.
  core::SelectorStats eager_stats;
  const core::Selection eager =
      core::make_selector("eager")->select(inst.system, inst.costs, budget,
                                           engine, &eager_stats);
  const core::Selection lazy =
      core::make_selector("lazy-greedy")
          ->select(inst.system, inst.costs, budget, engine);
  if (lazy.paths != eager.paths || lazy.objective != eager.objective ||
      lazy.cost != eager.cost) {
    return CheckResult::fail(
        "lazy greedy not bitwise identical to eager RoMe: lazy objective " +
        fmt(lazy.objective) + " cost " + fmt(lazy.cost) +
        " vs eager objective " + fmt(eager.objective) + " cost " +
        fmt(eager.cost) + " at budget " + fmt(budget));
  }

  const double factor = 1.0 - 1.0 / std::sqrt(std::numbers::e);
  core::SelectorOptions zoo_options;
  zoo_options.seed = rng.next_word();
  zoo_options.sample_size = inst.path_count();  // Full sample: the
                                                // stochastic round scan is
                                                // the eager scan, so the
                                                // guarantee applies.
  for (const char* name : {"rome", "eager", "lazy-greedy",
                           "stochastic-greedy", "local-search"}) {
    const core::Selection sel =
        core::make_selector(name, zoo_options)
            ->select(inst.system, inst.costs, budget, engine);
    if (sel.cost > budget + kTol) {
      return CheckResult::fail(std::string(name) + " exceeded the budget: " +
                               fmt(sel.cost) + " vs " + fmt(budget));
    }
    const double achieved = engine.evaluate(sel.paths);
    if (achieved < factor * opt.objective - kTol) {
      return CheckResult::fail(
          std::string(name) + " broke the greedy guarantee: achieved " +
          fmt(achieved) + " vs " + fmt(factor) + " * " + fmt(opt.objective) +
          " optimum at budget " + fmt(budget));
    }
  }

  // Small-sample stochastic greedy has no per-instance guarantee; it must
  // still be deterministic given the seed and stay within budget.
  zoo_options.sample_size = 2;
  const core::Selection s1 =
      core::make_selector("stochastic-greedy", zoo_options)
          ->select(inst.system, inst.costs, budget, engine);
  const core::Selection s2 =
      core::make_selector("stochastic-greedy", zoo_options)
          ->select(inst.system, inst.costs, budget, engine);
  if (s1.paths != s2.paths || s1.objective != s2.objective) {
    return CheckResult::fail(
        "stochastic greedy not deterministic at fixed seed " +
        std::to_string(zoo_options.seed));
  }
  if (s1.cost > budget + kTol) {
    return CheckResult::fail("stochastic greedy exceeded the budget: " +
                             fmt(s1.cost) + " vs " + fmt(budget));
  }
  return CheckResult::ok();
}

// --------------------------------------------------------------------------
// 17. The scenario-sliced kernel is a faithful twin at every layer:
// per-scenario integer ranks equal the elimination oracle, sliced and
// scalar kernels produce bitwise-identical ER and accumulator
// trajectories, and the standalone sliced_ranks driver agrees between its
// exact-oracle and float fallback tiers on a forced-scalar lane.
// --------------------------------------------------------------------------

CheckResult check_sliced_matches_scenario(const TestInstance& inst,
                                          const FaultPlan& fault) {
  Rng rng = check_rng(inst, "sliced-matches-scenario");
  Rng mc_rng = rng.fork();
  // 65 scenarios straddles the 64-lane word boundary, so every sweep runs
  // one full slice plus a one-lane tail.  The failure family under test
  // is whatever the instance spec drew, so over a fuzz run this covers
  // all of them.
  const core::MonteCarloEr mc(inst.system, inst.model, 65, mc_rng);

  core::KernelErEngine sliced(inst.system, mc.scenarios(), mc.weights(),
                              mc.name());
  sliced.set_kernel_mode(core::KernelMode::kSliced);
  core::KernelErEngine scalar(inst.system, mc.scenarios(), mc.weights(),
                              mc.name());
  scalar.set_kernel_mode(core::KernelMode::kScalar);

  const std::vector<std::vector<std::size_t>> subsets = {
      all_paths(inst), random_subset(rng, inst.path_count())};
  for (const auto& subset : subsets) {
    // Integer per-scenario ranks against the elimination oracle.
    const auto ranks = sliced.scenario_ranks(subset);
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      const std::size_t oracle =
          inst.system.surviving_rank(subset, mc.scenarios()[s]);
      if (ranks[s] != oracle) {
        return CheckResult::fail(
            "scenario " + std::to_string(s) + ": sliced rank " +
            std::to_string(ranks[s]) + " != elimination rank " +
            std::to_string(oracle));
      }
    }
    // Bitwise ER across all three engines (the fault hook inflates the
    // sliced value so an injected defect must be caught and shrunk).
    const double reference = mc.evaluate(subset);
    const double scalar_er = scalar.evaluate(subset);
    const double sliced_er =
        sliced.evaluate(subset) + fault.sliced_er_inflate;
    if (sliced_er != scalar_er) {
      return CheckResult::fail("sliced evaluate " + fmt(sliced_er) +
                               " differs bitwise from scalar kernel " +
                               fmt(scalar_er));
    }
    if (sliced_er != reference) {
      return CheckResult::fail("sliced evaluate " + fmt(sliced_er) +
                               " differs bitwise from scenario engine " +
                               fmt(reference));
    }
    for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
      const double parallel = sliced.evaluate_parallel(subset, threads);
      if (parallel != reference) {
        return CheckResult::fail(
            "sliced evaluate_parallel(threads=" + std::to_string(threads) +
            ") = " + fmt(parallel) + " differs bitwise from " +
            fmt(reference));
      }
    }
  }

  // Accumulator twins over one shuffled greedy trajectory: sliced gains
  // and values are bitwise the scalar kernel's and within kTol of the
  // scenario engine's (class-merged weights reorder that sum).
  auto scenario_acc = mc.make_accumulator();
  auto scalar_acc = scalar.make_accumulator();
  auto sliced_acc = sliced.make_accumulator();
  std::vector<std::size_t> order = all_paths(inst);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  for (const std::size_t path : order) {
    for (std::size_t q = 0; q < inst.path_count(); ++q) {
      const double kg = scalar_acc->gain(q);
      const double sg = sliced_acc->gain(q);
      if (sg != kg) {
        return CheckResult::fail("gain(" + std::to_string(q) +
                                 "): sliced " + fmt(sg) +
                                 " differs bitwise from scalar " + fmt(kg));
      }
      if (std::abs(sg - scenario_acc->gain(q)) > kTol) {
        return CheckResult::fail("gain(" + std::to_string(q) +
                                 "): sliced " + fmt(sg) + " drifts from "
                                 "scenario engine " +
                                 fmt(scenario_acc->gain(q)));
      }
    }
    scenario_acc->add(path);
    scalar_acc->add(path);
    sliced_acc->add(path);
    if (sliced_acc->value() != scalar_acc->value()) {
      return CheckResult::fail(
          "accumulator value: sliced " + fmt(sliced_acc->value()) +
          " differs bitwise from scalar " + fmt(scalar_acc->value()));
    }
    if (std::abs(sliced_acc->value() - scenario_acc->value()) > kTol) {
      return CheckResult::fail(
          "accumulator value: sliced " + fmt(sliced_acc->value()) +
          " drifts from scenario engine " + fmt(scenario_acc->value()));
    }
  }

  // Standalone driver: the exact-oracle and float fallback tiers must
  // agree instance for instance, including on a forced 64-bit lane.
  linalg::BitRows rows(inst.link_count());
  for (std::size_t p = 0; p < inst.path_count(); ++p) {
    rows.append_indices(inst.system.path(p).links);
  }
  const std::size_t instances = mc.scenarios().size();
  const std::size_t stride = (instances + 63) / 64;
  std::vector<std::uint64_t> alive(inst.path_count() * stride, 0);
  for (std::size_t p = 0; p < inst.path_count(); ++p) {
    for (std::size_t s = 0; s < instances; ++s) {
      if (inst.system.path_survives(p, mc.scenarios()[s])) {
        alive[p * stride + s / 64] |= std::uint64_t{1} << (s % 64);
      }
    }
  }
  const auto exact_tier =
      linalg::sliced_ranks(rows, alive, instances, linalg::SliceLane::kAuto,
                           linalg::SlicedFallback::kExact);
  const auto float_tier = linalg::sliced_ranks(
      rows, alive, instances, linalg::SliceLane::kScalar64,
      linalg::SlicedFallback::kFloat);
  for (std::size_t s = 0; s < instances; ++s) {
    if (exact_tier[s] != float_tier[s]) {
      return CheckResult::fail(
          "sliced_ranks instance " + std::to_string(s) + ": exact tier " +
          std::to_string(exact_tier[s]) + " != float tier " +
          std::to_string(float_tier[s]));
    }
  }
  return CheckResult::ok();
}

/// Pseudo-node grouping of the instance's links, derived from the check
/// Rng alone so a shrunken instance re-derives its own grouping: link l
/// belongs to group l mod groups, every group non-empty.
std::vector<boolnt::Component> pseudo_node_components(std::size_t links,
                                                      Rng& rng) {
  const std::size_t groups = std::min<std::size_t>(2 + rng.index(3), links);
  std::vector<boolnt::Component> comps(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    comps[g].label = "g" + std::to_string(g);
  }
  for (std::size_t l = 0; l < links; ++l) {
    comps[l % groups].links.push_back(static_cast<std::uint32_t>(l));
  }
  return comps;
}

CheckResult check_node_localization(const TestInstance& inst,
                                    const FaultPlan&) {
  Rng rng = check_rng(inst, "node-localization");
  const std::size_t links = inst.link_count();
  // Two hypothesis spaces: singleton links (multi-link localization) and
  // pseudo-node groups (node localization without needing a graph).
  std::vector<boolnt::HypothesisSpace> spaces;
  spaces.push_back(boolnt::HypothesisSpace::links_of(links));
  spaces.emplace_back(links, pseudo_node_components(links, rng));
  for (const boolnt::HypothesisSpace& space : spaces) {
    if (space.component_count() > 20) continue;  // Oracle guard.
    std::vector<std::vector<std::uint32_t>> component_links;
    for (const boolnt::Component& c : space.components()) {
      component_links.push_back(c.links);
    }
    const std::size_t k = std::min<std::size_t>(3, space.component_count());
    const std::vector<std::vector<std::size_t>> subsets = {
        all_paths(inst), random_subset(rng, inst.path_count())};
    for (const auto& subset : subsets) {
      for (std::size_t trial = 0; trial < 6; ++trial) {
        // Even trials inject a component truth; odd trials feed an
        // arbitrary sampled scenario, which the localizer must explain
        // (or reject) exactly like the brute-force oracle.
        failures::FailureVector v;
        if (trial % 2 == 0) {
          const std::size_t j = 1 + rng.index(k);
          std::vector<std::uint32_t> truth;
          for (const std::size_t c :
               rng.sample_without_replacement(space.component_count(), j)) {
            truth.push_back(static_cast<std::uint32_t>(c));
          }
          v = space.failure_vector(truth);
        } else {
          v = inst.model.sample(rng);
        }
        const boolnt::MultiLocalizationResult result =
            boolnt::localize_multi_failure(inst.system, subset, v, space, k,
                                           100000);
        if (result.truncated) continue;
        const auto oracle = oracle_multi_localization(
            inst, subset, component_links, v, k);
        if (result.candidates != oracle) {
          return CheckResult::fail(
              "localize_multi_failure (" +
              std::to_string(space.component_count()) + " components, k=" +
              std::to_string(k) + ", " + std::to_string(subset.size()) +
              " probes): " + std::to_string(result.candidates.size()) +
              " candidates != oracle's " + std::to_string(oracle.size()));
        }
      }
      // Identifiability is integer work: every thread count must produce
      // the identical report.
      const auto rep1 = boolnt::identifiability_report(inst.system, subset,
                                                       space, k, 1);
      const auto rep4 = boolnt::identifiability_report(inst.system, subset,
                                                       space, k, 4);
      if (rep1.max_identifiable != rep4.max_identifiable ||
          rep1.per_component != rep4.per_component ||
          rep1.k_cap != rep4.k_cap) {
        return CheckResult::fail(
            "identifiability_report differs across thread counts");
      }
      // Ma–He semantics: when the whole cap is identifiable, every truth
      // of size <= cap must localize to itself uniquely.
      if (rep1.k_cap >= 1 && rep1.max_identifiable >= rep1.k_cap) {
        for (std::size_t size = 1; size <= rep1.k_cap; ++size) {
          std::vector<std::uint32_t> truth;
          for (const std::size_t c : rng.sample_without_replacement(
                   space.component_count(), size)) {
            truth.push_back(static_cast<std::uint32_t>(c));
          }
          std::sort(truth.begin(), truth.end());
          const auto result = boolnt::localize_multi_failure(
              inst.system, subset, space.failure_vector(truth), space,
              rep1.k_cap, 100000);
          if (result.candidates !=
              std::vector<std::vector<std::uint32_t>>{truth}) {
            return CheckResult::fail(
                "max_identifiable=" + std::to_string(rep1.max_identifiable) +
                " but a size-" + std::to_string(size) +
                " truth did not localize uniquely");
          }
        }
      }
    }
  }
  return CheckResult::ok();
}

CheckResult check_family_engines_agree(const TestInstance& inst,
                                       const FaultPlan&) {
  Rng rng = check_rng(inst, "family-engines-agree");
  const std::size_t links = inst.link_count();
  // Both correlated families are derived from the instance alone (link
  // groups as pseudo-nodes, co-path occurrence as adjacency) so shrunken
  // instances re-derive theirs.
  std::vector<std::unique_ptr<failures::ScenarioFamily>> families;
  {
    std::vector<std::vector<std::uint32_t>> node_links;
    for (boolnt::Component& c : pseudo_node_components(links, rng)) {
      node_links.push_back(std::move(c.links));
    }
    std::vector<double> node_probs(node_links.size());
    for (double& x : node_probs) x = rng.uniform(0.05, 0.3);
    families.push_back(std::make_unique<failures::NodeFailureModel>(
        inst.model, std::move(node_links), std::move(node_probs)));
  }
  families.push_back(std::make_unique<failures::CascadeModel>(
      inst.model, failures::link_adjacency_from_paths(inst.path_links, links),
      rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.8)));

  for (const auto& family : families) {
    // Full-distribution sanity on small instances: the enumeration is a
    // probability distribution and reproduces the closed-form marginals.
    if (links <= 10) {
      const auto mix = failures::exact_mixture(*family, 24);
      double total = 0.0;
      std::vector<double> marginal(links, 0.0);
      for (std::size_t s = 0; s < mix.scenarios.size(); ++s) {
        total += mix.weights[s];
        for (std::size_t l = 0; l < links; ++l) {
          if (mix.scenarios[s][l]) marginal[l] += mix.weights[s];
        }
      }
      if (std::abs(total - 1.0) > kTol) {
        return CheckResult::fail(family->name() +
                                 " enumeration mass sums to " + fmt(total));
      }
      const failures::FailureModel closed = family->marginal_model();
      for (std::size_t l = 0; l < links; ++l) {
        if (std::abs(marginal[l] - closed.probability(l)) > kTol) {
          return CheckResult::fail(
              family->name() + " marginal of link " + std::to_string(l) +
              ": enumerated " + fmt(marginal[l]) + " != closed form " +
              fmt(closed.probability(l)));
        }
      }
    }

    // The same Monte Carlo mixture through all three engines: 65
    // scenarios straddles the 64-lane word boundary.
    Rng mc_rng = rng.fork();
    const auto mix = failures::monte_carlo_mixture(*family, 65, mc_rng);
    const core::ScenarioErEngine scenario(inst.system, mix.scenarios,
                                          mix.weights, family->name());
    core::KernelErEngine sliced(inst.system, mix.scenarios, mix.weights,
                                family->name());
    sliced.set_kernel_mode(core::KernelMode::kSliced);
    core::KernelErEngine scalar(inst.system, mix.scenarios, mix.weights,
                                family->name());
    scalar.set_kernel_mode(core::KernelMode::kScalar);

    const std::vector<std::vector<std::size_t>> subsets = {
        all_paths(inst), random_subset(rng, inst.path_count())};
    for (const auto& subset : subsets) {
      const auto ranks = sliced.scenario_ranks(subset);
      for (std::size_t s = 0; s < ranks.size(); ++s) {
        const std::size_t oracle =
            inst.system.surviving_rank(subset, mix.scenarios[s]);
        if (ranks[s] != oracle) {
          return CheckResult::fail(family->name() + " scenario " +
                                   std::to_string(s) + ": sliced rank " +
                                   std::to_string(ranks[s]) +
                                   " != elimination rank " +
                                   std::to_string(oracle));
        }
      }
      const double reference = scenario.evaluate(subset);
      if (scalar.evaluate(subset) != reference ||
          sliced.evaluate(subset) != reference) {
        return CheckResult::fail(family->name() +
                                 ": kernel ER differs bitwise from the "
                                 "scenario engine");
      }
      for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
        if (sliced.evaluate_parallel(subset, threads) != reference ||
            scenario.evaluate_parallel(subset, threads) != reference) {
          return CheckResult::fail(
              family->name() + ": evaluate_parallel(threads=" +
              std::to_string(threads) + ") differs bitwise from serial");
        }
      }
    }

    // Greedy accumulator trajectory: sliced gains/values are bitwise the
    // scalar kernel's and within kTol of the scenario engine's.
    auto scenario_acc = scenario.make_accumulator();
    auto scalar_acc = scalar.make_accumulator();
    auto sliced_acc = sliced.make_accumulator();
    std::vector<std::size_t> order = all_paths(inst);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    for (const std::size_t path : order) {
      for (std::size_t q = 0; q < inst.path_count(); ++q) {
        const double sg = sliced_acc->gain(q);
        if (sg != scalar_acc->gain(q)) {
          return CheckResult::fail(family->name() + " gain(" +
                                   std::to_string(q) +
                                   "): sliced differs bitwise from scalar");
        }
        if (std::abs(sg - scenario_acc->gain(q)) > kTol) {
          return CheckResult::fail(family->name() + " gain(" +
                                   std::to_string(q) +
                                   "): kernel drifts from scenario engine");
        }
      }
      scenario_acc->add(path);
      scalar_acc->add(path);
      sliced_acc->add(path);
      if (sliced_acc->value() != scalar_acc->value() ||
          std::abs(sliced_acc->value() - scenario_acc->value()) > kTol) {
        return CheckResult::fail(family->name() +
                                 ": accumulator value diverges");
      }
    }
  }
  return CheckResult::ok();
}

const std::vector<Check>& all_checks() {
  static const std::vector<Check> checks = {
      {"er-monotone-submodular",
       "exhaustive ER is monotone with non-increasing marginal gains", 1,
       true, check_er_monotone_submodular},
      {"probbound-dominates-er",
       "ProbBound >= exhaustive ER, tight on independent sets", 1, true,
       check_probbound_dominates_er},
      {"matrome-optimal",
       "MatRoMe equals the exhaustive unit-cost matroid optimum", 1, true,
       check_matrome_optimal},
      {"parallel-matches-serial",
       "evaluate_parallel is bitwise identical to serial for any thread "
       "count",
       1, true, check_parallel_matches_serial},
      {"exact-engine-matches-oracle",
       "core::ExactEr matches independent failure-vector enumeration", 2,
       true, check_exact_engine_matches_oracle},
      {"rome-approximation",
       "RoMe achieves (1 - 1/sqrt(e)) of the exhaustive budgeted optimum",
       4, true, check_rome_approximation},
      {"rank-oracles-agree",
       "elimination, QR, sparse, incremental and naive ranks agree", 1,
       true, check_rank_oracles_agree},
      {"incremental-basis-reduction",
       "dependency tracking reconstructs dependent rows exactly", 1, true,
       check_incremental_basis_reduction},
      {"warm-equals-cold-replan",
       "cold replan == core::rome; warm replan loses nothing when the "
       "distribution is unchanged",
       2, true, check_warm_equals_cold_replan},
      {"probbound-accumulator-consistent",
       "ProbBound accumulator gains/value track evaluate()", 1, true,
       check_probbound_accumulator_consistent},
      {"trace-roundtrip",
       "FailureTrace write/read/concatenate round-trips exactly", 1, true,
       check_trace_roundtrip},
      {"workload-cache-eviction",
       "service ProbBound bitwise stable across cache eviction and "
       "re-admission",
       32, false, check_workload_cache_eviction},
      {"kernel-matches-scenario",
       "bit-packed kernel engine: exact scenario ranks, bitwise ER, "
       "accumulator gains within 1e-9 of the scenario engine",
       1, true, check_kernel_matches_scenario},
      {"sliced-matches-scenario",
       "scenario-sliced kernel: oracle scenario ranks, bitwise ER and "
       "gains vs the scalar kernel, exact and float fallback tiers agree",
       1, true, check_sliced_matches_scenario},
      {"protocol-framing",
       "hostile bytes never escape the line parsers; well-formed "
       "requests and doubles round-trip exactly",
       1, true, check_protocol_framing},
      {"inference-roundtrip",
       "zero-noise inference matches ground truth to 1e-9 on every "
       "identifiable link, for both measurement models",
       1, true, check_inference_roundtrip},
      {"optimizer-bounds",
       "branch-and-bound equals the enumeration oracle, lazy greedy is "
       "bitwise eager RoMe, every selector clears (1 - 1/sqrt(e))",
       4, true, check_optimizer_bounds},
      {"node-localization",
       "multi-failure Boolean localization equals the brute-force "
       "hitting-set oracle; identifiability reports are thread-invariant "
       "and imply unique localization",
       2, true, check_node_localization},
      {"family-engines-agree",
       "node/cascade families: enumeration mass and marginals check out, "
       "scenario/kernel-scalar/kernel-sliced ER bitwise identical across "
       "engines and thread counts",
       2, true, check_family_engines_agree},
  };
  return checks;
}

const Check* find_check(const std::string& name) {
  for (const Check& c : all_checks()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace rnt::testkit
